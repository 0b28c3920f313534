"""The README's library example runs as written, and its Layout table
names every module of the package."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.strip().strip("[]").split()
    # The example starts from exact samples of N((1, -1), cov), so the
    # theta mean stays near the target mean.
    np.testing.assert_allclose([float(v) for v in printed], [1.0, -1.0],
                               atol=0.25)


def test_layout_names_every_module():
    text = README.read_text(encoding="utf-8")
    layout = text[text.index("## Layout"):]
    layout = layout[:layout.index("\n## ", 1)]
    listed = set(re.findall(r"^\| `gsvgd\.(\w+)`", layout, re.M))
    src = README.parent / "src" / "gsvgd"
    modules = {p.stem for p in src.glob("*.py")} - {"__init__"}
    assert listed == modules
