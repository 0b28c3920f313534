"""Each benchmark workload in ``perfbench/workloads.py`` runs once at its
reference seed, passes its correctness gate and reproduces the fingerprint
recorded in ``perfbench/reference.json`` within that entry's tolerance.

The benchmark files are loaded by path and only read, so a change that
breaks a workload fails here, in the fast tier, before the benchmark runs.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from gsvgd import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    """``perfbench/workloads.py`` as a module (it is not a package)."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # dataclass looks its defining module up in sys.modules.
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


workloads = load_workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_gate_and_fingerprint(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    config = workloads.make_inputs(workload, workloads.REFERENCE_SEED,
                                   str(tmp_path / "inputs"))
    with open(config, encoding="utf-8") as fh:
        cfg = cli.parse_config(fh.read())
    out = str(tmp_path / "out")
    summary = cli.run_experiment(cfg, output_dir=out)
    result = workloads.gate(workload, summary, out)
    assert result["problems"] == []
    ref = REFERENCE[name]
    assert ref["iters"] == workload.iters
    assert ref["seed"] == workloads.REFERENCE_SEED
    err = workloads.fingerprint_error(result["fingerprint"],
                                      ref["fingerprint"])
    assert err <= ref["tol"], (err, ref["tol"])
