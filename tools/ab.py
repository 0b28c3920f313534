"""In-process paired A/B of two trees of the ``gsvgd`` package.

Usage, from the repository root::

    python3 tools/ab.py BASE_REF [HEAD_REF] --workload NAME --seed N --rounds R

``src/gsvgd`` of each ref is copied into a temporary directory under its own
package name (``git archive`` for a ref; the working tree when ``HEAD_REF``
is omitted), so both trees import into one process through the package's
relative imports.  The inputs of workload ``NAME`` at seed ``N`` come from
``perfbench/workloads.make_inputs``.

One child process runs per import order: base imported first, then head
imported first, since the tree imported first runs a few percent faster.
Each child makes one untimed warm-up run of each tree, then ``R`` rounds;
a round times one ``cli.run_experiment`` of each tree, and which tree runs
first alternates round by round.  For each order the script prints the
median head/base ratio of the per-round times with its quartiles (below 1
means head is faster), the rounds head won, and whether the two trees wrote
byte-identical ``trace.csv`` and snapshots and the same ``initial``,
``final`` and ``status`` in ``summary.json``.  OpenBLAS runs on one thread,
as in ``perfbench/run.py``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
NAMES = {"base": "gsvgd_base", "head": "gsvgd_head"}


def extract(ref: str | None, dest: Path) -> None:
    """``src/gsvgd`` of ``ref`` (the working tree for None) as ``dest``."""
    if ref is None:
        shutil.copytree(ROOT / "src" / "gsvgd", dest,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          ref, "src/gsvgd"], check=True,
                         capture_output=True).stdout
    with tempfile.TemporaryDirectory(dir=dest.parent) as tmp:
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(tmp, filter="data")
        shutil.move(os.path.join(tmp, "src", "gsvgd"), dest)


def outputs(out_dir: Path) -> dict:
    """Bytes of ``trace.csv`` and every snapshot, and the summary's run
    results (its config names the output directory, so it is not compared
    whole)."""
    files = {"trace.csv": (out_dir / "trace.csv").read_bytes()}
    for snap in sorted((out_dir / "snapshots").iterdir()):
        files[f"snapshots/{snap.name}"] = snap.read_bytes()
    summary = json.loads((out_dir / "summary.json").read_text())
    files["summary.json"] = json.dumps(
        {k: summary.get(k) for k in ("initial", "final", "status")},
        sort_keys=True).encode()
    return files


def child(work: Path, first: str, workload: str, seed: int,
          rounds: int) -> dict:
    """Rounds of both trees in this process, ``first`` imported first."""
    sys.path[:0] = [str(work), str(ROOT / "perfbench")]
    import workloads

    order = [first, "head" if first == "base" else "base"]
    cli = {side: importlib.import_module(f"{NAMES[side]}.cli")
           for side in order}
    config = workloads.make_inputs(workloads.WORKLOADS[workload], seed,
                                   str(work / "inputs"))
    text = Path(config).read_text()

    def run(side: str) -> float:
        t0 = perf_counter()
        cli[side].run_experiment(cli[side].parse_config(text),
                                 output_dir=str(work / "out" / side))
        return perf_counter() - t0

    for side in order:                                  # warm-up
        run(side)
    ratios = []
    for k in range(rounds):
        times = {side: run(side) for side in (order if k % 2 == 0
                                              else order[::-1])}
        ratios.append(times["head"] / times["base"])
    base, head = (outputs(work / "out" / side) for side in ("base", "head"))
    return {"ratios": ratios,
            "differ": sorted(name for name in base.keys() | head.keys()
                             if base.get(name) != head.get(name))}


def report(first: str, result: dict) -> None:
    ratios = result["ratios"]
    q1, median, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                      else ratios * 3)
    wins = sum(r < 1.0 for r in ratios)
    print(f"{first} imported first: head/base median {median:.4f} "
          f"(quartiles {q1:.4f}-{q3:.4f}), head faster in {wins}/"
          f"{len(ratios)} rounds")
    if result["differ"]:
        print("  outputs differ: " + ", ".join(result["differ"]))
    else:
        print("  outputs byte-identical (trace.csv, snapshots, "
              "summary initial/final/status)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_ref")
    parser.add_argument("head_ref", nargs="?", default=None,
                        help="default: the working tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--child", nargs=2, metavar=("WORKDIR", "FIRST"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.child:
        work, first = args.child
        print(json.dumps(child(Path(work), first, args.workload, args.seed,
                               args.rounds)))
        return 0

    with tempfile.TemporaryDirectory(prefix="gsvgd-ab-") as tmp:
        trees = Path(tmp) / "trees"
        trees.mkdir()
        extract(args.base_ref, trees / NAMES["base"])
        extract(args.head_ref, trees / NAMES["head"])
        print(f"{args.workload} seed {args.seed}, {args.rounds} rounds: "
              f"base {args.base_ref}, head {args.head_ref or 'working tree'}")
        differ = False
        for first in ("base", "head"):
            work = Path(tmp) / f"{first}-first"
            shutil.copytree(trees, work)
            out = subprocess.run(
                [sys.executable, __file__, args.base_ref, "--workload",
                 args.workload, "--seed", str(args.seed), "--rounds",
                 str(args.rounds), "--child", str(work), first],
                check=True, capture_output=True, text=True).stdout
            result = json.loads(out.splitlines()[-1])
            report(first, result)
            differ = differ or bool(result["differ"])
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
