"""Record the canary fingerprints that ``run.py`` checks, into reference.json.

Usage, from the repository root, at a commit whose results are trusted::

    python3 perfbench/record_reference.py

For each workload the canary repetition (seed ``REFERENCE_SEED``) is run
twice: as is, and with the initial ensemble scaled by ``1 + NUDGE``.  The
fingerprint deviation of the nudged run is the workload's rounding
sensitivity; the tolerance is ``SLACK`` times that, floored at ``MIN_TOL``,
so a change that only reorders floating-point operations passes while a
change of the computed trajectory fails.
"""

import json
import shutil
import sys

import run  # first: pins the BLAS threads before numpy loads
import numpy as np
import workloads

NUDGE = 1e-12
# One nudge-sized rounding difference per step of a repetition, at most.
SLACK = 1e4
MIN_TOL = 1e-10


def canary(cli, workload, workdir, nudge: float) -> dict:
    config = workloads.make_inputs(workload, workloads.REFERENCE_SEED,
                                   str(workdir / "inputs"))
    out = str(workdir / "out")
    original = cli.Ensemble

    def nudged(positions, layout, *args, **kwargs):
        return original(np.asarray(positions) * (1.0 + nudge), layout,
                        *args, **kwargs)

    cli.Ensemble = nudged
    try:
        with open(config, encoding="utf-8") as fh:
            cfg = cli.parse_config(fh.read())
        summary = cli.run_experiment(cfg, output_dir=out)
    finally:
        cli.Ensemble = original
    result = workloads.gate(workload, summary, out)
    if result["problems"]:
        raise SystemExit(f"{workload.name}: canary fails its gate: "
                         f"{result['problems']}")
    return result["fingerprint"]


def main() -> int:
    cli = run.import_program()
    workdir = run.WORK / "record-reference"
    refs = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            exact = canary(cli, workload, workdir, 0.0)
            moved = canary(cli, workload, workdir, NUDGE)
            sensitivity = workloads.fingerprint_error(moved, exact)
            refs[name] = {"seed": workloads.REFERENCE_SEED,
                          "iters": workload.iters, "fingerprint": exact,
                          "nudge": NUDGE, "sensitivity": sensitivity,
                          "tol": max(MIN_TOL, SLACK * sensitivity)}
            print(f"{name}: sensitivity {sensitivity:.3g}, "
                  f"tol {refs[name]['tol']:.3g}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    refs["environment"] = run.environment()
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
