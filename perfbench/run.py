"""Layered benchmark of the ``gsvgd run`` loop.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

``NAME`` is one of the workloads in ``perfbench/workloads.py``; ``all`` runs
each of them in its own process and prints one table.  The program is
imported from ``src/`` and driven in-process through
``gsvgd.cli.run_experiment``, one repetition at a time (a closed loop, one
client), with OpenBLAS pinned to one thread.

Each run first makes one canary repetition on the inputs of seed
``REFERENCE_SEED``; it is the warm-up, and its final snapshot is compared
with the fingerprint in ``perfbench/reference.json``.  Then:

* ``--trace 0`` repeats the seed's repetition until ``--seconds`` have
  passed, with only the integrator entry timed, and reports the end-to-end
  metrics: ``steps_per_s``, ``step_ms_p50``, ``step_ms_p75``, ``setup_s``
  (``parse_config`` to the first integrator call, median over repetitions)
  and ``peak_rss_mb``.
* ``--trace 1`` runs ``max(1, seconds // 2)`` repetitions untraced and the
  same number traced, alternating, and reports per-layer call counts, self times and
  ratios, plus the tracing overhead.  Spans are saved to
  ``.perfbench/spans-<workload>.npz``.

Every repetition passes the correctness gate of ``workloads.gate``; a step
of a repetition that aborts or fails it counts as failed.  Human-readable
lines come first; the last line of standard output is the JSON result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Boundaries every workload calls, so their self time is a measured,
# never identically zero value; the other boundaries' self times are printed
# in the report only.
SELF_TIME_IN_RESULT = (
    "targets.grad_many", "dynamics.drift_many", "kernels.bandwidth",
    "sampler.velocity", "integrator.step", "diagnostics.trace_record",
    "diagnostics.write_snapshot", "cli.parse_config", "cli.run_experiment",
)


def import_program():
    """Import gsvgd from this checkout's ``src/`` or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import gsvgd.cli
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import gsvgd from {SRC}: {err}")
    if Path(gsvgd.cli.__file__).resolve().parents[1] != SRC.resolve():
        raise SystemExit(f"perfbench: gsvgd resolved to {gsvgd.cli.__file__}, "
                         f"not to {SRC}")
    return gsvgd.cli


def git_sha() -> str:
    """HEAD commit read from ``.git`` without running git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "gsvgd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "machine": platform.machine(), "platform": platform.platform(),
        "cpu_model": cpu, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "git_sha": git_sha(), "source_sha256": digest.hexdigest()[:16],
    }


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


class Bench:
    """Runs repetitions of one workload and tallies steps and failures."""

    def __init__(self, cli, workload, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.out = workdir / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.missing: list[str] = []

    def rep(self, config_path: str, recorder) -> dict:
        """One ``run_experiment`` call under ``recorder``, then its gate."""
        undo, self.missing = tracing.install(recorder.wrap, recorder.PATHS)
        t0 = perf_counter()
        try:
            with open(config_path, encoding="utf-8") as fh:
                cfg = self.cli.parse_config(fh.read())
            summary = self.cli.run_experiment(cfg, output_dir=str(self.out))
            wall = perf_counter() - t0
            error = None
        except Exception as err:  # a failed repetition is counted, not fatal
            wall, error = perf_counter() - t0, f"{type(err).__name__}: {err}"
        finally:
            tracing.uninstall(undo)
        self.attempted += self.workload.iters
        result = {"t0": t0, "wall": wall, "problems": [], "fingerprint": None}
        if error is None:
            result.update(workloads.gate(self.workload, summary, str(self.out)))
            result["bytes"] = output_bytes(self.out)
        else:
            result["problems"] = [f"run aborted: {error}"]
        return result

    def fail(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failed += self.workload.iters
            self.problems += [f"{label}: {p}" for p in problems]

    def canary(self, config_path: str) -> dict:
        """Warm-up repetition on the reference seed, checked against
        ``reference.json``."""
        result = self.rep(config_path, tracing.StepTimer())
        problems = list(result["problems"])
        if result["fingerprint"] is not None:
            refs = json.loads((HERE / "reference.json").read_text())
            ref = refs.get(self.workload.name)
            if ref is None or ref["iters"] != self.workload.iters:
                problems.append("no reference fingerprint for this workload")
            else:
                err = workloads.fingerprint_error(result["fingerprint"],
                                                  ref["fingerprint"])
                result["reference_error"] = err
                if err > ref["tol"]:
                    problems.append(f"final snapshot deviates from the "
                                    f"reference by {err:.3g} > {ref['tol']:.3g}")
        self.fail("canary", problems)
        return result

    def reps(self, config_path: str, recorders) -> list[dict]:
        """One repetition of the seed's config per recorder in ``recorders``.

        Every repetition must reproduce the first one's final snapshot
        bit for bit.
        """
        done: list[dict] = []
        for recorder in recorders:
            result = self.rep(config_path, recorder)
            if isinstance(recorder, tracing.StepTimer):
                result["setup"] = None if recorder.first_start is None \
                    else recorder.first_start - result["t0"]
                result["steps"] = recorder.durations
            problems = list(result["problems"])
            first = next((r["fingerprint"] for r in done
                          if r["fingerprint"] is not None), None)
            if None not in (result["fingerprint"], first) \
                    and result["fingerprint"] != first:
                problems.append("final snapshot differs from the first "
                                "repetition of the same seed")
            self.fail(f"repetition {len(done) + 1}", problems)
            done.append(result)
        return done


def timers_for(seconds: float):
    """Step timers for repetitions started within ``seconds`` (at least one)."""
    start = perf_counter()
    yield tracing.StepTimer()
    while perf_counter() - start < seconds:
        yield tracing.StepTimer()


def end_to_end(workload, reps: list[dict]) -> tuple[dict, list[str]]:
    """End-to-end metrics over the repetitions that completed.

    The tail percentile is p75: on a shared 2-CPU machine, slow spells
    lasting seconds moved the pooled p90 by up to 35% between runs of
    bnn_hmc, so p90 is printed as a note only.
    """
    ok = [r for r in reps if r["fingerprint"] is not None]
    if not ok:
        return {}, ["no repetition completed"]
    rates = [workload.iters / (r["wall"] - r["setup"]) for r in ok]
    steps = np.array([d for r in ok for d in r["steps"]])
    p50, p75, p90 = np.percentile(steps, [50, 75, 90])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "steps_per_s": (statistics.median(rates), "1/s"),
        "step_ms_p50": (1e3 * p50, "ms"),
        "step_ms_p75": (1e3 * p75, "ms"),
        "setup_s": (statistics.median(r["setup"] for r in ok), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = [f"{len(ok)} repetitions x {workload.iters} steps; "
             f"{steps.size} step samples, {int(np.sum(steps > p75))} beyond "
             f"p75; step_ms_p90 {1e3 * p90:.6g} ms with "
             f"{int(np.sum(steps > p90))} beyond"]
    return metrics, notes


def per_layer(workload, untraced: list[dict], traced: list[dict],
              tracer) -> tuple[dict, list[str]]:
    totals = tracer.summary()
    calls = {n: totals.get(n, (0, 0.0))[0] for n in tracing.boundary_names()}
    self_s = {n: totals.get(n, (0, 0.0))[1] for n in tracing.boundary_names()}
    steps = max(calls["integrator.step"], 1)
    fields = max(calls["sampler.velocity"], 1)
    traced_wall = sum(r["wall"] for r in traced)
    untraced_wall = sum(r["wall"] for r in untraced)
    metrics = {f"{n}.calls": (c, "count") for n, c in calls.items()}
    metrics.update({f"{n}.self_s": (self_s[n], "s")
                    for n in SELF_TIME_IN_RESULT})
    metrics.update({
        "dynamics.metric_per_field": (calls["dynamics.metric"] / fields,
                                      "ratio"),
        "kernels.pair_passes_per_step": (
            (calls["kernels.median_bandwidth"] + calls["sampler.velocity"])
            / steps, "ratio"),
        "integrator.fields_per_step": (calls["sampler.velocity"] / steps,
                                       "ratio"),
        "diagnostics.bytes_written": (traced[-1].get("bytes", 0), "bytes"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
    })
    notes = [f"{len(traced)} traced and {len(untraced)} untraced repetitions "
             f"x {workload.iters} steps; {len(tracer.start)} spans; "
             f"traced {traced_wall:.3f} s, untraced {untraced_wall:.3f} s",
             f"{'boundary':34s} {'calls':>9s} {'self_s':>10s} {'share':>7s}"]
    for n in sorted(calls, key=lambda k: -self_s[k]):
        notes.append(f"{n:34s} {calls[n]:9d} {self_s[n]:10.4f} "
                     f"{self_s[n] / traced_wall:7.1%}")
    return metrics, notes


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    cli = import_program()
    workload = workloads.WORKLOADS[name]
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {name}: {workload.why}")
    try:
        bench = Bench(cli, workload, workdir)
        canary_cfg = workloads.make_inputs(
            workload, workloads.REFERENCE_SEED, str(workdir / "canary"))
        config = workloads.make_inputs(workload, seed, str(workdir / "inputs"))
        canary = bench.canary(canary_cfg)
        if trace:
            # Untraced and traced repetitions alternate, so drift in the
            # machine's speed cancels out of the overhead ratio.
            tracer = tracing.Tracer()
            done = bench.reps(config, [r for _ in range(max(1, int(seconds // 2)))
                                       for r in (tracing.StepTimer(), tracer)])
            untraced, traced = done[0::2], done[1::2]
            tracer.save(WORK / f"spans-{name}.npz")
            metrics, notes = per_layer(workload, untraced, traced, tracer)
            notes += [f"boundary not found: {p}" for p in bench.missing]
            last = traced[-1]
        else:
            reps = bench.reps(config, timers_for(seconds))
            metrics, notes = end_to_end(workload, reps)
            last = reps[-1]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not bench.problems and bool(metrics)
    for note in notes:
        print(f"# {note}")
    for key, (value, unit) in metrics.items():
        print(f"{name:14s} {key:36s} {value:14.6g} {unit}")
    print(f"{name:14s} {'ops_failed_frac':36s} "
          f"{bench.failed / bench.attempted:14.6g} "
          f"({bench.failed}/{bench.attempted} steps)")
    if last.get("quality") is not None:
        print(f"{name:14s} {workload.quality:36s} {last['quality']:14.6g} "
              f"{workload.quality_unit} (initial {last['initial']}; "
              f"canary reference error {canary.get('reference_error')})")
    print(f"{name:14s} {'gate':36s} {'PASS' if correct else 'FAIL'}")
    for problem in bench.problems:
        print(f"# gate: {problem}")
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with "
                             f"{proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
