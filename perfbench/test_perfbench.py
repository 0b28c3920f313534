"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_times_subtract_direct_children_only():
    # root [0, 10) -> a [1, 6) -> b [2, 3); root -> c [7, 9)
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 7.0])
    end = np.array([10.0, 6.0, 3.0, 9.0])
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 4.0, 1.0, 2.0]


def test_layer_totals_sum_calls_and_self_time_per_name():
    # Two "outer" spans, each with one "inner" child; a recursive "inner".
    names = ["outer", "inner", "unused"]
    name = np.array([0, 1, 0, 1, 1])
    parent = np.array([-1, 0, -1, 2, 3])
    start = np.array([0.0, 1.0, 10.0, 11.0, 12.0])
    end = np.array([5.0, 3.0, 20.0, 19.0, 13.0])
    totals = tracing.layer_totals(names, name, parent, start, end)
    assert totals == {"outer": (2, 3.0 + 2.0), "inner": (3, 2.0 + 7.0 + 1.0),
                      "unused": (0, 0.0)}


def test_tracer_records_nesting_and_steps():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    step = tracer.wrap(tracing.STEP_BOUNDARY, lambda x: inner(x) * 2)
    assert step(1) == 4 and step(2) == 6
    a = tracer.arrays()
    assert [tracer.names[i] for i in a["name"]] == [
        tracing.STEP_BOUNDARY, "inner", tracing.STEP_BOUNDARY, "inner"]
    assert a["parent"].tolist() == [-1, 0, -1, 2]
    assert a["step"].tolist() == [1, 1, 2, 2]
    assert np.all(a["end"] >= a["start"])
    assert tracer.summary()["inner"][0] == 2


def test_install_patches_every_binding_and_uninstall_restores():
    from gsvgd import cli, integrator, sampler

    original = sampler.gsvgd_velocity
    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer.wrap, tracing.BOUNDARIES)
    try:
        assert missing == []
        assert cli.gsvgd_velocity is integrator.gsvgd_velocity \
            is sampler.gsvgd_velocity
        assert sampler.gsvgd_velocity is not original
    finally:
        tracing.uninstall(undo)
    assert cli.gsvgd_velocity is original is sampler.gsvgd_velocity


def test_inputs_are_a_function_of_the_seed(tmp_path):
    for workload in workloads.WORKLOADS.values():
        written = []
        for copy in ("a", "b", "c"):
            seed = 7 if copy != "c" else 8
            dest = tmp_path / workload.name / copy
            config = json.loads(Path(workloads.make_inputs(
                workload, seed, str(dest))).read_text())
            data = config.pop("data", None)
            csv = (dest / "data.csv").read_bytes() if data else b""
            written.append((config, csv))
            assert config["run"]["seed"] == seed
        assert written[0] == written[1]
        if workload.config["target"] == "bnn":
            assert written[0][1] != written[2][1]


def test_imq_ksd_matches_double_loop_and_prefers_the_target():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 2))
    S = -X                                   # score of N(0, I)
    c2, beta, d = 1.0, -0.5, 2
    total = 0.0
    for i in range(12):
        for j in range(12):
            r = X[i] - X[j]
            u = c2 + r @ r
            k = u ** beta
            gx = 2 * beta * u ** (beta - 1) * r
            trace = -2 * beta * d * u ** (beta - 1) \
                - 4 * beta * (beta - 1) * u ** (beta - 2) * (r @ r)
            total += S[i] @ S[j] * k + S[i] @ (-gx) + S[j] @ gx + trace
    assert workloads.imq_ksd(X, S) == pytest.approx(np.sqrt(total / 144), rel=1e-12)
    Y = rng.standard_normal((200, 2))
    assert workloads.imq_ksd(Y, -Y) < workloads.imq_ksd(Y + 1.0, -(Y + 1.0))


def test_leapfrog_reference_is_the_scalar_recursion():
    out = workloads.leapfrog_reference(np.array([[1.0, 0.0]]), 0.1, 1, 1.0)
    r_half = -0.05
    theta = 1.0 + 0.1 * r_half
    assert out.tolist() == [[theta, r_half - 0.05 * theta]]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_reports_every_metric(workload):
    untraced = _run(workload, 0)
    assert untraced["correct"] and untraced["failed"] == 0
    assert set(untraced["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    traced = _run(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    calls = {k: v["value"] for k, v in traced["metrics"].items()}
    fields = 3 if workload in ("bnn_hmc", "leapfrog_n1") else 1
    assert calls["integrator.fields_per_step"] == fields
    assert calls["dynamics.metric_per_field"] == (
        5 if workload == "crescent_rhmc" else 0)
    for metric in untraced["metrics"].values():
        assert metric["value"] > 0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_benchmark_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "perfbench" / "reference.json").write_bytes(
        (HERE / "reference.json").read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (HERE.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "leapfrog_n1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
