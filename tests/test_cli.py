import filecmp
import json
import os
import re
from dataclasses import fields

import numpy as np
import pytest

from gsvgd import cli, diagnostics
from gsvgd.cli import RunConfig, main, parse_config, run_experiment
from gsvgd.dynamics import DynamicsSpec
from gsvgd.errors import ConfigError, NumericalError
from gsvgd.targets import TargetDensity

from helpers import nonfinite_on_call


def minimal_config(**overrides):
    cfg = {"target": "gauss", "method": "svgd"}
    cfg.update(overrides)
    return json.dumps(cfg)


def small_run_config(out_dir, **overrides):
    cfg = {
        "target": "gauss",
        "target_params": {"mean": [1.0, -1.0], "cov": [[1.0, 0.5], [0.5, 1.0]]},
        "method": "gsvgd",
        "dynamics": {"kind": "HMC", "A": 1.0},
        "integrator": "split",
        "run": {"eps": 0.05, "iters": 20, "n_particles": 16, "seed": 7},
        "trace": {"every": 5},
        "diagnostics": {"energy_ref": 200},
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return json.dumps(cfg)


# The echo of an empty config: every key with its default.
DEFAULTS = {
    "target": "gauss",
    "target_params": {},
    "method": "svgd",
    "dynamics": {"kind": "LD", "sigma2": 1.0, "A": 1.0, "mu": 1.0,
                 "gamma": 1.0, "d_scale": 1.5, "c_offset": 0.5},
    "kernel": {"mode": "median", "h": None, "h_min": 1e-6},
    "integrator": "euler",
    "run": {"eps": 0.1, "iters": 100, "n_particles": 50, "seed": 0},
    "trace": {"every": 10},
    "sampler": {"resample_period": 0},
    "init": {"theta_var": 0.01},
    "diagnostics": {"mode_centers": None, "mode_radius": 1.0,
                    "energy_ref": 1000},
    "bnn": {"hidden": 50, "batch": 0},
    "data": {"path": None, "seed": 0},
    "output_dir": "out",
}


class TestParseConfig:
    def test_minimal_fills_defaults_and_roundtrips(self):
        cfg = parse_config(minimal_config())
        assert cfg.eps == 0.1 and cfg.iters == 100 and cfg.kind == "LD"
        echo = json.dumps(cfg.to_dict())
        assert parse_config(echo).to_dict() == cfg.to_dict()

    def test_empty_config_echoes_every_default(self):
        # Compared as JSON text, so an int default that turns into a float
        # fails too.
        assert json.dumps(parse_config("{}").to_dict(), sort_keys=True) == \
            json.dumps(DEFAULTS, sort_keys=True)

    def test_module_docstring_lists_exactly_the_config_keys(self):
        listed = set()
        for key, value in re.findall(r'^ +"(\w+)": +(.*)$', cli.__doc__,
                                     re.M):
            if value.startswith("{") and not value.startswith("{..."):
                listed |= {(key, sub) for sub in re.findall(r'"(\w+)"', value)}
            else:
                listed.add((None, key))
        assert listed == {(f.metadata["section"], f.metadata["row"][0])
                          for f in fields(RunConfig)}

    def test_zero_eps_names_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_config(run={"eps": 0}))
        assert exc.value.key == "run.eps"

    def test_unknown_method_lists_valid(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_config(method="foo"))
        assert "svgd" in str(exc.value) and "mcmc" in str(exc.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_config(warp_drive=1))
        assert exc.value.key == "warp_drive"

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_config(run={"step": 0.1}))
        assert exc.value.key == "run.step"

    def test_zero_iters_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_config(run={"iters": 0}))
        assert exc.value.key == "run.iters"

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_svgd_requires_ld(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(dynamics={"kind": "HMC"}))

    def test_split_requires_momentum_kind(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(integrator="split"))

    def test_mcmc_rejects_split(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(method="mcmc", integrator="split",
                                        dynamics={"kind": "HMC"}))

    def test_bnn_requires_data_path(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_config(target="bnn", method="gsvgd"))
        assert exc.value.key == "data.path"

    def test_fixed_kernel_requires_h(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_config(kernel={"mode": "fixed"}))
        assert exc.value.key == "kernel.h"

    def test_gauss_cov_requires_mean(self, tmp_path):
        cfg = parse_config(minimal_config(
            target_params={"cov": [[1.0, 0.0], [0.0, 1.0]]},
            run={"iters": 1, "eps": 0.1, "n_particles": 2},
            output_dir=str(tmp_path / "o")))
        with pytest.raises(ConfigError) as exc:
            run_experiment(cfg)
        assert exc.value.key == "target_params.cov"


class TestRunExperiment:
    def test_writes_outputs(self, tmp_path):
        cfg = parse_config(small_run_config(tmp_path / "out"))
        summary = run_experiment(cfg)
        out = tmp_path / "out"
        assert (out / "trace.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "snapshots" / "snapshot_00000000.csv").exists()
        assert summary["final"]["energy_dist"] < summary["initial"]["energy_dist"]
        assert summary["config"]["run"]["seed"] == 7
        assert summary["status"] == "completed"
        assert json.loads((out / "summary.json").read_text()) == summary

    def test_single_iteration_trace(self, tmp_path):
        cfg = parse_config(minimal_config(
            run={"iters": 1, "eps": 0.05, "n_particles": 4},
            output_dir=str(tmp_path / "o")))
        run_experiment(cfg)
        lines = (tmp_path / "o" / "trace.csv").read_text().splitlines()
        assert len(lines) == 2  # header + exactly one row
        snaps = sorted(os.listdir(tmp_path / "o" / "snapshots"))
        assert snaps == ["snapshot_00000000.csv", "snapshot_00000001.csv"]

    def test_byte_identical_reruns(self, tmp_path):
        for name in ("a", "b"):
            cfg = parse_config(small_run_config(tmp_path / name))
            run_experiment(cfg)
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b",
            ["trace.csv"], shallow=False)
        assert mismatch == [] and errors == []
        a_snaps = sorted(os.listdir(tmp_path / "a" / "snapshots"))
        for snap in a_snaps:
            assert (tmp_path / "a" / "snapshots" / snap).read_bytes() == \
                (tmp_path / "b" / "snapshots" / snap).read_bytes()

    def test_trace_cadence_does_not_change_trajectory(self, tmp_path):
        finals = []
        for name, every in (("e1", 1), ("e2", 7)):
            cfg = parse_config(small_run_config(tmp_path / name,
                                                trace={"every": every}))
            run_experiment(cfg)
            snaps = sorted(os.listdir(tmp_path / name / "snapshots"))
            finals.append((tmp_path / name / "snapshots" / snaps[-1])
                          .read_bytes())
        assert finals[0] == finals[1]

    def test_numerical_abort_carries_iteration(self, tmp_path):
        cfg = parse_config(small_run_config(
            tmp_path / "o", run={"eps": 50.0, "iters": 200,
                                 "n_particles": 8, "seed": 0}))
        with pytest.raises(NumericalError) as exc:
            run_experiment(cfg)
        assert exc.value.iteration is not None
        # The inner cause is kept: the squared distances overflow in the
        # median, so the bandwidth is what turns non-finite.
        assert "non-finite kernel bandwidth" in str(exc.value)
        assert f"iteration={exc.value.iteration}" in str(exc.value)

    def test_numerical_abort_writes_aborted_summary(self, tmp_path):
        cfg = parse_config(small_run_config(
            tmp_path / "o", run={"eps": 50.0, "iters": 200,
                                 "n_particles": 8, "seed": 0}))
        with pytest.raises(NumericalError) as exc:
            run_experiment(cfg)
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "aborted"
        assert "final" not in summary
        assert summary["abort"] == {
            "iteration": exc.value.iteration, "particle": None,
            "type": "NumericalError", "message": exc.value.message}
        assert "non-finite kernel bandwidth" in summary["abort"]["message"]
        assert summary["config"] == cfg.to_dict()

    def test_reference_term_of_energy_distance_computed_once(
            self, tmp_path, monkeypatch):
        ref_passes, calls = [], []
        real_pdist, real_energy = diagnostics.pdist, diagnostics.energy_distance

        def pdist(Y, *a):
            if Y.shape[0] == 200:            # the energy_ref sample size
                ref_passes.append(1)
            return real_pdist(Y, *a)

        def energy_distance(*a):
            calls.append([np.copy(v) for v in a])
            return real_energy(*a)

        monkeypatch.setattr(diagnostics, "pdist", pdist)
        monkeypatch.setattr(diagnostics, "energy_distance", energy_distance)
        run_experiment(parse_config(small_run_config(tmp_path / "o")))
        assert len(ref_passes) == 1
        assert len(calls) == 5
        for theta, ref, within in calls:
            assert real_energy(theta, ref, within) == real_energy(theta, ref)

    def test_final_metrics_reuse_the_last_trace_row(self, tmp_path,
                                                    monkeypatch):
        calls = []
        real = diagnostics.energy_distance
        monkeypatch.setattr(diagnostics, "energy_distance",
                            lambda *a: calls.append(1) or real(*a))
        cfg = parse_config(small_run_config(tmp_path / "o"))
        summary = run_experiment(cfg)
        # The initial state plus the trace rows at 5, 10, 15 and 20.
        assert len(calls) == 5
        last = (tmp_path / "o" / "trace.csv").read_text().splitlines()[-1]
        assert last == f"20,{summary['final']['energy_dist']!r}"

    def test_split_abort_in_middle_substate_names_iteration_and_particle(
            self, tmp_path, monkeypatch):
        # The augmented score turns non-finite for particle 2 only at the
        # middle sub-state of iteration 3 (its 8th evaluation).
        real_augment = DynamicsSpec.augment

        def augment(spec, base):
            target = real_augment(spec, base)
            grad = nonfinite_on_call(target.grad_fn, call=8, particle=2)
            return TargetDensity(target.dim, target.value_and_grad_fn, grad,
                                 target.exact_sampler, target.name)

        monkeypatch.setattr(DynamicsSpec, "augment", augment)
        cfg = parse_config(small_run_config(tmp_path / "o"))
        with pytest.raises(NumericalError) as exc:
            run_experiment(cfg)
        assert (exc.value.iteration, exc.value.particle) == (3, 2)

    def test_aborted_summary_names_the_particle(self, tmp_path, monkeypatch):
        real_augment = DynamicsSpec.augment

        def augment(spec, base):
            target = real_augment(spec, base)
            grad = nonfinite_on_call(target.grad_fn, call=8, particle=2)
            return TargetDensity(target.dim, target.value_and_grad_fn, grad,
                                 target.exact_sampler, target.name)

        monkeypatch.setattr(DynamicsSpec, "augment", augment)
        with pytest.raises(NumericalError):
            run_experiment(parse_config(small_run_config(tmp_path / "o")))
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "aborted"
        assert (summary["abort"]["iteration"],
                summary["abort"]["particle"]) == (3, 2)

    def test_rerun_removes_the_snapshots_it_did_not_write(self, tmp_path):
        out = tmp_path / "o"
        run_experiment(parse_config(small_run_config(
            out, run={"eps": 0.05, "iters": 40, "n_particles": 16,
                      "seed": 7})))
        (out / "snapshots" / "notes.txt").write_text("kept\n")
        run_experiment(parse_config(small_run_config(out)))
        run_experiment(parse_config(small_run_config(tmp_path / "fresh")))
        snaps = sorted(os.listdir(out / "snapshots"))
        assert snaps == sorted(os.listdir(tmp_path / "fresh" / "snapshots")
                               + ["notes.txt"])
        assert snaps[0] == "notes.txt"
        assert snaps[-1] == "snapshot_00000020.csv"
        for name in snaps[1:]:
            assert (out / "snapshots" / name).read_bytes() == \
                (tmp_path / "fresh" / "snapshots" / name).read_bytes()

    @staticmethod
    def aborted_summary(out):
        assert sorted(os.listdir(out)) == ["snapshots", "summary.json",
                                           "trace.csv"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "aborted" and "final" not in summary
        return summary["abort"]

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_run_dying_mid_loop_writes_an_aborted_summary(
            self, tmp_path, monkeypatch, error):
        # The completed summary of an earlier run into the same directory is
        # replaced by an aborted one.
        out = tmp_path / "o"
        run_experiment(parse_config(small_run_config(out)))
        real = diagnostics.write_snapshot

        def write_snapshot(path, iteration, positions):
            if iteration == 10:
                raise error("stopped")
            real(path, iteration, positions)

        monkeypatch.setattr(diagnostics, "write_snapshot", write_snapshot)
        with pytest.raises(error):
            run_experiment(parse_config(small_run_config(out)))
        assert self.aborted_summary(out) == {
            "iteration": 10, "particle": None, "type": error.__name__,
            "message": "stopped"}

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt,
                                       MemoryError])
    def test_field_raising_mid_run_names_type_and_iteration(
            self, tmp_path, monkeypatch, error):
        # The split step evaluates the field 3 times per iteration, so the
        # 8th call falls in iteration 3.
        calls = []
        real = cli.gsvgd_velocity

        def velocity(*args):
            calls.append(1)
            if len(calls) == 8:
                raise error("field stopped")
            return real(*args)

        monkeypatch.setattr(cli, "gsvgd_velocity", velocity)
        out = tmp_path / "o"
        with pytest.raises(error, match="field stopped"):
            run_experiment(parse_config(small_run_config(out)))
        assert self.aborted_summary(out) == {
            "iteration": 3, "particle": None, "type": error.__name__,
            "message": "field stopped"}

    def test_summary_stamps_the_environment(self, tmp_path, monkeypatch):
        import scipy
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cli._environment.cache_clear()
        try:
            summary = run_experiment(parse_config(small_run_config(
                tmp_path / "o")))
            env = summary["environment"]
            assert (env["numpy"], env["scipy"]) == (np.__version__,
                                                    scipy.__version__)
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            assert env["blas"] == {"name": blas["name"],
                                   "version": blas["version"]}
            assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
            assert env["blas_threads"]["MKL_NUM_THREADS"] is None
            # Built once per process: a later change of the variables does
            # not reach it.
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
            again = run_experiment(parse_config(small_run_config(
                tmp_path / "p")))
            assert again["environment"] == env
        finally:
            cli._environment.cache_clear()

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_summary_dump_leaves_no_summary(self, tmp_path,
                                                   monkeypatch, error):
        out = tmp_path / "o"
        run_experiment(parse_config(small_run_config(out)))

        def dump(obj, fh, **kw):
            fh.write('{\n  "config": {')        # a truncated summary
            raise error("stopped")

        monkeypatch.setattr(cli.json, "dump", dump)
        with pytest.raises(error):
            run_experiment(parse_config(small_run_config(out)))
        assert sorted(os.listdir(out)) == ["snapshots", "trace.csv"]

    def test_resample_period(self, tmp_path):
        cfg = parse_config(small_run_config(
            tmp_path / "o", sampler={"resample_period": 5}))
        run_experiment(cfg)  # just exercises the resampling branch

    def test_mcmc_method(self, tmp_path):
        cfg = parse_config(small_run_config(
            tmp_path / "o", method="mcmc", integrator="euler",
            run={"eps": 0.01, "iters": 30, "n_particles": 32, "seed": 1}))
        summary = run_experiment(cfg)
        assert np.isfinite(summary["final"]["energy_dist"])

    def test_tri_crescent_mode_columns(self, tmp_path):
        cfg = parse_config(json.dumps({
            "target": "tri_crescent", "method": "svgd",
            "run": {"eps": 0.05, "iters": 5, "n_particles": 8, "seed": 0},
            "output_dir": str(tmp_path / "o")}))
        run_experiment(cfg)
        header = (tmp_path / "o" / "trace.csv").read_text().splitlines()[0]
        assert header == "iter,mode_0,mode_1,mode_2,unassigned"


class TestMethodKindMatrix:
    @pytest.mark.parametrize("method,kind,integrator", [
        ("svgd", "LD", "euler"),
        ("gsvgd", "LD", "euler"),
        ("gsvgd", "RLD", "euler"),
        ("gsvgd", "HMC", "split"),
        ("gsvgd", "NHT", "split"),
        ("gsvgd", "RHMC", "split"),
        ("gsvgd", "ThirdOrder", "split"),
        ("gsvgd_alt", "HMC", "euler"),
        ("blob", "LD", "euler"),
        ("parvi_blob", "HMC", "euler"),
        ("mcmc", "LD", "euler"),
        ("mcmc", "HMC", "euler"),
        ("mcmc", "NHT", "euler"),
        ("mcmc", "RLD", "euler"),
    ])
    def test_combo_runs_and_is_finite(self, tmp_path, method, kind, integrator):
        cfg = parse_config(json.dumps({
            "target": "gauss",
            "target_params": {"dim": 2},
            "method": method,
            "dynamics": {"kind": kind, "A": 0.5, "sigma2": 1.0, "mu": 1.0,
                         "gamma": 0.5},
            "integrator": integrator,
            "run": {"eps": 0.01, "iters": 8, "n_particles": 6, "seed": 3},
            "trace": {"every": 4},
            "diagnostics": {"energy_ref": 50},
            "output_dir": str(tmp_path / "o"),
        }))
        summary = run_experiment(cfg)
        assert np.isfinite(summary["final"]["energy_dist"])


class TestBnnRun:
    @pytest.fixture()
    def csv_path(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=40)
        y = np.sin(3 * x) + 0.1 * rng.standard_normal(40)
        path = tmp_path / "toy.csv"
        path.write_text("\n".join(f"{a},{b}" for a, b in zip(x, y)))
        return path

    def test_bnn_sghmc_run(self, tmp_path, csv_path):
        cfg = parse_config(json.dumps({
            "target": "bnn", "method": "gsvgd",
            "dynamics": {"kind": "HMC", "A": 1.0, "sigma2": 1.0},
            "integrator": "split",
            "run": {"eps": 0.001, "iters": 10, "n_particles": 4, "seed": 0},
            "bnn": {"hidden": 8, "batch": 16},
            "data": {"path": str(csv_path), "seed": 0},
            "output_dir": str(tmp_path / "o")}))
        summary = run_experiment(cfg)
        assert np.isfinite(summary["final"]["test_ll"])
        header = (tmp_path / "o" / "trace.csv").read_text().splitlines()[0]
        assert header == "iter,test_ll"

    def test_rejects_unknown_target_params(self, tmp_path, csv_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_text(minimal_config(
            target="bnn", target_params={"whatever": 1},
            run={"iters": 1, "n_particles": 2}, bnn={"hidden": 2},
            data={"path": str(csv_path)}, output_dir=str(out)))
        assert main(["run", "--config", str(path)]) == 2
        assert not out.exists()
        assert "config error: target_params: unknown keys ['whatever']" in \
            capsys.readouterr().err

    def test_minibatch_hmc_reruns_are_byte_identical(self, tmp_path,
                                                     csv_path):
        cfg = parse_config(json.dumps({
            "target": "bnn", "method": "gsvgd",
            "dynamics": {"kind": "HMC", "A": 1.0, "sigma2": 1.0},
            "integrator": "split",
            "run": {"eps": 0.002, "iters": 12, "n_particles": 5, "seed": 4},
            "trace": {"every": 4}, "bnn": {"hidden": 6, "batch": 8},
            "data": {"path": str(csv_path), "seed": 1},
            "output_dir": str(tmp_path / "o")}))
        assert cfg.bnn_batch < 36          # 40 rows, 36 in the train split
        for name in ("a", "b"):
            run_experiment(cfg, output_dir=str(tmp_path / name))
        files = ["trace.csv", "summary.json"] + [
            os.path.join("snapshots", f)
            for f in sorted(os.listdir(tmp_path / "a" / "snapshots"))]
        assert len(files) == 6             # iterations 0, 4, 8 and 12
        for f in files:
            assert (tmp_path / "a" / f).read_bytes() == \
                (tmp_path / "b" / f).read_bytes(), f


class TestMain:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(small_run_config(tmp_path / "out",
                                         run={"eps": 0.05, "iters": 5,
                                              "n_particles": 8, "seed": 0}))
        assert main(["run", "--config", str(path)]) == 0

    def test_validate_echoes(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(minimal_config())
        assert main(["validate", "--config", str(path)]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["run"]["eps"] == 0.1

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(minimal_config(run={"eps": 0}))
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("overrides,key", [
        ({"target_params": {"dim": "two"}}, "target_params.dim"),
        ({"target_params": {"dim": 0}}, "target_params.dim"),
        ({"target_params": {"dim": 2.7}}, "target_params.dim"),
        ({"target_params": {"dim": True}}, "target_params.dim"),
        ({"target_params": {"mean": [0.0, 0.0],
                            "cov": [[1.0, 2.0], [2.0, 1.0]]}}, "target_params"),
        ({"target": "gauss_mix", "target_params": {"weights": [1, -1]}},
         "target_params"),
        ({"diagnostics": {"mode_centers": [[0.0, 0.0, 0.0]]}},
         "diagnostics.mode_centers"),
        ({"target_params": {"dim": 5, "mean": [0.0, 0.0]}},
         "target_params.dim"),
        ({"target_params": {"mean": [True, "2"]}}, "target_params.mean"),
        ({"target_params": {"mean": [0.0, 0.0], "cov": [[1, "0"], [0, 1]]}},
         "target_params.cov"),
        ({"target": "gauss_mix", "target_params": {"var": "2"}},
         "target_params.var"),
        ({"target": "gauss_mix", "target_params": {"var": True}},
         "target_params.var"),
        ({"target": "gauss_mix", "target_params": {"means": [[True], [2]]}},
         "target_params.means"),
        ({"target": "gauss_mix", "target_params": {"weights": ["1", "1"]}},
         "target_params.weights"),
        # JSON parsing accepts NaN, the infinities, overflowing literals
        # such as 1e400 (read as Infinity) and integers beyond the float
        # range; numbers must be finite.
        ({"init": {"theta_var": float("inf")}}, "init.theta_var"),
        ({"run": {"eps": float("nan")}}, "run.eps"),
        ({"kernel": {"mode": "fixed", "h": float("nan")}}, "kernel.h"),
        ({"kernel": {"h_min": float("inf")}}, "kernel.h_min"),
        ({"dynamics": {"c_offset": float("-inf")}}, "dynamics.c_offset"),
        ({"dynamics": {"gamma": 10 ** 400}}, "dynamics.gamma"),
        ({"target_params": {"mean": [float("nan"), 0.0]}},
         "target_params.mean"),
        ({"diagnostics": {"mode_centers": [[0.0, float("inf")]]}},
         "diagnostics.mode_centers"),
    ], ids=["dim_not_a_number", "dim_zero", "dim_fractional", "dim_bool",
            "cov_not_spd", "negative_weights", "centers_wrong_dim",
            "dim_mean_mismatch", "mean_not_numbers", "cov_not_numbers",
            "var_string", "var_bool", "means_bool", "weights_string",
            "theta_var_inf", "eps_nan", "h_nan", "h_min_inf",
            "c_offset_neg_inf", "gamma_huge_int", "mean_nan", "centers_inf"])
    def test_malformed_target_is_config_error(self, tmp_path, capsys,
                                              overrides, key):
        out = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_text(minimal_config(output_dir=str(out), **overrides))
        assert main(["run", "--config", str(path)]) == 2
        assert not out.exists()
        assert f"config error: {key}:" in capsys.readouterr().err

    def test_malformed_seed_override_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_text(minimal_config(output_dir=str(out)))
        assert main(["run", "--config", str(path), "--seed", "-1"]) == 2
        assert not out.exists()
        assert "config error: run.seed:" in capsys.readouterr().err

    def test_malformed_encoding_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"target": "gauss", "output_dir": "\xff"}')
        assert main(["run", "--config", str(path)]) == 2
        assert main(["validate", "--config", str(path)]) == 2
        assert "config error: config: not valid UTF-8" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_nonfinite_dataset_cell_is_config_error(self, tmp_path, capsys,
                                                    cell):
        data = tmp_path / "data.csv"
        rows = [f"{0.1 * i},{np.sin(0.3 * i)}" for i in range(30)]
        rows[12] = f"0.5,{cell}"
        data.write_text("\n".join(rows))
        out = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_text(minimal_config(
            target="bnn", method="gsvgd", dynamics={"kind": "HMC"},
            integrator="split", data={"path": str(data)},
            output_dir=str(out)))
        assert main(["run", "--config", str(path)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error: data.path:" in err
        assert "row 13, column 2" in err

    def test_dataset_first_row_with_a_bad_cell_is_config_error(
            self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        rows = ["1.0,abc"] + [f"{0.1 * i},{np.sin(0.3 * i)}"
                              for i in range(30)]
        data.write_text("\n".join(rows))
        out = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_text(minimal_config(
            target="bnn", method="gsvgd", dynamics={"kind": "HMC"},
            integrator="split", data={"path": str(data)},
            output_dir=str(out)))
        assert main(["run", "--config", str(path)]) == 2
        assert not out.exists()
        assert "row 1, column 2" in capsys.readouterr().err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_bytes(b'{"target": "gauss"}')
        marked.write_bytes(b'\xef\xbb\xbf{"target": "gauss"}')
        assert main(["validate", "--config", str(plain)]) == 0
        expected = capsys.readouterr()
        assert main(["validate", "--config", str(marked)]) == 0
        assert capsys.readouterr() == expected
        marked.write_bytes(b'\xef\xbb\xbf{"output_dir": "\xff"}')
        assert main(["validate", "--config", str(marked)]) == 2
        assert "config error: config: not valid UTF-8" in \
            capsys.readouterr().err

    def test_empty_output_dir_is_config_error(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(minimal_config(output_dir="",
                                       run={"iters": 1, "n_particles": 2}))
        assert main(["validate", "--config", str(path)]) == 2
        assert main(["run", "--config", str(path)]) == 2
        assert "config error: output_dir: must be a nonempty string" in \
            capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_empty_out_flag_is_config_error(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(minimal_config(output_dir=str(tmp_path / "out"),
                                       run={"iters": 1, "n_particles": 2}))
        assert main(["run", "--config", str(path), "--out", ""]) == 2
        assert "config error: --out: must be a nonempty string" in \
            capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_empty_output_dir_argument_is_config_error(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = parse_config(minimal_config(output_dir=str(tmp_path / "o"),
                                          run={"iters": 1, "n_particles": 2}))
        with pytest.raises(ConfigError, match="output_dir: must be a nonempty"):
            run_experiment(cfg, output_dir="")
        assert os.listdir(tmp_path) == []

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 4

    def test_numerical_abort_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(small_run_config(
            tmp_path / "out", run={"eps": 50.0, "iters": 100,
                                   "n_particles": 8, "seed": 0}))
        assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "numerical abort: run aborted on non-finite value: " \
               "non-finite kernel bandwidth iteration=" in err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "aborted"
        assert f"iteration={summary['abort']['iteration']}" in err

    def test_io_error_mid_run_exit_code(self, tmp_path, capsys, monkeypatch):
        def write_snapshot(path, iteration, positions):
            raise OSError("disk full")

        monkeypatch.setattr(diagnostics, "write_snapshot", write_snapshot)
        path = tmp_path / "cfg.json"
        path.write_text(small_run_config(tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 4
        assert "i/o error: disk full" in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["abort"]["type"] == "OSError"
        assert summary["abort"]["iteration"] == 0

    def test_seed_override_changes_output(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(small_run_config(tmp_path / "a"))
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path / "a"), "--seed", "1"]) == 0
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path / "b"), "--seed", "2"]) == 0
        assert (tmp_path / "a" / "trace.csv").read_bytes() != \
            (tmp_path / "b" / "trace.csv").read_bytes()

    def test_modes_subcommand(self, capsys):
        assert main(["modes", "--target", "tri_crescent"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["2.0,2.0", "-2.0,-2.0", "0.0,2.0"]

    @pytest.mark.parametrize("target,lines", [
        ("gauss", ["0.0,0.0"]), ("gauss_mix", ["-2.0", "2.0"])])
    def test_modes_of_the_default_targets(self, capsys, target, lines):
        # The means of the targets that an empty target_params builds.
        assert main(["modes", "--target", target]) == 0
        assert capsys.readouterr().out.splitlines() == lines

    def test_modes_unknown_target(self):
        assert main(["modes", "--target", "bnn"]) == 2

    def test_console_invocation(self):
        import subprocess
        import sys

        import gsvgd
        # The child process imports the same package as this one.
        src = os.path.dirname(os.path.dirname(gsvgd.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-m", "gsvgd.cli", "modes", "--target", "gauss"],
            capture_output=True, text=True, env=env)
        assert out.returncode == 0
        assert out.stdout.strip() == "0.0,0.0"
