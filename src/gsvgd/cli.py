"""Experiment orchestration: config parsing, deterministic runs, file output.

A run is described by a JSON config (all keys optional except where noted):

    {
      "target": "gauss" | "gauss_mix" | "tri_crescent" | "bnn",
      "target_params": {...},              # per-target construction params
      "method": "svgd" | "gsvgd" | "gsvgd_alt" | "blob" | "parvi_blob" | "mcmc",
      "dynamics": {"kind", "sigma2", "A", "mu", "gamma", "d_scale", "c_offset"},
      "kernel":   {"mode", "h", "h_min"},
      "integrator": "euler" | "split",
      "run":      {"eps", "iters", "n_particles", "seed"},
      "trace":    {"every"},
      "sampler":  {"resample_period"},
      "init":     {"theta_var"},
      "diagnostics": {"mode_centers", "mode_radius", "energy_ref"},
      "bnn":      {"hidden", "batch"},
      "data":     {"path", "seed"},
      "output_dir": "..."
    }

Unknown keys are rejected.  A single root seed derives all randomness
through a fixed spawn order (init, mcmc noise, resampling, minibatches,
reference samples), so identical configs reproduce byte-identical outputs
and the reporting cadence never perturbs the trajectory.

Exit codes: 0 success, 2 config error, 3 numerical abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bnn as bnn_mod
from . import diagnostics, targets
from .dynamics import (KINDS, KINDS_WITH_R, RIEMANN_KINDS, DynamicsSpec,
                       RiemannConfig)
from .errors import ConfigError, NumericalError
from .integrator import euler_step, symmetric_split_step
from .kernels import KernelConfig
from .sampler import (gsvgd_velocity, gsvgd_velocity_alt, mcmc_step,
                      parvi_blob_velocity, resample_momentum)

TARGETS = ("gauss", "gauss_mix", "tri_crescent", "bnn")
METHODS = ("svgd", "gsvgd", "gsvgd_alt", "blob", "parvi_blob", "mcmc")
INTEGRATORS = ("euler", "split")


@dataclass
class RunConfig:
    """Fully-resolved run configuration."""

    target: str = "gauss"
    target_params: dict = field(default_factory=dict)
    method: str = "svgd"
    kind: str = "LD"
    sigma2: float = 1.0
    friction: float = 1.0
    mu: float = 1.0
    gamma: float = 1.0
    d_scale: float = 1.5
    c_offset: float = 0.5
    kernel_mode: str = "median"
    kernel_h: float | None = None
    kernel_h_min: float = 1e-6
    integrator: str = "euler"
    eps: float = 0.1
    iters: int = 100
    n_particles: int = 50
    seed: int = 0
    trace_every: int = 10
    resample_period: int = 0
    theta_var: float = 0.01
    mode_centers: list | None = None
    mode_radius: float = 1.0
    energy_ref: int = 1000
    bnn_hidden: int = 50
    bnn_batch: int = 0
    data_path: str | None = None
    data_seed: int = 0
    output_dir: str = "out"

    def to_dict(self) -> dict:
        """Nested echo of the resolved configuration (round-trips)."""
        return {
            "target": self.target,
            "target_params": self.target_params,
            "method": self.method,
            "dynamics": {"kind": self.kind, "sigma2": self.sigma2,
                         "A": self.friction, "mu": self.mu, "gamma": self.gamma,
                         "d_scale": self.d_scale, "c_offset": self.c_offset},
            "kernel": {"mode": self.kernel_mode, "h": self.kernel_h,
                       "h_min": self.kernel_h_min},
            "integrator": self.integrator,
            "run": {"eps": self.eps, "iters": self.iters,
                    "n_particles": self.n_particles, "seed": self.seed},
            "trace": {"every": self.trace_every},
            "sampler": {"resample_period": self.resample_period},
            "init": {"theta_var": self.theta_var},
            "diagnostics": {"mode_centers": self.mode_centers,
                            "mode_radius": self.mode_radius,
                            "energy_ref": self.energy_ref},
            "bnn": {"hidden": self.bnn_hidden, "batch": self.bnn_batch},
            "data": {"path": self.data_path, "seed": self.data_seed},
            "output_dir": self.output_dir,
        }


def _section(raw: dict, name: str, allowed: tuple[str, ...]) -> dict:
    sec = raw.get(name, {})
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        raise ConfigError(name, "must be an object")
    for key in sec:
        if key not in allowed:
            raise ConfigError(f"{name}.{key}", "unknown key")
    return sec


def _is_number(val) -> bool:
    """A finite JSON number: not a bool, NaN, an infinity or an overflow."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:                # an integer beyond the float range
        return False


def _number(sec: dict, section: str, key: str, default, *, minimum=None,
            exclusive=False, allow_none=False):
    val = sec.get(key, default)
    if val is None and allow_none:
        return None
    if not _is_number(val):
        raise ConfigError(f"{section}.{key}", "must be a finite number")
    if minimum is not None:
        if exclusive and val <= minimum:
            raise ConfigError(f"{section}.{key}", f"must be > {minimum}")
        if not exclusive and val < minimum:
            raise ConfigError(f"{section}.{key}", f"must be >= {minimum}")
    return float(val)


def _integer(sec: dict, section: str, key: str, default, *, minimum=None):
    val = sec.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{section}.{key}", "must be an integer")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{section}.{key}", f"must be >= {minimum}")
    return int(val)


def _numbers(val, key: str, ndim: int):
    """None, or a nonempty list of numbers (ndim 1) or of equal-length such
    lists (ndim 2), returned as floats."""
    rows = val if ndim == 2 else [val]
    if val is not None and (not isinstance(val, list) or not val or not all(
            isinstance(r, list) and r and len(r) == len(rows[0])
            and all(_is_number(v) for v in r) for r in rows)):
        raise ConfigError(key, "must be a nonempty list of " + (
            "finite numbers" if ndim == 1
            else "equal-length lists of finite numbers"))
    return None if val is None else np.array(val, dtype=float).tolist()


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run config, applying defaults."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError("config", f"invalid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")

    top_allowed = ("target", "target_params", "method", "dynamics", "kernel",
                   "integrator", "run", "trace", "sampler", "init",
                   "diagnostics", "bnn", "data", "output_dir")
    for key in raw:
        if key not in top_allowed:
            raise ConfigError(key, "unknown key")

    cfg = RunConfig()

    cfg.target = raw.get("target", cfg.target)
    if cfg.target not in TARGETS:
        raise ConfigError("target", f"must be one of {list(TARGETS)}")
    params = raw.get("target_params", {})
    if not isinstance(params, dict):
        raise ConfigError("target_params", "must be an object")
    cfg.target_params = params

    cfg.method = raw.get("method", cfg.method)
    if cfg.method not in METHODS:
        raise ConfigError("method", f"must be one of {list(METHODS)}")

    dyn = _section(raw, "dynamics",
                   ("kind", "sigma2", "A", "mu", "gamma", "d_scale", "c_offset"))
    cfg.kind = dyn.get("kind", cfg.kind)
    if cfg.kind not in KINDS:
        raise ConfigError("dynamics.kind", f"must be one of {list(KINDS)}")
    cfg.sigma2 = _number(dyn, "dynamics", "sigma2", cfg.sigma2,
                         minimum=0, exclusive=True)
    cfg.friction = _number(dyn, "dynamics", "A", cfg.friction, minimum=0)
    cfg.mu = _number(dyn, "dynamics", "mu", cfg.mu, minimum=0, exclusive=True)
    cfg.gamma = _number(dyn, "dynamics", "gamma", cfg.gamma)
    cfg.d_scale = _number(dyn, "dynamics", "d_scale", cfg.d_scale,
                          minimum=0, exclusive=True)
    cfg.c_offset = _number(dyn, "dynamics", "c_offset", cfg.c_offset)

    ker = _section(raw, "kernel", ("mode", "h", "h_min"))
    cfg.kernel_mode = ker.get("mode", cfg.kernel_mode)
    if cfg.kernel_mode not in ("median", "fixed"):
        raise ConfigError("kernel.mode", "must be 'median' or 'fixed'")
    cfg.kernel_h = _number(ker, "kernel", "h", cfg.kernel_h, minimum=0,
                           exclusive=True, allow_none=True)
    cfg.kernel_h_min = _number(ker, "kernel", "h_min", cfg.kernel_h_min,
                               minimum=0, exclusive=True)
    if cfg.kernel_mode == "fixed" and cfg.kernel_h is None:
        raise ConfigError("kernel.h", "required when kernel.mode is 'fixed'")

    cfg.integrator = raw.get("integrator", cfg.integrator)
    if cfg.integrator not in INTEGRATORS:
        raise ConfigError("integrator", f"must be one of {list(INTEGRATORS)}")

    run = _section(raw, "run", ("eps", "iters", "n_particles", "seed"))
    cfg.eps = _number(run, "run", "eps", cfg.eps, minimum=0, exclusive=True)
    cfg.iters = _integer(run, "run", "iters", cfg.iters, minimum=1)
    cfg.n_particles = _integer(run, "run", "n_particles", cfg.n_particles,
                               minimum=1)
    cfg.seed = _integer(run, "run", "seed", cfg.seed, minimum=0)

    trace = _section(raw, "trace", ("every",))
    cfg.trace_every = _integer(trace, "trace", "every", cfg.trace_every,
                               minimum=1)

    samp = _section(raw, "sampler", ("resample_period",))
    cfg.resample_period = _integer(samp, "sampler", "resample_period",
                                   cfg.resample_period, minimum=0)

    init = _section(raw, "init", ("theta_var",))
    cfg.theta_var = _number(init, "init", "theta_var", cfg.theta_var,
                            minimum=0, exclusive=True)

    diag = _section(raw, "diagnostics",
                    ("mode_centers", "mode_radius", "energy_ref"))
    cfg.mode_centers = _numbers(diag.get("mode_centers"),
                                "diagnostics.mode_centers", 2)
    cfg.mode_radius = _number(diag, "diagnostics", "mode_radius",
                              cfg.mode_radius, minimum=0, exclusive=True)
    cfg.energy_ref = _integer(diag, "diagnostics", "energy_ref",
                              cfg.energy_ref, minimum=0)

    bnn_sec = _section(raw, "bnn", ("hidden", "batch"))
    cfg.bnn_hidden = _integer(bnn_sec, "bnn", "hidden", cfg.bnn_hidden,
                              minimum=1)
    cfg.bnn_batch = _integer(bnn_sec, "bnn", "batch", cfg.bnn_batch, minimum=0)

    data = _section(raw, "data", ("path", "seed"))
    cfg.data_path = data.get("path", cfg.data_path)
    if cfg.data_path is not None and not isinstance(cfg.data_path, str):
        raise ConfigError("data.path", "must be a string")
    cfg.data_seed = _integer(data, "data", "seed", cfg.data_seed, minimum=0)

    out = raw.get("output_dir", cfg.output_dir)
    if not isinstance(out, str):
        raise ConfigError("output_dir", "must be a string")
    cfg.output_dir = out

    # Cross-field consistency.
    if cfg.method in ("svgd", "blob") and cfg.kind != "LD":
        raise ConfigError("dynamics.kind",
                          f"method '{cfg.method}' runs the LD dynamics; "
                          "use 'gsvgd'/'parvi_blob' for other kinds")
    if cfg.integrator == "split":
        if cfg.method == "mcmc":
            raise ConfigError("integrator",
                              "the stochastic baseline integrates internally; "
                              "use 'euler'")
        if cfg.kind not in KINDS_WITH_R:
            raise ConfigError("integrator",
                              "'split' requires a dynamics kind with momentum")
    if cfg.resample_period > 0 and cfg.kind not in KINDS_WITH_R:
        raise ConfigError("sampler.resample_period",
                          "momentum resampling requires a kind with momentum")
    if cfg.target == "bnn" and cfg.data_path is None:
        raise ConfigError("data.path", "required for the bnn target")
    if cfg.target == "bnn" and cfg.kind in RIEMANN_KINDS:
        raise ConfigError("dynamics.kind",
                          "Riemannian kinds are not wired to the bnn target")
    return cfg


# ---------------------------------------------------------------------------
# Target construction
# ---------------------------------------------------------------------------

_TARGET_KEYS = {"gauss": {"dim", "mean", "cov"}, "tri_crescent": set(),
                "gauss_mix": {"means", "weights", "var"}, "bnn": set()}


def _build_base_target(cfg: RunConfig):
    """Build the theta-space target; returns (target, dataset_or_None)."""
    p = cfg.target_params
    unknown = set(p) - _TARGET_KEYS[cfg.target]
    if unknown:
        raise ConfigError("target_params", f"unknown keys {sorted(unknown)}")
    if cfg.target == "gauss":
        mean = _numbers(p.get("mean"), "target_params.mean", 1)
        cov = _numbers(p.get("cov"), "target_params.cov", 2)
        if mean is None and cov is not None:
            raise ConfigError("target_params.cov",
                              "requires target_params.mean")
        dim = _integer(p, "target_params", "dim",
                       2 if mean is None else len(mean), minimum=1)
        if mean is not None and len(mean) != dim:
            raise ConfigError("target_params.dim", "does not match the mean")
        return targets.gaussian(mean or np.zeros(dim), cov or np.eye(dim)), None
    if cfg.target == "gauss_mix":
        means = _numbers(p.get("means"), "target_params.means", 2)
        return targets.gaussian_mixture(
            means or [[-2.0], [2.0]],
            _numbers(p.get("weights"), "target_params.weights", 1),
            _number(p, "target_params", "var", 1.0, minimum=0, exclusive=True)
        ), None
    if cfg.target == "tri_crescent":
        return targets.tri_crescent_target(), None
    # bnn
    dataset = bnn_mod.load_regression_csv(cfg.data_path, cfg.data_seed)
    posterior = bnn_mod.BNNPosterior(dataset, cfg.bnn_hidden)
    return posterior.as_target(), (dataset, posterior)


def _build_spec(cfg: RunConfig, base) -> DynamicsSpec:
    riemann = None
    if cfg.kind in RIEMANN_KINDS:
        riemann = RiemannConfig(base, cfg.d_scale, cfg.c_offset)
    return DynamicsSpec(cfg.kind, base.dim, sigma2=cfg.sigma2,
                        friction=cfg.friction, mu=cfg.mu, gamma=cfg.gamma,
                        riemann=riemann)


def _resolve_centers(cfg: RunConfig, dim: int):
    if cfg.mode_centers is not None:
        centers = np.asarray(cfg.mode_centers, dtype=float)
        if centers.shape[1] != dim:
            raise ConfigError("diagnostics.mode_centers",
                              f"centers have {centers.shape[1]} coordinates, "
                              f"the target has {dim}")
        return centers
    if cfg.target == "tri_crescent":
        return diagnostics.tri_crescent_mode_centers()
    return None


def _build_problem(cfg: RunConfig):
    """Build the base target, the dynamics and the mode centers.

    Constructor errors (a non-SPD covariance, negative mixture weights, a
    malformed dataset) become ConfigErrors, so a malformed config fails
    before any output is written.
    """
    try:
        base, bnn_extras = _build_base_target(cfg)
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        key = "data.path" if cfg.target == "bnn" else "target_params"
        raise ConfigError(key, str(err)) from None
    try:
        spec = _build_spec(cfg, base)
    except ValueError as err:
        raise ConfigError("dynamics", str(err)) from None
    return base, bnn_extras, spec, _resolve_centers(cfg, base.dim)


def _velocity_fn(method: str):
    if method in ("svgd", "gsvgd"):
        return gsvgd_velocity
    if method == "gsvgd_alt":
        return gsvgd_velocity_alt
    return parvi_blob_velocity           # "blob" / "parvi_blob"


# ---------------------------------------------------------------------------
# Experiment loop
# ---------------------------------------------------------------------------

def run_experiment(cfg: RunConfig, output_dir: str | None = None) -> dict:
    """Run one experiment; writes trace.csv, snapshots/ and summary.json.

    Returns the summary dict.  Raises ConfigError, NumericalError (with the
    aborting iteration) or OSError.
    """
    base, bnn_extras, spec, centers = _build_problem(cfg)
    out_dir = output_dir if output_dir is not None else cfg.output_dir
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)

    # Root seed -> child streams, in this documented order.
    root = np.random.SeedSequence(cfg.seed)
    rng_init, rng_mcmc, rng_resample, rng_batch, rng_ref = (
        np.random.default_rng(s) for s in root.spawn(5))

    dataset = posterior = None
    if bnn_extras is not None:
        dataset, posterior = bnn_extras
    kernel = KernelConfig(cfg.kernel_mode, cfg.kernel_h, cfg.kernel_h_min)

    # Initial state: theta from its init distribution, momentum from its
    # Gaussian reference, thermostat at its prior mean.
    n, d = cfg.n_particles, spec.d_theta
    if posterior is not None:
        theta0 = np.stack([bnn_mod.init_params(rng_init, dataset.d_in,
                                               cfg.bnn_hidden)
                           for _ in range(n)])
    else:
        theta0 = np.sqrt(cfg.theta_var) * rng_init.standard_normal((n, d))
    blocks = [theta0]
    if spec.has_r:
        blocks.append(np.sqrt(spec.sigma2) * rng_init.standard_normal((n, d)))
    if spec.has_xi:
        blocks.append(np.full((n, d), spec.xi_mean))
    X = np.concatenate(blocks, axis=1)

    # Diagnostics setup.
    ref = None
    if cfg.energy_ref > 0 and base.exact_sampler is not None:
        ref = base.sample_exact(rng_ref, cfg.energy_ref)
    columns: list[str] = []
    if ref is not None:
        columns.append("energy_dist")
    if centers is not None:
        columns += [f"mode_{k}" for k in range(len(centers))] + ["unassigned"]
    if posterior is not None:
        columns.append("test_ll")

    def metrics_of(state) -> dict:
        theta = state[:, spec.theta_slice]
        out: dict = {}
        if ref is not None:
            out["energy_dist"] = diagnostics.energy_distance(theta, ref)
        if centers is not None:
            fractions, unassigned = diagnostics.mode_occupancy(
                theta, centers, cfg.mode_radius)
            for k, frac in enumerate(fractions):
                out[f"mode_{k}"] = float(frac)
            out["unassigned"] = unassigned
        if posterior is not None:
            out["test_ll"] = diagnostics.test_log_likelihood(
                theta, dataset, cfg.bnn_hidden)
        return out

    schedule = None
    if posterior is not None:
        schedule = bnn_mod.MinibatchSchedule(dataset.n_train, cfg.bnn_batch,
                                             rng_batch)
    velocity = _velocity_fn(cfg.method)

    def field(Y):
        # The loop below sets target_it and the bandwidth h of each step.
        return velocity(Y, target_it, spec, h)

    trace_iters = set(range(cfg.trace_every, cfg.iters + 1, cfg.trace_every))
    trace_iters.add(cfg.iters)

    summary = {"config": cfg.to_dict(), "iterations": cfg.iters}
    with diagnostics.TraceWriter(os.path.join(out_dir, "trace.csv"), columns,
                                 snapshot_dir=snap_dir) as writer:
        diagnostics.write_snapshot(
            os.path.join(snap_dir, "snapshot_00000000.csv"), 0, X)
        summary["initial"] = row = metrics_of(X)

        target_it = spec.augment(base)
        for it in range(1, cfg.iters + 1):
            try:
                if schedule is not None:
                    base_it = posterior.as_target(schedule.next())
                    target_it = spec.augment(base_it)
                if cfg.method == "mcmc":
                    X = mcmc_step(X, target_it, spec, cfg.eps, rng_mcmc)
                else:
                    h = kernel.bandwidth(X)
                    if cfg.integrator == "euler":
                        X = euler_step(X, field, cfg.eps)
                    else:
                        X = symmetric_split_step(X, field, cfg.eps, spec)
                if cfg.resample_period and it % cfg.resample_period == 0:
                    X = resample_momentum(X, spec, rng_resample)
            except NumericalError as err:
                raise NumericalError(
                    "run aborted on non-finite value", iteration=it,
                    particle=err.particle) from err
            if it in trace_iters:
                row = metrics_of(X)
                writer.record(it, row, snapshot=X)

    summary["final"] = row               # the trace row of iteration cfg.iters
    path = os.path.join(out_dir, "summary.json")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as err:
        raise OSError(f"failed to write summary {path}: {err}") from err
    return summary


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ConfigError("config", f"not valid UTF-8: {err}") from None
    return parse_config(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gsvgd",
        description="Deterministic Stein-type particle samplers for "
                    "drift/diffusion MCMC dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="root seed (overrides the config)")

    p_val = sub.add_parser("validate", help="validate a config and echo it")
    p_val.add_argument("--config", required=True)

    p_modes = sub.add_parser("modes", help="print a target's mode centers")
    p_modes.add_argument("--target", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load_config(args.config)
            if args.seed is not None:
                cfg.seed = _integer({"seed": args.seed}, "run", "seed", None,
                                    minimum=0)
            summary = run_experiment(cfg, output_dir=args.out)
            out_dir = args.out if args.out is not None else cfg.output_dir
            print(json.dumps(summary["final"], sort_keys=True))
            print(f"wrote {os.path.join(out_dir, 'summary.json')}")
            return 0
        if args.command == "validate":
            cfg = _load_config(args.config)
            print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
            return 0
        # modes
        if args.target == "tri_crescent":
            centers = diagnostics.tri_crescent_mode_centers()
        elif args.target == "gauss":
            centers = np.zeros((1, 2))
        elif args.target == "gauss_mix":
            centers = np.asarray([[-2.0], [2.0]])  # default component means
        else:
            raise ConfigError("target",
                              f"no stored mode centers for '{args.target}'")
        for row in np.atleast_2d(centers):
            print(",".join(repr(float(v)) for v in row))
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
