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

Each key, its default and its check are one field of RunConfig; unknown
keys are rejected.  A single root seed derives all randomness through a
fixed spawn order (init, mcmc noise, resampling, minibatches, reference
samples), so identical configs reproduce byte-identical outputs and the
reporting cadence never perturbs the trajectory.

Exit codes: 0 success, 2 config error, 3 numerical abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import suppress
from dataclasses import MISSING, dataclass, field, fields
from fnmatch import fnmatch
from functools import cache
from itertools import groupby

import numpy as np

from . import bnn as bnn_mod
from . import diagnostics, targets
from .dynamics import (KINDS, KINDS_WITH_R, RIEMANN_KINDS, DynamicsSpec,
                       RiemannConfig)
from .errors import ConfigError, NumericalError
from .integrator import step
from .kernels import KernelConfig
from .sampler import (gsvgd_velocity, gsvgd_velocity_alt, mcmc_step,
                      parvi_blob_velocity, resample_momentum)

TARGETS = ("gauss", "gauss_mix", "tri_crescent", "bnn")
INTEGRATORS = ("euler", "split")
# Each method's Stein field by name, looked up when a run starts so that a
# profiler's rebinding is seen; "mcmc" steps the stochastic baseline instead.
_FIELDS = {"svgd": "gsvgd_velocity", "gsvgd": "gsvgd_velocity",
           "gsvgd_alt": "gsvgd_velocity_alt", "blob": "parvi_blob_velocity",
           "parvi_blob": "parvi_blob_velocity", "mcmc": None}
METHODS = tuple(_FIELDS)


def _is_number(val) -> bool:
    """A finite JSON number: not a bool, NaN, an infinity or an overflow."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:                # an integer beyond the float range
        return False


# A check maps (value, dotted key) to the resolved value or raises a
# ConfigError naming the key.

def _number(minimum=None, exclusive=False, integer=False):
    """The check for a finite number (an integer if ``integer``) at or above
    ``minimum`` (above it if ``exclusive``), resolved to float (int)."""
    def check(val, key: str):
        if integer and (isinstance(val, bool) or not isinstance(val, int)):
            raise ConfigError(key, "must be an integer")
        if not integer and not _is_number(val):
            raise ConfigError(key, "must be a finite number")
        if minimum is not None and (
                val <= minimum if exclusive else val < minimum):
            raise ConfigError(key, f"must be {'>' if exclusive else '>='} "
                                   f"{minimum}")
        return int(val) if integer else float(val)
    return check


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


def _check(ok, message: str):
    """The check that keeps a value for which ok(value) holds."""
    def check(val, key: str):
        if not ok(val):
            raise ConfigError(key, message)
        return val
    return check


def _one_of(options, message=None):
    return _check(options.__contains__,
                  message or f"must be one of {list(options)}")


def _directory(val, key: str):
    """A nonempty string: "" would write into the working directory."""
    if not isinstance(val, str):
        raise ConfigError(key, "must be a string")
    if not val:
        raise ConfigError(key, "must be a nonempty string")
    return val


_POSITIVE = _number(0, exclusive=True)
_COUNT = _number(0, integer=True)
_SIZE = _number(1, integer=True)


def _key(section, key, check, default=MISSING, **kw):
    """A RunConfig field read from ``section.key`` (the top-level ``key``
    when section is None) and resolved by ``check``; its metadata "row" is
    (key, dotted key, check)."""
    dotted = key if section is None else f"{section}.{key}"
    return field(default=default, **kw, metadata={
        "section": section, "row": (key, dotted, check)})


@dataclass
class RunConfig:
    """Fully-resolved run configuration, one field per config key, in the
    order in which parse_config checks them."""

    target: str = _key(None, "target", _one_of(TARGETS), "gauss")
    target_params: dict = _key(None, "target_params", _check(
        lambda v: isinstance(v, dict), "must be an object"),
        default_factory=dict)
    method: str = _key(None, "method", _one_of(METHODS), "svgd")
    kind: str = _key("dynamics", "kind", _one_of(KINDS), "LD")
    sigma2: float = _key("dynamics", "sigma2", _POSITIVE, 1.0)
    friction: float = _key("dynamics", "A", _number(0), 1.0)
    mu: float = _key("dynamics", "mu", _POSITIVE, 1.0)
    gamma: float = _key("dynamics", "gamma", _number(), 1.0)
    d_scale: float = _key("dynamics", "d_scale", _POSITIVE, 1.5)
    c_offset: float = _key("dynamics", "c_offset", _number(), 0.5)
    kernel_mode: str = _key("kernel", "mode", _one_of(
        ("median", "fixed"), "must be 'median' or 'fixed'"), "median")
    kernel_h: float | None = _key("kernel", "h", lambda v, k: (
        v if v is None else _POSITIVE(v, k)), None)
    kernel_h_min: float = _key("kernel", "h_min", _POSITIVE, 1e-6)
    integrator: str = _key(None, "integrator", _one_of(INTEGRATORS), "euler")
    eps: float = _key("run", "eps", _POSITIVE, 0.1)
    iters: int = _key("run", "iters", _SIZE, 100)
    n_particles: int = _key("run", "n_particles", _SIZE, 50)
    seed: int = _key("run", "seed", _COUNT, 0)
    trace_every: int = _key("trace", "every", _SIZE, 10)
    resample_period: int = _key("sampler", "resample_period", _COUNT, 0)
    theta_var: float = _key("init", "theta_var", _POSITIVE, 0.01)
    mode_centers: list | None = _key("diagnostics", "mode_centers",
                                     lambda v, k: _numbers(v, k, 2), None)
    mode_radius: float = _key("diagnostics", "mode_radius", _POSITIVE, 1.0)
    energy_ref: int = _key("diagnostics", "energy_ref", _COUNT, 1000)
    bnn_hidden: int = _key("bnn", "hidden", _SIZE, 50)
    bnn_batch: int = _key("bnn", "batch", _COUNT, 0)
    data_path: str | None = _key("data", "path", _check(
        lambda v: v is None or isinstance(v, str), "must be a string"), None)
    data_seed: int = _key("data", "seed", _COUNT, 0)
    output_dir: str = _key(None, "output_dir", _directory, "out")

    def to_dict(self) -> dict:
        """Nested echo of the resolved configuration (round-trips)."""
        out: dict = {}
        for section, rows in _GROUPS:
            node = out if section is None else out.setdefault(section, {})
            node.update((key, getattr(self, attr))
                        for attr, (key, _, _) in rows)
        return out


# The fields in runs of one section, built once: (section, [(attribute,
# (key, dotted key, check))]).  Each section's keys sit in one run.
_GROUPS = [(section, [(f.name, f.metadata["row"]) for f in run])
           for section, run in groupby(fields(RunConfig),
                                       lambda f: f.metadata["section"])]
# The keys allowed in each section, and at the top level (None).
_KEYS = {section: frozenset(key for _, (key, _, _) in rows)
         for section, rows in _GROUPS if section}
_KEYS[None] = frozenset(section or key for section, rows in _GROUPS
                        for _, (key, _, _) in rows)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run config, applying defaults."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError("config", f"invalid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")

    # The first run is top-level, so unknown top-level keys are caught first.
    cfg = RunConfig()
    for section, rows in _GROUPS:
        sec = raw if section is None else raw.get(section)
        if sec is None:                       # absent or null: all defaults
            sec = {}
        if not isinstance(sec, dict):
            raise ConfigError(section, "must be an object")
        for key in sec:
            if key not in _KEYS[section]:
                raise ConfigError(f"{section}.{key}" if section else key,
                                  "unknown key")
        for attr, (key, dotted, check) in rows:
            setattr(cfg, attr,
                    check(sec.get(key, getattr(cfg, attr)), dotted))
        # Checked with its section, before any fault in a later key.
        if section == "kernel" and cfg.kernel_mode == "fixed" \
                and cfg.kernel_h is None:
            raise ConfigError("kernel.h",
                              "required when kernel.mode is 'fixed'")
        if section == "kernel" and cfg.kernel_mode != "fixed" \
                and cfg.kernel_h is not None:
            raise ConfigError("kernel.h",
                              "applies only when kernel.mode is 'fixed'")

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
# The defaults of the gauss (a standard normal) and gauss_mix targets; the
# modes command prints the means they give.
_GAUSS_DIM = 2
_MIX_MEANS = [[-2.0], [2.0]]


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
        dim = _SIZE(p.get("dim", _GAUSS_DIM if mean is None else len(mean)),
                    "target_params.dim")
        if mean is not None and len(mean) != dim:
            raise ConfigError("target_params.dim", "does not match the mean")
        return targets.gaussian(mean or np.zeros(dim), cov or np.eye(dim)), None
    if cfg.target == "gauss_mix":
        means = _numbers(p.get("means"), "target_params.means", 2)
        return targets.gaussian_mixture(
            means or _MIX_MEANS,
            _numbers(p.get("weights"), "target_params.weights", 1),
            _POSITIVE(p.get("var", 1.0), "target_params.var")), None
    if cfg.target == "tri_crescent":
        return targets.tri_crescent_target(), None
    # bnn
    dataset = bnn_mod.load_regression_csv(cfg.data_path, cfg.data_seed)
    posterior = bnn_mod.BNNPosterior(dataset, cfg.bnn_hidden)
    return posterior.as_target(), (dataset, posterior)


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
        riemann = RiemannConfig(base, cfg.d_scale, cfg.c_offset) \
            if cfg.kind in RIEMANN_KINDS else None
        spec = DynamicsSpec(cfg.kind, base.dim, sigma2=cfg.sigma2,
                            friction=cfg.friction, mu=cfg.mu, gamma=cfg.gamma,
                            riemann=riemann)
    except ValueError as err:
        raise ConfigError("dynamics", str(err)) from None
    return base, bnn_extras, spec, _resolve_centers(cfg, base.dim)


# ---------------------------------------------------------------------------
# Experiment loop
# ---------------------------------------------------------------------------

# Environment variables that set the BLAS thread count.  The GEMMs of the
# kernel layer may round differently under another count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


@cache
def _environment() -> str:
    """The library versions and BLAS settings that a run's output bytes
    depend on, as JSON; built once per process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return json.dumps({
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var)
                         for var in _BLAS_THREAD_VARS}})


def run_experiment(cfg: RunConfig, output_dir: str | None = None) -> dict:
    """Run one experiment; writes trace.csv, snapshots/ and summary.json.

    The summary's ``status`` is ``"completed"`` for a finished run.  A run
    stopped by any exception once its output has begun (a non-finite value,
    an I/O error, an interrupt) writes ``"status": "aborted"`` and an
    ``abort`` record in its place (iteration, with 0 before the first step;
    the particle, or null; the exception type; the message), then re-raises.
    A summary left in ``output_dir`` by an earlier run is removed before
    anything is written, and the summary is written to a temporary file
    that replaces ``summary.json`` whole, so a run whose summary cannot be
    written leaves none.  The summary also records the environment
    (numpy and BLAS versions, BLAS thread variables): output bytes
    repeat only within one environment.  A completed run removes the
    snapshots an earlier run left that it did not write itself.

    Returns the summary dict.  Raises ConfigError, NumericalError (with the
    aborting iteration) or OSError.
    """
    out_dir = _directory(cfg.output_dir if output_dir is None else output_dir,
                         "output_dir")
    base, bnn_extras, spec, centers = _build_problem(cfg)
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    with suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "summary.json"))

    # Root seed -> child streams, in this documented order.
    root = np.random.SeedSequence(cfg.seed)
    rng_init, rng_mcmc, rng_resample, rng_batch, rng_ref = (
        np.random.default_rng(s) for s in root.spawn(5))

    dataset, posterior = bnn_extras or (None, None)
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
    ref = ref_within = None
    if cfg.energy_ref > 0 and base.exact_sampler is not None:
        ref = base.sample_exact(rng_ref, cfg.energy_ref)
        ref_within = diagnostics.mean_distance(ref)
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
            out["energy_dist"] = diagnostics.energy_distance(
                theta, ref, ref_within)
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
    velocity = globals().get(_FIELDS[cfg.method])     # None for "mcmc"
    trace_iters = set(range(cfg.trace_every, cfg.iters + 1, cfg.trace_every))
    trace_iters.add(cfg.iters)

    summary = {"config": cfg.to_dict(), "environment": json.loads(
        _environment()), "iterations": cfg.iters}
    it = 0
    try:
        # A non-finite value aborts a step, naming its particle (the fields'
        # and the integrator's checks); the overflow and invalid-value
        # warnings numpy would print first are silenced in one context for
        # the whole run, not one per call.
        with (np.errstate(over="ignore", invalid="ignore", divide="ignore"),
              diagnostics.TraceWriter(os.path.join(out_dir, "trace.csv"),
                                      columns) as writer):
            diagnostics.write_snapshot(
                os.path.join(snap_dir, diagnostics.snapshot_name(0)), 0, X)
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
                        X = step(X, velocity, target_it, spec, kernel, cfg.eps,
                                 cfg.integrator == "split")
                    if cfg.resample_period and it % cfg.resample_period == 0:
                        X = resample_momentum(X, spec, rng_resample)
                except NumericalError as err:
                    raise NumericalError(
                        f"run aborted on non-finite value: {err.message}",
                        iteration=it, particle=err.particle) from err
                if it in trace_iters:
                    row = metrics_of(X)
                    writer.record(it, row)
                    diagnostics.write_snapshot(os.path.join(
                        snap_dir, diagnostics.snapshot_name(it)), it, X)
    except BaseException as err:
        numerical = isinstance(err, NumericalError)
        summary["status"] = "aborted"
        summary["abort"] = {
            "iteration": it, "particle": err.particle if numerical else None,
            "type": type(err).__name__,
            "message": err.message if numerical else str(err)}
        with suppress(OSError):
            _write_summary(out_dir, summary)
        raise

    written = {diagnostics.snapshot_name(it) for it in trace_iters | {0}}
    for name in os.listdir(snap_dir):
        if fnmatch(name, "snapshot_*.csv") and name not in written:
            os.remove(os.path.join(snap_dir, name))
    summary["status"] = "completed"
    summary["final"] = row               # the trace row of iteration cfg.iters
    _write_summary(out_dir, summary)
    return summary


def _write_summary(out_dir: str, summary: dict) -> None:
    """Write ``summary.json`` whole or not at all: into a temporary file in
    ``out_dir`` that then replaces it."""
    path = os.path.join(out_dir, "summary.json")
    tmp = path + ".tmp"
    try:
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as err:
        raise OSError(f"failed to write summary {path}: {err}") from err


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

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
        if args.command == "modes":
            # The stored crescent centers, or the default target's means.
            centers = {"tri_crescent": diagnostics.tri_crescent_mode_centers(),
                       "gauss": np.zeros((1, _GAUSS_DIM)),
                       "gauss_mix": _MIX_MEANS}.get(args.target)
            if centers is None:
                raise ConfigError("target", "no stored mode centers for "
                                            f"'{args.target}'")
            for row in centers:
                print(",".join(repr(float(v)) for v in row))
            return 0
        # A byte-order mark is skipped, as bnn.load_regression_csv does.
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as err:
                raise ConfigError("config",
                                  f"not valid UTF-8: {err}") from None
        cfg = parse_config(text)
        if args.command == "validate":
            print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
            return 0
        if args.out is not None:
            _directory(args.out, "--out")
        if args.seed is not None:
            cfg.seed = _COUNT(args.seed, "run.seed")
        summary = run_experiment(cfg, output_dir=args.out)
        print(json.dumps(summary["final"], sort_keys=True))
        out_dir = args.out or cfg.output_dir
        print(f"wrote {os.path.join(out_dir, 'summary.json')}")
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
