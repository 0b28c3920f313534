"""Outside-in timing of the gsvgd layers, installed without editing the program.

Two recorders wrap functions of the imported ``gsvgd`` package in place:

* :class:`StepTimer` wraps only the integrator entry points and keeps one
  timestamp pair per outer step.  End-to-end metrics are measured with it.
* :class:`Tracer` wraps every boundary in :data:`BOUNDARIES` and keeps one
  span per call (name, start, end, parent span, step id) in flat arrays,
  written out once the run ends.  A layer's self time is its span's duration
  minus the durations of its direct child spans.

Patching is undone by :func:`uninstall`, so the traced and untraced passes of
one process run the same program code.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# (metric name, dotted attribute under the ``gsvgd`` package).  Several
# attributes may share one metric name; their calls and self times add up.
# Module-level functions are replaced in every gsvgd module that imported
# them, so ``from .x import f`` bindings are traced too.
BOUNDARIES = (
    ("targets.grad_many", "targets.TargetDensity.grad_many"),
    ("targets.grad_many", "targets.AugmentedTarget.grad_many"),
    ("targets.logp_many", "targets.TargetDensity.logp_many"),
    ("targets.logp_many", "targets.AugmentedTarget.logp_many"),
    ("bnn.grad_log_posterior", "bnn.BNNPosterior.grad_log_posterior"),
    ("bnn.load_regression_csv", "bnn.load_regression_csv"),
    ("dynamics.drift_many", "dynamics.DynamicsSpec.drift_many"),
    ("dynamics.A_many", "dynamics.DynamicsSpec.A_many"),
    ("dynamics.C_many", "dynamics.DynamicsSpec.C_many"),
    ("dynamics.div_many", "dynamics.DynamicsSpec.div_many"),
    ("dynamics.constant_matrices", "dynamics.DynamicsSpec.constant_matrices"),
    ("dynamics.metric", "dynamics.RiemannConfig.metric"),
    ("kernels.bandwidth", "kernels.KernelConfig.bandwidth"),
    ("kernels.median_bandwidth", "kernels.median_bandwidth"),
    ("sampler.velocity", "sampler.gsvgd_velocity"),
    ("integrator.step", "integrator.euler_step"),
    ("integrator.step", "integrator.symmetric_split_step"),
    ("diagnostics.energy_distance", "diagnostics.energy_distance"),
    ("diagnostics.mode_occupancy", "diagnostics.mode_occupancy"),
    ("diagnostics.test_log_likelihood", "diagnostics.test_log_likelihood"),
    ("diagnostics.trace_record", "diagnostics.TraceWriter.record"),
    ("diagnostics.write_snapshot", "diagnostics.write_snapshot"),
    ("cli.parse_config", "cli.parse_config"),
    ("cli.run_experiment", "cli.run_experiment"),
)

# Metric names whose calls start a new outer step.
STEP_BOUNDARY = "integrator.step"


def boundary_names() -> list[str]:
    """Distinct boundary metric names, in table order."""
    return list(dict.fromkeys(name for name, _ in BOUNDARIES))


def _resolve(path: str):
    """Return ``(owner, attribute, original)`` for a dotted path, or None."""
    module_name, _, rest = path.partition(".")
    module = importlib.import_module(f"gsvgd.{module_name}")
    owner = module
    *outer, attr = rest.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else \
        getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


def install(wrap, paths) -> tuple[list, list[str]]:
    """Replace each attribute in ``paths`` (name -> dotted path pairs) by
    ``wrap(name, original)``.

    Returns ``(undo, missing)``: the patches to hand to :func:`uninstall`
    and the dotted paths that do not exist in this version of the program.
    """
    undo, missing = [], []
    modules = [m for key, m in sys.modules.items()
               if (key == "gsvgd" or key.startswith("gsvgd.")) and m is not None]
    for name, path in paths:
        found = _resolve(path)
        if found is None:
            missing.append(path)
            continue
        owner, attr, original = found
        wrapped = wrap(name, original)
        if isinstance(owner, type):
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapped)
    return undo, missing


def uninstall(undo: list) -> None:
    """Restore the attributes replaced by :func:`install`."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class StepTimer:
    """Timestamp pair per integrator call; the untraced run's only wrapper."""

    PATHS = tuple((n, p) for n, p in BOUNDARIES if n == STEP_BOUNDARY)

    def __init__(self):
        self.first_start: float | None = None
        self.durations: list[float] = []

    def wrap(self, name, fn):
        durations = self.durations

        def timed(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            durations.append(perf_counter() - t0)
            if self.first_start is None:
                self.first_start = t0
            return out

        return timed


class Tracer:
    """In-memory span recorder for every boundary in :data:`BOUNDARIES`.

    The step id of a span is the number of integrator calls entered before
    the span started, counted over the whole traced pass; spans between two
    steps (bandwidth, minibatch target) carry the id of the earlier step.
    """

    PATHS = BOUNDARIES

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.step = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._steps = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        starts_step = name == STEP_BOUNDARY
        open_spans = self._open

        def traced(*args, **kwargs):
            if starts_step:
                self._steps += 1
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(open_spans[-1] if open_spans else -1)
            self.step.append(self._steps)
            self.start.append(0.0)
            self.end.append(0.0)
            open_spans.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_spans.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "step": np.frombuffer(self.step, dtype=np.int64).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def save(self, path) -> None:
        """Write the spans and the name table to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, tuple[int, float]]:
        """``{name: (calls, self seconds)}`` for every recorded name."""
        a = self.arrays()
        return layer_totals(self.names, a["name"], a["parent"], a["start"],
                            a["end"])


def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.

    ``parent[i]`` is the index of span i's parent, or -1 for a root span.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested],
                        minlength=dur.size)
    return dur - child


def layer_totals(names, name, parent, start, end) -> dict[str, tuple[int, float]]:
    """Sum calls and self times of the spans per name."""
    own = self_times(parent, start, end)
    calls = np.bincount(name, minlength=len(names))
    total = np.bincount(name, weights=own, minlength=len(names))
    return {n: (int(calls[i]), float(total[i])) for i, n in enumerate(names)}
