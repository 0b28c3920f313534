"""Sample-quality and exploration metrics, plus trace/snapshot emission."""

from __future__ import annotations

import os
from typing import Mapping, Sequence

import numpy as np
from scipy.spatial.distance import cdist, pdist

from . import bnn

Array = np.ndarray


def energy_distance(X: Array, Y: Array) -> float:
    """Energy distance between two samples.

    ``2 E||x - y|| - E||x - x'|| - E||y - y'||`` with every mean taken over
    all ordered pairs (the within-set diagonal contributes zeros, so a
    single-point set's within-set term is 0).  This all-pairs form is exactly
    zero on identical multisets and never negative.  Bandwidth-free, which is
    why it is the default quality metric here.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] == 0 or Y.shape[0] == 0:
        raise ValueError("both samples must be nonempty")
    if X.shape[1] != Y.shape[1]:
        raise ValueError("samples must share a dimension")
    n, m = X.shape[0], Y.shape[0]
    cross = float(cdist(X, Y).mean())
    within_x = 2.0 * float(pdist(X).sum()) / (n * n) if n > 1 else 0.0
    within_y = 2.0 * float(pdist(Y).sum()) / (m * m) if m > 1 else 0.0
    return 2.0 * cross - within_x - within_y


def mode_occupancy(theta: Array, centers: Sequence[Array],
                   radius: float) -> tuple[Array, float]:
    """Fraction of the (N, d) ``theta`` rows within ``radius`` of each center.

    Each particle counts toward its nearest center only; ties go to the
    lower-index center.  Particles near no center are reported as the
    unassigned fraction.  Returns ``(fractions, unassigned)``.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.shape[0] == 0:
        raise ValueError("centers must be nonempty")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if theta.shape[1] != centers.shape[1]:
        raise ValueError("centers must match the theta-block dimension")
    dists = cdist(theta, centers)
    nearest = np.argmin(dists, axis=1)          # ties resolve to lower index
    within = dists[np.arange(theta.shape[0]), nearest] <= radius
    fractions = np.array([
        np.mean(within & (nearest == k)) for k in range(centers.shape[0])])
    return fractions, float(1.0 - fractions.sum())


def test_log_likelihood(theta: Array, dataset: bnn.Dataset,
                        hidden: int = bnn.HIDDEN_DEFAULT) -> float:
    """Predictive test log-likelihood of the (N, P) network weights
    ``theta``."""
    return bnn.predictive_log_likelihood(theta, dataset, hidden)


def tri_crescent_mode_centers() -> Array:
    """Representative centers of the three crescent components.

    Full gradient ascent on the mixture collapses every start onto the shared
    global maximum at the origin, so each center is instead the seed point
    (+-2, +-2) or (0, 2) polished along its own component's ridge: at fixed
    x, component i peaks where ``z_i y = x**2`` (the z = 0 component is flat
    in y and keeps its seed).  That lands on (2, 2), (-2, -2) and (0, 2).
    """
    seeds = [((2.0, 2.0), 2.0), ((-2.0, -2.0), -2.0), ((0.0, 2.0), 0.0)]
    centers = []
    for (x, y), z in seeds:
        centers.append((x, x * x / z if z != 0.0 else y))
    return np.array(centers)


# ---------------------------------------------------------------------------
# Trace emission
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_snapshot(path, iteration: int, positions: Array) -> None:
    """Write one CSV row per particle: columns p0..p{D-1}, then iter."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    header = [f"p{j}" for j in range(positions.shape[1])] + ["iter"]
    it = str(iteration)
    lines = [",".join(header)] + [",".join([*map(repr, row), it])
                                  for row in positions.tolist()]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as err:
        raise OSError(f"failed to write snapshot {path}: {err}") from err


class TraceWriter:
    """Single-writer CSV sink for per-iteration diagnostics.

    The header is written once at construction; every recorded iteration
    appends one row, leaving absent metrics empty.  When a snapshot directory
    is configured, :meth:`record` can also emit a per-particle snapshot file
    for the iteration.
    """

    def __init__(self, path, columns: Sequence[str],
                 snapshot_dir=None):
        self.path = path
        self.columns = ["iter"] + list(columns)
        self.snapshot_dir = snapshot_dir
        self.rows = 0
        try:
            self._fh = open(path, "w", encoding="utf-8", newline="\n")
            self._fh.write(",".join(self.columns) + "\n")
        except OSError as err:
            raise OSError(f"failed to open trace {path}: {err}") from err

    def record(self, iteration: int, metrics: Mapping[str, float],
               snapshot: Array | None = None) -> None:
        unknown = set(metrics) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown trace columns: {sorted(unknown)}")
        cells = [str(int(iteration))]
        cells += [_fmt(metrics.get(c)) for c in self.columns[1:]]
        try:
            self._fh.write(",".join(cells) + "\n")
        except OSError as err:
            raise OSError(f"failed to write trace {self.path}: {err}") from err
        self.rows += 1
        if snapshot is not None:
            if self.snapshot_dir is None:
                raise ValueError("snapshot requested but no snapshot_dir configured")
            write_snapshot(
                os.path.join(self.snapshot_dir, f"snapshot_{iteration:08d}.csv"),
                iteration, snapshot)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
