"""Sample-quality and exploration metrics, plus trace/snapshot emission.

The distance-based metrics use numpy only: the energy distance sums its
Euclidean distances over GEMM row blocks (as :mod:`gsvgd.kernels` forms its
squared distances), so no (N, M) distance matrix is held, and the mode
occupancy takes the few particle-to-center distances from coordinate
differences.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from . import bnn
from .kernels import _BLOCK_ENTRIES, _centred, _exact_d2, _gemm_factors

Array = np.ndarray

# Each GEMM-formed squared distance S' is within E = c eps max|x~|^2 of the
# exact S, with c <= 2.3 sqrt(D + 2) (measured for the kernel's GEMM blocks,
# see gsvgd.kernels._GEMM_LIMIT).  The square root magnifies that residue
# near zero: |sqrt(S') - sqrt(S)| = |S' - S| / (sqrt(S') + sqrt(S)) <=
# E / sqrt(S').  So every S' at or above
#
#     F = (c eps / eta)^2 max|x~|^2
#
# gives a distance within E / sqrt(F) = eta max|x~| of the exact one, and
# each S' below F (a near-coincident pair, or a negative residue) is
# recomputed from coordinate differences.  With eta = 2**-43 (1.1e-13), F is
# 1.2e-4 max|x~|^2 at D = 4 and 0.013 max|x~|^2 at D = 612, so a Gaussian
# cloud recomputes few pairs, and each mean distance is within about
# 1.1e-13 max|x~| of the exact one.
_DISTANCE_ETA = 2.0 ** -43


def _distance_sum(X: Array, Y: Array | None = None) -> float:
    """``sum_ij ||x_i - y_j||`` over all pairs, or ``sum_{i<j} ||x_i -
    x_j||`` when ``Y`` is None, swept in row blocks of about
    ``_BLOCK_ENTRIES / 2`` squared distances (a block stays in cache).

    Each block is one GEMM of the factors ``[-2 x~ | s | 1]`` and
    ``[y~ | 1 | s]`` of coordinates centred at the mean of ``Y``; its
    entries below the floor derived above come from coordinate differences
    instead.  Within one set, block ``I = [i0, i1)`` is formed against the
    columns ``i0:`` only; its square part holds each pair twice, so it
    counts half, and a diagonal whose GEMM residues lie below the floor, so
    they are recomputed as exact zeros.  A non-finite set gives a
    non-finite sum, without a warning.
    """
    same = Y is None
    Y = X if same else Y
    n, m, d = X.shape[0], Y.shape[0], X.shape[1]
    centre = np.add.reduce(Y, axis=0) / m
    Xc, sx = _centred(X, centre)
    Yc, sy = (Xc, sx) if same else _centred(Y, centre)
    s_max = max(float(sx.max()), float(sy.max()))
    floor = (2.3 * math.sqrt(d + 2) * np.finfo(float).eps / _DISTANCE_ETA) \
        ** 2 * s_max
    P, Q = _gemm_factors(Xc, -2.0, sx, Yc, sy)
    rows = max(1, _BLOCK_ENTRIES // (2 * m))
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n, rows):
            i1 = min(i0 + rows, n)
            j0 = i0 if same else 0
            S = P[i0:i1] @ Q[j0:].T
            low = np.flatnonzero(S < floor)
            if low.size:
                i, j = np.divmod(low, S.shape[1])
                diff = X[i0 + i] - Y[j0 + j]
                S.flat[low] = np.einsum("ij,ij->i", diff, diff)
            np.sqrt(S, out=S)
            if same:
                total += S[:, i1 - i0:].sum() + S[:, :i1 - i0].sum() / 2
            else:
                total += S.sum()
    return float(total)


def mean_distance(Y: Array) -> float:
    """Mean Euclidean distance ``E||y - y'||`` of an (m, d) sample over all
    ordered pairs, the diagonal's zeros included (0 for a single point)."""
    m = Y.shape[0]
    return 2.0 * _distance_sum(Y) / (m * m) if m > 1 else 0.0


def energy_distance(X: Array, Y: Array,
                    within_y: float | None = None) -> float:
    """Energy distance between two samples.

    ``2 E||x - y|| - E||x - x'|| - E||y - y'||`` with every mean taken over
    all ordered pairs (the within-set diagonal contributes zeros, so a
    single-point set's within-set term is 0).  This all-pairs form is exactly
    zero on identical multisets and never negative.  Bandwidth-free, which is
    why it is the default quality metric here.  A caller comparing many
    samples with one fixed ``Y`` passes ``within_y = mean_distance(Y)``.
    Each mean is within about 1.1e-13 ``max|x~|`` of its exact value
    (:func:`_distance_sum`).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] == 0 or Y.shape[0] == 0:
        raise ValueError("both samples must be nonempty")
    if X.shape[1] != Y.shape[1]:
        raise ValueError("samples must share a dimension")
    if within_y is None:
        within_y = mean_distance(Y)
    cross = _distance_sum(X, Y) / (X.shape[0] * Y.shape[0])
    return 2.0 * cross - mean_distance(X) - within_y


def mode_occupancy(theta: Array, centers: Sequence[Array],
                   radius: float) -> tuple[Array, float]:
    """Fraction of the (N, d) ``theta`` rows within ``radius`` of each center.

    Each particle counts toward its nearest center only; ties go to the
    lower-index center.  Particles near no center are reported as the
    unassigned fraction.  Returns ``(fractions, unassigned)``.  The
    distances come from coordinate differences.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.shape[0] == 0:
        raise ValueError("centers must be nonempty")
    if not 0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    if theta.shape[1] != centers.shape[1]:
        raise ValueError("centers must match the theta-block dimension")
    dists = np.sqrt(_exact_d2(theta, centers))
    nearest = np.argmin(dists, axis=1)          # ties resolve to lower index
    within = dists[np.arange(theta.shape[0]), nearest] <= radius
    fractions = np.array([
        np.mean(within & (nearest == k)) for k in range(centers.shape[0])])
    return fractions, float(np.mean(~within))


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


def snapshot_name(iteration: int) -> str:
    """File name of the snapshot of the given iteration."""
    return f"snapshot_{iteration:08d}.csv"


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
    appends one row, leaving absent metrics empty.
    """

    def __init__(self, path, columns: Sequence[str]):
        self.path = path
        self.columns = ["iter"] + list(columns)
        self.rows = 0
        try:
            self._fh = open(path, "w", encoding="utf-8", newline="\n")
            self._fh.write(",".join(self.columns) + "\n")
        except OSError as err:
            raise OSError(f"failed to open trace {path}: {err}") from err

    def record(self, iteration: int, metrics: Mapping[str, float]) -> None:
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

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
