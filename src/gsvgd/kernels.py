"""Squared-exponential kernel: median-heuristic bandwidth, Gram matrix and
the kernel-weighted sums over a particle set.

Convention: ``k(x, y) = exp(-||x - y||^2 / h)`` with bandwidth
``h = med^2 / log N``, where ``med`` is the median of the off-diagonal
pairwise distances of the current particle set.  The scaling constant of the
median rule is a documented choice; step-size tuning absorbs it.

Every pairwise sum the samplers need is ``K @ V`` for the set's own kernel
matrix ``K`` and a stacked right-hand side ``V``; :func:`contract` computes
it in cache-sized symmetric row blocks, so at most one block of the kernel
matrix is held and each off-diagonal kernel pair is built once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

Array = np.ndarray

# Kernel entries per row block of :func:`contract` (about 64 rows at N=2000).
_BLOCK_ENTRIES = 1 << 17


def median_bandwidth(positions, h_min: float = 1e-6) -> float:
    """Median-heuristic bandwidth ``med^2 / log N``, clamped below by h_min.

    ``med`` is the median of the m = N(N-1)/2 off-diagonal pairwise
    distances, found by selection: one partition of the squared distances at
    ``k = m // 2`` places the middle value at k (for even m, the lower one is
    the maximum below k).  Only these are square-rooted, and their mean
    equals ``np.median(pdist(X))`` bit for bit.  A one-particle set returns
    the clamp of 1.0.
    """
    positions = np.asarray(positions, dtype=float)
    if (positions.ndim != 2 or positions.shape[0] < 1
            or not np.all(np.isfinite(positions))):
        raise ValueError("positions must be a finite, nonempty (N, D) array")
    n = positions.shape[0]
    if n == 1:
        return max(1.0, h_min)
    d2 = pdist(positions, "sqeuclidean")
    k = d2.size // 2
    d2.partition(k)
    middle = [d2[k]] if d2.size % 2 else [d2[:k].max(), d2[k]]
    med = float(np.mean(np.sqrt(middle)))
    return max(med ** 2 / np.log(n), h_min)


def gram(Xa: Array, Xb: Array, h: float) -> Array:
    """Kernel matrix ``exp(-||Xa_i - Xb_j||^2 / h)``, built in place."""
    K = cdist(Xa, Xb, "sqeuclidean")
    return np.exp(np.divide(K, -h, out=K), out=K)


def contract(X: Array, h: float, V: Array) -> Array:
    """``gram(X, X, h) @ V`` for (N, D) ``X`` and (N, m) ``V``.

    A set of at most one block is one ``gram`` and one matmul.  A larger set
    is swept in row blocks ``I = [i0, i1)``: the block's kernel rows are
    built against the trailing columns ``i0:`` only, and by symmetry
    ``K[I, i1:]`` also gives ``K[i1:, I]``, so each off-diagonal pair is
    built once and both of its uses read it while it is in cache.  Blocking
    reorders the sums, so the result agrees with one ``gram`` and one matmul
    to rounding, not bit for bit.
    """
    n = X.shape[0]
    rows = max(1, _BLOCK_ENTRIES // n)
    if n <= rows:
        return gram(X, X, h) @ V
    S = np.zeros((n, V.shape[1]))
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        K = gram(X[i0:i1], X[i0:], h)
        S[i0:i1] += K @ V[i0:]
        S[i1:] += K[:, i1 - i0:].T @ V[i0:i1]
    return S


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidth policy: fixed value or the median heuristic.

    Attributes:
        mode: ``"median"`` or ``"fixed"``.
        h: Bandwidth when ``mode == "fixed"``; must be positive.
        h_min: Floor applied by the median rule.
    """

    mode: str = "median"
    h: float | None = None
    h_min: float = 1e-6

    def __post_init__(self):
        if self.mode not in ("median", "fixed"):
            raise ValueError(f"unknown bandwidth mode '{self.mode}'")
        if self.mode == "fixed":
            if self.h is None or self.h <= 0:
                raise ValueError("fixed mode requires a positive bandwidth h")
        if self.h_min <= 0:
            raise ValueError("h_min must be positive")

    def bandwidth(self, positions) -> float:
        """Resolve the bandwidth for the given particle positions."""
        if self.mode == "fixed":
            return float(self.h)
        return median_bandwidth(positions, self.h_min)
