"""Squared-exponential kernel: median-heuristic bandwidth, Gram matrix and
the kernel-weighted sums over a particle set.

Convention: ``k(x, y) = exp(-||x - y||^2 / h)`` with bandwidth
``h = med^2 / log N``, where ``med`` is the median of the off-diagonal
pairwise distances of the current particle set.  The scaling constant of the
median rule is a documented choice; step-size tuning absorbs it.

Every pairwise sum the samplers need is ``K @ V`` for the set's own kernel
matrix ``K`` and a stacked right-hand side ``V``; :func:`contract` computes
it in cache-sized symmetric row blocks, so at most one block of the kernel
matrix is held and each off-diagonal kernel pair is built once.  When the
set is one block, the median bandwidth keeps the squared distances it
selected from, and a contraction at that bandwidth over the same positions
builds its kernel from them instead of computing them again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

Array = np.ndarray

# Kernel entries per row block of :func:`contract` (about 64 rows at N=2000).
_BLOCK_ENTRIES = 1 << 17


def _rows_per_block(n: int) -> int:
    """Rows of one :func:`contract` block for an N-particle set; the set is
    one block when N is at most this (N <= 362)."""
    return max(1, _BLOCK_ENTRIES // n)


class Bandwidth(float):
    """A kernel bandwidth that may carry the squared distances behind it.

    :func:`median_bandwidth` of a one-block set keeps the condensed
    ``pdist`` squared distances (read-only, unpartitioned) together with the
    shape and bytes of the positions they came from; :func:`contract`
    builds its kernel from them when it is given this bandwidth and the same
    positions.  Arithmetic on it gives a plain float, so ``float(h)`` or any
    derived value carries nothing.
    """

    def __new__(cls, value, d2=None, positions=None):
        self = super().__new__(cls, value)
        self.d2 = d2
        self._source = None
        if d2 is not None:
            d2.flags.writeable = False
            self._source = (positions.shape, positions.tobytes())
        return self

    def distances_for(self, X: Array):
        """The stored squared distances if they are those of ``X``, else
        None."""
        if self._source is None or X.shape != self._source[0] \
                or X.tobytes() != self._source[1]:
            return None
        return self.d2


def median_bandwidth(positions, h_min: float = 1e-6) -> Bandwidth:
    """Median-heuristic bandwidth ``med^2 / log N``, clamped below by h_min.

    ``med`` is the median of the m = N(N-1)/2 off-diagonal pairwise
    distances, found by selection: one partition of the squared distances at
    ``k = m // 2`` places the middle value at k (for even m, the lower one is
    the maximum below k).  Only these are square-rooted, and their mean
    equals ``np.median(pdist(X))`` bit for bit.  A one-particle set returns
    the clamp of 1.0.  For a one-block set the selection partitions a copy,
    and the result carries the distances (:class:`Bandwidth`).
    """
    positions = np.asarray(positions, dtype=float)
    if (positions.ndim != 2 or positions.shape[0] < 1
            or not np.all(np.isfinite(positions))):
        raise ValueError("positions must be a finite, nonempty (N, D) array")
    n = positions.shape[0]
    if n == 1:
        return Bandwidth(max(1.0, h_min))
    d2 = pdist(positions, "sqeuclidean")
    shared = n <= _rows_per_block(n)
    sel = d2.copy() if shared else d2
    k = sel.size // 2
    sel.partition(k)
    middle = [sel[k]] if sel.size % 2 else [sel[:k].max(), sel[k]]
    med = float(np.mean(np.sqrt(middle)))
    h = max(med ** 2 / np.log(n), h_min)
    return Bandwidth(h, d2, positions) if shared else Bandwidth(h)


def gram(Xa: Array, Xb: Array, h: float) -> Array:
    """Kernel matrix ``exp(-||Xa_i - Xb_j||^2 / h)``, built in place."""
    K = cdist(Xa, Xb, "sqeuclidean")
    return np.exp(np.divide(K, -h, out=K), out=K)


def contract(X: Array, h: float, V: Array) -> Array:
    """``gram(X, X, h) @ V`` for (N, D) ``X`` and (N, m) ``V``.

    A set of at most one block is one ``gram`` and one matmul; when ``h``
    is a :class:`Bandwidth` holding the distances of this ``X``, the kernel
    is built from them (bitwise equal to ``gram``).  A larger set
    is swept in row blocks ``I = [i0, i1)``: the block's kernel rows are
    built against the trailing columns ``i0:`` only, and by symmetry
    ``K[I, i1:]`` also gives ``K[i1:, I]``, so each off-diagonal pair is
    built once and both of its uses read it while it is in cache.  Blocking
    reorders the sums, so the result agrees with one ``gram`` and one matmul
    to rounding, not bit for bit.
    """
    n = X.shape[0]
    rows = _rows_per_block(n)
    if n <= rows:
        d2 = h.distances_for(X) if isinstance(h, Bandwidth) else None
        if d2 is None:
            return gram(X, X, h) @ V
        E = d2 / -h
        K = squareform(np.exp(E, out=E))
        np.fill_diagonal(K, 1.0)
        return K @ V
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
