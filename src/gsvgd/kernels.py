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

A larger set forms each kernel block with one GEMM on centred coordinates
``x~ = x - mean(x)``: with ``q = -|x~|^2 / h``, the rows of
``P = [(2/h) x~ | q | 1]`` and ``Q = [x~ | 1 | q]`` multiply to
``-||x_i - x_j||^2 / h``.  The exponent's absolute rounding error grows
with ``max|x~|^2 / h``, so this form is used only where that error stays
below 1e-12 (``_GEMM_LIMIT``); a set beyond it, or a non-finite one, forms
its blocks from ``cdist`` distances instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

Array = np.ndarray

# Kernel entries per row block of :func:`contract` (about 64 rows at N=2000).
_BLOCK_ENTRIES = 1 << 17


# Bound on ``max|x~|^2 / h * sqrt(D + 2)`` for the GEMM-formed blocks of
# :func:`contract`.  The GEMM exponent's absolute rounding error was measured
# at most ``c * eps * max|x~|^2 / h`` with ``c <= 2.3 * sqrt(D + 2)``: c = 3.9
# at D=1, 5.0 at D=4, 9.3 at D=17, 17 at D=64 and 40 at D=612 (400
# particles, a tenth of them in a tight cluster at distance 0 to 1000 from a
# unit Gaussian cloud, against a long-double reference).  So the error stays
# below 2.3 * 2.2e-16 * 2**9 = 2.6e-13 <= 1e-12.  At D=4 the bound admits
# max|x~|^2 / h up to 209; SVGD runs on a 4-D Gaussian sit at 11 to 31.
_GEMM_LIMIT = 2.0 ** 9


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


def _exponent_factors(X: Array, h: float):
    """``(P, Q)`` with ``P @ Q.T = -||x_i - x_j||^2 / h`` from centred
    coordinates, or None when ``X`` exceeds ``_GEMM_LIMIT`` or is not
    finite."""
    n, d = X.shape
    with np.errstate(invalid="ignore", over="ignore"):
        Xc = X - X.mean(axis=0)
        q = np.einsum("ij,ij->i", Xc, Xc) / -h
    if not -q.min() * np.sqrt(d + 2) <= _GEMM_LIMIT:
        return None
    P, Q = np.empty((n, d + 2)), np.empty((n, d + 2))
    np.multiply(Xc, 2.0 / h, out=P[:, :d])
    P[:, d], P[:, d + 1] = q, 1.0
    Q[:, :d], Q[:, d], Q[:, d + 1] = Xc, 1.0, q
    return P, Q


def contract(X: Array, h: float, V: Array) -> Array:
    """``gram(X, X, h) @ V`` for (N, D) ``X`` and (N, m) ``V``.

    A set of at most one block is one ``gram`` and one matmul; when ``h``
    is a :class:`Bandwidth` holding the distances of this ``X``, the kernel
    is built from them (bitwise equal to ``gram``).  A larger set
    is swept in row blocks ``I = [i0, i1)``: the block's kernel rows are
    built against the trailing columns ``i0:`` only, and by symmetry
    ``K[I, i1:]`` also gives ``K[i1:, I]``, so each off-diagonal pair is
    built once and both of its uses read it while it is in cache.  Each
    block is ``exp`` of one GEMM of the centred factors of
    :func:`_exponent_factors`, with its diagonal set to exactly 1; where
    those factors' rounding bound does not hold, the block is ``gram``
    instead.  Blocking reorders the sums and the GEMM rounds the exponent
    differently from ``cdist``, so the result agrees with one ``gram`` and
    one matmul to about 1e-12 relative to ``max(1, |K @ V|)``, not bit for
    bit.
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
    factors = _exponent_factors(X, h)
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        if factors is None:
            K = gram(X[i0:i1], X[i0:], h)
        else:
            K = factors[0][i0:i1] @ factors[1][i0:].T
            np.exp(K, out=K)
            np.fill_diagonal(K[:, :i1 - i0], 1.0)
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
