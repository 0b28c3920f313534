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

A one-block set (N <= 362) computes its squared distances once, with
``pdist``: the median bandwidth selects from them and keeps them, and a
contraction at that bandwidth over the same positions builds its kernel
from them, bit for bit as ``gram`` would.

A larger set computes no distances with ``pdist`` or ``cdist``.  Both the
median and each kernel block come from one GEMM on centred coordinates
``x~ = x - mean(x)``: the rows of ``[a x~ | q | 1]`` and ``[x~ | 1 | q]``
multiply to ``a x~_i . x~_j + q_i + q_j``, which is ``||x_i - x_j||^2``
for ``a = -2``, ``q = |x~|^2`` and ``-||x_i - x_j||^2 / h`` for
``a = 2 / h``, ``q = -|x~|^2 / h``.  Its absolute rounding error grows with
``max|x~|^2 / h``, so this form is used only where that bound keeps the
kernel within 1e-12 and the bandwidth within about 4e-14 relative
(``_GEMM_LIMIT``); a set beyond it, or a non-finite one, computes its
distances with ``pdist`` (the median) or ``cdist`` (each block) instead, bit
for bit as before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

Array = np.ndarray

# Kernel entries per row block of :func:`contract` (about 64 rows at N=2000).
_BLOCK_ENTRIES = 1 << 17


# Bound on ``max|x~|^2 / h * sqrt(D + 2)`` for the GEMM-formed blocks of
# :func:`contract` (and, as derived there, for the GEMM-formed distances of
# :func:`median_bandwidth`).  The GEMM exponent's absolute rounding error was
# measured at most ``c * eps * max|x~|^2 / h`` with ``c <= 2.3 * sqrt(D + 2)``:
# c = 3.9 at D=1, 5.0 at D=4, 9.3 at D=17, 17 at D=64 and 40 at D=612 (400
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


def _centred(X: Array):
    """Centred coordinates ``x~ = x - mean(x)`` and their squared norms,
    which are non-finite, without a warning, for a non-finite or huge
    ``X``."""
    with np.errstate(invalid="ignore", over="ignore"):
        Xc = X - X.mean(axis=0)
        return Xc, np.einsum("ij,ij->i", Xc, Xc)


def _gemm_factors(Xc: Array, scale: float, q: Array):
    """``(P, Q)`` with ``P = [scale x~ | q | 1]`` and ``Q = [x~ | 1 | q]``,
    so ``P_i . Q_j = scale x~_i . x~_j + q_i + q_j``."""
    n, d = Xc.shape
    P, Q = np.empty((n, d + 2)), np.empty((n, d + 2))
    np.multiply(Xc, scale, out=P[:, :d])
    P[:, d], P[:, d + 1] = q, 1.0
    Q[:, :d], Q[:, d], Q[:, d + 1] = Xc, 1.0, q
    return P, Q


def _gemm_admits(s_max: float, d: int, h: float) -> bool:
    """True when ``max|x~|^2 / h * sqrt(D + 2)`` is within ``_GEMM_LIMIT``
    (False for a non-finite set, or for h = 0)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return bool(s_max / h * np.sqrt(d + 2) <= _GEMM_LIMIT)


def _gemm_distances(Xc: Array, s: Array) -> Array:
    """The m = N(N-1)/2 off-diagonal squared distances of a blocked set, in
    a buffer of exactly m entries, formed by GEMM from the centred
    coordinates ``Xc`` and their squared norms ``s``: the rows of
    ``[-2 x~ | s | 1]`` and ``[x~ | 1 | s]`` multiply to
    ``||x_i - x_j||^2``.  Row block ``I = [i0, i1)`` writes its rectangle
    against the columns ``i1:`` straight into the buffer, then the strict
    upper triangle of its square part.  The order is not ``pdist``'s, and
    an entry may round below 0 (:func:`_median_rule` allows for both).  A
    set too large for its squares overflows without a warning, as in
    ``pdist``."""
    n = Xc.shape[0]
    P, Q = _gemm_factors(Xc, -2.0, s)
    buf = np.empty(n * (n - 1) // 2)
    rows = _rows_per_block(n)
    upper = {}
    at = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n, rows):
            i1 = min(i0 + rows, n)
            b = i1 - i0
            rect = buf[at:at + b * (n - i1)].reshape(b, n - i1)
            np.matmul(P[i0:i1], Q[i1:].T, out=rect)
            at += rect.size
            if b not in upper:
                r, c = np.triu_indices(b, 1)
                upper[b] = r * b + c
            np.take(P[i0:i1] @ Q[i0:i1].T, upper[b],
                    out=buf[at:at + upper[b].size])
            at += upper[b].size
    return buf


def _median_rule(d2: Array, n: int, h_min: float):
    """``(h, g)`` from m squared distances: the bandwidth
    ``max(med^2 / log N, h_min)`` and the geometric mean ``g`` of the one
    or two middle values.

    The middle values come from one partition at ``k = m // 2`` (for even
    m the lower one is the maximum below k), run on the int64 view of
    ``d2``, which it reorders: non-negative doubles order as their bit
    patterns, and integer keys select faster than doubles.  A negative
    rounding residue of a GEMM-formed distance sorts below every
    non-negative key, so only the selected values are clamped at 0.  Only
    they are square-rooted.
    """
    k = d2.size // 2
    d2.view(np.int64).partition(k)
    middle = [d2[k]] if d2.size % 2 else [d2[:k].max(), d2[k]]
    roots = np.sqrt(np.maximum(middle, 0.0))
    med = float(np.mean(roots))
    return max(med ** 2 / np.log(n), h_min), float(roots[0] * roots[-1])


def median_bandwidth(positions, h_min: float = 1e-6) -> Bandwidth:
    """Median-heuristic bandwidth ``med^2 / log N``, clamped below by h_min.

    ``med`` is the median of the m = N(N-1)/2 off-diagonal pairwise
    distances, found by selection over their squares (:func:`_median_rule`).
    A one-particle set returns the clamp of 1.0.

    A one-block set selects from a copy of its ``pdist`` squared distances,
    so ``med`` equals ``np.median(pdist(X))`` bit for bit, and the result
    carries the distances (:class:`Bandwidth`).  A larger set selects from
    squared distances formed by GEMM on centred coordinates
    (:func:`_gemm_distances`), so ``h`` agrees with the ``pdist`` rule to
    about 4e-14 relative; where the rounding bound below does not hold, it
    selects from ``pdist`` distances instead, bit for bit as a one-block
    set does.
    """
    positions = np.asarray(positions, dtype=float)
    if (positions.ndim != 2 or positions.shape[0] < 1
            or not np.all(np.isfinite(positions))):
        raise ValueError("positions must be a finite, nonempty (N, D) array")
    n, d = positions.shape
    if n == 1:
        return Bandwidth(max(1.0, h_min))
    if n <= _rows_per_block(n):
        d2 = pdist(positions, "sqeuclidean")
        return Bandwidth(_median_rule(d2.copy(), n, h_min)[0], d2, positions)
    # Each GEMM distance is within c * eps * max|x~|^2 of the exact one, with
    # c <= 2.3 * sqrt(D + 2) as measured for the exponent of contract's
    # blocks (whose factors round once more, in the scaling by 2 / h).  A
    # k-th smallest value moves no further than the largest perturbation, so
    # each middle value a, b is within E = 2.3 * eps * sqrt(D + 2) *
    # max|x~|^2 of its exact value; h = ((sqrt(a) + sqrt(b)) / 2)^2 / log N
    # then moves by at most E / sqrt(a b) relative.  So the guard bounds
    # max|x~|^2 * sqrt(D + 2) / (g / log N), with g = sqrt(a b) (g / log N
    # is the unclamped h when m is odd), by _GEMM_LIMIT: the relative error
    # of h stays below 2.3 * eps * 2**9 / log N, 3.4e-14 at N = 2000 and
    # 4.4e-14 at N = 363.  Through g, the guard also refuses an even m whose
    # lower middle value is (near) zero, where the square root would
    # magnify the error.
    Xc, s = _centred(positions)
    h, g = _median_rule(_gemm_distances(Xc, s), n, h_min)
    if not _gemm_admits(s.max(), d, g / np.log(n)):
        h = _median_rule(pdist(positions, "sqeuclidean"), n, h_min)[0]
    return Bandwidth(h)


def gram(Xa: Array, Xb: Array, h: float) -> Array:
    """Kernel matrix ``exp(-||Xa_i - Xb_j||^2 / h)``, built in place."""
    K = cdist(Xa, Xb, "sqeuclidean")
    return np.exp(np.divide(K, -h, out=K), out=K)


def _exponent_factors(X: Array, h: float):
    """``(P, Q)`` with ``P @ Q.T = -||x_i - x_j||^2 / h`` from centred
    coordinates, or None when ``X`` exceeds ``_GEMM_LIMIT`` or is not
    finite."""
    Xc, s = _centred(X)
    if not _gemm_admits(s.max(), X.shape[1], h):
        return None
    return _gemm_factors(Xc, 2.0 / h, s / -h)


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
    differently from ``cdist``, so for a larger set the result agrees with
    one ``gram`` and one matmul to about 1e-12 relative to
    ``max(1, |K @ V|)``; it is bit for bit only for a one-block set.
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
