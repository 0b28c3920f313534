"""Squared-exponential kernel: median-heuristic bandwidth and the
kernel-weighted sums over a particle set.

Convention: ``k(x, y) = exp(-||x - y||^2 / h)`` with bandwidth
``h = med^2 / log N``, where ``med`` is the median of the off-diagonal
pairwise distances of the current particle set.  The scaling constant of the
median rule is a documented choice; step-size tuning absorbs it.

Every pairwise sum the samplers need is ``K @ V`` for the set's own kernel
matrix ``K`` and a stacked right-hand side ``V``; :func:`contract` computes
it in cache-sized symmetric row blocks, so at most one block of the kernel
matrix is held and each off-diagonal kernel pair is built once.

Every squared distance comes from one GEMM on centred coordinates
``x~ = x - mean(x)``: the rows of ``[a x~ | q | 1]`` and ``[x~ | 1 | q]``
multiply to ``a x~_i . x~_j + q_i + q_j``, which is ``||x_i - x_j||^2``
for ``a = -2``, ``q = |x~|^2`` and ``-||x_i - x_j||^2 / h`` for
``a = 2 / h``, ``q = -|x~|^2 / h``.  Its absolute rounding error grows with
``max|x~|^2 / h``, so this form is used only where that bound keeps the
kernel within 1e-12 and the bandwidth within ``2.3 eps 2**9 / log N``
relative (``_GEMM_LIMIT``); a set beyond it, or a non-finite one, forms its
squared distances from coordinate differences instead (:func:`_exact_d2`).

A one-block set (N <= 362) forms the square matrix of its squared distances
once: the median bandwidth selects from its strict upper triangle and keeps
it, and a contraction at that bandwidth over the same positions builds its
kernel from it instead of forming the same square again.  A larger set
fills one buffer of its N(N-1)/2 distances for the median, and forms each
kernel block of the contraction as ``exp`` of one GEMM.

Nothing here uses scipy: importing ``scipy.spatial`` for a distance would
also load ``scipy.linalg``, which costs more memory than a run's own arrays
at these set sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


@lru_cache(maxsize=4)
def _upper(n: int) -> Array:
    """Flat indices of the strict upper triangle of an n x n matrix, in row
    order (read-only; cached, since a run keeps its set size)."""
    r, c = np.triu_indices(n, 1)
    flat = r * n + c
    flat.flags.writeable = False
    return flat


class Bandwidth(float):
    """A kernel bandwidth that may carry the squared distances behind it.

    :func:`median_bandwidth` of a one-block set keeps its (N, N) squared
    distances (read-only), exactly those :func:`contract` would form at this
    bandwidth, with the shape and bytes of the positions they came from;
    :func:`contract` builds its kernel from them when it is given this
    bandwidth and the same positions.  Arithmetic on it gives a plain
    float, so ``float(h)`` or any derived value carries nothing.
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


def _centred(X: Array, centre=None):
    """Coordinates ``x~ = x - centre`` (by default the mean of ``X``) and
    their squared norms, which are non-finite, without a warning, for a
    non-finite or huge ``X``."""
    with np.errstate(invalid="ignore", over="ignore"):
        # np.add.reduce / N is X.mean(axis=0) bit for bit, at less overhead.
        Xc = X - (np.add.reduce(X, axis=0) / X.shape[0] if centre is None
                  else centre)
        return Xc, np.einsum("ij,ij->i", Xc, Xc)


def _gemm_factors(Xc: Array, scale: float, q: Array, Yc=None, qy=None):
    """``(P, Q)`` with ``P = [scale x~ | q | 1]`` and ``Q = [y~ | 1 | qy]``
    (``y~ = x~`` and ``qy = q`` unless given), so
    ``P_i . Q_j = scale x~_i . y~_j + q_i + qy_j``."""
    if Yc is None:
        Yc, qy = Xc, q
    d = Xc.shape[1]
    P, Q = np.empty((Xc.shape[0], d + 2)), np.empty((Yc.shape[0], d + 2))
    np.multiply(Xc, scale, out=P[:, :d])
    P[:, d], P[:, d + 1] = q, 1.0
    Q[:, :d], Q[:, d], Q[:, d + 1] = Yc, 1.0, qy
    return P, Q


def _gemm_admits(s_max: float, d: int, h: float) -> bool:
    """True when ``max|x~|^2 / h * sqrt(D + 2)`` is within ``_GEMM_LIMIT``
    and ``max|x~|^2 <= 2**1020`` (False for a non-finite set, or a NaN h).
    Every GEMM entry is at most about ``4 max|x~|^2``, so an admitted set
    cannot overflow it.  Plain float arithmetic: no ``np.errstate`` is
    needed."""
    return s_max <= min(_GEMM_LIMIT * h / math.sqrt(d + 2), 2.0 ** 1020)


def _exact_d2(Xa: Array, Xb: Array) -> Array:
    """``||Xa_i - Xb_j||^2`` from coordinate differences, in row blocks of
    at most ``_BLOCK_ENTRIES`` differences: the fallback wherever the GEMM
    guard refuses.  A set too large for its squares overflows to ``inf``
    without a warning; equal rows give exactly 0."""
    out = np.empty((Xa.shape[0], Xb.shape[0]))
    rows = max(1, _BLOCK_ENTRIES // max(1, Xb.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, Xa.shape[0], rows):
            diff = Xa[i0:i0 + rows, None, :] - Xb
            np.einsum("ijk,ijk->ij", diff, diff, out=out[i0:i0 + rows])
    return out


def _gemm_square(Xc: Array, s: Array, out=None) -> Array:
    """The (N, N) squared distances of a set from its centred coordinates
    ``Xc`` and their squared norms ``s``, by one GEMM (into ``out`` if
    given), with the diagonal set to exactly 0.  An entry may round below 0
    (:func:`_median_rule` allows for it).  A set that :func:`_gemm_admits`
    refuses may overflow, so a caller without that check holds an
    ``np.errstate``."""
    P, Q = _gemm_factors(Xc, -2.0, s)
    S = np.matmul(P, Q.T, out=out)
    S.ravel()[::S.shape[0] + 1] = 0.0
    return S


def _condensed_d2(X: Array, Xc: Array, s: Array, gemm: bool) -> Array:
    """The m = N(N-1)/2 off-diagonal squared distances of a blocked set, in
    a buffer of exactly m entries.  With ``gemm`` they are formed from the
    centred coordinates ``Xc`` and their squared norms ``s``: the rows of
    ``[-2 x~ | s | 1]`` and ``[x~ | 1 | s]`` multiply to
    ``||x_i - x_j||^2``, and an entry may round below 0
    (:func:`_median_rule` allows for it); else from the differences of
    ``X`` (:func:`_exact_d2`).  Row block ``I = [i0, i1)`` writes its
    rectangle against the columns ``i1:`` straight into the buffer, then the
    strict upper triangle of its square part.  A set too large for its
    squares overflows without a warning."""
    n = X.shape[0]
    P, Q = _gemm_factors(Xc, -2.0, s) if gemm else (None, None)
    buf = np.empty(n * (n - 1) // 2)
    rows = _rows_per_block(n)
    at = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n, rows):
            i1 = min(i0 + rows, n)
            b = i1 - i0
            rect = buf[at:at + b * (n - i1)].reshape(b, n - i1)
            if gemm:
                np.matmul(P[i0:i1], Q[i1:].T, out=rect)
                square = P[i0:i1] @ Q[i0:i1].T
            else:
                block = _exact_d2(X[i0:i1], X[i0:])
                rect[...], square = block[:, b:], block[:, :b]
            at += rect.size
            upper = _upper(b)
            np.take(square, upper, out=buf[at:at + upper.size])
            at += upper.size
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
    hi = max(float(d2[k]), 0.0)
    lo = max(float(d2[:k].max()), 0.0) if d2.size % 2 == 0 else hi
    # (r0 + r1) / 2 is np.mean of the one or two roots, bit for bit.
    r0, r1 = math.sqrt(lo), math.sqrt(hi)
    med = (r0 + r1) / 2
    return max(med ** 2 / np.log(n), h_min), r0 * r1


def median_bandwidth(positions, h_min: float = 1e-6) -> Bandwidth:
    """Median-heuristic bandwidth ``med^2 / log N``, clamped below by h_min.

    ``med`` is the median of the m = N(N-1)/2 off-diagonal pairwise
    distances, found by selection over their squares (:func:`_median_rule`).
    A one-particle set returns the clamp of 1.0.

    The squared distances are formed by GEMM on centred coordinates: for a
    one-block set as one (N, N) matrix (:func:`_gemm_square`), whose strict
    upper triangle is copied for the selection, and for a larger set in one
    buffer of m entries (:func:`_condensed_d2`).  So ``h`` agrees with
    the ``np.median`` rule over exact distances to within
    ``2.3 * eps * 2**9 / log N`` relative; where the rounding bound below
    does not hold, it selects from exact distances (:func:`_exact_d2`)
    instead.  A one-block result carries its (N, N) squared distances when
    they are those :func:`contract` forms at this bandwidth
    (:class:`Bandwidth`).
    """
    if not 0 < h_min < math.inf:
        raise ValueError("h_min must be positive and finite")
    positions = np.asarray(positions, dtype=float)
    if (positions.ndim != 2 or positions.shape[0] < 1
            or not np.all(np.isfinite(positions))):
        raise ValueError("positions must be a finite, nonempty (N, D) array")
    n, d = positions.shape
    if n == 1:
        return Bandwidth(max(1.0, h_min))
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
    # 3.8e-13 at N = 2.  Through g, the guard also refuses an even m whose
    # lower middle value is (near) zero, where the square root would
    # magnify the error.
    Xc, s = _centred(positions)
    s_max = float(s.max())
    if n > _rows_per_block(n):
        h, g = _median_rule(_condensed_d2(positions, Xc, s, True), n, h_min)
        if not _gemm_admits(s_max, d, g / math.log(n)):
            h = _median_rule(_condensed_d2(positions, Xc, s, False), n,
                             h_min)[0]
        return Bandwidth(h)
    # One buffer holds the square and, after it, the copy of its upper
    # triangle that the selection reorders (mode="clip" lets take write
    # there unbuffered).  Two separate arrays, 1 MB and 0.5 MB at N = 362,
    # are returned to the system by glibc's heap trimming and faulted in
    # again on every step (about 220 minor faults per step of a crescent
    # RHMC run at N = 362); the one buffer is reused (4 per step).
    upper = _upper(n)
    buf = np.empty(n * n + upper.size)
    with np.errstate(over="ignore", invalid="ignore"):
        S = _gemm_square(Xc, s, out=buf[:n * n].reshape(n, n))
    h, g = _median_rule(np.take(S, upper, out=buf[n * n:], mode="clip"), n,
                        h_min)
    gemm = _gemm_admits(s_max, d, g / math.log(n))
    if not gemm:
        S = _exact_d2(positions, positions)
        h = _median_rule(S.take(upper), n, h_min)[0]
    # Carry S where it is what contract forms at this h: the GEMM matrix
    # where its guard admits h, else the exact one.
    return Bandwidth(h, S if gemm == _gemm_admits(s_max, d, h) else None,
                     positions)


def _exponent_factors(X: Array, h: float):
    """``(P, Q)`` with ``P @ Q.T = -||x_i - x_j||^2 / h`` from centred
    coordinates, or None when ``X`` exceeds ``_GEMM_LIMIT`` or is not
    finite."""
    Xc, s = _centred(X)
    if not _gemm_admits(float(s.max()), X.shape[1], h):
        return None
    return _gemm_factors(Xc, 2.0 / h, s / -h)


def contract(X: Array, h: float, V: Array) -> Array:
    """``K @ V`` for the kernel matrix ``K`` of an (N, D) set ``X`` at
    bandwidth ``h`` and an (N, m) ``V``.

    A set of at most one block builds ``K = exp(d2 / -h)`` in place in its
    (N, N) squared distances: those a :class:`Bandwidth` carries for this
    ``X``, else the set's own :func:`_gemm_square` while the guard admits
    ``h``, else :func:`_exact_d2`.  For a finite set its diagonal is
    exactly 1, and the result is one matmul.  A larger set is swept in row blocks
    ``I = [i0, i1)``: the block's kernel rows are built against the
    trailing columns ``i0:`` only, and by symmetry ``K[I, i1:]`` also gives
    ``K[i1:, I]``, so each off-diagonal pair is built once and both of its
    uses read it while it is in cache.  Each block is ``exp`` of one GEMM
    of the centred factors of :func:`_exponent_factors`, with its diagonal
    set to exactly 1; where those factors' rounding bound does not hold,
    each block's exponent comes from :func:`_exact_d2` instead.  Blocking
    reorders the sums, so for a larger set the result agrees with the dense
    product to about 1e-12 relative to ``max(1, |K @ V|)``.
    """
    n = X.shape[0]
    rows = _rows_per_block(n)
    if n <= rows:
        d2 = h.distances_for(X) if isinstance(h, Bandwidth) else None
        if d2 is None:
            Xc, s = _centred(X)
            d2 = (_gemm_square(Xc, s)
                  if _gemm_admits(float(s.max()), X.shape[1], h)
                  else _exact_d2(X, X))
            K = np.divide(d2, -h, out=d2)
        else:
            K = d2 / -h
        return np.exp(K, out=K) @ V
    S = np.zeros((n, V.shape[1]))
    factors = _exponent_factors(X, h)
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        if factors is None:
            K = _exact_d2(X[i0:i1], X[i0:])
            np.exp(np.divide(K, -h, out=K), out=K)
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
        h: Bandwidth when ``mode == "fixed"``; must be positive and finite,
            and None in any other mode.
        h_min: Floor applied by the median rule; positive and finite.
    """

    mode: str = "median"
    h: float | None = None
    h_min: float = 1e-6

    def __post_init__(self):
        if self.mode not in ("median", "fixed"):
            raise ValueError(f"unknown bandwidth mode '{self.mode}'")
        # Written as ranges, so that NaN fails them too.
        if self.mode == "fixed" and (self.h is None
                                     or not 0 < self.h < math.inf):
            raise ValueError("fixed mode requires a positive finite "
                             "bandwidth h")
        if self.mode != "fixed" and self.h is not None:
            raise ValueError(f"bandwidth h applies only in fixed mode, "
                             f"not in '{self.mode}' mode")
        if not 0 < self.h_min < math.inf:
            raise ValueError("h_min must be positive and finite")

    def bandwidth(self, positions) -> float:
        """Resolve the bandwidth for the given particle positions."""
        if self.mode == "fixed":
            return float(self.h)
        return median_bandwidth(positions, self.h_min)
