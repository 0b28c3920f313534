"""Squared-exponential kernel: median-heuristic bandwidth and Gram matrix.

Convention: ``k(x, y) = exp(-||x - y||^2 / h)`` with bandwidth
``h = med^2 / log N``, where ``med`` is the median of the off-diagonal
pairwise distances of the current particle set.  The scaling constant of the
median rule is a documented choice; step-size tuning absorbs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

Array = np.ndarray


def median_bandwidth(positions, h_min: float = 1e-6) -> float:
    """Median-heuristic bandwidth ``med^2 / log N``, clamped below by h_min.

    ``med`` is the median of the m = N(N-1)/2 off-diagonal pairwise
    distances, found by selection: one partition of the squared distances at
    ``k = m // 2`` places the middle value at k (for even m, the lower one is
    the maximum below k).  Only these are square-rooted, and their mean
    equals ``np.median(pdist(X))`` bit for bit.  A one-particle set returns
    the clamp of 1.0.  Accepts a finite (N, D) array or a ``positions`` holder.
    """
    positions = np.asarray(getattr(positions, "positions", positions),
                           dtype=float)
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
