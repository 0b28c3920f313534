"""Median-heuristic bandwidth of the squared-exponential kernel.

Convention: ``k(x, y) = exp(-||x - y||^2 / h)`` with bandwidth
``h = med^2 / log N``, where ``med`` is the median of the off-diagonal
pairwise distances of the current particle set.  The scaling constant of the
median rule is a documented choice; step-size tuning absorbs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

Array = np.ndarray


def median_bandwidth(positions, h_min: float = 1e-6) -> float:
    """Median-heuristic bandwidth ``med^2 / log N``, clamped below by h_min.

    ``med`` is the median of all N(N-1)/2 off-diagonal pairwise Euclidean
    distances; this is why the full sorted distance list must feed a single
    median computation.  A one-particle set has no pairwise distances, so it
    returns the clamp of 1.0.  Accepts an (N, D) array or anything carrying
    a ``positions`` attribute.
    """
    positions = np.asarray(getattr(positions, "positions", positions),
                           dtype=float)
    if positions.ndim != 2 or positions.shape[0] < 1:
        raise ValueError("positions must be a nonempty (N, D) array")
    n = positions.shape[0]
    if n == 1:
        return max(1.0, h_min)
    med = float(np.median(pdist(positions)))
    return max(med ** 2 / np.log(n), h_min)


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
