"""Mass of the ``tri_crescent`` density by midpoint quadrature.

Usage, from the repository root::

    python3 tools/crescent_mass.py [--out results/crescent_mass.json]

Integrates ``exp(logp_many)`` of :func:`gsvgd.targets.tri_crescent_target`
by the midpoint rule on square cells of side 0.01, with x in [-6, 6] (the
``exp(-0.1 x**4)`` factor leaves under 1e-50 of the mass outside).  It
writes one JSON with

* the mass of each strip ``|y| <= L`` for L in 2.5, 5, 10, 20 and 80;
* the mass of each mode ball under the rule of
  :func:`gsvgd.diagnostics.mode_occupancy` (a point belongs to its nearest
  centre, ties to the lower index, when it lies within the radius), at
  radius 1.2 around :func:`gsvgd.diagnostics.tri_crescent_mode_centers`.

The density's z = 0 component is ``exp(-0.6 x**4)`` for every y, so the
strip mass grows by ``4 Gamma(5/4) / (3 * 0.6**(1/4))`` per unit of L and
the density has no normalizing constant.  The ball masses are finite, so
their share of any strip that holds them falls as 1/L.  No sampling is
involved: the output is the same on every run, and takes a few seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gsvgd.diagnostics import tri_crescent_mode_centers  # noqa: E402
from gsvgd.targets import tri_crescent_target  # noqa: E402

SPACING = 0.01
X_HALF = 6.0
HALF_WIDTHS = (2.5, 5.0, 10.0, 20.0, 80.0)
RADIUS = 1.2
# Rows of cells per logp_many call: about 120k points, 2 MB per array.
_ROWS = 100
# Mass added per unit of L by the z = 0 component, (1/3) exp(-0.6 x**4).
GROWTH = 4.0 * math.gamma(1.25) / (3.0 * 0.6 ** 0.25)


def midpoints(lo: float, hi: float, step: float = SPACING) -> np.ndarray:
    """Centres of the cells of side ``step`` that tile ``[lo, hi]``."""
    return lo + step * (np.arange(round((hi - lo) / step)) + 0.5)


def grid_rows(y: np.ndarray):
    """Yield the (M, 2) cell midpoints of ``_ROWS`` rows at ``y`` at a
    time, x varying fastest, over x in [-X_HALF, X_HALF]."""
    x = midpoints(-X_HALF, X_HALF)
    for i in range(0, len(y), _ROWS):
        rows = y[i:i + _ROWS]
        yield np.column_stack([np.tile(x, len(rows)), np.repeat(rows, len(x))])


def strip_mass(half_width: float) -> float:
    """Midpoint-rule mass of the strip ``|y| <= half_width``."""
    target = tri_crescent_target()
    total = 0.0
    for points in grid_rows(midpoints(-half_width, half_width)):
        total += np.exp(target.logp_many(points)).sum()
    return total * SPACING * SPACING


def assign(points: np.ndarray, centers: np.ndarray,
           radius: float) -> np.ndarray:
    """Index of each point's ball under ``mode_occupancy``'s rule, or -1."""
    dists = np.sqrt(((points[:, None, :] - centers) ** 2).sum(axis=2))
    nearest = np.argmin(dists, axis=1)
    within = dists[np.arange(len(points)), nearest] <= radius
    return np.where(within, nearest, -1)


def ball_masses(centers: np.ndarray, radius: float) -> np.ndarray:
    """Midpoint-rule mass of each centre's ball, over the rows of cells
    that can hold a ball."""
    target = tri_crescent_target()
    reach = np.abs(centers[:, 1]).max() + radius
    masses = np.zeros(len(centers))
    for points in grid_rows(midpoints(-reach, reach)):
        labels = assign(points, centers, radius)
        weights = np.exp(target.logp_many(points))
        masses += np.bincount(labels + 1, weights=weights,
                              minlength=len(centers) + 1)[1:]
    return masses * SPACING * SPACING


def table() -> dict:
    centers = tri_crescent_mode_centers()
    return {
        "target": "tri_crescent",
        "rule": "midpoint",
        "spacing": SPACING,
        "x_range": [-X_HALF, X_HALF],
        "growth_per_unit_L": GROWTH,
        "strip_mass": [{"L": L, "mass": strip_mass(L)} for L in HALF_WIDTHS],
        "mode_radius": RADIUS,
        "mode_centers": centers.tolist(),
        "ball_mass": ball_masses(centers, RADIUS).tolist(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "results"
                                             / "crescent_mass.json"))
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(table(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
