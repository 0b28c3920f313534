"""The committed crescent-mass table, ``results/crescent_mass.json``, agrees
with the script that writes it, ``tools/crescent_mass.py``.

The cheap entries are recomputed: the narrowest strip and the three ball
masses, together well under a second.  The wide strips are checked against
the analytic growth rate of the density's flat component instead.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gsvgd.diagnostics import mode_occupancy, tri_crescent_mode_centers

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def script():
    name = "crescent_mass_script"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "tools" / "crescent_mass.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.fixture(scope="module")
def table():
    return json.loads((ROOT / "results" / "crescent_mass.json").read_text())


def test_table_states_the_script_grid_and_rule(table, script):
    assert table["spacing"] == script.SPACING
    assert table["x_range"] == [-script.X_HALF, script.X_HALF]
    assert [row["L"] for row in table["strip_mass"]] == \
        list(script.HALF_WIDTHS)
    assert table["mode_radius"] == script.RADIUS
    assert table["mode_centers"] == tri_crescent_mode_centers().tolist()
    assert table["growth_per_unit_L"] == script.GROWTH


def test_narrowest_strip_recomputes(table, script):
    # The same cells summed in the same order: equal to rounding.
    row = table["strip_mass"][0]
    assert script.strip_mass(row["L"]) == pytest.approx(row["mass"],
                                                        rel=1e-12)


def test_ball_masses_recompute(table, script):
    masses = script.ball_masses(np.array(table["mode_centers"]),
                                table["mode_radius"])
    np.testing.assert_allclose(masses, table["ball_mass"], rtol=1e-12)


def test_assignment_is_the_mode_occupancy_rule(script):
    pts = np.stack(np.meshgrid(script.midpoints(-3.2, 3.2, 0.05),
                               script.midpoints(-3.2, 3.2, 0.05)),
                   axis=-1).reshape(-1, 2)
    centers = tri_crescent_mode_centers()
    labels = script.assign(pts, centers, 1.2)
    fractions, unassigned = mode_occupancy(pts, centers, 1.2)
    np.testing.assert_array_equal(
        fractions, [np.mean(labels == k) for k in range(len(centers))])
    assert unassigned == np.mean(labels == -1)


def test_wide_strips_grow_at_the_flat_component_rate(table):
    # Beyond |y| = 5 the two tilted components add no mass at 1e-4.
    mass = {row["L"]: row["mass"] for row in table["strip_mass"]}
    for lo, hi in [(5.0, 10.0), (10.0, 20.0), (20.0, 80.0)]:
        assert (mass[hi] - mass[lo]) / (hi - lo) == pytest.approx(
            table["growth_per_unit_L"], rel=1e-4)


def test_table_holds_the_values_the_roadmap_quotes(table):
    # To the digits quoted: strips 6.08, 9.56, 16.4, 30.2, 112.5 and balls
    # 0.211, 0.251, 1.366.
    quoted = [(6.08, 0.005), (9.56, 0.005), (16.4, 0.05), (30.2, 0.05),
              (112.5, 0.05)]
    for row, (value, half_unit) in zip(table["strip_mass"], quoted):
        assert abs(row["mass"] - value) <= half_unit
    np.testing.assert_allclose(table["ball_mass"], [0.211, 0.251, 1.366],
                               atol=5e-4, rtol=0)
