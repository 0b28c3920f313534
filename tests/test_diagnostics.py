import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from gsvgd.bnn import BNNPosterior, init_params, make_dataset
from gsvgd.diagnostics import (TraceWriter, energy_distance, mean_distance,
                               mode_occupancy, tri_crescent_mode_centers,
                               write_snapshot)
from gsvgd.diagnostics import test_log_likelihood as ensemble_test_ll
from gsvgd.dynamics import DynamicsSpec


def scipy_terms(X, Y):
    """``(2 E||x - y||, E||x - x'||, E||y - y'||)`` from scipy distances."""
    n, m = len(X), len(Y)
    return (2.0 * cdist(X, Y).mean(), 2.0 * pdist(X).sum() / (n * n),
            2.0 * pdist(Y).sum() / (m * m))


def near_coincident_sets(seed):
    """A cloud with exact and 1e-9-offset copies of its own rows, and a
    reference holding some of those rows, so many GEMM squared distances
    are rounding residues and must be recomputed from differences."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((300, 3)) + [5.0, -2.0, 1.0]
    x[100:150] = x[:50]
    x[150:200] = x[:50] + 1e-9 * rng.standard_normal((50, 3))
    y = np.concatenate([x[:40], rng.standard_normal((160, 3))])
    return x, y


def brute_force_energy(X, Y):
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)
    n, m = len(X), len(Y)
    cross = sum(np.linalg.norm(x - y) for x in X for y in Y) / (n * m)
    wx = sum(np.linalg.norm(a - b) for a in X for b in X) / (n * n)
    wy = sum(np.linalg.norm(a - b) for a in Y for b in Y) / (m * m)
    return 2.0 * cross - wx - wy


class TestEnergyDistance:
    def test_identical_multisets(self):
        x = np.random.default_rng(0).standard_normal((20, 2))
        assert abs(energy_distance(x, x.copy())) <= 1e-12

    def test_two_singletons(self):
        assert energy_distance(np.array([[0.0]]), np.array([[1.0]])) == 2.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal((int(rng.integers(1, 9)), 3))
            y = rng.standard_normal((int(rng.integers(1, 9)), 3))
            assert energy_distance(x, y) == pytest.approx(
                brute_force_energy(x, y), abs=1e-12)

    def test_discriminates_shifted_samples(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal((500, 2))
            same = rng.standard_normal((500, 2))
            shifted = same + np.array([1.0, 0.0])
            assert energy_distance(x, same) <= energy_distance(x, shifted)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.standard_normal((int(rng.integers(1, 30)), 2))
            y = 2.0 * rng.standard_normal((int(rng.integers(1, 30)), 2)) + 1.0
            assert energy_distance(x, y) >= -1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            energy_distance(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_precomputed_reference_term_is_bit_identical(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal((40, 3))
        within = mean_distance(y)
        for n in (1, 2, 17):
            x = rng.standard_normal((n, 3))
            assert energy_distance(x, y, within) == energy_distance(x, y)
        assert mean_distance(y[:1]) == 0.0


class TestEnergyDistanceAgainstScipy:
    """The GEMM row-block sums agree with the scipy form of the energy
    distance to 1e-12 relative to its cross term."""

    @pytest.mark.parametrize("sets", ["gaussian", "offset", "coincident"])
    def test_within_1e12_of_the_scipy_formula(self, sets):
        rng = np.random.default_rng(8)
        if sets == "coincident":
            x, y = near_coincident_sets(9)
        else:
            # 2000 x 1000 pairs: many row blocks, in both sums.
            x = rng.standard_normal((2000, 4))
            y = 1.3 * rng.standard_normal((1000, 4)) + 0.2
            if sets == "offset":
                x, y = x + 1e3, y + 1e3
        cross, within_x, within_y = scipy_terms(x, y)
        assert mean_distance(x) == pytest.approx(within_x, rel=1e-12, abs=0)
        assert mean_distance(y) == pytest.approx(within_y, rel=1e-12, abs=0)
        assert abs(energy_distance(x, y) - (cross - within_x - within_y)) \
            <= 1e-12 * cross
        # Identical multisets, with every pair of coincident rows among the
        # GEMM residues, stay at zero.
        assert abs(energy_distance(x, x.copy())) <= 1e-12 * cross

    def test_non_finite_and_overflowing_sets_warn_nothing(self):
        # The bad row is near no center, and poisons the energy distance.
        y = np.random.default_rng(10).standard_normal((30, 2))
        centers = [[0.0, 0.0], [1.0, 1.0]]
        others = mode_occupancy(np.delete(y[:20], 3, axis=0), centers, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (np.inf, np.nan, 1e200):
                x = y[:20].copy()
                x[3, 1] = bad
                assert not np.isfinite(energy_distance(x, y))
                assert not np.isfinite(energy_distance(y, x))
                fractions, _ = mode_occupancy(x, centers, 1.0)
                np.testing.assert_allclose(20 * fractions, 19 * others[0])


class TestModeOccupancy:
    def test_matches_the_cdist_rule(self):
        rng = np.random.default_rng(11)
        x = 2.0 * rng.standard_normal((500, 2))
        centers = np.array([[2.0, 2.0], [-2.0, -2.0], [0.0, 2.0]])
        dists = cdist(x, centers)
        nearest = np.argmin(dists, axis=1)
        within = dists[np.arange(500), nearest] <= 1.2
        expected = [np.mean(within & (nearest == k)) for k in range(3)]
        fractions, unassigned = mode_occupancy(x, centers, 1.2)
        np.testing.assert_array_equal(fractions, expected)
        assert unassigned == np.mean(~within)

    def test_all_at_first_center(self):
        x = np.zeros((10, 2))
        centers = [[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]
        fractions, unassigned = mode_occupancy(x, centers, 1.0)
        np.testing.assert_array_equal(fractions, [1.0, 0.0, 0.0])
        assert unassigned == 0.0

    def test_tie_goes_to_lower_index(self):
        x = np.array([[0.5, 0.0]])
        fractions, _ = mode_occupancy(x, [[0.0, 0.0], [1.0, 0.0]], 1.0)
        np.testing.assert_array_equal(fractions, [1.0, 0.0])

    def test_even_split(self):
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        pos = np.repeat(centers, 100, axis=0)
        fractions, unassigned = mode_occupancy(pos, centers, 1.0)
        np.testing.assert_allclose(fractions, [1 / 3, 1 / 3, 1 / 3])
        assert unassigned == 0.0

    def test_every_particle_assigned_leaves_exactly_zero(self):
        # 1/6 + 4/6 + 1/6 sums to 1 - 1.1e-16 in floating point, so
        # 1 - sum(fractions) would leave a residue; no particle is
        # unassigned.
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        pos = np.repeat(centers, [1, 4, 1], axis=0)
        fractions, unassigned = mode_occupancy(pos, centers, 1.0)
        np.testing.assert_array_equal(fractions, [1 / 6, 4 / 6, 1 / 6])
        assert unassigned == 0.0

    @pytest.mark.parametrize("radius", [-1.0, 0.0, np.nan, np.inf])
    def test_rejects_radius_outside_range(self, radius):
        with pytest.raises(ValueError, match="radius"):
            mode_occupancy(np.zeros((4, 2)), [[0.0, 0.0]], radius)

    def test_unassigned_fraction(self):
        pos = np.array([[0.0, 0.0], [50.0, 50.0]])
        fractions, unassigned = mode_occupancy(pos, [[0.0, 0.0]], 1.0)
        assert fractions[0] == 0.5 and unassigned == 0.5

    def test_uses_theta_block_only(self):
        # Callers pass the theta block of the state; the whole (theta, r)
        # state does not match the centers and is rejected.
        pos = np.array([[0.0, 0.0, 99.0, 99.0]])
        theta = pos[:, DynamicsSpec("HMC", 2).theta_slice]
        fractions, _ = mode_occupancy(theta, [[0.0, 0.0]], 1.0)
        assert fractions[0] == 1.0
        with pytest.raises(ValueError):
            mode_occupancy(pos, [[0.0, 0.0]], 1.0)

    def test_fractions_bounded(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 2)) * 3
        fractions, unassigned = mode_occupancy(x, [[0.0, 0.0], [2.0, 2.0]], 1.0)
        assert np.all(fractions >= 0) and np.all(fractions <= 1)
        assert 0.0 <= fractions.sum() <= 1.0 + 1e-12
        assert unassigned == pytest.approx(1.0 - fractions.sum(), abs=1e-12)


class TestTriCrescentCenters:
    def test_values(self):
        centers = tri_crescent_mode_centers()
        np.testing.assert_array_equal(
            centers, [[2.0, 2.0], [-2.0, -2.0], [0.0, 2.0]])

    def test_centers_lie_on_component_ridges(self):
        # z_i * y == x^2 for the curved components
        for (x, y), z in zip([(2.0, 2.0), (-2.0, -2.0)], [2.0, -2.0]):
            assert z * y == x ** 2


class TestTestLogLikelihood:
    def test_delegates_to_theta_block(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (30, 1))
        y = np.sin(3 * x[:, 0])
        ds = make_dataset(x, y, seed=0)
        post = BNNPosterior(ds, hidden=5)
        theta = np.stack([init_params(rng, 1, 5) for _ in range(3)])
        aug = np.concatenate([theta, rng.standard_normal(theta.shape)], axis=1)
        block = aug[:, DynamicsSpec("HMC", post.dim).theta_slice]
        from gsvgd.bnn import predictive_log_likelihood
        assert ensemble_test_ll(block, ds, hidden=5) == \
            predictive_log_likelihood(theta, ds, hidden=5)


class TestTraceWriter:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        with TraceWriter(path, ["energy_dist", "test_ll"]) as w:
            w.record(1, {"energy_dist": 0.5})
            w.record(2, {"energy_dist": 0.25, "test_ll": -1.0})
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,energy_dist,test_ll"
        assert lines[1] == "0.5".join(["1,", ","])  # absent metric left empty
        assert len(lines) == 3

    def test_rejects_unknown_column(self, tmp_path):
        with TraceWriter(tmp_path / "t.csv", ["a"]) as w:
            with pytest.raises(ValueError):
                w.record(0, {"b": 1.0})

    def test_byte_identical_rerun(self, tmp_path):
        def emit(path):
            with TraceWriter(path, ["m"]) as w:
                for i in range(5):
                    w.record(i, {"m": np.sin(i) * 1e-3})

        emit(tmp_path / "a.csv")
        emit(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_snapshot_format(self, tmp_path):
        path = tmp_path / "snap.csv"
        write_snapshot(path, 7, np.array([[1.0, 2.0], [3.0, 4.0]]))
        lines = path.read_text().splitlines()
        assert lines[0] == "p0,p1,iter"
        assert lines[1] == "1.0,2.0,7"
        assert len(lines) == 3

    def test_snapshot_bytes_exact(self, tmp_path):
        # Shortest round-trip repr of each float, signed zero and the
        # smallest subnormal included; "\n" line ends; one row per particle.
        path = tmp_path / "snap.csv"
        write_snapshot(path, 12, np.array([[-0.0, 5e-324, 1e300],
                                           [0.1, -2.5, 1.0 / 3.0]]))
        assert path.read_bytes() == (
            b"p0,p1,p2,iter\n"
            b"-0.0,5e-324,1e+300,12\n"
            b"0.1,-2.5,0.3333333333333333,12\n")

    def test_row_count_tracks_records(self, tmp_path):
        with TraceWriter(tmp_path / "t.csv", []) as w:
            for i in range(4):
                w.record(i, {})
            assert w.rows == 4
