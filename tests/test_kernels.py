import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

import gsvgd.kernels as kernels_mod
from gsvgd.kernels import KernelConfig, contract, gram, median_bandwidth


def median_reference(x, h_min=1e-6):
    """The median rule written with ``np.median`` over Euclidean ``pdist``."""
    return max(float(np.median(pdist(x))) ** 2 / np.log(x.shape[0]), h_min)


class TestMedianBandwidth:
    def test_two_particles(self):
        h = median_bandwidth(np.array([[0.0], [2.0]]))
        assert h == pytest.approx(4.0 / np.log(2.0), rel=1e-12)

    def test_identical_particles_clamp(self):
        h = median_bandwidth(np.zeros((5, 2)), h_min=1e-6)
        assert h == 1e-6

    def test_three_particles(self):
        # distances {1, 2, 3}, median 2
        h = median_bandwidth(np.array([[0.0], [1.0], [3.0]]))
        assert h == pytest.approx(4.0 / np.log(3.0), rel=1e-12)

    def test_single_particle(self):
        assert median_bandwidth(np.array([[7.0, 7.0]])) == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((11, 3))
        perm = rng.permutation(11)
        assert median_bandwidth(x) == median_bandwidth(x[perm])

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((9, 2))
        assert median_bandwidth(x) == median_bandwidth(x + np.array([5.0, -3.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            median_bandwidth(np.zeros((0, 2)))

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (4, 2), (200, 2),
                                     (362, 4), (363, 4), (2000, 4), (11, 306)])
    def test_selection_equals_np_median_bitwise(self, n, d):
        # m = n(n-1)/2 pairs: odd for n = 2, 3, 11, 362, 363; even for
        # n = 4, 200, 2000.  362 is the largest one-block set.
        x = np.random.default_rng(n * 1000 + d).standard_normal((n, d))
        assert median_bandwidth(x) == median_reference(x)

    def test_duplicate_rows_bitwise(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((7, 3))
        x = np.concatenate([x, x[:4], x[:1], x[:1]])
        assert median_bandwidth(x) == median_reference(x)
        y = np.repeat(x[:3], [10, 2, 2], axis=0)  # median distance is 0
        assert median_bandwidth(y, h_min=1e-3) == median_reference(y, 1e-3)
        assert median_bandwidth(y, h_min=1e-3) == 1e-3

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            median_bandwidth(np.array([[0.0], [np.nan], [1.0]]))


class TestGram:
    @pytest.mark.parametrize("na,nb,d", [(1, 1, 1), (5, 9, 3), (64, 200, 4)])
    def test_equals_exp_of_cdist_bitwise(self, na, nb, d):
        rng = np.random.default_rng(na + nb + d)
        xa, xb = rng.standard_normal((na, d)), rng.standard_normal((nb, d))
        for h in (1e-3, 0.7, 3.0, 1e4):
            expected = np.exp(-cdist(xa, xb, "sqeuclidean") / h)
            np.testing.assert_array_equal(gram(xa, xb, h), expected)


class TestContract:
    ROWS = 8

    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1,
                                   3 * ROWS + 5])
    def test_equals_dense_product(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        x, v = rng.standard_normal((n, 3)), rng.standard_normal((n, 5))
        h = 1.7
        expected = gram(x, x, h) @ v
        # Blocks of ROWS rows at this n; record the rows of each gram built.
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", self.ROWS * n)
        rows = []
        monkeypatch.setattr(kernels_mod, "gram",
                            lambda *a: rows.append(a[0].shape[0]) or gram(*a))
        out = contract(x, h, v)
        np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-13)
        np.testing.assert_array_equal(contract(x, h, v), out)
        # One gram per row block in each of the two calls.
        blocks = [min(self.ROWS, n - i0) for i0 in range(0, n, self.ROWS)]
        assert rows == 2 * blocks
        if n <= self.ROWS:
            np.testing.assert_array_equal(out, expected)


class TestSharedDistances:
    """A one-block median bandwidth carries its squared distances to
    ``contract``."""

    @pytest.mark.parametrize("n", [2, 7, 200, 362])
    def test_one_block_set_carries_unpartitioned_distances(self, n):
        x = np.random.default_rng(n).standard_normal((n, 3))
        h = median_bandwidth(x)
        assert isinstance(h, kernels_mod.Bandwidth)
        assert h.d2.tobytes() == pdist(x, "sqeuclidean").tobytes()
        assert not h.d2.flags.writeable
        assert h.distances_for(x) is h.d2

    def test_threshold_is_the_contraction_block(self):
        rng = np.random.default_rng(0)
        assert median_bandwidth(rng.standard_normal((362, 2))).d2 is not None
        assert median_bandwidth(rng.standard_normal((363, 2))).d2 is None
        assert median_bandwidth(np.ones((1, 2))).d2 is None

    def test_derived_values_carry_nothing(self):
        h = median_bandwidth(np.random.default_rng(1).standard_normal((5, 2)))
        for value in (float(h), 2.0 * h, -h, h + 0.0):
            assert type(value) is float
        assert repr(h) == repr(float(h))

    @pytest.mark.parametrize("n", [2, 7, 200, 362])
    def test_contract_from_shared_distances_is_bitwise(self, n, monkeypatch):
        rng = np.random.default_rng(n + 1)
        x, v = rng.standard_normal((n, 4)), rng.standard_normal((n, 3))
        h = median_bandwidth(x)
        expected = gram(x, x, float(h)) @ v
        calls = []
        monkeypatch.setattr(kernels_mod, "cdist",
                            lambda *a: calls.append(1) or cdist(*a))
        out = contract(x.copy(), h, v)
        assert calls == []
        assert out.tobytes() == expected.tobytes()

    def test_other_positions_recompute(self, monkeypatch):
        rng = np.random.default_rng(3)
        x, v = rng.standard_normal((9, 2)), rng.standard_normal((9, 2))
        h = median_bandwidth(x)
        stored = h.d2.copy()
        x[4, 1] += 0.25                     # mutated after the bandwidth
        expected = gram(x, x, float(h)) @ v
        calls = []
        monkeypatch.setattr(kernels_mod, "cdist",
                            lambda *a: calls.append(1) or cdist(*a))
        np.testing.assert_array_equal(contract(x, h, v), expected)
        assert h.distances_for(x) is None
        assert h.distances_for(x[:8]) is None
        h0 = median_bandwidth(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert h0.distances_for(np.array([[-0.0, 1.0], [2.0, 3.0]])) is None
        assert len(calls) == 1
        assert h.d2.tobytes() == stored.tobytes()
        with pytest.raises(ValueError):
            h.d2[0] = 1.0

    def test_blocked_set_contracts_as_before(self, monkeypatch):
        # Blocks of 8 rows at n = 20: the median keeps no distances, and
        # the contraction builds one kernel block per row block.
        n = 20
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", 8 * n)
        rng = np.random.default_rng(4)
        x, v = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        h = median_bandwidth(x)
        assert h.d2 is None
        calls = []
        monkeypatch.setattr(kernels_mod, "cdist",
                            lambda *a: calls.append(1) or cdist(*a))
        np.testing.assert_array_equal(contract(x, h, v),
                                      contract(x, float(h), v))
        assert len(calls) == 2 * 3


class TestKernelConfig:
    def test_fixed_mode(self):
        cfg = KernelConfig("fixed", h=2.5)
        assert cfg.bandwidth(np.zeros((3, 2))) == 2.5

    def test_median_mode(self):
        cfg = KernelConfig("median")
        x = np.array([[0.0], [2.0]])
        assert cfg.bandwidth(x) == median_bandwidth(x)

    def test_fixed_requires_positive_h(self):
        with pytest.raises(ValueError):
            KernelConfig("fixed", h=None)
        with pytest.raises(ValueError):
            KernelConfig("fixed", h=-1.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            KernelConfig("imq")
