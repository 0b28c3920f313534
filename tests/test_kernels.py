import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from gsvgd.kernels import KernelConfig, gram, median_bandwidth


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
                                     (2000, 4), (11, 306)])
    def test_selection_equals_np_median_bitwise(self, n, d):
        # m = n(n-1)/2 pairs: odd for n = 2, 3, 11; even for n = 4, 200, 2000.
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
