import numpy as np
import pytest

from gsvgd.kernels import KernelConfig, median_bandwidth


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

    def test_accepts_ensemble(self):
        from gsvgd.sampler import Ensemble
        from gsvgd.targets import BlockLayout
        x = np.array([[0.0], [2.0]])
        e = Ensemble(x, BlockLayout.theta_only(1))
        assert median_bandwidth(e) == median_bandwidth(x)


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
