import numpy as np
import pytest

from gsvgd.dynamics import DynamicsSpec
from gsvgd.targets import (gaussian, gaussian_mixture, standard_gaussian,
                           tri_crescent_target)

from helpers import fd_gradient, rel_err


def hmc_augmented(base, sigma2):
    """``base`` times ``N(r | 0, sigma2 I)``, as the HMC spec builds it."""
    return DynamicsSpec("HMC", base.dim, sigma2=sigma2).augment(base)


def nht_augmented(base, sigma2, friction, mu):
    """``base`` times ``N(r | 0, sigma2 I) N(xi | friction, 1/mu I)``, as the
    NHT spec builds it."""
    return DynamicsSpec("NHT", base.dim, sigma2=sigma2, friction=friction,
                        mu=mu).augment(base)


def all_builtin_targets():
    return [
        standard_gaussian(1),
        standard_gaussian(3),
        gaussian([1.0, -1.0], [[1.0, 0.5], [0.5, 1.0]]),
        gaussian_mixture([[-2.0], [2.0]]),
        gaussian_mixture([[0.0, 0.0], [3.0, 1.0], [-1.0, 2.0]],
                         weights=[0.2, 0.5, 0.3], var=0.7),
        tri_crescent_target(),
    ]


class TestLogDensity:
    def test_standard_gaussian_at_origin(self):
        assert standard_gaussian(2).logp(np.zeros(2)) == 0.0

    def test_standard_gaussian_value(self):
        assert standard_gaussian(2).logp(np.array([1.0, 0.0])) == -0.5

    def test_tri_crescent_at_origin(self):
        # each mixture term is exp(0), so log((1/3) * 3) = 0
        assert tri_crescent_target().logp(np.zeros(2)) == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            standard_gaussian(2).logp(np.zeros(3))

    def test_nonfinite_point(self):
        with pytest.raises(ValueError):
            standard_gaussian(2).logp(np.array([np.nan, 0.0]))


class TestGradLogDensity:
    def test_standard_gaussian(self):
        g = standard_gaussian(2).grad_logp(np.array([1.0, 0.0]))
        np.testing.assert_allclose(g, [-1.0, 0.0])

    def test_stationary_at_maximum(self):
        g = gaussian([1.0, -1.0], [[1.0, 0.5], [0.5, 1.0]]).grad_logp(
            np.array([1.0, -1.0]))
        assert np.max(np.abs(g)) <= 1e-8

    def test_tri_crescent_matches_fd(self):
        t = tri_crescent_target()
        x = np.array([0.3, 0.5])
        assert rel_err(t.grad_logp(x), fd_gradient(t.logp, x)) <= 1e-5

    def test_all_targets_match_fd(self):
        rng = np.random.default_rng(1)
        for t in all_builtin_targets():
            pts = rng.uniform(-3.0, 3.0, size=(100, t.dim))
            grads = t.grad_many(pts)
            for x, g in zip(pts, grads):
                assert rel_err(g, fd_gradient(t.logp, x)) <= 1e-5, t.name


class TestTriCrescent:
    def test_dim(self):
        assert tri_crescent_target().dim == 2

    def test_y_symmetry(self):
        t = tri_crescent_target()
        rng = np.random.default_rng(2)
        pts = rng.uniform(-3.0, 3.0, size=(100, 2))
        flipped = pts * np.array([1.0, -1.0])
        np.testing.assert_allclose(t.logp_many(pts), t.logp_many(flipped),
                                   rtol=0, atol=1e-12)

    def test_no_overflow_at_large_inputs(self):
        t = tri_crescent_target()
        pts = np.array([[50.0, 50.0], [-50.0, 50.0], [50.0, -50.0],
                        [0.0, 50.0], [50.0, 0.0]])
        assert np.all(np.isfinite(t.logp_many(pts)))

    def test_mixture_no_overflow(self):
        t = gaussian_mixture([[-2.0], [2.0]])
        pts = np.array([[-50.0], [50.0], [0.0]])
        assert np.all(np.isfinite(t.logp_many(pts)))


class TestAugmentation:
    def test_momentum_grad_at_zero(self):
        base = standard_gaussian(2)
        aug = hmc_augmented(base, 0.5)
        theta = np.array([0.7, -0.3])
        x = np.concatenate([theta, np.zeros(2)])
        g = aug.grad_logp(x)
        np.testing.assert_array_equal(g[:2], base.grad_logp(theta))
        np.testing.assert_array_equal(g[2:], np.zeros(2))

    def test_momentum_quadratic_penalty(self):
        aug = hmc_augmented(standard_gaussian(2), 2.0)
        theta = np.array([0.1, 0.2])
        r = np.array([1.0, -3.0])
        diff = aug.logp(np.concatenate([theta, r])) - aug.logp(
            np.concatenate([theta, np.zeros(2)]))
        assert diff == pytest.approx(-np.sum(r ** 2) / 4.0, abs=1e-12)

    def test_theta_gradient_unchanged(self):
        base = tri_crescent_target()
        aug = hmc_augmented(base, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = rng.uniform(-2, 2, size=2)
            r = rng.standard_normal(2)
            g = aug.grad_logp(np.concatenate([theta, r]))
            np.testing.assert_array_equal(g[:2], base.grad_logp(theta))

    def test_momentum_requires_positive_variance(self):
        with pytest.raises(ValueError):
            hmc_augmented(standard_gaussian(1), 0.0)

    def test_thermostat_grad_at_prior_mode(self):
        base = standard_gaussian(2)
        aug = nht_augmented(base, 1.0, friction=0.7, mu=3.0)
        theta = np.array([0.4, 0.1])
        x = np.concatenate([theta, np.zeros(2), np.full(2, 0.7)])
        g = aug.grad_logp(x)
        np.testing.assert_array_equal(g[:2], base.grad_logp(theta))
        np.testing.assert_array_equal(g[2:], np.zeros(4))

    def test_thermostat_linear_score(self):
        aug = nht_augmented(standard_gaussian(2), 1.0,
                                      friction=0.5, mu=2.0)
        xi = np.full(2, 1.5)  # xi - A*1 = 1
        x = np.concatenate([np.zeros(2), np.zeros(2), xi])
        np.testing.assert_allclose(aug.grad_logp(x)[4:], [-2.0, -2.0])

    def test_thermostat_dims(self):
        aug = nht_augmented(standard_gaussian(3), 1.0, 0.0, 1.0)
        assert aug.dim == 9
        assert hmc_augmented(standard_gaussian(3), 1.0).dim == 6

    def test_thermostat_requires_positive_params(self):
        with pytest.raises(ValueError):
            nht_augmented(standard_gaussian(1), -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            nht_augmented(standard_gaussian(1), 1.0, 0.0, 0.0)

    def test_factorization(self):
        # logp(theta, r, xi) - logp(theta, 0, A*1) depends only on (r, xi).
        aug = nht_augmented(tri_crescent_target(), 0.8,
                                      friction=0.3, mu=1.7)
        rng = np.random.default_rng(4)
        r = rng.standard_normal(2)
        xi = rng.standard_normal(2)
        ref = np.concatenate([r, np.full(2, 0.3)])
        diffs = []
        for _ in range(10):
            theta = rng.uniform(-2, 2, size=2)
            diffs.append(
                aug.logp(np.concatenate([theta, r, xi]))
                - aug.logp(np.concatenate([theta, ref])))
        assert np.max(diffs) - np.min(diffs) <= 1e-12

    def test_exact_sampler_composition(self):
        aug = nht_augmented(standard_gaussian(2), 4.0, 0.5, 2.0)
        x = aug.sample_exact(np.random.default_rng(5), 50_000)
        assert x.shape == (50_000, 6)
        assert abs(x[:, 2:4].var() - 4.0) < 0.1
        assert abs(x[:, 4:].mean() - 0.5) < 0.02
        assert abs(x[:, 4:].var() - 0.5) < 0.02

    def test_no_sampler_for_crescent(self):
        aug = hmc_augmented(tri_crescent_target(), 1.0)
        assert aug.exact_sampler is None
        with pytest.raises(ValueError):
            aug.sample_exact(np.random.default_rng(0), 3)


class TestBlockLayout:
    """The blocks of the state on which a spec builds its target."""

    def test_theta_only(self):
        spec = DynamicsSpec("LD", 3)
        assert spec.dim == 3 and not spec.has_r and not spec.has_xi
        assert spec.augment(standard_gaussian(3)).dim == 3

    def test_with_thermostat(self):
        spec = DynamicsSpec("NHT", 2)
        assert spec.dim == 6 and spec.has_r and spec.has_xi
        assert (spec.theta_slice, spec.r_slice, spec.xi_slice) == (
            slice(0, 2), slice(2, 4), slice(4, 6))
        assert spec.augment(standard_gaussian(2)).dim == 6
