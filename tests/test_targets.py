import threading

import numpy as np
import pytest

from gsvgd.dynamics import KINDS, DynamicsSpec, RiemannConfig
from gsvgd.integrator import euler_step, symmetric_split_step
from gsvgd.sampler import gsvgd_velocity
from gsvgd.targets import (TargetDensity, gaussian, gaussian_mixture,
                           standard_gaussian, tri_crescent_target)

from helpers import fd_gradient, make_spec, rel_err


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


def counting(base):
    """``base`` with a score that counts its evaluations in ``.calls``."""
    calls = []

    def grad_fn(X):
        calls.append(1)
        return base.grad_fn(X)

    target = TargetDensity(base.dim, base.logp_fn, grad_fn,
                           base.exact_sampler, base.name)
    return target, calls


def fixed_h_field(target, spec, h=0.9):
    return lambda Y: gsvgd_velocity(Y, target, spec, h)


class TestScoreMemo:
    """``grad_many`` remembers the score of its last batch."""

    def test_full_batch_split_run_scores_each_theta_once(self):
        # The momentum half steps leave theta as it was, so K split steps
        # see K + 1 distinct thetas.
        base, calls = counting(tri_crescent_target())
        spec = DynamicsSpec("HMC", 2, friction=0.3)
        target = spec.augment(base)
        X = np.random.default_rng(0).standard_normal((6, 4))
        steps = 5
        for _ in range(steps):
            X = symmetric_split_step(X, fixed_h_field(target, spec), 0.05, spec)
        assert len(calls) == steps + 1

    def test_new_target_per_step_scores_twice_per_step(self):
        # As the BNN run does with a minibatch: a new base each iteration,
        # so only the first two sub-states of a step share the score.
        calls = []
        spec = DynamicsSpec("HMC", 2, friction=0.3)
        X = np.random.default_rng(1).standard_normal((6, 4))
        steps = 4
        for _ in range(steps):
            base, step_calls = counting(tri_crescent_target())
            X = symmetric_split_step(
                X, fixed_h_field(spec.augment(base), spec), 0.05, spec)
            calls += step_calls
        assert len(calls) == 2 * steps

    @pytest.mark.parametrize("kind", ["RLD", "RHMC"])
    def test_metric_and_drift_share_one_score(self, kind):
        base, calls = counting(tri_crescent_target())
        spec = DynamicsSpec(kind, 2, riemann=RiemannConfig(base))
        X = np.random.default_rng(2).standard_normal((7, spec.dim))
        euler_step(X, fixed_h_field(spec.augment(base), spec), 0.05)
        assert len(calls) == 1

    def test_hit_is_bit_identical_to_a_fresh_evaluation(self):
        target, calls = counting(tri_crescent_target())
        X = np.random.default_rng(3).standard_normal((9, 2))
        first = target.grad_many(X)
        hit = target.grad_many(X.copy())
        assert len(calls) == 1
        assert hit.tobytes() == first.tobytes()
        assert hit.tobytes() == target.grad_fn(X).tobytes()

    def test_mutating_a_result_does_not_change_a_later_hit(self):
        base = gaussian_mixture([[0.0, 0.0], [3.0, 1.0]])
        target, calls = counting(base)
        X = np.random.default_rng(4).standard_normal((5, 2))
        fresh = base.grad_fn(X)
        target.grad_many(X)[:] = 7.0
        target.grad_many(X)[:] = -7.0
        np.testing.assert_array_equal(target.grad_many(X), fresh)
        assert len(calls) == 1

    def test_equal_values_with_other_bytes_recompute(self):
        target, calls = counting(standard_gaussian(2))
        target.grad_many(np.array([[0.0, 1.0]]))
        target.grad_many(np.array([[-0.0, 1.0]]))
        assert len(calls) == 2
        nan_a = np.array([[np.nan, 1.0]])
        nan_b = nan_a.copy()
        nan_b.view(np.uint64)[0, 0] ^= 1          # another NaN payload
        assert np.isnan(nan_b[0, 0])
        target.grad_many(nan_a)
        target.grad_many(nan_b)
        assert len(calls) == 4

    def test_validates_before_the_memo(self):
        target = standard_gaussian(2)
        X = np.zeros((3, 2))
        target.grad_many(X)
        with pytest.raises(ValueError):
            target.grad_many(X.reshape(2, 3))

    def test_concurrent_calls_match_fresh_evaluations(self):
        target = tri_crescent_target()
        rng = np.random.default_rng(5)
        inputs = [rng.standard_normal((4, 2)) for _ in range(3)]
        expected = [target.grad_fn(X) for X in inputs]
        failures = []

        def worker(offset):
            for i in range(300):
                k = (i + offset) % 3
                if target.grad_many(inputs[k]).tobytes() != \
                        expected[k].tobytes():
                    failures.append(k)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_fields_match_fresh_targets_bit_for_bit(self, kind):
        # The same steps, once on one memoized target and once on a new
        # base, metric and augmented target for every field call.
        def problem():
            return make_spec(kind, friction=0.4, sigma2=0.8, mu=1.5)

        spec, target = problem()
        X0 = np.random.default_rng(6).uniform(-1.5, 1.5, size=(8, spec.dim))
        runs = []
        for fresh in (False, True):
            seen = []

            def field(Y):
                s, t = problem() if fresh else (spec, target)
                v = gsvgd_velocity(Y, t, s, 0.9)
                seen.append(v.tobytes())
                return v

            X = X0
            for _ in range(3):
                if spec.has_r:
                    X = symmetric_split_step(X, field, 0.05, spec)
                else:
                    X = euler_step(X, field, 0.05)
            runs.append((seen, X.tobytes()))
        assert runs[0] == runs[1]
