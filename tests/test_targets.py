import threading

import numpy as np
import pytest

from gsvgd.diagnostics import tri_crescent_mode_centers
from gsvgd.dynamics import KINDS, DynamicsSpec, RiemannConfig
from gsvgd.integrator import euler_step, symmetric_split_step
from gsvgd.sampler import gsvgd_velocity
from gsvgd.targets import (TargetDensity, gaussian, gaussian_mixture,
                           standard_gaussian, tri_crescent_target)

import helpers
from helpers import fd_gradient, grad_logp, logp, make_spec, rel_err


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
        assert logp(standard_gaussian(2), np.zeros(2)) == 0.0

    def test_standard_gaussian_value(self):
        assert logp(standard_gaussian(2), np.array([1.0, 0.0])) == -0.5

    def test_tri_crescent_at_origin(self):
        # each mixture term is exp(0), so log((1/3) * 3) = 0
        assert logp(tri_crescent_target(), np.zeros(2)) == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            standard_gaussian(2).logp_many(np.zeros((1, 3)))

    def test_nonfinite_point(self):
        with pytest.raises(ValueError):
            logp(standard_gaussian(2), np.array([np.nan, 0.0]))


class TestGradLogDensity:
    def test_standard_gaussian(self):
        g = grad_logp(standard_gaussian(2), np.array([1.0, 0.0]))
        np.testing.assert_allclose(g, [-1.0, 0.0])

    def test_stationary_at_maximum(self):
        g = grad_logp(gaussian([1.0, -1.0], [[1.0, 0.5], [0.5, 1.0]]),
                      np.array([1.0, -1.0]))
        assert np.max(np.abs(g)) <= 1e-8

    def test_tri_crescent_matches_fd(self):
        t = tri_crescent_target()
        x = np.array([0.3, 0.5])
        assert rel_err(grad_logp(t, x),
                       fd_gradient(lambda v: logp(t, v), x)) <= 1e-5

    def test_all_targets_match_fd(self):
        rng = np.random.default_rng(1)
        for t in all_builtin_targets():
            pts = rng.uniform(-3.0, 3.0, size=(100, t.dim))
            grads = t.grad_many(pts)
            for x, g in zip(pts, grads):
                fd = fd_gradient(lambda v: logp(t, v), x)
                assert rel_err(g, fd) <= 1e-5, t.name


class TestValueAndGrad:
    """``value_and_grad_fn`` gives the score of ``grad_fn`` bit for bit and
    the log density of a separate reference."""

    @staticmethod
    def logsumexp_reference(t):
        m = t.max(axis=1)
        return m + np.log(np.exp(t - m[:, None]).sum(axis=1))

    def test_every_target_and_augmentation(self):
        rng = np.random.default_rng(12)
        targets = all_builtin_targets()
        targets += [hmc_augmented(tri_crescent_target(), 0.7),
                    nht_augmented(gaussian_mixture([[-1.0], [2.0]]), 1.3,
                                  friction=0.4, mu=2.0)]
        for t in targets:
            X = rng.uniform(-3.0, 3.0, size=(25, t.dim))
            L, G = t.value_and_grad_fn(X)
            assert G.tobytes() == t.grad_fn(X).tobytes(), t.name
            assert L.shape == (25,)
            np.testing.assert_allclose(L, [logp(t, x) for x in X],
                                       rtol=1e-14, atol=1e-14)

    def test_crescent_log_density(self):
        X = np.random.default_rng(13).uniform(-3.0, 3.0, size=(40, 2))
        z = np.array([-2.0, 0.0, 2.0])
        s = z[None, :] * X[:, 1:2] - X[:, :1] ** 2
        terms = -X[:, :1] ** 4 / 10.0 - 0.5 * s ** 2
        L, _ = tri_crescent_target().value_and_grad_fn(X)
        np.testing.assert_allclose(
            L, self.logsumexp_reference(terms) - np.log(3.0), atol=1e-12)

    def test_mixture_log_density(self):
        means = np.array([[0.0, 0.0], [3.0, 1.0], [-1.0, 2.0]])
        w = np.array([0.2, 0.5, 0.3])
        X = np.random.default_rng(14).uniform(-3.0, 3.0, size=(40, 2))
        terms = np.log(w) - 0.5 * ((X[:, None, :] - means) ** 2).sum(-1) / 0.7
        L, _ = gaussian_mixture(means, w, 0.7).value_and_grad_fn(X)
        np.testing.assert_allclose(L, self.logsumexp_reference(terms),
                                   atol=1e-12)


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

    @pytest.mark.parametrize("points", ["uniform", "centers", "radius_10"])
    def test_score_matches_oracle(self, points):
        angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        X = {"uniform": np.random.default_rng(15).uniform(-3.0, 3.0,
                                                          size=(200, 2)),
             "centers": tri_crescent_mode_centers(),
             "radius_10": 10.0 * np.stack([np.cos(angles), np.sin(angles)],
                                          axis=1)}[points]
        oracle = np.stack([helpers.crescent_score(x) for x in X])
        t = tri_crescent_target()
        # Near-cancelling y-components get the absolute floor 1e-12 of the
        # set's largest score entry.
        for G in (t.grad_fn(X), t.value_and_grad_fn(X)[1]):
            np.testing.assert_allclose(G, oracle, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(oracle)))

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
        g = grad_logp(aug, x)
        np.testing.assert_array_equal(g[:2], grad_logp(base, theta))
        np.testing.assert_array_equal(g[2:], np.zeros(2))

    def test_momentum_quadratic_penalty(self):
        aug = hmc_augmented(standard_gaussian(2), 2.0)
        theta = np.array([0.1, 0.2])
        r = np.array([1.0, -3.0])
        diff = logp(aug, np.concatenate([theta, r])) - logp(aug,
            np.concatenate([theta, np.zeros(2)]))
        assert diff == pytest.approx(-np.sum(r ** 2) / 4.0, abs=1e-12)

    def test_theta_gradient_unchanged(self):
        base = tri_crescent_target()
        aug = hmc_augmented(base, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = rng.uniform(-2, 2, size=2)
            r = rng.standard_normal(2)
            g = grad_logp(aug, np.concatenate([theta, r]))
            np.testing.assert_array_equal(g[:2], grad_logp(base, theta))

    def test_momentum_requires_positive_variance(self):
        with pytest.raises(ValueError):
            hmc_augmented(standard_gaussian(1), 0.0)

    def test_thermostat_grad_at_prior_mode(self):
        base = standard_gaussian(2)
        aug = nht_augmented(base, 1.0, friction=0.7, mu=3.0)
        theta = np.array([0.4, 0.1])
        x = np.concatenate([theta, np.zeros(2), np.full(2, 0.7)])
        g = grad_logp(aug, x)
        np.testing.assert_array_equal(g[:2], grad_logp(base, theta))
        np.testing.assert_array_equal(g[2:], np.zeros(4))

    def test_thermostat_linear_score(self):
        aug = nht_augmented(standard_gaussian(2), 1.0,
                                      friction=0.5, mu=2.0)
        xi = np.full(2, 1.5)  # xi - A*1 = 1
        x = np.concatenate([np.zeros(2), np.zeros(2), xi])
        np.testing.assert_allclose(grad_logp(aug, x)[4:], [-2.0, -2.0])

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
                logp(aug, np.concatenate([theta, r, xi]))
                - logp(aug, np.concatenate([theta, ref])))
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
    """``base`` with evaluators that log each call in ``calls``: ``"vg"``
    for ``value_and_grad_fn`` and ``"g"`` for ``grad_fn``."""
    calls = []

    def value_and_grad_fn(X):
        calls.append("vg")
        return base.value_and_grad_fn(X)

    def grad_fn(X):
        calls.append("g")
        return base.grad_fn(X)

    target = TargetDensity(base.dim, value_and_grad_fn, grad_fn,
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
        assert calls == ["g"] * (steps + 1)

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
        assert calls == ["g"] * (2 * steps)

    @pytest.mark.parametrize("kind", ["RLD", "RHMC"])
    def test_metric_and_drift_share_one_score(self, kind):
        # The metric's energy and score and the drift's score all come
        # from one value-and-gradient call.
        base, calls = counting(tri_crescent_target())
        spec = DynamicsSpec(kind, 2, riemann=RiemannConfig(base))
        X = np.random.default_rng(2).standard_normal((7, spec.dim))
        euler_step(X, fixed_h_field(spec.augment(base), spec), 0.05)
        assert calls == ["vg"]

    def test_rhmc_split_run_evaluates_each_theta_once(self):
        base, calls = counting(tri_crescent_target())
        spec = DynamicsSpec("RHMC", 2, riemann=RiemannConfig(base))
        target = spec.augment(base)
        X = np.random.default_rng(7).standard_normal((6, 4))
        steps = 4
        for _ in range(steps):
            X = symmetric_split_step(X, fixed_h_field(target, spec), 0.05, spec)
        assert calls == ["vg"] * (steps + 1)

    @pytest.mark.parametrize("kind", ["LD", "HMC", "NHT", "ThirdOrder"])
    def test_score_only_kinds_never_ask_for_the_density(self, kind):
        base, calls = counting(tri_crescent_target())
        spec = DynamicsSpec(kind, 2, friction=0.3)
        target = spec.augment(base)
        X = np.random.default_rng(8).standard_normal((6, spec.dim))
        for _ in range(3):
            if spec.has_r:
                X = symmetric_split_step(X, fixed_h_field(target, spec),
                                         0.05, spec)
            else:
                X = euler_step(X, fixed_h_field(target, spec), 0.05)
        assert calls and set(calls) == {"g"}

    def test_logp_then_grad_is_one_evaluation(self):
        target, calls = counting(gaussian_mixture([[0.0, 0.0], [3.0, 1.0]]))
        X = np.random.default_rng(9).standard_normal((5, 2))
        L = target.logp_many(X)
        G = target.grad_many(X.copy())
        assert target.logp_many(X).tobytes() == L.tobytes()
        assert calls == ["vg"]
        assert G.tobytes() == target.grad_fn(X).tobytes()

    def test_grad_then_logp_evaluates_the_density(self):
        target, calls = counting(tri_crescent_target())
        X = np.random.default_rng(10).standard_normal((5, 2))
        target.grad_many(X)
        target.logp_many(X)
        target.grad_many(X)
        assert calls == ["g", "vg"]

    def test_mutating_a_density_result_does_not_change_a_later_hit(self):
        target, calls = counting(tri_crescent_target())
        X = np.random.default_rng(11).standard_normal((4, 2))
        fresh = target.value_and_grad_fn(X)[0]
        target.logp_many(X)[:] = 7.0
        np.testing.assert_array_equal(target.logp_many(X), fresh)
        assert calls == ["vg", "vg"]

    def test_hit_is_bit_identical_to_a_fresh_evaluation(self):
        target, calls = counting(tri_crescent_target())
        X = np.random.default_rng(3).standard_normal((9, 2))
        first = target.grad_many(X)
        hit = target.grad_many(X.copy())
        assert calls == ["g"]
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
        assert calls == ["g"]

    def test_equal_values_with_other_bytes_recompute(self):
        target, calls = counting(standard_gaussian(2))
        target.grad_many(np.array([[0.0, 1.0]]))
        target.grad_many(np.array([[-0.0, 1.0]]))
        assert calls == ["g"] * 2
        nan_a = np.array([[np.nan, 1.0]])
        nan_b = nan_a.copy()
        nan_b.view(np.uint64)[0, 0] ^= 1          # another NaN payload
        assert np.isnan(nan_b[0, 0])
        target.grad_many(nan_a)
        target.grad_many(nan_b)
        assert calls == ["g"] * 4

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
