import numpy as np
import pytest

import gsvgd.kernels as kernels_mod
import gsvgd.sampler as sampler_mod
from gsvgd.dynamics import KINDS, DynamicsSpec, StructuredAC
from gsvgd.errors import NumericalError
from gsvgd.integrator import euler_step, symmetric_split_step
from gsvgd.kernels import KernelConfig, gram, median_bandwidth
from gsvgd.sampler import (blob_grad_log_density, check_finite,
                           gsvgd_velocity, gsvgd_velocity_alt, mcmc_step,
                           parvi_blob_velocity, resample_momentum)
from gsvgd.targets import TargetDensity, gaussian, standard_gaussian

from helpers import (blob_score_reference, dense_AC, dense_drift, grad_logp,
                     make_spec, stein_term, svgd_reference)


FIELDS = (gsvgd_velocity, gsvgd_velocity_alt, parvi_blob_velocity)


def ld_setup(dim):
    return standard_gaussian(dim), DynamicsSpec("LD", dim)


def hmc_setup(d_theta, friction=0.7, sigma2=1.0):
    spec = DynamicsSpec("HMC", d_theta, sigma2=sigma2, friction=friction)
    return spec.augment(standard_gaussian(d_theta)), spec


class TestGsvgdVelocity:
    def test_single_particle_is_drift(self):
        target, spec = ld_setup(2)
        x = np.array([[1.0, 0.0]])
        v = gsvgd_velocity(x, target, spec, h=1.0)
        np.testing.assert_array_equal(v, [[-1.0, 0.0]])

    def test_two_particle_hand_value(self):
        target, spec = ld_setup(1)
        x = np.array([[-1.0], [1.0]])
        v = gsvgd_velocity(x, target, spec, h=1.0)
        expected = (1.0 - 5.0 * np.exp(-4.0)) / 2.0
        assert v[0, 0] == pytest.approx(expected, abs=1e-12)
        assert v[1, 0] == pytest.approx(-expected, abs=1e-12)

    def test_reduces_to_classic_svgd(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 17))
            d = int(rng.integers(1, 5))
            target, spec = ld_setup(d)
            x = rng.standard_normal((n, d))
            h = float(rng.uniform(0.5, 3.0))
            v = gsvgd_velocity(x, target, spec, h=h)
            ref = svgd_reference(x, lambda v: grad_logp(target, v), h)
            assert np.max(np.abs(v - ref)) <= 1e-12

    def test_matches_stein_operator_average(self):
        target, spec = hmc_setup(2)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4))
        v = gsvgd_velocity(x, target, spec, h=1.3)
        for i in range(6):
            direct = np.mean(
                [stein_term(target, spec, x[i], x[j], 1.3) for j in range(6)],
                axis=0)
            np.testing.assert_allclose(v[i], direct, atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_fields_match_dense_oracle(self, kind):
        # Every kind, every deterministic field, against the dense oracle.
        spec, target = make_spec(kind, friction=0.4, sigma2=0.8, mu=1.5)
        rng = np.random.default_rng(17)
        x = rng.uniform(-1.5, 1.5, size=(5, spec.dim))
        h = 0.9
        for field, curl in ((gsvgd_velocity, True),
                            (gsvgd_velocity_alt, False)):
            v = field(x, target, spec, h=h)
            for i in range(5):
                direct = np.mean(
                    [stein_term(target, spec, x[i], x[j], h, curl=curl)
                     for j in range(5)], axis=0)
                np.testing.assert_allclose(v[i], direct, rtol=1e-12,
                                           atol=1e-12)
        v = parvi_blob_velocity(x, target, spec, h=h)
        ghat = blob_grad_log_density(x, h=h)
        for i in range(5):
            A, C = dense_AC(spec, x[i])
            direct = dense_drift(spec, target, x[i]) - (A + C) @ ghat[i]
            np.testing.assert_allclose(v[i], direct, rtol=1e-12, atol=1e-12)

    def test_chunked_evaluation_matches_single_pass(self, monkeypatch):
        # Symmetric row blocks reorder the kernel sums, so the blocked field
        # agrees with the single-block one and the oracle to rounding, and
        # repeats bit for bit.
        target, spec = hmc_setup(3)
        rng = np.random.default_rng(18)
        x = rng.standard_normal((40, 6))
        full = gsvgd_velocity(x, target, spec, h=1.1)
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", 7 * 40)
        chunked = gsvgd_velocity(x, target, spec, h=1.1)
        np.testing.assert_allclose(chunked, full, rtol=0, atol=1e-12)
        ref = np.array([np.mean([stein_term(target, spec, xi, xj, 1.1)
                                 for xj in x], axis=0) for xi in x])
        np.testing.assert_allclose(chunked, ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(
            gsvgd_velocity(x, target, spec, h=1.1), chunked)

    @pytest.mark.parametrize("kind", ["LD", "NHT"])
    def test_many_chunks_match_single_chunk_and_oracles(self, kind,
                                                         monkeypatch):
        # 64 entries per block: 2 rows of 31 per block, 16 blocks, the last
        # one a single row.
        spec, target = make_spec(kind, friction=0.4, sigma2=0.8, mu=1.5)
        rng = np.random.default_rng(19)
        x = rng.uniform(-1.5, 1.5, size=(31, spec.dim))
        h = 0.8
        single = gsvgd_velocity(x, target, spec, h=h)
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", 64)
        chunked = gsvgd_velocity(x, target, spec, h=h)
        np.testing.assert_allclose(chunked, single, rtol=0, atol=1e-12)
        if kind == "LD":
            ref = svgd_reference(x, lambda v: grad_logp(target, v), h)
        else:
            ref = np.array([np.mean([stein_term(target, spec, xi, xj, h)
                                     for xj in x], axis=0) for xi in x])
        np.testing.assert_allclose(chunked, ref, rtol=1e-12, atol=1e-12)

    def test_median_bandwidth_resolution(self):
        target, spec = ld_setup(1)
        x = np.array([[-1.0], [1.0]])
        v_cfg = gsvgd_velocity(x, target, spec,
                               KernelConfig("median").bandwidth(x))
        v_h = gsvgd_velocity(x, target, spec, median_bandwidth(x))
        np.testing.assert_array_equal(v_cfg, v_h)

    @pytest.mark.parametrize("h,error", [
        (0.0, ValueError), (-1.0, ValueError), (np.nan, NumericalError),
        (np.inf, NumericalError)])
    def test_rejects_bad_bandwidth(self, h, error):
        target, spec = ld_setup(1)
        x = np.array([[-1.0], [1.0]])
        for field in (gsvgd_velocity, gsvgd_velocity_alt,
                      parvi_blob_velocity):
            with pytest.raises(error):
                field(x, target, spec, h)
        with pytest.raises(error):
            blob_grad_log_density(x, h)

    def test_nonfinite_drift_reports_particle(self):
        def grad(X):
            return np.where(X > 1.5, np.inf, -X)

        bad = TargetDensity(1, lambda X: (-0.5 * np.sum(X ** 2, axis=1),
                                          grad(X)), grad)
        spec = DynamicsSpec("LD", 1)
        x = np.array([[0.0], [2.0]])
        with pytest.raises(NumericalError) as exc:
            gsvgd_velocity(x, bad, spec, h=1.0)
        assert exc.value.particle == 1

    def test_permutation_equivariance(self):
        target, spec = hmc_setup(2)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 4))
        perm = rng.permutation(8)
        v = gsvgd_velocity(x, target, spec, h=1.0)
        v_perm = gsvgd_velocity(x[perm], target, spec, h=1.0)
        np.testing.assert_allclose(v_perm, v[perm], atol=1e-12)


class TestStackedRightHandSide:
    """The columns of ``V`` in the one contraction of a Stein field."""

    @staticmethod
    def captured(kind, field, monkeypatch):
        spec, target = make_spec(kind, friction=0.4, sigma2=0.8, mu=1.5)
        x = np.random.default_rng(29).uniform(-1.5, 1.5, size=(9, spec.dim))
        seen = []

        def contract(X, h, V):
            seen.append(V.copy())
            return kernels_mod.contract(X, h, V)

        monkeypatch.setattr(sampler_mod, "contract", contract)
        field(x, target, spec, h=1.1)
        (V,) = seen
        return x, V

    @staticmethod
    def holds(V, column):
        return any(np.array_equal(V[:, j], column) for j in range(V.shape[1]))

    @pytest.mark.parametrize("field", [gsvgd_velocity, gsvgd_velocity_alt])
    @pytest.mark.parametrize("kind", ["RLD", "RHMC"])
    def test_per_particle_coefficients_stack_neither_x_nor_ones(
            self, kind, field, monkeypatch):
        x, V = self.captured(kind, field, monkeypatch)
        assert not self.holds(V, np.ones(x.shape[0]))
        assert not any(self.holds(V, x[:, k]) for k in range(x.shape[1]))

    @pytest.mark.parametrize("kind", ["LD", "HMC", "NHT", "ThirdOrder"])
    def test_constant_coefficients_stack_x_and_ones(self, kind, monkeypatch):
        # The centred positions fold into the drift columns, and a constant
        # coefficient adds one ones column:
        # V = [F - (2/h) (A + C) x~ | 1 | per-particle coefficients].
        x, V = self.captured(kind, gsvgd_velocity, monkeypatch)
        spec, target = make_spec(kind, friction=0.4, sigma2=0.8, mu=1.5)
        F, ac = spec.drift_many(x, target)
        folded = F - ac.apply((x - x.mean(axis=0)) * (2.0 / 1.1))
        per = [c for c, _ in ac.terms if np.ndim(c) == 2]
        np.testing.assert_array_equal(
            V, np.column_stack([folded, np.ones(x.shape[0])] + per))


def uncentred_field(x, target, spec, h, curl=True):
    """The Stein field with its kernel-gradient sums formed from uncentred
    positions, ``sum_j K_ij c_j (x_i - x_j) = x_i (K c)_i - (K (c x))_i``,
    over a dense kernel matrix."""
    F, ac = spec.drift_many(x, target)
    if not curl:
        ac = StructuredAC(ac.a)
    K = gram(x, x, h)
    parts = [x[:, s] * (K @ (c * np.ones((len(x), 1)))) - K @ (c * x[:, s])
             for c, sources in ac.terms for s in sources]
    return (K @ F + (2.0 / h) * ac.combine(parts)) / len(x)


class TestFoldedContraction:
    """The field contracts ``F - (2/h) (A + C) x~`` over centred positions."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_particle_field_is_the_drift(self, kind):
        spec, target = make_spec(kind, friction=0.4, sigma2=0.8, mu=1.5)
        x = np.random.default_rng(31).uniform(-1.5, 1.5, size=(1, spec.dim))
        F, _ = spec.drift_many(x, target)
        for field in (gsvgd_velocity, gsvgd_velocity_alt):
            assert field(x, target, spec, 0.9).tobytes() == F.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_offset_cloud_is_no_less_accurate(self, kind):
        # A cloud at the mode of a Gaussian centred 100 from the origin.
        # The uncentred sums cancel terms of size |x| ~ 100 (errors up to
        # 2.6e-14 here); the centred ones do not (up to 5.6e-16).
        base = gaussian([100.0, -100.0], [[1.0, 0.3], [0.3, 0.5]])
        spec, target = make_spec(kind, friction=0.4, sigma2=0.8, mu=1.5,
                                 base=base)
        rng = np.random.default_rng(37)
        x = rng.uniform(-1.5, 1.5, size=(40, spec.dim))
        x[:, spec.theta_slice] += [100.0, -100.0]
        h = 1.3
        for field, curl in ((gsvgd_velocity, True),
                            (gsvgd_velocity_alt, False)):
            ref = np.array([np.mean(
                [stein_term(target, spec, xi, xj, h, curl=curl)
                 for xj in x], axis=0) for xi in x])
            scale = np.maximum(1.0, np.abs(ref))
            err = np.max(np.abs(field(x, target, spec, h) - ref) / scale)
            old = np.max(np.abs(uncentred_field(x, target, spec, h, curl)
                                - ref) / scale)
            # Where no coefficient acts on theta (the A-only field of the
            # momentum kinds) neither form cancels, and both sit at the
            # rounding floor.
            assert err <= max(old, 1e-15), (err, old)


class TestMultiBlock:
    """Every field at N = 3 blocks + 5 rows of the symmetric contraction."""

    ROWS = 8

    @pytest.mark.parametrize("kind", KINDS)
    def test_fields_match_dense_oracle(self, kind, monkeypatch):
        n = 3 * self.ROWS + 5
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", self.ROWS * n)
        spec, target = make_spec(kind, friction=0.4, sigma2=0.8, mu=1.5)
        rng = np.random.default_rng(23)
        x = rng.uniform(-1.5, 1.5, size=(n, spec.dim))
        h = 1.2
        for field, curl in ((gsvgd_velocity, True),
                            (gsvgd_velocity_alt, False)):
            v = field(x, target, spec, h=h)
            ref = np.array([np.mean(
                [stein_term(target, spec, xi, xj, h, curl=curl)
                 for xj in x], axis=0) for xi in x])
            np.testing.assert_allclose(v, ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(field(x, target, spec, h=h), v)
        v = parvi_blob_velocity(x, target, spec, h=h)
        ghat = blob_score_reference(x, h)
        for i in range(n):
            A, C = dense_AC(spec, x[i])
            direct = dense_drift(spec, target, x[i]) - (A + C) @ ghat[i]
            np.testing.assert_allclose(v[i], direct, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(parvi_blob_velocity(x, target, spec, h=h),
                                      v)


class TestNonFiniteBlockedSet:
    """A non-finite particle of a blocked set is named by the drift check,
    which runs before any contraction: the centred coordinates of a GEMM
    kernel block would spread it to every entry."""

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("kind", ["HMC", "RHMC"])
    def test_abort_names_the_particle(self, kind, field, monkeypatch):
        n = 20
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", 8 * n)
        spec, target = make_spec(kind, base=standard_gaussian(2))
        x = np.random.default_rng(6).uniform(-1.0, 1.0, size=(n, spec.dim))
        x[13, spec.r_slice.stop - 1] = np.inf
        with pytest.raises(NumericalError) as exc:
            field(x, target, spec, 0.9)
        assert exc.value.particle == 13
        assert "non-finite drift" in str(exc.value)


class TestCheckFinite:
    def test_names_first_bad_row(self):
        x = np.zeros((4, 2))
        x[2, 1], x[3, 0] = np.nan, np.inf
        with pytest.raises(NumericalError) as exc:
            check_finite(x, "drift")
        assert exc.value.particle == 2
        assert "non-finite drift" in str(exc.value)

    def test_last_row_negative_infinity(self):
        x = np.ones((5, 3))
        x[4, 2] = -np.inf
        with pytest.raises(NumericalError) as exc:
            check_finite(x, "particle position")
        assert exc.value.particle == 4


class TestAlternativeField:
    def test_equals_main_field_when_curl_free(self):
        target, spec = ld_setup(2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 2))
        v = gsvgd_velocity(x, target, spec, h=1.0)
        va = gsvgd_velocity_alt(x, target, spec, h=1.0)
        np.testing.assert_array_equal(v, va)

    def test_single_particle_equality(self):
        target, spec = hmc_setup(1)
        x = np.array([[0.4, -0.2]])
        v = gsvgd_velocity(x, target, spec, h=1.0)
        va = gsvgd_velocity_alt(x, target, spec, h=1.0)
        np.testing.assert_allclose(va, v, atol=1e-15)

    def test_difference_is_curl_repulsion(self):
        target, spec = hmc_setup(1)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 2))
        h = 0.9
        diff = (gsvgd_velocity(x, target, spec, h=h)
                - gsvgd_velocity_alt(x, target, spec, h=h))
        for i in range(2):
            acc = np.zeros(2)
            for j in range(2):
                _, C = dense_AC(spec, x[j])
                d = x[i] - x[j]
                k = np.exp(-np.dot(d, d) / h)
                acc += C @ ((2.0 / h) * d * k)
            np.testing.assert_allclose(diff[i], acc / 2.0, atol=1e-12)

    def test_nonvanishing_at_equilibrium(self):
        # At exact target samples the main field shrinks with the sample
        # size while the alternative field's mean square norm stays put.
        target, spec = hmc_setup(1, friction=1.0)
        rng = np.random.default_rng(5)

        def mean_sq(m, field):
            x = target.sample_exact(rng, m)
            return float(np.mean(field(x, target, spec, h=1.0) ** 2))

        small = mean_sq(500, gsvgd_velocity)
        big = mean_sq(4000, gsvgd_velocity)
        alt = mean_sq(4000, gsvgd_velocity_alt)
        assert big < small
        assert alt >= 10.0 * big


class TestBlob:
    def test_single_particle_zero(self):
        x = np.array([[0.7, 0.1]])
        np.testing.assert_array_equal(blob_grad_log_density(x, h=1.0),
                                      np.zeros((1, 2)))

    def test_antisymmetric_pair(self):
        for a in (0.5, 1.0, 2.5):
            x = np.array([[-a], [a]])
            g = blob_grad_log_density(x, h=1.0)
            np.testing.assert_array_equal(g[0], -g[1])

    def test_matches_double_loop_oracle(self):
        x = np.random.default_rng(24).standard_normal((9, 3))
        np.testing.assert_allclose(blob_grad_log_density(x, h=0.9),
                                   blob_score_reference(x, 0.9),
                                   rtol=1e-12, atol=1e-12)

    def test_score_rmse_on_gaussian_sample(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1000, 1))
        g = blob_grad_log_density(x, median_bandwidth(x))
        mask = np.abs(x[:, 0]) <= 2.0
        rmse = np.sqrt(np.mean((g[mask, 0] + x[mask, 0]) ** 2))
        assert rmse <= 0.3


class TestParviBlob:
    def test_single_particle_ld_is_score(self):
        target, spec = ld_setup(2)
        x = np.array([[0.8, -0.5]])
        v = parvi_blob_velocity(x, target, spec, h=1.0)
        np.testing.assert_array_equal(v, target.grad_many(x))

    def test_identity_dynamics_reduces_to_blob_method(self):
        target, spec = ld_setup(2)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((7, 2))
        v = parvi_blob_velocity(x, target, spec, h=1.1)
        expected = target.grad_many(x) - blob_grad_log_density(x, h=1.1)
        np.testing.assert_allclose(v, expected, atol=1e-15)

    def test_constant_hmc_matches_direct_formula(self):
        target, spec = hmc_setup(2, friction=0.4)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 4))
        v = parvi_blob_velocity(x, target, spec, h=1.0)
        ghat = blob_grad_log_density(x, h=1.0)
        for i in range(5):
            A, C = dense_AC(spec, x[i])
            direct = (A + C) @ (grad_logp(target, x[i]) - ghat[i])
            np.testing.assert_allclose(v[i], direct, atol=1e-12)


class TestMcmcStep:
    def test_zero_step_is_identity(self):
        target, spec = ld_setup(2)
        x = np.random.default_rng(8).standard_normal((4, 2))
        out = mcmc_step(x, target, spec, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_zero_diffusion_block_is_deterministic(self):
        target, spec = hmc_setup(2, friction=0.9)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 4))
        f, _ = spec.drift_many(x, target)
        out = mcmc_step(x, target, spec, 0.05, np.random.default_rng(1))
        np.testing.assert_array_equal(out[:, :2],
                                      x[:, :2] + 0.05 * f[:, :2])
        assert np.any(out[:, 2:] != x[:, 2:] + 0.05 * f[:, 2:])

    @pytest.mark.parametrize("kind", ["RLD", "RHMC"])
    def test_noise_scale_matches_oracle_diffusion(self, kind):
        # x' = x + eps f + sqrt(2 eps) sqrt(diag A(x)) xi, per coordinate.
        spec, target = make_spec(kind)
        rng = np.random.default_rng(14)
        x = rng.uniform(-1.5, 1.5, size=(6, spec.dim))
        eps = 0.05
        out = mcmc_step(x, target, spec, eps, np.random.default_rng(3))
        noise = np.random.default_rng(3).standard_normal(x.shape)
        for i in range(6):
            A, _ = dense_AC(spec, x[i])
            expected = (x[i] + eps * dense_drift(spec, target, x[i])
                        + np.sqrt(2.0 * eps * np.diag(A)) * noise[i])
            np.testing.assert_allclose(out[i], expected, rtol=1e-12,
                                       atol=1e-12)

    def test_same_seed_reproduces(self):
        target, spec = ld_setup(3)
        x = np.random.default_rng(10).standard_normal((5, 3))
        a = mcmc_step(x, target, spec, 0.01, np.random.default_rng(42))
        b = mcmc_step(x, target, spec, 0.01, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_langevin_reaches_stationary_moments(self):
        target, spec = ld_setup(1)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2000, 1)) * 0.1
        for _ in range(5000):
            x = mcmc_step(x, target, spec, 0.01, rng)
        assert abs(x.mean()) <= 0.1
        assert 0.85 <= x.var() <= 1.15


class TestResampleMomentum:
    def test_theta_untouched(self):
        target, spec = hmc_setup(2)
        x = np.random.default_rng(12).standard_normal((5, 4))
        out = resample_momentum(x, spec, np.random.default_rng(0))
        np.testing.assert_array_equal(out[:, :2], x[:, :2])
        assert np.any(out[:, 2:] != x[:, 2:])

    def test_momentum_variance(self):
        spec = DynamicsSpec("HMC", 1, sigma2=1.0)
        x = np.zeros((10_000, 2))
        out = resample_momentum(x, spec, np.random.default_rng(13))
        assert 0.94 <= out[:, spec.r_slice].var() <= 1.06

    def test_same_seed_reproduces(self):
        spec = DynamicsSpec("HMC", 2, sigma2=2.0)
        x = np.ones((4, 4))
        a = resample_momentum(x, spec, np.random.default_rng(3))
        b = resample_momentum(x, spec, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_requires_momentum_block(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            resample_momentum(x, DynamicsSpec("LD", 2),
                              np.random.default_rng(0))

    def test_rejects_zero_variance(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            resample_momentum(x, DynamicsSpec("HMC", 1, sigma2=0.0),
                              np.random.default_rng(0))


def count_pairwise_passes(monkeypatch):
    """Log each ``pdist`` and ``cdist`` the kernel layer makes."""
    calls = []
    for name in ("pdist", "cdist"):
        real = getattr(kernels_mod, name)
        monkeypatch.setattr(
            kernels_mod, name,
            lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    return calls


class TestSharedPairwisePass:
    """The median bandwidth's squared distances reach the field's
    contraction when ``h`` is passed on unchanged."""

    @pytest.mark.parametrize("n", [2, 7, 200, 362])
    @pytest.mark.parametrize("kind", KINDS)
    def test_fields_are_bitwise_equal_with_float_h(self, kind, n):
        spec, target = make_spec(kind)
        X = np.random.default_rng(n).uniform(-1.5, 1.5, size=(n, spec.dim))
        h = KernelConfig("median").bandwidth(X)
        assert h.d2 is not None
        for field in FIELDS:
            np.testing.assert_array_equal(field(X, target, spec, h),
                                          field(X, target, spec, float(h)))

    def test_euler_step_makes_one_pairwise_pass(self, monkeypatch):
        spec, target = make_spec("RHMC")
        X = np.random.default_rng(1).uniform(-1.0, 1.0, size=(362, spec.dim))
        calls = count_pairwise_passes(monkeypatch)
        for field in FIELDS:
            calls.clear()
            h = KernelConfig("median").bandwidth(X)
            euler_step(X, lambda Y: field(Y, target, spec, h), 0.05)
            assert calls == ["pdist"], field.__name__

    def test_split_step_shares_only_the_first_sub_state(self, monkeypatch):
        spec, target = make_spec("HMC")
        X = np.random.default_rng(2).uniform(-1.0, 1.0, size=(50, spec.dim))
        calls = count_pairwise_passes(monkeypatch)
        h = KernelConfig("median").bandwidth(X)
        symmetric_split_step(
            X, lambda Y: gsvgd_velocity(Y, target, spec, h), 0.05, spec)
        assert calls == ["pdist", "cdist", "cdist"]

    @pytest.mark.parametrize("split", [False, True])
    def test_blocked_set_keeps_one_pass_per_kernel_block(self, split,
                                                         monkeypatch):
        # Blocks of 8 rows at n = 20: 3 kernel blocks per field.  The median
        # and the blocks are formed by GEMM, with no pdist or cdist; when the
        # guard refuses the GEMM, the median takes one pdist and each block
        # one cdist.
        n = 20
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", 8 * n)
        spec, target = make_spec("HMC")
        X = np.random.default_rng(3).uniform(-1.0, 1.0, size=(n, spec.dim))
        calls = count_pairwise_passes(monkeypatch)

        def field(Y):
            return gsvgd_velocity(Y, target, spec, h)

        for gemm in (True, False):
            if not gemm:
                monkeypatch.setattr(kernels_mod, "_GEMM_LIMIT", 0.0)
            calls.clear()
            h = KernelConfig("median").bandwidth(X)
            if split:
                symmetric_split_step(X, field, 0.05, spec)
            else:
                euler_step(X, field, 0.05)
            blocks = 3 * (3 if split else 1)
            assert calls == ([] if gemm else ["pdist"] + ["cdist"] * blocks)

    def test_stored_distances_survive_a_step(self):
        spec, target = make_spec("RLD")
        X = np.random.default_rng(4).uniform(-1.0, 1.0, size=(30, spec.dim))
        h = KernelConfig("median").bandwidth(X)
        stored = h.d2.tobytes()
        for field in FIELDS:
            euler_step(X, lambda Y: field(Y, target, spec, h), 0.05)
        assert h.d2.tobytes() == stored

    def test_non_float_bandwidth_is_converted(self):
        # A float32 bandwidth is widened once, as before, so the field's
        # scalars stay double precision.
        target, spec = hmc_setup(2)
        X = np.random.default_rng(5).standard_normal((6, 4))
        np.testing.assert_array_equal(
            gsvgd_velocity(X, target, spec, np.float32(0.75)),
            gsvgd_velocity(X, target, spec, 0.75))
