import numpy as np
import pytest

from gsvgd.dynamics import KINDS, RIEMANN_KINDS, DynamicsSpec, RiemannConfig
from gsvgd.targets import (TargetDensity, gaussian, standard_gaussian,
                           tri_crescent_target)

from helpers import (dense_AC, dense_divergence, dense_drift, fd_divergence,
                     fd_gradient, grad_logp, logp, make_spec, rel_err)


def random_states(spec, rng, n):
    return rng.uniform(-2.0, 2.0, size=(n, spec.dim))


def library_AC(spec, target, X):
    """The library's (A, C) record at each row of X, expanded densely."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _, ac = spec.drift_many(X, target)
    n, d = X.shape
    A = np.zeros((n, d, d))
    C = np.zeros((n, d, d))
    idx = np.arange(d)
    A[:, idx, idx] = np.broadcast_to(ac.a, (n, d))
    for c, u, w in ac.couplings:
        rows_u = idx[u]
        rows_w = idx[w]
        c = np.broadcast_to(c, (n, rows_u.size))
        C[:, rows_u, rows_w] = -c
        C[:, rows_w, rows_u] = c
    return A, C


def library_divergence(spec, X):
    """The library's div(A + C): the drift under a target with zero score."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    flat = TargetDensity(
        spec.dim, lambda Y: (np.zeros(Y.shape[0]), np.zeros_like(Y)),
        lambda Y: np.zeros_like(Y))
    return spec.drift_many(X, flat)[0]


class TestCatalog:
    def test_ld(self):
        spec, target = make_spec("LD")
        A, C = library_AC(spec, target, [0.3, -0.4])
        np.testing.assert_array_equal(A[0], np.eye(2))
        np.testing.assert_array_equal(C[0], np.zeros((2, 2)))

    def test_hmc(self):
        spec, target = make_spec("HMC", d_theta=1, friction=0.8)
        A, C = library_AC(spec, target, [0.1, 0.2])
        np.testing.assert_array_equal(A[0], [[0.0, 0.0], [0.0, 0.8]])
        np.testing.assert_array_equal(C[0], [[0.0, -1.0], [1.0, 0.0]])

    def test_nht_momentum_coupling(self):
        spec, target = make_spec("NHT", d_theta=1, mu=1.0, sigma2=1.0)
        _, C = library_AC(spec, target, [0.5, 2.0, 0.3])  # r = 2
        assert C[0, 1, 2] == 2.0
        assert C[0, 2, 1] == -2.0

    def test_third_order(self):
        spec, target = make_spec("ThirdOrder", d_theta=1, friction=0.8,
                                 gamma=0.6)
        A, C = library_AC(spec, target, [0.1, 0.2, 0.3])
        np.testing.assert_array_equal(np.diag(A[0]), [0.0, 0.0, 0.8])
        np.testing.assert_array_equal(
            C[0], [[0.0, -1.0, 0.0], [1.0, 0.0, -0.6], [0.0, 0.6, 0.0]])

    def test_rld_scalar_metric(self):
        base = standard_gaussian(2)
        spec, target = make_spec("RLD", base=base)
        x = np.array([1.0, 0.0])
        A, C = library_AC(spec, target, x)
        s = 1.5 * np.sqrt(abs(-logp(base, x) + 0.5))
        np.testing.assert_allclose(A[0], s * np.eye(2))
        np.testing.assert_array_equal(C[0], np.zeros((2, 2)))

    def test_rhmc_blocks(self):
        base = standard_gaussian(1)
        spec, target = make_spec("RHMC", d_theta=1, base=base)
        A, C = library_AC(spec, target, [1.0, 0.3])
        s = 1.5 * np.sqrt(abs(0.5 + 0.5))
        np.testing.assert_allclose(A[0], [[0.0, 0.0], [0.0, s]])
        np.testing.assert_allclose(C[0],
                                   [[0.0, -np.sqrt(s)], [np.sqrt(s), 0.0]])

    @pytest.mark.parametrize("kind", KINDS)
    def test_record_matches_dense_oracle(self, kind):
        spec, target = make_spec(kind)
        X = random_states(spec, np.random.default_rng(6), 20)
        A, C = library_AC(spec, target, X)
        for k, x in enumerate(X):
            A_ref, C_ref = dense_AC(spec, x)
            np.testing.assert_allclose(A[k], A_ref, rtol=1e-15, atol=0)
            np.testing.assert_allclose(C[k], C_ref, rtol=1e-15, atol=0)

    def test_layout_mismatch(self):
        spec, target = make_spec("HMC", d_theta=1)
        with pytest.raises(ValueError):
            spec.drift_many(np.zeros((1, 3)), target)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DynamicsSpec("RLD", 2)  # no riemann
        with pytest.raises(ValueError):
            DynamicsSpec("frog", 2)
        with pytest.raises(ValueError):
            DynamicsSpec("LD", 0)

    @pytest.mark.parametrize("kind,widths", [
        ("LD", (3, 0, 0)), ("RLD", (3, 0, 0)), ("HMC", (3, 3, 0)),
        ("RHMC", (3, 3, 0)), ("NHT", (3, 3, 3)), ("ThirdOrder", (3, 3, 3))])
    def test_layout_follows_kind(self, kind, widths):
        riemann = RiemannConfig(standard_gaussian(3))
        spec = DynamicsSpec(kind, 3, riemann=riemann)
        cols = np.arange(spec.dim)
        assert tuple(cols[s].size for s in (spec.theta_slice, spec.r_slice,
                                            spec.xi_slice)) == widths
        assert spec.dim == sum(widths)
        assert (spec.has_r, spec.has_xi) == (widths[1] > 0, widths[2] > 0)


# Thermostat means at friction 0.5: NHT centers xi at the friction,
# ThirdOrder at zero.
XI_MEAN = {"NHT": 0.5, "ThirdOrder": 0.0}


@pytest.mark.parametrize("kind", KINDS)
def test_augment(kind):
    sigma2, mu, friction = 2.0, 4.0, 0.5

    def spec_for(base):
        riemann = RiemannConfig(base) if kind in RIEMANN_KINDS else None
        return DynamicsSpec(kind, 2, sigma2=sigma2, friction=friction, mu=mu,
                            riemann=riemann)

    base = gaussian([1.0, -1.0], [[1.0, 0.5], [0.5, 1.0]])
    spec = spec_for(base)
    target = spec.augment(base)
    assert target.dim == spec.dim
    if kind in ("LD", "RLD"):
        assert target is base
    with pytest.raises(ValueError):
        spec.augment(standard_gaussian(3))

    X = np.random.default_rng(21).uniform(-2.0, 2.0, size=(7, spec.dim))
    np.testing.assert_array_equal(target.grad_many(X)[:, spec.theta_slice],
                                  base.grad_many(X[:, spec.theta_slice]))
    if spec.has_r:
        # r = (1, -3): -r/sigma2 = (-0.5, 1.5).  xi - xi_mean = (1, -0.5):
        # -mu (xi - xi_mean) = (-4, 2).
        x = [0.3, -0.2, 1.0, -3.0]
        if spec.has_xi:
            x += [XI_MEAN[kind] + 1.0, XI_MEAN[kind] - 0.5]
        g = grad_logp(target, np.array(x))
        np.testing.assert_allclose(g[spec.r_slice], [-0.5, 1.5], rtol=1e-15)
        if spec.has_xi:
            np.testing.assert_allclose(g[spec.xi_slice], [-4.0, 2.0],
                                       rtol=1e-15)

    S = target.sample_exact(np.random.default_rng(22), 40_000)
    assert S.shape == (40_000, spec.dim)
    np.testing.assert_allclose(S[:, spec.theta_slice].mean(axis=0),
                               [1.0, -1.0], atol=0.03)
    if spec.has_r:
        assert np.max(np.abs(S[:, spec.r_slice].mean(axis=0))) < 0.04
        assert np.max(np.abs(S[:, spec.r_slice].var(axis=0) - sigma2)) < 0.08
    if spec.has_xi:
        xi = S[:, spec.xi_slice]
        assert np.max(np.abs(xi.mean(axis=0) - XI_MEAN[kind])) < 0.01
        assert np.max(np.abs(xi.var(axis=0) - 1.0 / mu)) < 0.01

    crescent = tri_crescent_target()
    aug = spec_for(crescent).augment(crescent)
    assert aug.exact_sampler is None
    with pytest.raises(ValueError):
        aug.sample_exact(np.random.default_rng(0), 3)


class TestMatrixInvariants:
    @pytest.mark.parametrize("kind", KINDS)
    def test_psd_and_skew(self, kind):
        spec, target = make_spec(kind)
        rng = np.random.default_rng(7)
        X = random_states(spec, rng, 100)
        A, C = library_AC(spec, target, X)
        for k in range(100):
            assert np.min(np.linalg.eigvalsh(A[k])) >= -1e-10
            assert np.max(np.abs(C[k] + C[k].T)) <= 1e-12
            assert np.max(np.abs(np.diag(C[k]))) == 0.0


class TestDivergence:
    @pytest.mark.parametrize("kind", ["LD", "HMC", "ThirdOrder"])
    def test_constant_kinds_vanish(self, kind):
        spec, _ = make_spec(kind)
        rng = np.random.default_rng(8)
        X = random_states(spec, rng, 10)
        np.testing.assert_array_equal(library_divergence(spec, X),
                                      np.zeros_like(X))

    def test_nht_closed_form(self):
        spec, _ = make_spec("NHT", d_theta=3, mu=2.0, sigma2=0.5)
        x = np.random.default_rng(9).standard_normal(9)
        expected = np.concatenate([np.zeros(6), np.full(3, -1.0 / (2.0 * 0.5))])
        np.testing.assert_allclose(library_divergence(spec, x)[0], expected)

    def test_rld_matches_fd_on_crescent(self):
        spec, _ = make_spec("RLD")
        rng = np.random.default_rng(10)
        for x in random_states(spec, rng, 20):
            assert rel_err(library_divergence(spec, x)[0],
                           fd_divergence(spec, x)) <= 1e-5

    @pytest.mark.parametrize("kind", KINDS)
    def test_all_kinds_match_fd(self, kind):
        spec, _ = make_spec(kind)
        rng = np.random.default_rng(11)
        for x in random_states(spec, rng, 20):
            fd = fd_divergence(spec, x)
            for div in (library_divergence(spec, x)[0],
                        dense_divergence(spec, x)):
                if np.max(np.abs(fd)) < 1e-9:
                    assert np.max(np.abs(div)) < 1e-9
                else:
                    assert rel_err(div, fd) <= 1e-5


class TestMetricFloor:
    def test_metric_stays_positive_at_energy_crossing(self):
        # A target whose energy hits exactly -c_offset exercises the floor.
        target = TargetDensity(
            dim=1,
            value_and_grad_fn=lambda X: (np.full(X.shape[0], 0.5),
                                         np.zeros_like(X)),
            grad_fn=lambda X: np.zeros_like(X),
        )
        config = RiemannConfig(target, d_scale=1.5, c_offset=0.5)
        s, ds = config.metric(np.zeros((3, 1)))
        np.testing.assert_allclose(s, 1.5e-8 * np.ones(3), rtol=1e-12)
        assert np.all(s > 0)
        np.testing.assert_array_equal(ds, np.zeros((3, 1)))

    def test_gradient_matches_fd_away_from_floor(self):
        base = standard_gaussian(2)
        config = RiemannConfig(base)
        rng = np.random.default_rng(21)
        for _ in range(10):
            theta = rng.uniform(-2, 2, size=2)

            def scalar(t):
                return config.metric(np.asarray(t)[None, :])[0][0]

            _, ds = config.metric(theta[None, :])
            assert rel_err(ds[0], fd_gradient(scalar, theta)) <= 1e-5


class TestDrift:
    def test_ld_is_score(self):
        spec, target = make_spec("LD")
        rng = np.random.default_rng(12)
        X = random_states(spec, rng, 10)
        np.testing.assert_allclose(spec.drift_many(X, target)[0],
                                   target.grad_many(X))

    def test_hmc_block_form(self):
        base = standard_gaussian(1)
        spec, target = make_spec("HMC", d_theta=1, friction=0.8, sigma2=1.0,
                                 base=base)
        x = np.array([0.7, -0.4])
        f = spec.drift_many(x[None, :], target)[0][0]
        expected = np.array([-0.4, grad_logp(base, x[:1])[0] - 0.8 * -0.4])
        np.testing.assert_allclose(f, expected)

    def test_zero_at_stationary_point(self):
        spec, target = make_spec("HMC", d_theta=2,
                                 base=standard_gaussian(2))
        f = spec.drift_many(np.zeros((1, 4)), target)[0]
        np.testing.assert_array_equal(f, np.zeros((1, 4)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_dense_oracle(self, kind):
        spec, target = make_spec(kind)
        X = random_states(spec, np.random.default_rng(13), 20)
        F, _ = spec.drift_many(X, target)
        for f, x in zip(F, X):
            np.testing.assert_allclose(f, dense_drift(spec, target, x),
                                       rtol=1e-12, atol=1e-12)

    def test_dim_mismatch(self):
        spec, target = make_spec("HMC", d_theta=1)
        with pytest.raises(ValueError):
            spec.drift_many(np.zeros((1, 4)), target)


class TestConstantRecord:
    """LD, HMC and ThirdOrder build their ``(A, C)`` record once per spec."""

    @pytest.mark.parametrize("kind", ["LD", "HMC", "ThirdOrder"])
    def test_record_is_built_once(self, kind):
        spec, target = make_spec(kind)
        rng = np.random.default_rng(20)
        first = spec.drift_many(random_states(spec, rng, 4), target)[1]
        second = spec.drift_many(random_states(spec, rng, 6), target)[1]
        assert first is second
        assert first.terms is second.terms

    @pytest.mark.parametrize("kind", ["HMC", "NHT", "ThirdOrder"])
    def test_cached_diagonal_is_read_only(self, kind):
        spec, target = make_spec(kind)
        ac = spec.drift_many(random_states(spec, np.random.default_rng(21),
                                           3), target)[1]
        with pytest.raises(ValueError):
            ac.a[0] = 1.0
        with pytest.raises(ValueError):
            ac.a += 1.0

    def test_equal_specs_build_their_own_records(self):
        a, b = DynamicsSpec("HMC", 2, friction=0.3), \
            DynamicsSpec("HMC", 2, friction=0.3)
        assert a == b and a.dim == 4
        flat = standard_gaussian(2)
        X = np.zeros((2, 4))
        assert a.drift_many(X, a.augment(flat))[1] is not \
            b.drift_many(X, b.augment(flat))[1]


class TestStationarity:
    def test_fpe_rhs_vanishes_at_target(self):
        """With rho = pi the field rho (A+C) grad log(rho/pi) is zero, so its
        numerical divergence on a grid stays at rounding level."""
        base = standard_gaussian(1)
        spec, target = make_spec("HMC", d_theta=1, friction=0.5,
                                 base=base)

        def rho_log(x):
            # independently coded joint normal log-density and score
            return -0.5 * (x[0] ** 2 + x[1] ** 2) - np.log(2.0 * np.pi)

        def rho_score(x):
            return -x

        def flux(x):
            A, C = dense_AC(spec, x)
            w = rho_score(x) - grad_logp(target, x)
            return np.exp(rho_log(x)) * ((A + C) @ w)

        grid = np.linspace(-2.0, 2.0, 9)
        for a in grid:
            for b in grid:
                x = np.array([a, b])
                div = 0.0
                for j in range(2):
                    step = 1e-4
                    xp = x.copy()
                    xm = x.copy()
                    xp[j] += step
                    xm[j] -= step
                    div += (flux(xp)[j] - flux(xm)[j]) / (2.0 * step)
                assert abs(div) <= 1e-8
