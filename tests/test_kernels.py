import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

import gsvgd.kernels as kernels_mod
from gsvgd.kernels import KernelConfig, contract, median_bandwidth

EPS = np.finfo(float).eps


def median_reference(x, h_min=1e-6):
    """The median rule written with ``np.median`` over Euclidean ``pdist``."""
    return max(float(np.median(pdist(x))) ** 2 / np.log(x.shape[0]), h_min)


def median_bound(n, limit=None):
    """The derived relative error bound of a GEMM-selected median bandwidth,
    ``2.3 * eps * _GEMM_LIMIT / log N``."""
    limit = kernels_mod._GEMM_LIMIT if limit is None else limit
    return 2.3 * EPS * limit / np.log(n)


def max_centred_norm2(*sets):
    """``max|x~|^2`` over the sets, centred at the mean of the last one."""
    centre = sets[-1].mean(axis=0)
    return max(float(np.max(np.sum((x - centre) ** 2, axis=1)))
               for x in sets)


def gemm_kernel(x, h):
    """The one-block kernel matrix from the set's own GEMM square."""
    return np.exp(kernels_mod._gemm_square(*kernels_mod._centred(x)) / -h)


def spy(monkeypatch, *names):
    """Log each call of the named ``gsvgd.kernels`` functions by name."""
    calls = []
    for name in names:
        real = getattr(kernels_mod, name)
        monkeypatch.setattr(
            kernels_mod, name,
            lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    return calls


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
        # The centred GEMM rounds each distance according to the rows'
        # order, so a permutation moves h within twice the derived bound.
        rng = np.random.default_rng(2)
        x = rng.standard_normal((11, 3))
        perm = rng.permutation(11)
        assert median_bandwidth(x) == pytest.approx(
            median_bandwidth(x[perm]), rel=2 * median_bound(11), abs=0)

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
        # n = 4, 200, 2000.  Every set selects from GEMM distances (362 is
        # the largest one-block set), so h is within the derived bound of
        # np.median over pdist.
        x = np.random.default_rng(n * 1000 + d).standard_normal((n, d))
        assert median_bandwidth(x) == pytest.approx(
            median_reference(x), rel=median_bound(n), abs=0)

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

    @pytest.mark.parametrize("h_min", [-1.0, 0.0, np.nan, np.inf])
    def test_rejects_h_min_outside_range(self, h_min):
        with pytest.raises(ValueError, match="h_min"):
            median_bandwidth(np.ones((5, 2)), h_min=h_min)


class TestGram:
    """The one-block kernel matrix, which ``contract`` returns exactly
    against the identity."""

    @pytest.mark.parametrize("n,d", [(1, 1), (9, 3), (200, 4)])
    def test_one_set_equals_exp_of_cdist(self, n, d):
        # Where the guard admits h, each exponent is within the GEMM bound
        # 2.3 eps sqrt(D + 2) max|x~|^2 / h of -cdist / h; elsewhere the
        # distances come from differences, each within (D + 2) eps of
        # cdist's relative.  exp adds a rounding of its own.
        x = np.random.default_rng(n + d).standard_normal((n, d))
        s_max = max_centred_norm2(x)
        for h in (1e-3, 0.7, 3.0, 1e4):
            exponent = cdist(x, x, "sqeuclidean") / h
            expected = np.exp(-exponent)
            if kernels_mod._gemm_admits(s_max, d, h):
                err = 2.3 * EPS * np.sqrt(d + 2) * s_max / h
            else:
                err = (d + 2) * EPS * exponent
            assert np.all(np.abs(contract(x, h, np.eye(n)) - expected)
                          <= expected * (1.01 * err + 2 * EPS)), h

    def test_a_set_against_itself_has_a_unit_diagonal(self):
        x = np.random.default_rng(6).standard_normal((30, 3))
        for h in (0.7, 1e-3):                   # GEMM, then differences
            assert np.all(np.diag(contract(x, h, np.eye(30))) == 1.0)

    @pytest.mark.parametrize("d", [1, 4, 17])
    def test_refused_set_takes_exact_distances(self, d, monkeypatch):
        # A tight cluster far from the cloud is beyond the guard at this h:
        # the kernel forms its distances from differences, within 1e-15 of
        # cdist relative (also against another set, as the mode occupancy
        # uses them), and so does the median for a set whose middle
        # distances the guard refuses.
        x = tight_far_cluster(40, d, 1e4, seed=d)
        y = np.random.default_rng(d).standard_normal((7, d))
        assert not kernels_mod._gemm_admits(max_centred_norm2(x), d, 1.0)
        for xa in (x, y):
            np.testing.assert_allclose(kernels_mod._exact_d2(xa, x),
                                       cdist(xa, x, "sqeuclidean"),
                                       rtol=1e-15, atol=0)
        expected = np.exp(kernels_mod._exact_d2(x, x) / -1.0)
        calls = spy(monkeypatch, "_exact_d2")
        np.testing.assert_array_equal(contract(x, 1.0, np.eye(40)),
                                      expected)
        assert calls == ["_exact_d2"]
        calls.clear()
        # Five of six particles within about 1e-3 of each other: m = 15 and
        # the median is one of their 10 distances, far below max|x~|.
        z = 1e-3 * np.random.default_rng(d + 1).standard_normal((6, d))
        z[5] += 1e4
        assert median_bandwidth(z) == pytest.approx(median_reference(z),
                                                    rel=1e-15, abs=0)
        assert calls == ["_exact_d2"]
        np.testing.assert_allclose(median_bandwidth(z).d2,
                                   squareform(pdist(z, "sqeuclidean")),
                                   rtol=1e-15, atol=0)

    def test_overflowing_and_non_finite_sets_warn_nothing(self):
        big = np.array([[0.0, 1.0], [1.0, 0.0], [1e160, -3.0]])
        bad = np.array([[0.0, 1.0], [np.inf, 0.0], [np.nan, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert median_bandwidth(big) == np.inf
            assert np.isinf(median_bandwidth(big).d2).sum() == 4
            for x in (big, bad):
                for h in (1.0, 1e300):
                    k = contract(x, h, np.eye(3))
                    contract(x, h, np.ones((3, 1)))
                assert np.all(np.isnan(k) | (k >= 0.0))


class TestContract:
    ROWS = 8

    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1,
                                   3 * ROWS + 5])
    def test_equals_dense_product(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        x, v = rng.standard_normal((n, 3)), rng.standard_normal((n, 5))
        h = 1.7
        dense = {True: gemm_kernel(x, h) @ v,
                 False: np.exp(kernels_mod._exact_d2(x, x) / -h) @ v}
        # Blocks of ROWS rows at this n; log each distance pass.
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", self.ROWS * n)
        calls = spy(monkeypatch, "_gemm_square", "_exact_d2")
        blocks = len(range(0, n, self.ROWS))
        assert kernels_mod._exponent_factors(x, h) is not None
        # First with GEMM-formed blocks, then with the guard forcing exact
        # distances.
        for gemm in (True, False):
            if not gemm:
                monkeypatch.setattr(kernels_mod, "_GEMM_LIMIT", 0.0)
            calls.clear()
            out = contract(x, h, v)
            np.testing.assert_allclose(out, dense[True], rtol=1e-13,
                                       atol=1e-13)
            np.testing.assert_array_equal(contract(x, h, v), out)
            # One set is one square per call (by GEMM for one particle,
            # whose max|x~|^2 = 0 is within any limit); a blocked sweep
            # forms no square, and one exact pass per row block where the
            # guard refuses the GEMM.
            if n <= self.ROWS:
                gemm_square = gemm or n == 1
                assert calls == 2 * ["_gemm_square" if gemm_square
                                     else "_exact_d2"]
                np.testing.assert_array_equal(out, dense[gemm])
            else:
                assert calls == ([] if gemm else 2 * blocks * ["_exact_d2"])


def tight_far_cluster(n, d, distance, seed):
    """A unit Gaussian cloud with a tenth of its particles in a tight
    cluster at the given distance along the first axis."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    m = n // 10
    x[:m] = 0.05 * rng.standard_normal((m, d))
    x[:m, 0] += distance
    return x


def exact_sweep(x, h, v):
    """``contract``'s symmetric row-block sweep with every block's exponent
    formed from coordinate differences."""
    n = x.shape[0]
    rows = kernels_mod._rows_per_block(n)
    out = np.zeros((n, v.shape[1]))
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        k = np.exp(kernels_mod._exact_d2(x[i0:i1], x[i0:]) / -h)
        out[i0:i1] += k @ v[i0:]
        out[i1:] += k[:, i1 - i0:].T @ v[i0:i1]
    return out


class TestGemmGuard:
    """Blocked sets form kernel blocks by GEMM only while
    ``max|x~|^2 / h * sqrt(D + 2)`` is within ``_GEMM_LIMIT``."""

    @pytest.mark.parametrize("d", [1, 4, 17])
    @pytest.mark.parametrize("distance", [10.0, 30.0])
    def test_both_sides_of_the_limit(self, d, distance):
        n = 363                                 # the smallest blocked set
        x = tight_far_cluster(n, d, distance, seed=d)
        v = np.random.default_rng(d + 1).standard_normal((n, 9))
        xc = x - x.mean(axis=0)
        scale = np.max(np.sum(xc * xc, axis=1)) * np.sqrt(d + 2)
        limit = kernels_mod._GEMM_LIMIT
        # Just under the limit: agreement with the dense product to 1e-12
        # relative to max(1, |K @ V|).
        h = scale / (0.99 * limit)
        assert kernels_mod._exponent_factors(x, h) is not None
        expected = gemm_kernel(x, h) @ v
        err = np.abs(contract(x, h, v) - expected)
        assert np.max(err / np.maximum(1.0, np.abs(expected))) <= 1e-12
        # Just over it: bitwise the exact-difference sweep.
        h = scale / (1.01 * limit)
        assert kernels_mod._exponent_factors(x, h) is None
        assert contract(x, h, v).tobytes() == exact_sweep(x, h, v).tobytes()

    def test_gemm_kernel_has_a_unit_diagonal(self):
        # Against the identity, contract returns its kernel matrix exactly.
        n, d = 363, 4
        x = tight_far_cluster(n, d, 10.0, seed=5)
        h = median_bandwidth(x)
        assert kernels_mod._exponent_factors(x, h) is not None
        k = contract(x, h, np.eye(n))
        assert np.all(np.diag(k) == 1.0)

    @pytest.mark.parametrize("d", [1, 4, 17])
    def test_median_bandwidth_admits_a_gaussian_cloud(self, d):
        n = 363
        x = np.random.default_rng(d).standard_normal((n, d))
        v = np.random.default_rng(d + 1).standard_normal((n, 9))
        h = median_bandwidth(x)
        assert kernels_mod._exponent_factors(x, h) is not None
        expected = gemm_kernel(x, h) @ v
        err = np.abs(contract(x, h, v) - expected)
        assert np.max(err / np.maximum(1.0, np.abs(expected))) <= 1e-12

    def test_fixed_small_bandwidth_takes_gram(self):
        x = np.random.default_rng(7).standard_normal((363, 4))
        v = np.random.default_rng(8).standard_normal((363, 5))
        h = 1e-2
        assert kernels_mod._exponent_factors(x, h) is None
        assert contract(x, h, v).tobytes() == exact_sweep(x, h, v).tobytes()

    def test_non_finite_set_takes_gram_without_warnings(self):
        x = np.random.default_rng(9).standard_normal((363, 2))
        x[5, 1], x[300, 0] = np.inf, -np.inf
        v = np.ones((363, 1))
        assert kernels_mod._exponent_factors(x, 0.5) is None
        np.testing.assert_array_equal(contract(x, 0.5, v),
                                      exact_sweep(x, 0.5, v))


def median_sets(n, d, seed):
    """Sets whose median rule is hard to get right: a Gaussian cloud, a
    coarse lattice (many tied distances), a cloud with half its rows
    repeated, one whose median distance is 0 at N >= 363 (300 of 363 rows
    copies of one point, so most pairs coincide), a coincident set and
    tight clusters near and far from the cloud."""
    rng = np.random.default_rng(seed)
    cloud = rng.standard_normal((n, d))
    half = cloud[:(n + 1) // 2]
    copies = 300 * n // 363
    return {"gaussian": cloud,
            "ties": rng.integers(0, 3, size=(n, d)).astype(float),
            "duplicates": np.concatenate([half, half])[:n],
            "zero_median": np.concatenate([
                np.repeat(cloud[:1], copies, axis=0), cloud[copies:]]),
            "coincident": np.full((n, d), 0.3),
            "near_cluster": tight_far_cluster(n, d, 10.0, seed),
            "far_cluster": tight_far_cluster(n, d, 30.0, seed)}


def spy_condensed(monkeypatch):
    """Log the ``gemm`` flag of each condensed buffer the median fills."""
    calls = []
    real = kernels_mod._condensed_d2
    monkeypatch.setattr(kernels_mod, "_condensed_d2",
                        lambda *a: calls.append(a[3]) or real(*a))
    return calls


class TestBlockedMedian:
    """A blocked set (N >= 363) selects its median from GEMM distances."""

    @pytest.mark.parametrize("d", [1, 4, 17, 64])
    @pytest.mark.parametrize("n", [363, 364])     # m odd, then even
    def test_agrees_with_pdist_oracle(self, n, d):
        for name, x in median_sets(n, d, seed=n + d).items():
            ref = median_reference(x)
            assert median_bandwidth(x) == pytest.approx(ref, rel=1e-13,
                                                        abs=0), name

    def test_even_m_with_zero_lower_middle_takes_pdist(self, monkeypatch):
        # Groups of 210 and 190 coincident particles: of the m = 79800
        # distances, exactly k = m / 2 are zero, so the lower middle value
        # is 0.  A GEMM residue there would be magnified by the square
        # root; the guard refuses it, the median fills a second buffer from
        # exact distances, and the result is the pdist rule's.
        x = np.zeros((400, 2))
        x[210:] = [3.0, 1.0]
        calls = spy_condensed(monkeypatch)
        assert median_bandwidth(x) == median_reference(x)
        assert calls == [True, False]

    @pytest.mark.parametrize("d", [1, 4, 17, 64])
    def test_both_sides_of_the_limit(self, d, monkeypatch):
        # The guard bounds max|x~|^2 * sqrt(D + 2) / h by _GEMM_LIMIT (odd
        # m, unclamped h).  That ratio is scale-free, so the limit is moved
        # to 1% on either side of this set's own ratio.
        n = 363
        x = tight_far_cluster(n, d, 10.0, seed=d)
        ref = median_reference(x)
        ratio = max_centred_norm2(x) * np.sqrt(d + 2) / ref
        calls = spy_condensed(monkeypatch)
        limit = 1.01 * ratio
        monkeypatch.setattr(kernels_mod, "_GEMM_LIMIT", limit)
        assert median_bandwidth(x) == pytest.approx(
            ref, rel=median_bound(n, limit), abs=0)
        assert calls == [True]
        # Beyond the limit the distances come from differences, each within
        # (D + 2) eps of pdist's relative.
        monkeypatch.setattr(kernels_mod, "_GEMM_LIMIT", 0.99 * ratio)
        assert median_bandwidth(x) == pytest.approx(
            ref, rel=(d + 2) * EPS, abs=0)
        assert calls == [True, True, False]

    def test_one_block_sets_select_from_pdist(self, monkeypatch):
        # The pdist rule's median, from one GEMM square per set; the exact
        # distances only where the guard refuses the middle values: a zero
        # or coincident median, or a cluster so far (max|x~|^2 about 700)
        # that it exceeds the limit.
        calls = spy(monkeypatch, "_gemm_square", "_exact_d2")
        for name, x in median_sets(362, 4, seed=1).items():
            calls.clear()
            assert median_bandwidth(x) == pytest.approx(
                median_reference(x), rel=median_bound(362), abs=0), name
            refused = name in ("zero_median", "coincident", "far_cluster")
            assert calls == ["_gemm_square"] + ["_exact_d2"] * refused, name

    @pytest.mark.parametrize("d", [1, 4, 612])
    @pytest.mark.parametrize("n", [2, 3, 7, 200, 362])
    def test_one_block_sets_agree_with_pdist_oracle(self, n, d):
        for name, x in median_sets(n, d, seed=n + d).items():
            assert median_bandwidth(x) == pytest.approx(
                median_reference(x), rel=median_bound(n), abs=0), name


class TestSharedDistances:
    """A one-block median bandwidth carries its squared distances to
    ``contract``."""

    @pytest.mark.parametrize("n", [2, 7, 200, 362])
    def test_one_block_set_carries_unpartitioned_distances(self, n):
        # The (N, N) GEMM square that contract forms for x, within the GEMM
        # bound of the pdist squares, with an exact zero diagonal.
        x = np.random.default_rng(n).standard_normal((n, 3))
        h = median_bandwidth(x)
        assert isinstance(h, kernels_mod.Bandwidth)
        square = kernels_mod._gemm_square(*kernels_mod._centred(x))
        assert h.d2.tobytes() == square.tobytes()
        err = 2.3 * EPS * np.sqrt(3 + 2) * max_centred_norm2(x)
        assert np.all(np.abs(h.d2 - squareform(pdist(x, "sqeuclidean")))
                      <= err)
        assert np.all(np.diag(h.d2) == 0.0)
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
        expected = contract(x, float(h), v)
        calls = spy(monkeypatch, "_gemm_square", "_exact_d2")
        out = contract(x.copy(), h, v)
        assert calls == []
        assert out.tobytes() == expected.tobytes()

    def test_other_positions_recompute(self, monkeypatch):
        rng = np.random.default_rng(3)
        x, v = rng.standard_normal((9, 2)), rng.standard_normal((9, 2))
        h = median_bandwidth(x)
        stored = h.d2.copy()
        x[4, 1] += 0.25                     # mutated after the bandwidth
        expected = contract(x, float(h), v)
        calls = spy(monkeypatch, "_gemm_square", "_exact_d2")
        np.testing.assert_array_equal(contract(x, h, v), expected)
        assert h.distances_for(x) is None
        assert h.distances_for(x[:8]) is None
        h0 = median_bandwidth(np.array([[0.0, 1.0], [2.0, 3.0]]))
        calls.remove("_gemm_square")            # h0's own median
        assert h0.distances_for(np.array([[-0.0, 1.0], [2.0, 3.0]])) is None
        assert calls == ["_gemm_square"]
        assert h.d2.tobytes() == stored.tobytes()
        with pytest.raises(ValueError):
            h.d2[0] = 1.0

    def test_blocked_set_contracts_as_before(self, monkeypatch):
        # Blocks of 8 rows at n = 20: the median keeps no distances.  The
        # contraction forms its 3 kernel blocks by GEMM, with no exact
        # pass, and with one exact pass per block when the guard refuses
        # the GEMM.
        n = 20
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", 8 * n)
        rng = np.random.default_rng(4)
        x, v = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        h = median_bandwidth(x)
        assert h.d2 is None
        calls = spy(monkeypatch, "_gemm_square", "_exact_d2")
        for exact_calls in (0, 2 * 3):
            if exact_calls:
                monkeypatch.setattr(kernels_mod, "_GEMM_LIMIT", 0.0)
            calls.clear()
            np.testing.assert_array_equal(contract(x, h, v),
                                          contract(x, float(h), v))
            assert calls == ["_exact_d2"] * exact_calls


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
        # NaN passes a bare ``h <= 0`` check, so the non-finite values are
        # named at construction, not later as a particle's fault.
        for h in (np.nan, np.inf):
            with pytest.raises(ValueError, match="bandwidth h"):
                KernelConfig("fixed", h=h)
        for h_min in (np.nan, np.inf, 0.0):
            with pytest.raises(ValueError, match="h_min"):
                KernelConfig(h_min=h_min)

    def test_median_mode_rejects_h(self):
        # The median rule never reads h, so a set h would be echoed as if
        # it applied.
        for h in (0.3, np.nan):
            with pytest.raises(ValueError, match="bandwidth h"):
                KernelConfig("median", h=h)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            KernelConfig("imq")
