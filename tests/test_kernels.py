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
        # n = 4, 200, 2000.  362 is the largest one-block set, which selects
        # from pdist distances bit for bit; a larger set selects from GEMM
        # distances, within the bound of TestBlockedMedian.
        x = np.random.default_rng(n * 1000 + d).standard_normal((n, d))
        if n <= 362:
            assert median_bandwidth(x) == median_reference(x)
        else:
            assert median_bandwidth(x) == pytest.approx(median_reference(x),
                                                         rel=1e-13, abs=0)

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
        blocks = [min(self.ROWS, n - i0) for i0 in range(0, n, self.ROWS)]
        assert kernels_mod._exponent_factors(x, h) is not None
        # First with GEMM-formed blocks, then with the guard forcing gram.
        for gemm in (True, False):
            if not gemm:
                monkeypatch.setattr(kernels_mod, "_GEMM_LIMIT", 0.0)
            rows.clear()
            out = contract(x, h, v)
            np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-13)
            np.testing.assert_array_equal(contract(x, h, v), out)
            # One set is one gram per call; a blocked sweep builds no gram
            # when the guard admits it, else one per row block.
            if n <= self.ROWS or not gemm:
                assert rows == 2 * blocks
            else:
                assert rows == []
            if n <= self.ROWS:
                np.testing.assert_array_equal(out, expected)


def tight_far_cluster(n, d, distance, seed):
    """A unit Gaussian cloud with a tenth of its particles in a tight
    cluster at the given distance along the first axis."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    m = n // 10
    x[:m] = 0.05 * rng.standard_normal((m, d))
    x[:m, 0] += distance
    return x


def gram_sweep(x, h, v):
    """``contract``'s symmetric row-block sweep with every block a gram."""
    n = x.shape[0]
    rows = kernels_mod._rows_per_block(n)
    out = np.zeros((n, v.shape[1]))
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        k = gram(x[i0:i1], x[i0:], h)
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
        expected = gram(x, x, h) @ v
        err = np.abs(contract(x, h, v) - expected)
        assert np.max(err / np.maximum(1.0, np.abs(expected))) <= 1e-12
        # Just over it: bitwise the gram sweep.
        h = scale / (1.01 * limit)
        assert kernels_mod._exponent_factors(x, h) is None
        assert contract(x, h, v).tobytes() == gram_sweep(x, h, v).tobytes()

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
        expected = gram(x, x, h) @ v
        err = np.abs(contract(x, h, v) - expected)
        assert np.max(err / np.maximum(1.0, np.abs(expected))) <= 1e-12

    def test_fixed_small_bandwidth_takes_gram(self):
        x = np.random.default_rng(7).standard_normal((363, 4))
        v = np.random.default_rng(8).standard_normal((363, 5))
        h = 1e-2
        assert kernels_mod._exponent_factors(x, h) is None
        assert contract(x, h, v).tobytes() == gram_sweep(x, h, v).tobytes()

    def test_non_finite_set_takes_gram_without_warnings(self):
        x = np.random.default_rng(9).standard_normal((363, 2))
        x[5, 1], x[300, 0] = np.inf, -np.inf
        v = np.ones((363, 1))
        assert kernels_mod._exponent_factors(x, 0.5) is None
        np.testing.assert_array_equal(contract(x, 0.5, v),
                                      gram_sweep(x, 0.5, v))


def median_sets(n, d, seed):
    """Sets whose median rule is hard to get right: a Gaussian cloud, a
    coarse lattice (many tied distances), a cloud with half its rows
    repeated, one whose median distance is 0 (300 copies of one point, so
    most pairs coincide), a coincident set and tight clusters near and far
    from the cloud."""
    rng = np.random.default_rng(seed)
    cloud = rng.standard_normal((n, d))
    half = cloud[:(n + 1) // 2]
    return {"gaussian": cloud,
            "ties": rng.integers(0, 3, size=(n, d)).astype(float),
            "duplicates": np.concatenate([half, half])[:n],
            "zero_median": np.concatenate([np.repeat(cloud[:1], 300, axis=0),
                                           cloud[300:]]),
            "coincident": np.full((n, d), 0.3),
            "near_cluster": tight_far_cluster(n, d, 10.0, seed),
            "far_cluster": tight_far_cluster(n, d, 30.0, seed)}


def count_pdist(monkeypatch):
    calls = []
    monkeypatch.setattr(kernels_mod, "pdist",
                        lambda *a: calls.append(1) or pdist(*a))
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
        # root; the guard refuses it and the result is the pdist rule's.
        x = np.zeros((400, 2))
        x[210:] = [3.0, 1.0]
        calls = count_pdist(monkeypatch)
        assert median_bandwidth(x) == median_reference(x)
        assert len(calls) == 1

    @pytest.mark.parametrize("d", [1, 4, 17, 64])
    def test_both_sides_of_the_limit(self, d, monkeypatch):
        # The guard bounds max|x~|^2 * sqrt(D + 2) / h by _GEMM_LIMIT (odd
        # m, unclamped h).  That ratio is scale-free, so the limit is moved
        # to 1% on either side of this set's own ratio.
        n = 363
        x = tight_far_cluster(n, d, 10.0, seed=d)
        ref = median_reference(x)
        xc = x - x.mean(axis=0)
        ratio = np.max(np.sum(xc * xc, axis=1)) * np.sqrt(d + 2) / ref
        calls = count_pdist(monkeypatch)
        limit = 1.01 * ratio
        monkeypatch.setattr(kernels_mod, "_GEMM_LIMIT", limit)
        bound = 2.3 * np.finfo(float).eps * limit / np.log(n)
        assert median_bandwidth(x) == pytest.approx(ref, rel=bound, abs=0)
        assert calls == []
        monkeypatch.setattr(kernels_mod, "_GEMM_LIMIT", 0.99 * ratio)
        assert median_bandwidth(x) == ref
        assert calls == [1]

    def test_one_block_sets_select_from_pdist(self, monkeypatch):
        calls = count_pdist(monkeypatch)
        for name, x in median_sets(362, 4, seed=1).items():
            assert median_bandwidth(x) == median_reference(x), name
        assert len(calls) == 7


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
        # Blocks of 8 rows at n = 20: the median keeps no distances.  The
        # contraction forms its 3 kernel blocks by GEMM, with no cdist, and
        # with one cdist per block when the guard refuses the GEMM.
        n = 20
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", 8 * n)
        rng = np.random.default_rng(4)
        x, v = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        h = median_bandwidth(x)
        assert h.d2 is None
        calls = []
        monkeypatch.setattr(kernels_mod, "cdist",
                            lambda *a: calls.append(1) or cdist(*a))
        for cdist_calls in (0, 2 * 3):
            if cdist_calls:
                monkeypatch.setattr(kernels_mod, "_GEMM_LIMIT", 0.0)
            calls.clear()
            np.testing.assert_array_equal(contract(x, h, v),
                                          contract(x, float(h), v))
            assert len(calls) == cdist_calls


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
