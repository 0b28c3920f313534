import numpy as np
import pytest

from gsvgd.bnn import (BNNPosterior, Dataset, MinibatchSchedule,
                       flatten_params, init_params, load_regression_csv,
                       make_dataset, param_dim, predict,
                       predictive_log_likelihood, unflatten_params)

import helpers
from helpers import (fd_gradient, grad_log_posterior, grad_log_prior,
                     log_posterior, log_prior)

LOG_2PI = np.log(2.0 * np.pi)


def synthetic_dataset(n=20, d_in=1, seed=0, test_frac=0.1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, d_in))
    y = np.sin(3.0 * x[:, 0]) + 0.1 * rng.standard_normal(n)
    return make_dataset(x, y, seed=seed, test_frac=test_frac)


def identity_dataset(features, targets, n_train=None):
    """Dataset with identity standardization and a trailing test split."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    targets = np.asarray(targets, dtype=float)
    n = features.shape[0]
    n_train = n if n_train is None else n_train
    return Dataset(features, targets,
                   train_idx=np.arange(n_train),
                   test_idx=np.arange(n_train, n),
                   feat_mean=np.zeros(features.shape[1]),
                   feat_std=np.ones(features.shape[1]),
                   targ_mean=0.0, targ_std=1.0)


class TestParams:
    def test_param_dim(self):
        assert param_dim(1, 50) == 50 + 50 + 50 + 1 + 2
        assert param_dim(4, 50) == 4 * 50 + 50 + 50 + 1 + 2

    def test_flatten_roundtrip_bitwise(self):
        rng = np.random.default_rng(0)
        vec = rng.standard_normal(param_dim(3, 7))
        parts = unflatten_params(vec, 3, 7)
        np.testing.assert_array_equal(flatten_params(*parts), vec)

    def test_unflatten_order(self):
        vec = np.arange(param_dim(2, 2), dtype=float)
        w1, b1, w2, b2, lg, ll = unflatten_params(vec, 2, 2)
        np.testing.assert_array_equal(w1, [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(b1, [4.0, 5.0])
        np.testing.assert_array_equal(w2, [6.0, 7.0])
        assert (b2, lg, ll) == (8.0, 9.0, 10.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            unflatten_params(np.zeros(param_dim(2, 2) - 1), 2, 2)

    def test_init_scales(self):
        rng = np.random.default_rng(1)
        vecs = np.stack([init_params(rng, 1, 50) for _ in range(200)])
        w1 = vecs[:, :50]
        assert abs(w1.var() - 2.0 / 51.0) < 0.01
        b1 = vecs[:, 50:100]
        np.testing.assert_array_equal(b1, np.zeros_like(b1))
        np.testing.assert_array_equal(vecs[:, -2:], np.zeros((200, 2)))


class TestLogPosterior:
    def test_hand_likelihood_value(self):
        # Zero network, unit noise precision, one observation y = 0:
        # the likelihood term is exactly -log(2 pi)/2.
        ds = identity_dataset([[0.0]], [0.0])
        post = BNNPosterior(ds, hidden=4)
        w = np.zeros(post.dim)
        lik = log_posterior(post, w) - log_prior(w, 1, 4)
        assert lik == pytest.approx(-0.5 * LOG_2PI, abs=1e-12)

    def test_prior_hand_value(self):
        # All weights zero, log-precisions zero: the prior is
        # n_w * (-log(2 pi)/2) plus two Gamma terms log(0.1) - 0.1 + 0.
        n_w = 1 * 4 + 4 + 4 + 1
        w = np.zeros(param_dim(1, 4))
        expected = -0.5 * n_w * LOG_2PI + 2 * (np.log(0.1) - 0.1)
        assert log_prior(w, 1, 4) == pytest.approx(expected, abs=1e-12)

    def test_minibatch_scaling_identity(self):
        ds = synthetic_dataset(n=20, test_frac=0.1)
        post = BNNPosterior(ds, hidden=8)
        rng = np.random.default_rng(2)
        w = 0.3 * rng.standard_normal(post.dim)
        idx = np.arange(9)  # half of the 18 train points
        prior = log_prior(w, 1, 8)
        scaled = log_posterior(post, w, idx) - prior
        # Per-point likelihoods recovered from single-point batches (each is
        # rescaled by n_train); their plain sum times n_total/|batch| = 2
        # must reproduce the half-batch evaluation.
        batch_sum = sum(
            log_posterior(post, w, [i]) - prior for i in idx) / ds.n_train
        assert scaled == pytest.approx(2.0 * batch_sum, rel=1e-12)

    def test_relu_dead_region(self):
        ds = identity_dataset([[1.0], [2.0]], [0.5, -0.5])
        post = BNNPosterior(ds, hidden=3)
        w1 = np.zeros((1, 3))
        b1 = np.array([-5.0, 1.0, 1.0])  # unit 0 dead for x in {1, 2}
        w2 = np.ones(3)
        base = flatten_params(w1, b1, w2, 0.0, 0.0, 0.0)
        bumped = base.copy()
        bumped[0] += 0.5  # W1 entry feeding the dead unit
        lik0 = log_posterior(post, base) - log_prior(base, 1, 3)
        lik1 = log_posterior(post, bumped) - log_prior(bumped, 1, 3)
        assert lik0 == lik1

    def test_empty_batch_rejected(self):
        post = BNNPosterior(synthetic_dataset(), hidden=4)
        with pytest.raises(ValueError):
            log_posterior(post, np.zeros(post.dim), [])


class TestGradLogPosterior:
    def test_matches_finite_differences(self):
        ds = synthetic_dataset(n=20)
        post = BNNPosterior(ds, hidden=6)
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = 0.5 * rng.standard_normal(post.dim)
            grad = grad_log_posterior(post, w)
            fd = fd_gradient(lambda v: log_posterior(post, v), w)
            denom = np.maximum(np.abs(fd), 1.0)
            assert np.max(np.abs(grad - fd) / denom) <= 1e-4

    def test_minibatch_gradient_matches_fd(self):
        ds = synthetic_dataset(n=20)
        post = BNNPosterior(ds, hidden=6)
        w = 0.4 * np.random.default_rng(4).standard_normal(post.dim)
        idx = np.array([0, 3, 5])
        grad = grad_log_posterior(post, w, idx)
        fd = fd_gradient(lambda v: log_posterior(post, v, idx), w)
        denom = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(grad - fd) / denom) <= 1e-4

    def test_noise_precision_stationarity(self):
        # With gamma at its conditional optimum the log-gamma gradient is 0.
        ds = synthetic_dataset(n=20)
        post = BNNPosterior(ds, hidden=6)
        rng = np.random.default_rng(5)
        w = 0.5 * rng.standard_normal(post.dim)
        w1, b1, w2, b2, _, ll = unflatten_params(w, 1, 6)
        m = np.maximum(ds.x_train @ w1 + b1, 0.0) @ w2 + b2
        resid_sq = float(np.sum((ds.y_train - m) ** 2))
        n = ds.n_train
        gamma_opt = (0.5 * n + 1.0) / (0.5 * resid_sq + 0.1)
        w_opt = flatten_params(w1, b1, w2, b2, np.log(gamma_opt), ll)
        assert abs(grad_log_posterior(post, w_opt)[-2]) <= 1e-8

    def test_prior_score_hand_formula(self):
        rng = np.random.default_rng(6)
        vec = rng.standard_normal(param_dim(2, 3))
        w1, b1, w2, b2, lg, ll = unflatten_params(vec, 2, 3)
        lam, gam = np.exp(ll), np.exp(lg)
        n_w = 2 * 3 + 3 + 3 + 1
        wsq = np.sum(w1 ** 2) + np.sum(b1 ** 2) + np.sum(w2 ** 2) + b2 ** 2
        expected = flatten_params(
            -lam * w1, -lam * b1, -lam * w2, -lam * b2,
            1.0 - 0.1 * gam,
            0.5 * n_w - 0.5 * lam * wsq + 1.0 - 0.1 * lam)
        np.testing.assert_allclose(grad_log_prior(vec, 2, 3), expected,
                                   atol=1e-12)


def stacked_case(d_in, hidden, n):
    """A dataset, its posterior and an (n, P) weight stack whose rows are
    strided, as the theta block of a stacked state is."""
    ds = synthetic_dataset(n=40, d_in=d_in, seed=d_in)
    post = BNNPosterior(ds, hidden=hidden)
    rng = np.random.default_rng(100 * d_in + 10 * hidden + n)
    state = 0.7 * rng.standard_normal((n, 2 * post.dim))
    return ds, post, state[:, :post.dim]


BATCHES = {"full": None, "minibatch": np.array([7, 0, 22, 13, 5, 30, 18]),
           "single": np.array([11])}


def assert_matches_oracle(actual, oracle):
    """Agreement to 1e-12, relative and in the oracle's largest magnitude:
    the stacked pass sums its GEMMs in another order than the oracle."""
    oracle = np.asarray(oracle)
    np.testing.assert_allclose(actual, oracle, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(oracle)))


class TestBatchedScore:
    """The stacked pass agrees with the per-vector oracle to 1e-12, and its
    evaluators agree with each other bit for bit."""

    @pytest.mark.parametrize("batch", sorted(BATCHES))
    @pytest.mark.parametrize("n", [1, 2, 10])
    @pytest.mark.parametrize("hidden", [1, 4, 50])
    @pytest.mark.parametrize("d_in", [1, 3])
    def test_score_matches_oracle(self, d_in, hidden, n, batch):
        ds, post, W = stacked_case(d_in, hidden, n)
        idx = BATCHES[batch]
        target = post.as_target(idx)
        assert_matches_oracle(target.grad_many(W), np.stack([
            helpers.bnn_grad_log_posterior(ds, hidden, w, idx) for w in W]))
        assert_matches_oracle(target.logp_many(W), [
            helpers.bnn_log_posterior(ds, hidden, w, idx) for w in W])
        L, G = target.value_and_grad_fn(W)
        assert G.tobytes() == target.grad_fn(W).tobytes()
        assert L.tobytes() == target.logp_many(W).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 10])
    @pytest.mark.parametrize("hidden", [1, 4, 50])
    @pytest.mark.parametrize("d_in", [1, 3])
    def test_prediction_matches_oracle(self, d_in, hidden, n):
        ds, _, W = stacked_case(d_in, hidden, n)
        xs = np.random.default_rng(n).uniform(-1.0, 1.0, size=(5, d_in))
        mean, per = predict(W, xs, ds, hidden=hidden)
        expected = helpers.bnn_predict(W, xs, ds, hidden)
        assert_matches_oracle(per, expected)
        assert_matches_oracle(mean, expected.mean(axis=0))
        assert_matches_oracle(predictive_log_likelihood(W, ds, hidden=hidden),
                              helpers.bnn_predictive_log_likelihood(W, ds,
                                                                    hidden))

    def test_relu_kink_takes_zero_branch(self):
        ds = identity_dataset([[1.0], [2.0], [-1.0]], [0.5, -0.5, 0.2])
        post = BNNPosterior(ds, hidden=3)
        rng = np.random.default_rng(12)
        vecs = []
        for _ in range(4):
            w1 = rng.standard_normal((1, 3))
            b1 = rng.standard_normal(3)
            w1[0, 1] = b1[1] = 0.0        # unit 1 sits exactly at the kink
            vecs.append(flatten_params(w1, b1, rng.standard_normal(3), 0.1,
                                       0.2, -0.3))
        W = np.stack(vecs)
        target = post.as_target()
        grad = target.grad_many(W)
        assert_matches_oracle(grad, np.stack([
            helpers.bnn_grad_log_posterior(ds, 3, w) for w in W]))
        # The dead unit's input weight and bias get the prior term only.
        lam = np.exp(W[:, -1])
        np.testing.assert_array_equal(grad[:, [1, 4]], -lam[:, None] * W[:, [1, 4]])
        assert_matches_oracle(target.logp_many(W), [
            helpers.bnn_log_posterior(ds, 3, w) for w in W])

    def test_strided_stack_scores_as_its_copy(self):
        _, post, W = stacked_case(3, 50, 10)
        assert not W.flags.c_contiguous
        target = post.as_target(BATCHES["minibatch"])
        C = np.ascontiguousarray(W)
        assert target.grad_fn(W).tobytes() == target.grad_fn(C).tobytes()
        assert (target.value_and_grad_fn(W)[0].tobytes()
                == target.value_and_grad_fn(C)[0].tobytes())

    def test_repeated_calls_are_bit_identical(self):
        _, post, W = stacked_case(1, 50, 10)
        target = post.as_target(BATCHES["minibatch"])
        first_l, first_g = target.value_and_grad_fn(W)
        for _ in range(3):
            L, G = target.value_and_grad_fn(W)
            assert L.tobytes() == first_l.tobytes()
            assert G.tobytes() == first_g.tobytes()
            assert target.grad_fn(W).tobytes() == first_g.tobytes()

    def test_full_200_row_batch_matches_oracle(self):
        ds = synthetic_dataset(n=222, d_in=3, seed=7)
        assert ds.n_train == 200
        post = BNNPosterior(ds, hidden=50)
        W = 0.7 * np.random.default_rng(8).standard_normal((10, post.dim))
        target = post.as_target()
        assert_matches_oracle(target.grad_many(W), np.stack([
            helpers.bnn_grad_log_posterior(ds, 50, w) for w in W]))
        assert_matches_oracle(target.logp_many(W), [
            helpers.bnn_log_posterior(ds, 50, w) for w in W])

    def test_target_indexes_its_batch_once(self, monkeypatch):
        _, post, W = stacked_case(1, 4, 2)
        calls = []
        batch = BNNPosterior._batch

        def counted(self, idx):
            calls.append(idx)
            return batch(self, idx)

        monkeypatch.setattr(BNNPosterior, "_batch", counted)
        target = post.as_target(BATCHES["minibatch"])
        for k in range(3):
            target.value_and_grad_fn(W + k)
            target.grad_fn(W - k)
        assert len(calls) == 1

    def test_stack_unflattens_to_views(self):
        W = np.arange(2.0 * param_dim(2, 3)).reshape(2, -1)
        w1, b1, w2, b2, lg, ll = unflatten_params(W, 2, 3)
        assert w1.shape == (2, 2, 3) and b1.shape == w2.shape == (2, 3)
        for i in range(2):
            for part, row in zip((w1, b1, w2, b2, lg, ll),
                                 unflatten_params(W[i], 2, 3)):
                np.testing.assert_array_equal(part[i], row)
        assert np.shares_memory(w1, W)


class TestPredict:
    def test_single_particle(self):
        ds = identity_dataset([[0.0]], [0.0])
        vec = init_params(np.random.default_rng(7), 1, 5)
        mean, per = predict(vec[None, :], np.array([0.3]), ds, hidden=5)
        assert per.shape == (1,)
        assert mean == per[0]

    def test_identical_particles_zero_spread(self):
        ds = identity_dataset([[0.0]], [0.0])
        vec = init_params(np.random.default_rng(8), 1, 5)
        _, per = predict(np.stack([vec, vec, vec]), np.array([-0.7]), ds,
                         hidden=5)
        assert np.ptp(per) == 0.0

    def test_linear_regime_affine_form(self):
        ds = identity_dataset([[0.0, 0.0]], [0.0])
        rng = np.random.default_rng(9)
        w1 = rng.standard_normal((2, 4))
        b1 = np.full(4, 10.0)  # keeps every pre-activation positive
        w2 = rng.standard_normal(4)
        b2 = 0.3
        vec = flatten_params(w1, b1, w2, b2, 0.0, 0.0)
        x = np.array([0.2, -0.1])
        _, per = predict(vec[None, :], x, ds, hidden=4)
        assert per[0] == pytest.approx(w2 @ (x @ w1 + b1) + b2, rel=1e-12)

    def test_batch_input_shape(self):
        ds = identity_dataset([[0.0]], [0.0])
        vec = init_params(np.random.default_rng(10), 1, 5)
        xs = np.linspace(-1, 1, 7)[:, None]
        mean, per = predict(np.stack([vec, vec]), xs, ds, hidden=5)
        assert mean.shape == (7,) and per.shape == (2, 7)


class TestPredictiveLogLikelihood:
    def test_single_particle_plain_gaussian(self):
        ds = identity_dataset([[0.0], [0.5]], [0.0, 0.25], n_train=1)
        vec = flatten_params(np.zeros((1, 2)), np.zeros(2), np.zeros(2),
                             0.1, np.log(2.0), 0.0)
        got = predictive_log_likelihood(vec[None, :], ds, hidden=2)
        expected = 0.5 * (np.log(2.0) - LOG_2PI) - 0.5 * 2.0 * (0.25 - 0.1) ** 2
        assert got == pytest.approx(expected, abs=1e-12)

    def test_duplication_invariance(self):
        ds = synthetic_dataset(n=30)
        rng = np.random.default_rng(11)
        theta = np.stack([init_params(rng, 1, 5) for _ in range(3)])
        once = predictive_log_likelihood(theta, ds, hidden=5)
        twice = predictive_log_likelihood(np.concatenate([theta, theta]),
                                          ds, hidden=5)
        assert twice == pytest.approx(once, abs=1e-12)

    def test_target_scale_jacobian(self):
        # Halving/doubling the target scale must shift the density by the
        # -log(std) change-of-variable term; verify against a manual value.
        feats = np.array([[0.0], [0.5]])
        targs = np.array([0.0, 0.25])
        base = identity_dataset(feats, targs, n_train=1)
        scaled = Dataset(feats, targs, base.train_idx, base.test_idx,
                         base.feat_mean, base.feat_std,
                         targ_mean=0.0, targ_std=2.0)
        vec = flatten_params(np.zeros((1, 2)), np.zeros(2), np.zeros(2),
                             0.0, 0.0, 0.0)
        got = predictive_log_likelihood(vec[None, :], scaled, hidden=2)
        y_std = 0.25 / 2.0
        expected = -0.5 * LOG_2PI - 0.5 * y_std ** 2 - np.log(2.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_two_particle_hand_value(self):
        ds = identity_dataset([[0.0], [1.0]], [0.0, 0.8], n_train=1)
        v1 = flatten_params(np.zeros((1, 3)), np.zeros(3), np.zeros(3),
                            0.5, 0.0, 0.0)
        v2 = flatten_params(np.zeros((1, 3)), np.zeros(3), np.zeros(3),
                            1.0, np.log(4.0), 0.0)
        got = predictive_log_likelihood(np.stack([v1, v2]), ds, hidden=3)
        dens1 = np.exp(-0.5 * (0.8 - 0.5) ** 2) / np.sqrt(2 * np.pi)
        dens2 = 2.0 * np.exp(-0.5 * 4.0 * (0.8 - 1.0) ** 2) / np.sqrt(2 * np.pi)
        assert got == pytest.approx(np.log(0.5 * (dens1 + dens2)), abs=1e-12)


class TestDataset:
    def test_split_sizes(self):
        rng = np.random.default_rng(12)
        ds = make_dataset(rng.standard_normal((100, 2)),
                          rng.standard_normal(100), seed=0, test_frac=0.1)
        assert ds.n_train == 90 and ds.n_test == 10

    def test_same_seed_same_split(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((40, 2))
        y = rng.standard_normal(40)
        a = make_dataset(x, y, seed=5)
        b = make_dataset(x, y, seed=5)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)
        np.testing.assert_array_equal(a.test_idx, b.test_idx)

    def test_standardization_train_only(self):
        x = np.arange(20.0)[:, None]
        ds = make_dataset(x, np.arange(20.0), seed=1)
        train = x[ds.train_idx, 0]
        assert ds.feat_mean[0] == pytest.approx(train.mean())
        assert ds.feat_std[0] == pytest.approx(train.std())
        assert abs(ds.x_train.mean()) <= 1e-12

    def test_constant_column_floors(self):
        x = np.column_stack([np.ones(20), np.arange(20.0)])
        ds = make_dataset(x, np.arange(20.0), seed=2)
        assert np.all(np.isfinite(ds.x_train))
        np.testing.assert_array_equal(ds.x_train[:, 0], np.zeros(ds.n_train))

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            make_dataset(np.zeros((9, 1)), np.zeros(9), seed=0)


class TestCsvLoader:
    def test_loads_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        rng = np.random.default_rng(14)
        rows = ["x0,x1,y"]
        table = rng.standard_normal((100, 3))
        rows += [",".join(str(v) for v in row) for row in table]
        path.write_text("\n".join(rows))
        ds = load_regression_csv(path, seed=0)
        assert ds.n_train == 90 and ds.n_test == 10 and ds.d_in == 2
        np.testing.assert_allclose(ds.targets, table[:, 2])

    def test_same_seed_identical(self, tmp_path):
        path = tmp_path / "data.csv"
        table = np.random.default_rng(15).standard_normal((30, 2))
        path.write_text("\n".join(",".join(map(str, r)) for r in table))
        a = load_regression_csv(path, seed=3)
        b = load_regression_csv(path, seed=3)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)

    def test_unparsable_cell_names_location(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = [",".join(map(str, r))
                for r in np.ones((12, 2))]
        rows[4] = "1.0,oops"
        path.write_text("\n".join(rows))
        with pytest.raises(ValueError, match="row 5, column 2"):
            load_regression_csv(path, seed=0)

    def test_headerless_file_loads_every_row_once(self, tmp_path):
        path = tmp_path / "data.csv"
        table = np.arange(24.0).reshape(12, 2)
        path.write_text("\n".join(",".join(map(str, r)) for r in table))
        ds = load_regression_csv(path, seed=0)
        np.testing.assert_array_equal(ds.features[:, 0], table[:, 0])
        np.testing.assert_array_equal(ds.targets, table[:, 1])

    def test_byte_order_mark_headerless_file_loads_every_row(self, tmp_path):
        # As written by spreadsheet programs' "CSV UTF-8" export.
        path = tmp_path / "data.csv"
        table = np.arange(20.0).reshape(10, 2)
        text = "\n".join(",".join(map(str, r)) for r in table)
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        ds = load_regression_csv(path, seed=0)
        np.testing.assert_array_equal(ds.features[:, 0], table[:, 0])
        np.testing.assert_array_equal(ds.targets, table[:, 1])

    def test_byte_order_mark_before_a_header(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = ["x,y"] + [",".join(map(str, r)) for r in np.ones((12, 2))]
        path.write_bytes(b"\xef\xbb\xbf" + "\n".join(rows).encode("utf-8"))
        assert load_regression_csv(path, seed=0).features.shape == (12, 1)

    def test_first_row_with_a_number_is_data(self, tmp_path):
        # One parsable cell makes row 1 a data row, so its bad cell is an
        # error rather than a silently dropped header.
        path = tmp_path / "data.csv"
        rows = ["1.0,abc"] + [",".join(map(str, r)) for r in np.ones((10, 2))]
        path.write_text("\n".join(rows))
        with pytest.raises(ValueError, match="row 1, column 2: 'abc'"):
            load_regression_csv(path, seed=0)

    def test_headerless_nonfinite_cell_names_location(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = [",".join(map(str, r)) for r in np.ones((12, 2))]
        rows[4] = "1.0,nan"
        path.write_text("\n".join(rows))
        with pytest.raises(ValueError, match="non-finite cell at row 5, column 2"):
            load_regression_csv(path, seed=0)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_nonfinite_cell_names_location(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        rows = ["x,y"] + [",".join(map(str, r)) for r in np.ones((12, 2))]
        rows[7] = f"{cell},1.0"
        path.write_text("\n".join(rows))
        with pytest.raises(ValueError, match="non-finite cell at row 8, column 1"):
            load_regression_csv(path, seed=0)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_regression_csv(path, seed=0)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\n".join("1.0,2.0" for _ in range(5)))
        with pytest.raises(ValueError):
            load_regression_csv(path, seed=0)


class TestMinibatchSchedule:
    def test_full_batch_when_disabled(self):
        sched = MinibatchSchedule(10, 0, np.random.default_rng(0))
        assert sched.next() is None

    def test_epoch_without_replacement(self):
        sched = MinibatchSchedule(12, 4, np.random.default_rng(1))
        seen = np.concatenate([sched.next() for _ in range(3)])
        np.testing.assert_array_equal(np.sort(seen), np.arange(12))

    def test_deterministic_under_seed(self):
        a = MinibatchSchedule(10, 3, np.random.default_rng(2))
        b = MinibatchSchedule(10, 3, np.random.default_rng(2))
        for _ in range(7):
            np.testing.assert_array_equal(a.next(), b.next())
