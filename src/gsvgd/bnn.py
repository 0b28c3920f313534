"""One-hidden-layer Bayesian neural network regression posterior.

Model (all in standardized data space):

    y ~ N(w2 . relu(W1^T x + b1) + b2, 1/gamma)
    W1, b1, w2, b2 ~ N(0, 1/lam)        elementwise
    gamma, lam ~ Gamma(shape=1, rate=0.1)

The precisions are parametrized in log space for unconstrained dynamics, so
the prior terms carry the +log(gamma) and +log(lam) change-of-variable
corrections.  Gradients are computed by hand-written backpropagation,
batched over particles: a stack of N parameter vectors runs as one (B, N*H)
GEMM of the inputs with a bias column, ``[X | 1]``, against every particle's
``[W1; b1]`` (adjacent in the flattening), and two batched matmuls for the
``[W1; b1]`` and ``w2`` gradients.  The ReLU subgradient at the kink takes
the zero branch.

Parameter vectors flatten in the fixed order
``W1 (row-major, d_in x hidden), b1, w2, b2, log_gamma, log_lambda``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .targets import TargetDensity

Array = np.ndarray

HIDDEN_DEFAULT = 50
GAMMA_SHAPE = 1.0
GAMMA_RATE = 0.1
_LOG_2PI = float(np.log(2.0 * np.pi))
_STD_FLOOR = 1e-8


def param_dim(d_in: int, hidden: int = HIDDEN_DEFAULT) -> int:
    return d_in * hidden + hidden + hidden + 1 + 2


def unflatten_params(vec: Array, d_in: int, hidden: int = HIDDEN_DEFAULT):
    """Split flattened parameters into views (W1, b1, w2, b2, log_gamma,
    log_lambda).

    ``vec`` is one vector (P,) or a stack (N, P); a stack gives every part a
    leading particle axis, so W1 is (N, d_in, hidden) and b2 is (N,).
    """
    vec = np.asarray(vec, dtype=float)
    p = param_dim(d_in, hidden)
    if vec.ndim not in (1, 2) or vec.shape[-1] != p:
        raise ValueError(
            f"parameters have shape {vec.shape}, expected ({p},) or (N, {p})")
    k = d_in * hidden
    w1 = vec[..., :k].reshape(vec.shape[:-1] + (d_in, hidden))
    b1 = vec[..., k:k + hidden]
    w2 = vec[..., k + hidden:k + 2 * hidden]
    return w1, b1, w2, vec[..., p - 3], vec[..., p - 2], vec[..., p - 1]


def flatten_params(w1: Array, b1: Array, w2: Array, b2: float,
                   log_gamma: float, log_lambda: float) -> Array:
    """Inverse of :func:`unflatten_params` for one vector (bitwise round-trip)."""
    return np.concatenate([
        np.asarray(w1, dtype=float).reshape(-1),
        np.asarray(b1, dtype=float),
        np.asarray(w2, dtype=float),
        np.array([b2, log_gamma, log_lambda], dtype=float),
    ])


def init_params(rng: np.random.Generator, d_in: int,
                hidden: int = HIDDEN_DEFAULT) -> Array:
    """Glorot-normal weights (variance 2/(fan_in+fan_out)), zero biases,
    log precisions at zero."""
    w1 = rng.standard_normal((d_in, hidden)) * np.sqrt(2.0 / (d_in + hidden))
    w2 = rng.standard_normal(hidden) * np.sqrt(2.0 / (hidden + 1))
    return flatten_params(w1, np.zeros(hidden), w2, 0.0, 0.0, 0.0)


def _forward(W: Array, X1: Array, hidden: int):
    """Activations (N, B, H), a view of the one (B, N*H) GEMM of X1 with
    every particle's [W1; b1], and outputs (N, B) of a stack W (N, P) of
    networks on the inputs ``X1 = [X | 1]`` (B, d_in + 1)."""
    n = W.shape[0]
    k = X1.shape[1] * hidden
    wt = W[:, :k].reshape(n, -1, hidden).transpose(1, 0, 2).reshape(-1, n * hidden)
    a = X1 @ wt
    np.maximum(a, 0.0, out=a)
    a = a.reshape(-1, n, hidden).transpose(1, 0, 2)
    m = np.matmul(a, W[:, k:k + hidden, None])[..., 0]
    m += W[:, k + hidden, None]
    return a, m


def _prior(W: Array, with_logp: bool = True):
    """Log prior (N,), or None, and its gradient (N, P) of stacked
    parameters W (N, P)."""
    lg, ll = W[:, -2], W[:, -1]
    lam = np.exp(ll)
    gamma = np.exp(lg)
    n_w = W.shape[1] - 2                # every weight and bias
    weights_sq = np.einsum("ij,ij->i", W[:, :n_w], W[:, :n_w])
    grad = -lam[:, None] * W
    grad[:, -2] = 1.0 - GAMMA_RATE * gamma
    grad[:, -1] = 0.5 * n_w - 0.5 * lam * weights_sq + 1.0 - GAMMA_RATE * lam
    out = None
    if with_logp:
        out = 0.5 * n_w * (ll - _LOG_2PI) - 0.5 * lam * weights_sq
        # Gamma(1, 0.1) on gamma and lam, in log space (+log Jacobians).
        out += np.log(GAMMA_RATE) - GAMMA_RATE * gamma + lg
        out += np.log(GAMMA_RATE) - GAMMA_RATE * lam + ll
    return out, grad


def _stack(theta: Array, d_in: int, hidden: int) -> Array:
    """Parameters (P,) or (N, P) as a float (N, P) stack."""
    theta = np.asarray(theta, dtype=float)
    unflatten_params(theta, d_in, hidden)       # checks the shape
    return np.atleast_2d(theta)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """Regression data with a train/test split and train-only standardization.

    ``features``/``targets`` are stored in original units; standardized
    views are derived from train-split statistics (std floored at 1e-8 so a
    constant column maps to zeros, never NaN).
    """

    features: Array
    targets: Array
    train_idx: Array
    test_idx: Array
    feat_mean: Array
    feat_std: Array
    targ_mean: float
    targ_std: float

    @property
    def d_in(self) -> int:
        return self.features.shape[1]

    @property
    def n_train(self) -> int:
        return self.train_idx.shape[0]

    @property
    def n_test(self) -> int:
        return self.test_idx.shape[0]

    def standardize_x(self, X: Array) -> Array:
        return (X - self.feat_mean) / self.feat_std

    @cached_property
    def x_train(self) -> Array:
        return self.standardize_x(self.features[self.train_idx])

    @cached_property
    def y_train(self) -> Array:
        return (self.targets[self.train_idx] - self.targ_mean) / self.targ_std

    @cached_property
    def x_test(self) -> Array:
        return self.standardize_x(self.features[self.test_idx])

    @cached_property
    def y_test(self) -> Array:
        return self.targets[self.test_idx]


def make_dataset(features: Array, targets: Array, seed: int,
                 test_frac: float = 0.1) -> Dataset:
    """Shuffle, split and standardize a regression table deterministically."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    targets = np.asarray(targets, dtype=float).reshape(-1)
    n = features.shape[0]
    if targets.shape[0] != n:
        raise ValueError("features and targets disagree on the number of rows")
    if n < 10:
        raise ValueError(f"need at least 10 rows, got {n}")
    if not 0.0 < test_frac < 1.0:
        raise ValueError("test_frac must lie in (0, 1)")
    perm = np.random.default_rng(seed).permutation(n)
    n_test = max(1, int(round(n * test_frac)))
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    x_tr = features[train_idx]
    y_tr = targets[train_idx]
    feat_std = np.maximum(x_tr.std(axis=0), _STD_FLOOR)
    targ_std = max(float(y_tr.std()), _STD_FLOOR)
    return Dataset(features, targets, train_idx, test_idx,
                   x_tr.mean(axis=0), feat_std, float(y_tr.mean()), targ_std)


def load_regression_csv(path, seed: int, test_frac: float = 0.1) -> Dataset:
    """Load a numeric CSV (last column = target, optional header row).

    The first row is a header when none of its cells parses as a number.  A
    UTF-8 byte-order mark is skipped.  A cell that fails to parse or is not
    finite (``nan``, ``inf``) raises a ValueError naming its row and column
    (1-based, header included in the row count).
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")

    def parse_row(line: str, row_no: int) -> list[float]:
        out = []
        for col_no, cell in enumerate(line.split(","), start=1):
            try:
                out.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}: unparsable cell at row {row_no}, column {col_no}: "
                    f"{cell!r}") from None
        return out

    def is_number(cell: str) -> bool:
        try:
            float(cell)
        except ValueError:
            return False
        return True

    start = 0 if any(map(is_number, lines[0].split(","))) else 1
    rows = [parse_row(line, i)
            for i, line in enumerate(lines[start:], start=start + 1)]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    if width < 2:
        raise ValueError(f"{path}: need at least one feature column and a target")
    for i, row in enumerate(rows, start=start + 1):
        if len(row) != width:
            raise ValueError(f"{path}: row {i} has {len(row)} cells, expected {width}")
    table = np.asarray(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: non-finite cell at row {start + i + 1}, "
                         f"column {j + 1}: {float(table[i, j])!r}")
    return make_dataset(table[:, :-1], table[:, -1], seed, test_frac)


# ---------------------------------------------------------------------------
# Posterior
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BNNPosterior:
    """Log posterior and gradient over the flattened network parameters.

    Minibatch evaluations rescale the batch log-likelihood by
    ``n_train / batch`` so the full-data posterior is estimated without bias.
    All evaluations run in standardized data space.
    """

    dataset: Dataset
    hidden: int = HIDDEN_DEFAULT

    @property
    def d_in(self) -> int:
        return self.dataset.d_in

    @property
    def dim(self) -> int:
        return param_dim(self.d_in, self.hidden)

    def _batch(self, idx):
        """``([Xb | 1], yb)`` of the (mini)batch ``idx`` (None: all rows)."""
        X, y = self.dataset.x_train, self.dataset.y_train
        if idx is not None:
            idx = np.asarray(idx, dtype=int)
            if idx.size == 0:
                raise ValueError("batch must be nonempty")
            X, y = X[idx], y[idx]
        return np.hstack([X, np.ones((len(X), 1))]), y

    def logp_many(self, W: Array, idx=None) -> Array:
        """Log prior plus the (rescaled) batch log-likelihood, per row of the
        (N, P) parameter stack W."""
        return self._evaluate(W, self._batch(idx), with_logp=True)[0]

    def grad_many(self, W: Array, idx=None) -> Array:
        """Backpropagated gradient per row of W, in the flattening order."""
        return self._evaluate(W, self._batch(idx), with_logp=False)[1]

    def _evaluate(self, W: Array, batch, with_logp: bool):
        """``(logp or None, grad)`` per row of W on ``batch = (X1, yb)``: with
        ``dm_i`` the likelihood's derivative in particle i's outputs, its
        [W1; b1] gradient is ``w2_i * ((X1^T * dm_i) @ (a_i > 0))`` and its w2
        gradient ``dm_i @ a_i``, each added in place to the prior's."""
        X1, yb = batch
        n, h, b = W.shape[0], self.hidden, X1.shape[0]
        k = X1.shape[1] * h
        a, m = _forward(W, X1, h)
        logp, grad = _prior(W, with_logp)
        gamma = np.exp(W[:, -2])
        scale = self.dataset.n_train / b
        resid = yb - m
        rss = np.einsum("ij,ij->i", resid, resid)
        if with_logp:
            logp += scale * (0.5 * b * (W[:, -2] - _LOG_2PI) - 0.5 * gamma * rss)

        dm = (scale * gamma)[:, None] * resid       # dloglik/dm, rescaled
        grad[:, :k] += (np.matmul(X1.T * dm[:, None, :], a > 0)
                        * W[:, None, k:k + h]).reshape(n, k)
        grad[:, k:k + h] += np.matmul(dm[:, None, :], a)[:, 0]
        grad[:, -3] += dm.sum(axis=1)
        grad[:, -2] += scale * (0.5 * b - 0.5 * gamma * rss)
        return logp, grad

    def as_target(self, idx=None) -> TargetDensity:
        """View of this (mini)batch posterior as a sampling target; the
        batch is indexed once, here."""
        batch = self._batch(idx)
        return TargetDensity(self.dim, lambda W: self._evaluate(W, batch, True),
                             lambda W: self._evaluate(W, batch, False)[1],
                             None, "bnn")


class MinibatchSchedule:
    """Without-replacement minibatch indices, reshuffled each epoch."""

    def __init__(self, n: int, batch: int | None, rng: np.random.Generator):
        self.n = n
        self.batch = None if not batch or batch >= n else int(batch)
        self._rng = rng
        self._perm: Array = np.empty(0, dtype=int)
        self._pos = 0

    def next(self):
        """Indices for the next iteration (None means the full batch)."""
        if self.batch is None:
            return None
        if self._pos + self.batch > self._perm.size:
            self._perm = self._rng.permutation(self.n)
            self._pos = 0
        out = self._perm[self._pos:self._pos + self.batch]
        self._pos += self.batch
        return out


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict(theta: Array, x: Array, dataset: Dataset,
            hidden: int = HIDDEN_DEFAULT) -> tuple[Array, Array]:
    """Network outputs in original units for each parameter vector.

    Args:
        theta: (N, P) matrix of flattened parameter vectors.
        x: A single input (d_in,) or a batch (m, d_in), original units.

    Returns:
        ``(mean, per_particle)`` where per_particle has shape (N,) for a
        single input or (N, m) for a batch, and mean is its particle average.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != dataset.d_in:
        raise ValueError(f"input dim {X.shape[1]} != dataset dim {dataset.d_in}")
    X1 = np.hstack([dataset.standardize_x(X), np.ones((len(X), 1))])
    m = _forward(_stack(theta, dataset.d_in, hidden), X1, hidden)[1]
    preds = m * dataset.targ_std + dataset.targ_mean
    if single:
        preds = preds[:, 0]
    return preds.mean(axis=0), preds


def predictive_log_likelihood(theta: Array, dataset: Dataset,
                              hidden: int = HIDDEN_DEFAULT) -> float:
    """Mean test log density of the ensemble's predictive mixture.

    For each test point: ``log( (1/N) sum_i N(y | m_i, 1/gamma_i) )``,
    evaluated in standardized space and shifted by ``-log(targ_std)`` so the
    density lives in original units.
    """
    if dataset.n_test == 0:
        raise ValueError("dataset has an empty test split")
    y_std = (dataset.y_test - dataset.targ_mean) / dataset.targ_std
    theta = _stack(theta, dataset.d_in, hidden)
    X1 = np.hstack([dataset.x_test, np.ones((dataset.n_test, 1))])
    m = _forward(theta, X1, hidden)[1]
    lg = theta[:, -2]
    logp = ((0.5 * (lg - _LOG_2PI))[:, None]
            - (0.5 * np.exp(lg))[:, None] * (y_std - m) ** 2)
    mx = logp.max(axis=0)
    mix = mx + np.log(np.mean(np.exp(logp - mx[None, :]), axis=0))
    return float(np.mean(mix) - np.log(dataset.targ_std))
