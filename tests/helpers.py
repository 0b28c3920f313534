"""Shared independent oracles for the test suite.

Everything here is deliberately written as plain loops over explicit
formulas so it cannot share a code path with the library implementations it
checks.  The dense ``(A, C)`` oracle reads only a spec's kind and
parameters, and the base target's ``logp``/``grad_logp`` for the metric.
"""

import numpy as np

from gsvgd import bnn
from gsvgd.dynamics import RIEMANN_KINDS, DynamicsSpec, RiemannConfig
from gsvgd.targets import standard_gaussian, tri_crescent_target


# Single-point views of the batched library APIs, for tests that check one
# point at a time.  The library itself only evaluates batches.

def _point(target, x):
    """``x`` as a finite float point of ``target``'s dimension."""
    x = np.asarray(x, dtype=float)
    if x.shape != (target.dim,):
        raise ValueError(
            f"point has shape {x.shape}, expected ({target.dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("point has non-finite entries")
    return x


def logp(target, x):
    """Un-normalized log density of ``target`` at one point."""
    return float(target.value_and_grad_fn(_point(target, x)[None, :])[0][0])


def grad_logp(target, x):
    """Score of ``target`` at one point."""
    return target.grad_fn(_point(target, x)[None, :])[0]


def log_posterior(post, vec, idx=None):
    """``post.logp_many`` of one BNN parameter vector."""
    return float(post.logp_many(np.asarray(vec, dtype=float)[None], idx)[0])


def grad_log_posterior(post, vec, idx=None):
    """``post.grad_many`` of one BNN parameter vector."""
    return post.grad_many(np.asarray(vec, dtype=float)[None], idx)[0]


def log_prior(vec, d_in, hidden):
    """The library's BNN log prior of one flattened parameter vector."""
    return float(bnn._prior(bnn._stack(vec, d_in, hidden))[0][0])


def grad_log_prior(vec, d_in, hidden):
    """Gradient of :func:`log_prior` in the flattened parametrization."""
    return bnn._prior(bnn._stack(vec, d_in, hidden), with_logp=False)[1][0]


def fd_gradient(f, x, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        out[j] = (f(xp) - f(xm)) / (2.0 * step)
    return out


def nonfinite_on_call(grad_fn, call, particle):
    """Wrap a batched score so that its ``call``-th evaluation (1-based)
    returns NaN in the row of ``particle`` and every other one is exact."""
    count = [0]

    def wrapped(X):
        count[0] += 1
        out = grad_fn(X)
        if count[0] == call:
            out = out.copy()
            out[particle, 0] = np.nan
        return out

    return wrapped


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    denom = max(np.max(np.abs(exact)), 1e-12)
    return np.max(np.abs(approx - exact)) / denom


def svgd_reference(positions, grad_logp_fn, h):
    """Classic kernelized score update, direct double loop.

    v_i = (1/N) sum_j [ k(x_i,x_j) grad_logp(x_j) + grad2_k(x_i,x_j) ]
    with k(x,y) = exp(-||x-y||^2/h) and grad2 taken in the second argument.
    """
    positions = np.asarray(positions, dtype=float)
    n, d = positions.shape
    out = np.zeros((n, d))
    for i in range(n):
        acc = np.zeros(d)
        for j in range(n):
            diff = positions[i] - positions[j]
            k = np.exp(-np.dot(diff, diff) / h)
            acc += k * grad_logp_fn(positions[j]) + (2.0 / h) * diff * k
        out[i] = acc / n
    return out


def blob_score_reference(positions, h):
    """KDE score estimate of the blob method, direct double loops.

    g_i = sum_j grad1_k(x_i, x_j) / sum_j k(x_i, x_j)
        + sum_j grad1_k(x_i, x_j) / sum_l k(x_j, x_l),
    with grad1_k(x, y) = -(2/h) (x - y) k(x, y).
    """
    positions = np.asarray(positions, dtype=float)
    n, d = positions.shape

    def k(a, b):
        diff = a - b
        return np.exp(-np.dot(diff, diff) / h)

    row_sum = [sum(k(positions[i], positions[j]) for j in range(n))
               for i in range(n)]
    out = np.zeros((n, d))
    for i in range(n):
        for j in range(n):
            grad1 = -(2.0 / h) * (positions[i] - positions[j]) * k(
                positions[i], positions[j])
            out[i] += grad1 / row_sum[i] + grad1 / row_sum[j]
    return out


def _metric(riemann, theta):
    """``Ginv(theta) = d_scale * max(sqrt(|U + c_offset|), floor)`` and its
    gradient (zero where the floor is active), with ``U = -logp``."""
    u = -logp(riemann.base, theta) + riemann.c_offset
    root = np.sqrt(abs(u))
    if root <= riemann.sqrt_floor:
        return riemann.d_scale * riemann.sqrt_floor, np.zeros_like(theta)
    du = -grad_logp(riemann.base, theta)
    grad = riemann.d_scale * np.sign(u) * du / (2.0 * root)
    return riemann.d_scale * root, grad


def dense_AC(spec, x):
    """Dense (A, C) of ``spec`` at one state, entry by entry from the
    catalog table in the ``gsvgd.dynamics`` docstring."""
    x = np.asarray(x, dtype=float)
    d = spec.d_theta
    D = x.size
    A = np.zeros((D, D))
    C = np.zeros((D, D))
    g = _metric(spec.riemann, x[:d])[0] if spec.riemann is not None else None
    for k in range(d):
        t, r, xi = k, d + k, 2 * d + k
        if spec.kind == "LD":
            A[t, t] = 1.0
        elif spec.kind == "RLD":
            A[t, t] = g
        elif spec.kind == "RHMC":
            A[r, r] = g
            C[t, r] = -np.sqrt(g)
            C[r, t] = np.sqrt(g)
        else:  # HMC, NHT, ThirdOrder share the theta<->r block
            C[t, r] = -1.0
            C[r, t] = 1.0
            if spec.kind == "ThirdOrder":
                A[xi, xi] = spec.friction
                C[r, xi] = -spec.gamma
                C[xi, r] = spec.gamma
            else:
                A[r, r] = spec.friction
            if spec.kind == "NHT":
                C[r, xi] = x[r] / (spec.mu * spec.sigma2)
                C[xi, r] = -x[r] / (spec.mu * spec.sigma2)
    return A, C


def dense_divergence(spec, x):
    """Analytic row divergence of ``A + C`` for each catalog kind."""
    x = np.asarray(x, dtype=float)
    d = spec.d_theta
    out = np.zeros(x.size)
    if spec.kind == "NHT":
        out[2 * d:] = -1.0 / (spec.mu * spec.sigma2)
    elif spec.kind == "RLD":
        out[:] = _metric(spec.riemann, x[:d])[1]
    elif spec.kind == "RHMC":
        g, dg = _metric(spec.riemann, x[:d])
        out[d:2 * d] = dg / (2.0 * np.sqrt(g))
    return out


def fd_divergence(spec, x, base_step=1e-5):
    """Central finite-difference row divergence of the dense ``A + C``."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size)
    for j in range(x.size):
        h = base_step * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        Mp = sum(dense_AC(spec, xp))
        Mm = sum(dense_AC(spec, xm))
        out += (Mp[:, j] - Mm[:, j]) / (2.0 * h)
    return out


def dense_drift(spec, target, x):
    """Stationary drift ``(A + C) grad_logp + div(A + C)`` at one state."""
    A, C = dense_AC(spec, x)
    return (A + C) @ grad_logp(target, x) + dense_divergence(spec, x)


def stein_term(target, spec, x0, y, h, curl=True):
    """Diffusion Stein operator applied to k(x0, .), evaluated at y.

    Direct formula: f(y) k(x0, y) + (A(y)+C(y)) grad2_k(x0, y); with
    ``curl=False`` the kernel gradient is multiplied by A(y) only.
    """
    x0 = np.asarray(x0, dtype=float)
    y = np.asarray(y, dtype=float)
    A, C = dense_AC(spec, y)
    M = A + C if curl else A
    diff = x0 - y
    k = np.exp(-np.dot(diff, diff) / h)
    return dense_drift(spec, target, y) * k + M @ ((2.0 / h) * diff * k)


def gauss_hermite_stein_expectation(target, spec, x0, h, n_nodes=60):
    """E over a standard 2D Gaussian of the Stein term, by tensor quadrature.

    Only valid when the target is the standard Gaussian on (theta, r); the
    probabilists' Hermite rule integrates against exp(-t^2/2).
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    weights = weights / np.sqrt(2.0 * np.pi)
    total = np.zeros(2)
    for a, wa in zip(nodes, weights):
        for b, wb in zip(nodes, weights):
            total += wa * wb * stein_term(target, spec, x0,
                                          np.array([a, b]), h)
    return total


def crescent_score(point):
    """Score of the tri-crescent mixture at one point, from the component
    formula of its docstring: component i has log density
    ``t_i = -x**4/10 - (z_i*y - x**2)**2/2`` with z_i in {-2, 0, 2}, and
    the score is the softmax of the t_i times each component's gradient."""
    x, y = (float(v) for v in point)
    t, grads = [], []
    for z in (-2.0, 0.0, 2.0):
        s = z * y - x ** 2
        t.append(-x ** 4 / 10.0 - 0.5 * s ** 2)
        grads.append(np.array([-0.4 * x ** 3 + 2.0 * x * s, -z * s]))
    top = max(t)
    weights = [np.exp(ti - top) for ti in t]
    return sum(w * g for w, g in zip(weights, grads)) / sum(weights)


# ---------------------------------------------------------------------------
# Per-vector BNN oracle: one network at a time, the model written out in the
# ``gsvgd.bnn`` docstring (flattening W1 row-major, b1, w2, b2, log_gamma,
# log_lambda; ReLU subgradient 0 at the kink).
# ---------------------------------------------------------------------------

BNN_LOG_2PI = float(np.log(2.0 * np.pi))
BNN_GAMMA_RATE = 0.1


def bnn_unflatten(vec, d_in, hidden):
    k = d_in * hidden
    return (vec[:k].reshape(d_in, hidden), vec[k:k + hidden],
            vec[k + hidden:k + 2 * hidden], vec[k + 2 * hidden],
            vec[k + 2 * hidden + 1], vec[k + 2 * hidden + 2])


def bnn_forward(vec, X, d_in, hidden):
    w1, b1, w2, b2, _, _ = bnn_unflatten(vec, d_in, hidden)
    z = X @ w1 + b1
    a = np.maximum(z, 0.0)
    return z, a, a @ w2 + b2


def bnn_log_prior(vec, d_in, hidden):
    w1, b1, w2, b2, lg, ll = bnn_unflatten(vec, d_in, hidden)
    lam = np.exp(ll)
    gamma = np.exp(lg)
    weights_sq = float(np.sum(w1 ** 2) + np.sum(b1 ** 2) + np.sum(w2 ** 2)
                       + b2 ** 2)
    n_w = d_in * hidden + hidden + hidden + 1
    out = 0.5 * n_w * (ll - BNN_LOG_2PI) - 0.5 * lam * weights_sq
    out += np.log(BNN_GAMMA_RATE) - BNN_GAMMA_RATE * gamma + lg
    out += np.log(BNN_GAMMA_RATE) - BNN_GAMMA_RATE * lam + ll
    return float(out)


def bnn_grad_log_prior(vec, d_in, hidden):
    w1, b1, w2, b2, lg, ll = bnn_unflatten(vec, d_in, hidden)
    lam = np.exp(ll)
    gamma = np.exp(lg)
    weights_sq = float(np.sum(w1 ** 2) + np.sum(b1 ** 2) + np.sum(w2 ** 2)
                       + b2 ** 2)
    n_w = d_in * hidden + hidden + hidden + 1
    return np.concatenate([
        (-lam * w1).reshape(-1), -lam * b1, -lam * w2,
        [-lam * b2, 1.0 - BNN_GAMMA_RATE * gamma,
         0.5 * n_w - 0.5 * lam * weights_sq + 1.0 - BNN_GAMMA_RATE * lam]])


def _bnn_batch(dataset, idx):
    if idx is None:
        return dataset.x_train, dataset.y_train
    idx = np.asarray(idx, dtype=int)
    return dataset.x_train[idx], dataset.y_train[idx]


def bnn_log_posterior(dataset, hidden, vec, idx=None):
    """Log prior plus the batch log-likelihood rescaled by n_train/batch."""
    vec = np.asarray(vec, dtype=float)
    d_in = dataset.d_in
    Xb, yb = _bnn_batch(dataset, idx)
    lg = vec[-2]
    gamma = np.exp(lg)
    resid = yb - bnn_forward(vec, Xb, d_in, hidden)[2]
    loglik = np.sum(0.5 * (lg - BNN_LOG_2PI) - 0.5 * gamma * resid ** 2)
    scale = dataset.n_train / Xb.shape[0]
    return float(scale * loglik) + bnn_log_prior(vec, d_in, hidden)


def bnn_grad_log_posterior(dataset, hidden, vec, idx=None):
    """Hand backpropagation through one network."""
    vec = np.asarray(vec, dtype=float)
    d_in = dataset.d_in
    Xb, yb = _bnn_batch(dataset, idx)
    _, _, w2, _, lg, _ = bnn_unflatten(vec, d_in, hidden)
    gamma = np.exp(lg)
    z, a, m = bnn_forward(vec, Xb, d_in, hidden)
    resid = yb - m
    scale = dataset.n_train / Xb.shape[0]
    dm = gamma * resid
    dz = (dm[:, None] * w2[None, :]) * (z > 0)
    lik = np.concatenate([
        (Xb.T @ dz).reshape(-1), dz.sum(axis=0), a.T @ dm,
        [float(np.sum(dm)),
         float(np.sum(0.5 - 0.5 * gamma * resid ** 2)), 0.0]])
    return scale * lik + bnn_grad_log_prior(vec, d_in, hidden)


def bnn_predict(theta, x, dataset, hidden):
    """Per-particle outputs in original units, shape (N, m)."""
    Xs = dataset.standardize_x(np.atleast_2d(np.asarray(x, dtype=float)))
    return np.stack([
        bnn_forward(vec, Xs, dataset.d_in, hidden)[2] * dataset.targ_std
        + dataset.targ_mean for vec in np.atleast_2d(theta)])


def bnn_predictive_log_likelihood(theta, dataset, hidden):
    """Mean test log density of the ensemble's predictive mixture."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    y_std = (dataset.y_test - dataset.targ_mean) / dataset.targ_std
    logp = np.empty((theta.shape[0], dataset.n_test))
    for i, vec in enumerate(theta):
        m = bnn_forward(vec, dataset.x_test, dataset.d_in, hidden)[2]
        gamma = np.exp(vec[-2])
        logp[i] = 0.5 * (vec[-2] - BNN_LOG_2PI) - 0.5 * gamma * (y_std - m) ** 2
    mx = logp.max(axis=0)
    mix = mx + np.log(np.mean(np.exp(logp - mx[None, :]), axis=0))
    return float(np.mean(mix) - np.log(dataset.targ_std))


# ---------------------------------------------------------------------------
# Fixtures shared by the dynamics and sampler tests
# ---------------------------------------------------------------------------

def make_spec(kind, d_theta=2, friction=0.8, sigma2=1.0, mu=1.5, gamma=0.6,
              base=None):
    """Spec plus its augmented target for the given kind."""
    if base is None:
        base = tri_crescent_target() if d_theta == 2 else standard_gaussian(d_theta)
    riemann = RiemannConfig(base) if kind in RIEMANN_KINDS else None
    spec = DynamicsSpec(kind, d_theta, sigma2=sigma2, friction=friction,
                        mu=mu, gamma=gamma, riemann=riemann)
    return spec, spec.augment(base)
