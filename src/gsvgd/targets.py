"""Un-normalized target log-densities with analytic gradients.

All targets drop additive normalization constants (``logp`` of a standard
Gaussian at the origin is 0, not ``-D/2 log 2pi``).  Diagnostics therefore
never compare absolute ``logp`` values across different targets.

The dynamics (:class:`gsvgd.dynamics.DynamicsSpec`) decides which momentum
``r`` and thermostat ``xi`` blocks follow ``theta`` in the state, and builds
the product target on that state.

A target has two pure evaluators: ``value_and_grad_fn`` gives the log
density and the score together, computing the terms they share once, and
``grad_fn`` gives the score alone.  Each target remembers its last batch:
:meth:`TargetDensity.grad_many` and :meth:`TargetDensity.logp_many` return
copies of what is stored when called again on the same bytes.  So the
sub-steps of a split step share one score evaluation per distinct theta,
and the Riemannian metric, which needs the energy and the score, makes one
evaluation that the drift's score then reuses.  The memo is one tuple
replaced whole, and a hit is a copy, so calls are still safe concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class TargetDensity:
    """An un-normalized log-density on R^dim with analytic gradient.

    Attributes:
        dim: Dimensionality ``D``.
        value_and_grad_fn: Batched log density and gradient together,
            ``(N, D) -> ((N,), (N, D))``; its gradient is bitwise that of
            ``grad_fn``.
        grad_fn: Batched gradient alone, ``(N, D) -> (N, D)``.
        exact_sampler: Optional ``(rng, n) -> (n, D)`` drawing exact samples;
            present for Gaussian and mixture targets and their augmentations.
        name: Short identifier used in run configs.
    """

    dim: int
    value_and_grad_fn: Callable[[Array], tuple[Array, Array]]
    grad_fn: Callable[[Array], Array]
    exact_sampler: Optional[Callable[[np.random.Generator, int], Array]] = None
    name: str = "target"
    # ``[(key, grad, logp or None)]`` of the last batch; see grad_many.
    _memo: list = field(default_factory=lambda: [None], init=False,
                        repr=False, compare=False)

    def _check_batch(self, X: Array) -> Array:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"batch has shape {X.shape}, expected (N, {self.dim})")
        return X

    def logp_many(self, X: Array) -> Array:
        """``logp`` per row, or a copy of the stored one for the same input.

        A miss evaluates ``value_and_grad_fn`` and stores both results, so a
        following :meth:`grad_many` at the same batch is a hit.
        """
        X = self._check_batch(X)
        key = X.tobytes()
        last = self._memo[0]
        if last is not None and last[0] == key and last[2] is not None:
            return last[2].copy()
        L, G = self.value_and_grad_fn(X)
        self._memo[0] = (key, G.copy(), L.copy())
        return L

    def grad_many(self, X: Array) -> Array:
        """``grad_fn(X)``, or a copy of the last result for the same input.

        The memo is keyed on the exact bytes of the validated batch, so a
        hit is bit-identical to a fresh evaluation (``-0.0`` against ``0.0``
        or another NaN payload recomputes).
        """
        X = self._check_batch(X)
        key = X.tobytes()
        last = self._memo[0]
        if last is not None and last[0] == key:
            return last[1].copy()
        G = self.grad_fn(X)
        self._memo[0] = (key, G.copy(), None)
        return G

    def sample_exact(self, rng: np.random.Generator, n: int) -> Array:
        if self.exact_sampler is None:
            raise ValueError(f"target '{self.name}' has no exact sampler")
        return self.exact_sampler(rng, n)


def gaussian(mean: Array, cov: Array, name: str = "gauss") -> TargetDensity:
    """Multivariate Gaussian with the given mean and covariance."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = mean.shape[0]
    if cov.shape != (d, d):
        raise ValueError("covariance shape does not match mean")
    chol = np.linalg.cholesky(cov)  # raises if not SPD
    prec = np.linalg.inv(cov)
    prec = 0.5 * (prec + prec.T)

    def value_and_grad_fn(X: Array) -> tuple[Array, Array]:
        diff = X - mean
        return -0.5 * np.einsum("ni,ij,nj->n", diff, prec, diff), -diff @ prec

    def grad_fn(X: Array) -> Array:
        return -(X - mean) @ prec

    def sampler(rng: np.random.Generator, n: int) -> Array:
        return mean + rng.standard_normal((n, d)) @ chol.T

    return TargetDensity(d, value_and_grad_fn, grad_fn, sampler, name)


def standard_gaussian(dim: int) -> TargetDensity:
    """Standard Gaussian N(0, I) in ``dim`` dimensions."""
    return gaussian(np.zeros(dim), np.eye(dim), name="gauss")


def gaussian_mixture(means: Array, weights: Array | None = None,
                     var: float = 1.0) -> TargetDensity:
    """Mixture of isotropic Gaussians with shared per-component variance.

    Log-density is computed with max-subtracted log-sum-exp so that inputs
    with coordinates up to +-50 never overflow.
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    k, d = means.shape
    if weights is None:
        weights = np.full(k, 1.0 / k)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (k,) or np.any(weights <= 0):
        raise ValueError("weights must be positive, one per component")
    weights = weights / weights.sum()
    if var <= 0:
        raise ValueError("component variance must be positive")
    logw = np.log(weights)

    def _score(X: Array) -> tuple[Array, Array, Array]:
        """Max and sum of the shifted component weights, and the score."""
        diff = X[:, None, :] - means[None, :, :]           # (N, K, D)
        t = logw - 0.5 * np.sum(diff ** 2, axis=-1) / var
        m = np.max(t, axis=1, keepdims=True)
        resp = np.exp(t - m)
        total = resp.sum(axis=1, keepdims=True)
        resp /= total                                       # (N, K)
        comp = (means[None, :, :] - X[:, None, :]) / var    # (N, K, D)
        return m, total, np.sum(resp[:, :, None] * comp, axis=1)

    def value_and_grad_fn(X: Array) -> tuple[Array, Array]:
        m, total, grad = _score(X)
        return m[:, 0] + np.log(total[:, 0]), grad

    def grad_fn(X: Array) -> Array:
        return _score(X)[2]

    def sampler(rng: np.random.Generator, n: int) -> Array:
        idx = rng.choice(k, size=n, p=weights)
        return means[idx] + np.sqrt(var) * rng.standard_normal((n, d))

    return TargetDensity(d, value_and_grad_fn, grad_fn, sampler, "gauss_mix")


def tri_crescent_target() -> TargetDensity:
    """Equal-weight 3-component crescent mixture on R^2.

    Component i has un-normalized log-density
    ``-x**4/10 - (z_i*y - x**2)**2/2`` with ``z_i`` in {-2, 0, 2}.  Note the
    overall minus sign on the squared term: the plus-sign variant blows up at
    infinity and cannot serve as a sampling target, so the decaying form is
    used (the z-set makes it symmetric under ``y -> -y``, and
    ``logp(0, 0) = 0``).  No exact sampler exists for this target.
    """

    def _score(X: Array) -> tuple[Array, Array, Array]:
        """Smallest ``q_i = s_i**2/2`` (``s_i = z_i*y - x**2``; every
        component shares ``-x**4/10``), sum of the shifted component weights
        and the score, with the three components unrolled."""
        x, y = X[:, 0], X[:, 1]
        x2 = x * x
        s0 = -2.0 * y - x2
        s2 = 2.0 * y - x2
        q0, q1, q2 = 0.5 * s0 * s0, 0.5 * x2 * x2, 0.5 * s2 * s2
        qmin = np.minimum(np.minimum(q0, q1), q2)
        w0, w1, w2 = np.exp(qmin - q0), np.exp(qmin - q1), np.exp(qmin - q2)
        total = w0 + w1 + w2
        grad = np.empty((X.shape[0], 2))
        # d t_i/dx = -0.4 x**3 + 2 x s_i and d t_i/dy = -z_i s_i, weighted.
        grad[:, 0] = x * (2.0 * (w0 * s0 - w1 * x2 + w2 * s2) / total
                          - 0.4 * x2)
        grad[:, 1] = 2.0 * (w0 * s0 - w2 * s2) / total
        return qmin, total, grad

    def value_and_grad_fn(X: Array) -> tuple[Array, Array]:
        qmin, total, grad = _score(X)
        x2 = X[:, 0] ** 2
        return -0.1 * x2 * x2 - qmin + np.log(total) - np.log(3.0), grad

    def grad_fn(X: Array) -> Array:
        return _score(X)[2]

    return TargetDensity(2, value_and_grad_fn, grad_fn, None, "tri_crescent")
