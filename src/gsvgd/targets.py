"""Un-normalized target log-densities with analytic gradients.

All targets drop additive normalization constants (``logp`` of a standard
Gaussian at the origin is 0, not ``-D/2 log 2pi``).  Diagnostics therefore
never compare absolute ``logp`` values across different targets.

The dynamics (:class:`gsvgd.dynamics.DynamicsSpec`) decides which momentum
``r`` and thermostat ``xi`` blocks follow ``theta`` in the state, and builds
the product target on that state.

The evaluators ``logp_fn`` and ``grad_fn`` are pure.  Each target remembers
the score of its last batch: :meth:`TargetDensity.grad_many` returns a copy
of it when called again on the same bytes, so the sub-steps of a split step
and the Riemannian metric share one score evaluation per distinct theta
with the drift.  The memo is one tuple replaced whole, and a hit is a copy,
so calls are still safe concurrently.
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
        logp_fn: Batched evaluator, ``(N, D) -> (N,)``.
        grad_fn: Batched gradient, ``(N, D) -> (N, D)``.
        exact_sampler: Optional ``(rng, n) -> (n, D)`` drawing exact samples;
            present for Gaussian and mixture targets and their augmentations.
        name: Short identifier used in run configs.
    """

    dim: int
    logp_fn: Callable[[Array], Array]
    grad_fn: Callable[[Array], Array]
    exact_sampler: Optional[Callable[[np.random.Generator, int], Array]] = None
    name: str = "target"
    # ``[(key, grad)]`` of the last grad_many batch; see grad_many.
    _memo: list = field(default_factory=lambda: [None], init=False,
                        repr=False, compare=False)

    def _check_point(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"point has shape {x.shape}, expected ({self.dim},)")
        if not np.all(np.isfinite(x)):
            raise ValueError("point has non-finite entries")
        return x

    def logp(self, x: Array) -> float:
        """Un-normalized log-density at a single point."""
        x = self._check_point(x)
        return float(self.logp_fn(x[None, :])[0])

    def grad_logp(self, x: Array) -> Array:
        """Analytic gradient of ``logp`` at a single point."""
        x = self._check_point(x)
        return self.grad_fn(x[None, :])[0]

    def logp_many(self, X: Array) -> Array:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"batch has shape {X.shape}, expected (N, {self.dim})")
        return self.logp_fn(X)

    def grad_many(self, X: Array) -> Array:
        """``grad_fn(X)``, or a copy of the last result for the same input.

        The memo is keyed on the exact bytes of the validated batch, so a
        hit is bit-identical to a fresh evaluation (``-0.0`` against ``0.0``
        or another NaN payload recomputes).
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"batch has shape {X.shape}, expected (N, {self.dim})")
        key = X.tobytes()
        last = self._memo[0]
        if last is not None and last[0] == key:
            return last[1].copy()
        G = self.grad_fn(X)
        self._memo[0] = (key, G.copy())
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

    def logp_fn(X: Array) -> Array:
        diff = X - mean
        return -0.5 * np.einsum("ni,ij,nj->n", diff, prec, diff)

    def grad_fn(X: Array) -> Array:
        return -(X - mean) @ prec

    def sampler(rng: np.random.Generator, n: int) -> Array:
        return mean + rng.standard_normal((n, d)) @ chol.T

    return TargetDensity(d, logp_fn, grad_fn, sampler, name)


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

    def _terms(X: Array) -> Array:
        diff = X[:, None, :] - means[None, :, :]           # (N, K, D)
        return logw - 0.5 * np.sum(diff ** 2, axis=-1) / var

    def logp_fn(X: Array) -> Array:
        t = _terms(X)
        m = np.max(t, axis=1)
        return m + np.log(np.sum(np.exp(t - m[:, None]), axis=1))

    def grad_fn(X: Array) -> Array:
        t = _terms(X)
        t = t - np.max(t, axis=1, keepdims=True)
        resp = np.exp(t)
        resp /= resp.sum(axis=1, keepdims=True)             # (N, K)
        comp = (means[None, :, :] - X[:, None, :]) / var    # (N, K, D)
        return np.sum(resp[:, :, None] * comp, axis=1)

    def sampler(rng: np.random.Generator, n: int) -> Array:
        idx = rng.choice(k, size=n, p=weights)
        return means[idx] + np.sqrt(var) * rng.standard_normal((n, d))

    return TargetDensity(d, logp_fn, grad_fn, sampler, "gauss_mix")


_CRESCENT_Z = np.array([-2.0, 0.0, 2.0])


def tri_crescent_target() -> TargetDensity:
    """Equal-weight 3-component crescent mixture on R^2.

    Component i has un-normalized log-density
    ``-x**4/10 - (z_i*y - x**2)**2/2`` with ``z_i`` in {-2, 0, 2}.  Note the
    overall minus sign on the squared term: the plus-sign variant blows up at
    infinity and cannot serve as a sampling target, so the decaying form is
    used (the z-set makes it symmetric under ``y -> -y``, and
    ``logp(0, 0) = 0``).  No exact sampler exists for this target.
    """

    def _terms(X: Array) -> Array:
        x, y = X[:, 0], X[:, 1]
        s = _CRESCENT_Z[None, :] * y[:, None] - (x ** 2)[:, None]   # (N, 3)
        return -(x ** 4)[:, None] / 10.0 - 0.5 * s ** 2

    def logp_fn(X: Array) -> Array:
        t = _terms(X)
        m = np.max(t, axis=1)
        return m + np.log(np.sum(np.exp(t - m[:, None]), axis=1)) - np.log(3.0)

    def grad_fn(X: Array) -> Array:
        x, y = X[:, 0], X[:, 1]
        s = _CRESCENT_Z[None, :] * y[:, None] - (x ** 2)[:, None]
        t = -(x ** 4)[:, None] / 10.0 - 0.5 * s ** 2
        t = t - np.max(t, axis=1, keepdims=True)
        w = np.exp(t)
        w /= w.sum(axis=1, keepdims=True)
        dt_dx = -0.4 * (x ** 3)[:, None] + 2.0 * x[:, None] * s
        dt_dy = -_CRESCENT_Z[None, :] * s
        return np.stack([np.sum(w * dt_dx, axis=1),
                         np.sum(w * dt_dy, axis=1)], axis=1)

    return TargetDensity(2, logp_fn, grad_fn, None, "tri_crescent")
