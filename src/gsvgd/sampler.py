"""Particle velocity fields and stochastic baselines.

The ensemble is an (N, D) state array; its :class:`DynamicsSpec` defines
the column blocks (theta, then the momentum and thermostat blocks its kind
adds).  The deterministic fields all share one structure: evaluate
per-particle quantities (drift, (A, C) coefficients, kernel) from a snapshot
of the state, then combine them.  Velocities are therefore a pure function
of the snapshot; applying them is a separate phase, and evaluation may be
parallelized across the outer particle index.  Fields take the kernel
bandwidth ``h`` explicitly; the caller resolves it once per outer step and
passes it on unchanged, so a median bandwidth's squared distances reach the
contraction (:class:`gsvgd.kernels.Bandwidth`).

The main field applies the diffusion Stein operator of the (A, C) dynamics
to the kernel and averages it over the empirical measure:

    v_i = (1/N) sum_j [ f(x_j) k(x_i, x_j) + (A(x_j) + C(x_j)) grad2_k(x_i, x_j) ]

with ``f`` the stationary drift.  The j-sum includes the self term j = i.
Every j-sum of a field is a column of one kernel contraction
``K @ V`` (:func:`gsvgd.kernels.contract`) against the per-particle
quantities stacked side by side, so a field builds each kernel pair once
(the blob score estimate, whose second sum needs the first, twice).
Any non-finite intermediate aborts with the offending particle index rather
than being clipped.
"""

from __future__ import annotations

import numpy as np

from .dynamics import DynamicsSpec, StructuredAC
from .errors import NumericalError
from .kernels import contract

Array = np.ndarray


def _check_bandwidth(h: float) -> float:
    """``h`` as a float, once it is known to be finite and positive.  A
    float (a :class:`gsvgd.kernels.Bandwidth` included) is returned itself,
    so the distances it carries reach the contraction."""
    if not np.isfinite(h):
        raise NumericalError("non-finite kernel bandwidth")
    if h <= 0:
        raise ValueError("bandwidth h must be positive")
    return h if isinstance(h, float) else float(h)


def check_finite(values: Array, what: str) -> Array:
    """Return (N, D) ``values``, or raise naming the first non-finite row."""
    if not np.isfinite(values).all():
        bad = ~np.isfinite(values).all(axis=1)
        raise NumericalError(f"non-finite {what}", particle=int(np.argmax(bad)))
    return values


def _per_particle(c) -> bool:
    """True for an (N, k) coefficient, False for a scalar or a row vector."""
    return getattr(c, "ndim", 0) == 2


def _contract_blocks(X: Array, h: float, blocks: list) -> list:
    """``K @ b`` for each (N, k) array in ``blocks``, from one contraction
    against the blocks stacked side by side."""
    S = contract(X, h, np.concatenate(blocks, axis=1))
    out, at = [], 0
    for b in blocks:
        out.append(S[:, at:at + b.shape[1]])
        at += b.shape[1]
    return out


def _stein_velocity(X: Array, F: Array, ac: StructuredAC, h: float) -> Array:
    """Average the Stein-operator terms over the empirical measure.

    X: (N, D) positions; F: (N, D) drifts; ``ac`` gives the matrices
    ``M_j`` multiplying the kernel gradient.  Each block of ``M_j`` with
    coefficient ``c`` and source columns ``s`` contributes
    ``sum_j K_ij c_j (x_i - x_j)_s``: ``c R_s`` with
    ``R_i = sum_j K_ij (x_i - x_j)`` for a constant ``c``, and
    ``x_i (K c)_i - (K (c X_s))_i`` for a per-particle one.  Every kernel
    sum comes from one contraction ``K @ V``: ``V`` is ``F``, then ``X``
    and a ones column when some coefficient is constant (for ``R``), then
    ``c`` and its ``c X_s`` for each per-particle coefficient.
    """
    n = X.shape[0]
    terms = ac.terms
    constant = any(not _per_particle(c) for c, _ in terms)
    blocks = [F] + ([X, np.ones((n, 1))] if constant else [])
    for c, sources in terms:
        if _per_particle(c):
            blocks += [c] + [c * X[:, s] for s in sources]
    KF, *rest = _contract_blocks(X, h, blocks)
    rest = iter(rest)
    if constant:
        KX, k_sum = next(rest), next(rest)
        R = X * k_sum - KX
    parts = []
    for c, sources in terms:
        if _per_particle(c):
            Kc = next(rest)
            parts += [X[:, s] * Kc - next(rest) for s in sources]
        else:
            parts += [c * R[:, s] for s in sources]
    out = ac.combine(parts)
    out *= 2.0 / h
    out += KF
    out /= n
    return out


def gsvgd_velocity(X: Array, target, spec: DynamicsSpec, h: float) -> Array:
    """Stein-operator velocity field of the (A, C) dynamics.

    Equals the classic kernelized score update when (A, C) = (I, 0); the
    general form weights the stationary drift by the kernel and applies
    (A + C) to the kernel gradient (repulsion).
    """
    h = _check_bandwidth(h)
    F, ac = spec.drift_many(X, target)
    return _stein_velocity(X, check_finite(F, "drift"), ac, h)


def gsvgd_velocity_alt(X: Array, target, spec: DynamicsSpec,
                       h: float) -> Array:
    """Alternative field: same drift term, repulsion through A only.

    Drops C from the kernel-gradient term.  The two fields induce the same
    density evolution, but this one keeps rotating at equilibrium instead of
    vanishing, so it is a diagnostic/baseline variant, not the default.
    """
    h = _check_bandwidth(h)
    F, ac = spec.drift_many(X, target)
    return _stein_velocity(X, check_finite(F, "drift"), StructuredAC(ac.a), h)


def blob_grad_log_density(X: Array, h: float) -> Array:
    """Kernel-density estimate of the ensemble's score ``grad log rho``.

    Two-term form (the first variation of the KDE-smoothed KL):

        g_i = sum_j grad1_k(x_i, x_j) / sum_j k(x_i, x_j)
            + sum_j [ grad1_k(x_i, x_j) / sum_l k(x_j, x_l) ]

    Denominators are at least ``k(x_i, x_i) = 1``, so no guard is needed.
    For a single particle the estimate is exactly zero.
    """
    h = _check_bandwidth(h)
    KX, row_sum = _contract_blocks(X, h, [X, np.ones((X.shape[0], 1))])
    # sum_j grad1_k(x_i, x_j) = -(2/h) (x_i * rowsum_i - K @ X)
    term1 = -(2.0 / h) * (X * row_sum - KX) / row_sum
    inv = 1.0 / row_sum
    K_inv, KX_inv = _contract_blocks(X, h, [inv, X * inv])
    term2 = -(2.0 / h) * (X * K_inv - KX_inv)
    return term1 + term2


def parvi_blob_velocity(X: Array, target, spec: DynamicsSpec,
                        h: float) -> Array:
    """Blob-smoothed transport field ``(A+C)(grad_logp - g) + div(A+C)``.

    ``g`` is the kernel-density score estimate above.  The field is the
    stationary drift minus ``(A+C)`` applied to the score estimate, so the
    divergence of state-dependent kinds is kept.  The drift is checked
    before the score estimate's contractions, so a non-finite particle is
    named before it spreads to every kernel entry.
    """
    h = _check_bandwidth(h)
    F, ac = spec.drift_many(X, target)
    F = check_finite(F, "drift")
    return F - ac.apply(blob_grad_log_density(X, h))


def mcmc_step(X: Array, target, spec: DynamicsSpec, eps: float,
              rng: np.random.Generator) -> Array:
    """One Euler-Maruyama step of the stochastic dynamics, per particle.

    ``x <- x + eps f(x) + sqrt(2 eps) A(x)^(1/2) xi`` with independent
    standard normal draws consumed in particle-index order.  ``A`` is
    diagonal for every catalog kind, so its square root is elementwise.
    """
    if eps < 0:
        raise ValueError("step size must be nonnegative")
    F, ac = spec.drift_many(X, target)
    F = check_finite(F, "drift")
    noise = rng.standard_normal(X.shape)
    scale = np.sqrt(ac.a)
    new = X + eps * F + np.sqrt(2.0 * eps) * scale * noise
    return check_finite(new, "particle position")


def resample_momentum(X: Array, spec: DynamicsSpec,
                      rng: np.random.Generator) -> Array:
    """A copy of ``X`` with every particle's r block redrawn i.i.d. from
    N(0, spec.sigma2 I).

    Theta and xi blocks are carried over bit for bit.
    """
    if not spec.has_r:
        raise ValueError(f"dynamics kind '{spec.kind}' has no momentum block")
    new = X.copy()
    new[:, spec.r_slice] = np.sqrt(spec.sigma2) * rng.standard_normal(
        (X.shape[0], spec.d_theta))
    return new
