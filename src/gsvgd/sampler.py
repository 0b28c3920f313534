"""Particle velocity fields and stochastic baselines.

The deterministic fields all share one structure: evaluate per-particle
quantities (drift, (A, C) coefficients, kernel) from an immutable snapshot
of the ensemble, then combine them.  Velocities are therefore a pure
function of the snapshot; applying them is a separate phase, and evaluation
may be parallelized across the outer particle index.

The main field applies the diffusion Stein operator of the (A, C) dynamics
to the kernel and averages it over the empirical measure:

    v_i = (1/N) sum_j [ f(x_j) k(x_i, x_j) + (A(x_j) + C(x_j)) grad2_k(x_i, x_j) ]

with ``f`` the stationary drift.  The j-sum includes the self term j = i.
Any non-finite intermediate aborts with the offending particle index rather
than being clipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsSpec, StructuredAC
from .errors import NumericalError
from .kernels import KernelConfig, gram
from .targets import BlockLayout

Array = np.ndarray

# Keep per-chunk kernel blocks at or below this many entries.
_MAX_PAIR_BLOCK = 1 << 22


@dataclass(frozen=True)
class Ensemble:
    """N particle positions plus the block layout of their coordinates.

    The constructor copies and validates its input; :meth:`with_positions`
    is the unchecked path for positions a step has computed and checked.
    """

    positions: Array
    layout: BlockLayout

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float, copy=True)
        if pos.ndim != 2 or pos.shape[0] < 1:
            raise ValueError("positions must be a nonempty (N, D) array")
        if pos.shape[1] != self.layout.dim:
            raise ValueError(
                f"positions dim {pos.shape[1]} does not match layout dim "
                f"{self.layout.dim}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def theta(self) -> Array:
        return self.positions[:, self.layout.theta_slice]

    def r(self) -> Array:
        return self.positions[:, self.layout.r_slice]

    def xi(self) -> Array:
        return self.positions[:, self.layout.xi_slice]

    def with_positions(self, positions: Array) -> "Ensemble":
        """This layout over new (N, D) positions, taken as they are: no copy
        and no check."""
        new = object.__new__(Ensemble)
        object.__setattr__(new, "positions", positions)
        object.__setattr__(new, "layout", self.layout)
        return new


def _resolve_bandwidth(e: Ensemble, kernel: KernelConfig | None,
                       h: float | None) -> float:
    if h is None:
        if kernel is None:
            raise ValueError(
                "either a kernel config or an explicit bandwidth is required")
        h = kernel.bandwidth(e.positions)
    if not np.isfinite(h):
        raise NumericalError("non-finite kernel bandwidth")
    if h <= 0:
        raise ValueError("bandwidth h must be positive")
    return float(h)


def check_finite(values: Array, what: str) -> Array:
    """Return (N, D) ``values``, or raise naming the first non-finite row."""
    bad = ~np.all(np.isfinite(values), axis=1)
    if np.any(bad):
        raise NumericalError(f"non-finite {what}", particle=int(np.argmax(bad)))
    return values


def _per_particle(c) -> bool:
    """True for an (N, k) coefficient, False for a scalar or a row vector."""
    return getattr(c, "ndim", 0) == 2


def _stein_velocity(X: Array, F: Array, ac: StructuredAC, h: float) -> Array:
    """Average the Stein-operator terms over the empirical measure.

    X: (N, D) positions; F: (N, D) drifts; ``ac`` gives the matrices
    ``M_j`` multiplying the kernel gradient.  Each block of ``M_j`` with
    coefficient ``c`` and source columns ``s`` contributes
    ``sum_j K_ij c_j (x_i - x_j)_s``: ``c R_s`` with
    ``R_i = sum_j K_ij (x_i - x_j)`` for a constant ``c``, and
    ``x_i (K c)_i - (K (c X_s))_i`` for a per-particle one.
    """
    n = X.shape[0]
    coefs = [ac.a] + [c for c, _, _ in ac.couplings]
    need_r = not all(_per_particle(c) for c in coefs)
    out = np.empty_like(X)
    chunk = max(1, _MAX_PAIR_BLOCK // n)
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        Xc = X[i0:i1]
        K = gram(Xc, X, h)
        attract = K @ F
        if need_r:
            R = Xc * K.sum(axis=1)[:, None] - K @ X

        def term(c, s):
            if _per_particle(c):
                return Xc[:, s] * (K @ c) - K @ (c * X[:, s])
            return c * R[:, s]

        out[i0:i1] = (attract + (2.0 / h) * ac.combine(term)) / n
    return out


def gsvgd_velocity(e: Ensemble, target, spec: DynamicsSpec,
                   kernel: KernelConfig | None = None,
                   h: float | None = None) -> Array:
    """Stein-operator velocity field of the (A, C) dynamics.

    Equals the classic kernelized score update when (A, C) = (I, 0); the
    general form weights the stationary drift by the kernel and applies
    (A + C) to the kernel gradient (repulsion).
    """
    h = _resolve_bandwidth(e, kernel, h)
    X = e.positions
    F, ac = spec.drift_many(X, target)
    return _stein_velocity(X, check_finite(F, "drift"), ac, h)


def gsvgd_velocity_alt(e: Ensemble, target, spec: DynamicsSpec,
                       kernel: KernelConfig | None = None,
                       h: float | None = None) -> Array:
    """Alternative field: same drift term, repulsion through A only.

    Drops C from the kernel-gradient term.  The two fields induce the same
    density evolution, but this one keeps rotating at equilibrium instead of
    vanishing, so it is a diagnostic/baseline variant, not the default.
    """
    h = _resolve_bandwidth(e, kernel, h)
    X = e.positions
    F, ac = spec.drift_many(X, target)
    return _stein_velocity(X, check_finite(F, "drift"), StructuredAC(ac.a), h)


def blob_grad_log_density(e: Ensemble, kernel: KernelConfig | None = None,
                          h: float | None = None) -> Array:
    """Kernel-density estimate of the ensemble's score ``grad log rho``.

    Two-term form (the first variation of the KDE-smoothed KL):

        g_i = sum_j grad1_k(x_i, x_j) / sum_j k(x_i, x_j)
            + sum_j [ grad1_k(x_i, x_j) / sum_l k(x_j, x_l) ]

    Denominators are at least ``k(x_i, x_i) = 1``, so no guard is needed.
    For a single particle the estimate is exactly zero.
    """
    h = _resolve_bandwidth(e, kernel, h)
    X = e.positions
    K = gram(X, X, h)
    row_sum = K.sum(axis=1)                     # (N,)
    # sum_j grad1_k(x_i, x_j) = -(2/h) (x_i * rowsum_i - K @ X)
    S1 = -(2.0 / h) * (X * row_sum[:, None] - K @ X)
    term1 = S1 / row_sum[:, None]
    inv = 1.0 / row_sum
    term2 = -(2.0 / h) * (X * (K @ inv)[:, None] - K @ (X * inv[:, None]))
    return term1 + term2


def parvi_blob_velocity(e: Ensemble, target, spec: DynamicsSpec,
                        kernel: KernelConfig | None = None,
                        h: float | None = None) -> Array:
    """Blob-smoothed transport field ``(A+C)(grad_logp - g) + div(A+C)``.

    ``g`` is the kernel-density score estimate above.  The field is the
    stationary drift minus ``(A+C)`` applied to the score estimate, so the
    divergence of state-dependent kinds is kept.
    """
    h = _resolve_bandwidth(e, kernel, h)
    ghat = blob_grad_log_density(e, h=h)
    F, ac = spec.drift_many(e.positions, target)
    return check_finite(F, "drift") - ac.apply(ghat)


def mcmc_step(e: Ensemble, target, spec: DynamicsSpec, eps: float,
              rng: np.random.Generator) -> Ensemble:
    """One Euler-Maruyama step of the stochastic dynamics, per particle.

    ``x <- x + eps f(x) + sqrt(2 eps) A(x)^(1/2) xi`` with independent
    standard normal draws consumed in particle-index order.  ``A`` is
    diagonal for every catalog kind, so its square root is elementwise.
    """
    if eps < 0:
        raise ValueError("step size must be nonnegative")
    X = e.positions
    F, ac = spec.drift_many(X, target)
    F = check_finite(F, "drift")
    noise = rng.standard_normal(X.shape)
    scale = np.sqrt(ac.a)
    new = X + eps * F + np.sqrt(2.0 * eps) * scale * noise
    return e.with_positions(check_finite(new, "particle position"))


def resample_momentum(e: Ensemble, spec: DynamicsSpec,
                      rng: np.random.Generator) -> Ensemble:
    """Redraw every particle's r block i.i.d. from N(0, spec.sigma2 I).

    Theta and xi blocks are carried over bit for bit.
    """
    if not e.layout.has_r:
        raise ValueError("ensemble layout has no momentum block")
    new = e.positions.copy()
    new[:, e.layout.r_slice] = np.sqrt(spec.sigma2) * rng.standard_normal(
        (e.n, e.layout.d_r))
    return e.with_positions(new)
