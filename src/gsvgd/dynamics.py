"""Catalog of drift/diffusion pairs (A, C) for Itō-diffusion samplers.

Every supported dynamics is described by a positive-semidefinite diffusion
matrix ``A(x)`` and a skew-symmetric curl matrix ``C(x)`` on the (possibly
momentum/thermostat-augmented) state.  The stationary drift is

    ``f(x) = (A(x) + C(x)) grad_logp(x) + div(A + C)(x)``,

with the divergence applied row-wise: ``div(M)_i = sum_j dM_ij/dx_j``.

Kinds:
    LD          overdamped Langevin:            A = I, C = 0
    RLD         Riemannian Langevin:            A = Ginv(theta) I, C = 0
    HMC         underdamped (Hamiltonian):      A = blkdiag(0, a I),
                                                C = [[0, -I], [I, 0]]
    NHT         Nose-Hoover thermostat:         A = blkdiag(0, a I, 0),
                                                C = [[0, -I, 0],
                                                     [I, 0, R],
                                                     [0, -R, 0]],
                                                R = (mu sigma2)^-1 diag(r)
    RHMC        Riemannian Hamiltonian:         A = blkdiag(0, Ginv I),
                                                C = [[0, -sqrt(Ginv) I],
                                                     [sqrt(Ginv) I, 0]]
    ThirdOrder  third-order Langevin:           A = blkdiag(0, 0, a I),
                                                C = [[0, -I, 0],
                                                     [I, 0, -g I],
                                                     [0, g I, 0]]

The Riemannian metric is the scalar-times-identity reading
``Ginv(theta) = d_scale * sqrt(|U(theta) + c_offset|)`` with
``U = -logp`` the base target's energy; a floor on the square root keeps the
metric strictly positive.

No matrix is materialized.  Every kind has a diagonal ``A`` and at most two
skew couplings in ``C`` (theta<->r and r<->xi), each a scalar or a
per-particle diagonal times ``I``, so ``(A, C)`` over an ensemble is the
:class:`StructuredAC` record of the diagonal and the coupling coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .targets import TargetDensity

Array = np.ndarray

KINDS = ("LD", "RLD", "HMC", "NHT", "RHMC", "ThirdOrder")
KINDS_WITH_R = ("HMC", "NHT", "RHMC", "ThirdOrder")
KINDS_WITH_XI = ("NHT", "ThirdOrder")
RIEMANN_KINDS = ("RLD", "RHMC")


@dataclass(frozen=True)
class RiemannConfig:
    """Scalar metric ``Ginv(theta) = d_scale * sqrt(|U(theta) + c_offset|)``.

    ``U(theta) = -logp(theta)`` is the energy of the base (theta-space)
    target.  The square root is floored at ``sqrt_floor`` so the metric and
    its reciprocal stay finite where ``U + c_offset`` crosses zero.
    """

    base: TargetDensity
    d_scale: float = 1.5
    c_offset: float = 0.5
    sqrt_floor: float = 1e-8

    def __post_init__(self):
        if self.d_scale <= 0:
            raise ValueError("d_scale must be positive (A must stay PSD)")
        if self.sqrt_floor <= 0:
            raise ValueError("sqrt_floor must be positive")

    def metric(self, theta: Array) -> tuple[Array, Array]:
        """Return ``(s, ds)``: the metric scalar per row and its theta-gradient.

        Where the floor is active the gradient is zero (the metric is flat
        there by construction).
        """
        u = -self.base.logp_many(theta) + self.c_offset
        root = np.sqrt(np.abs(u))
        active = root > self.sqrt_floor
        s = self.d_scale * np.maximum(root, self.sqrt_floor)
        du = -self.base.grad_many(theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            ds = self.d_scale * np.sign(u)[:, None] * du / (2.0 * root[:, None])
        ds = np.where(active[:, None], ds, 0.0)
        return s, ds


@dataclass(frozen=True)
class StructuredAC:
    """``(A, C)`` over an ensemble: a diagonal ``A`` and skew block couplings.

    ``A = diag(a)``.  Each coupling ``(c, u, w)`` of ``C`` joins column
    blocks ``u`` and ``w`` of equal width: ``C[u_k, w_k] = -c_k`` and
    ``C[w_k, u_k] = c_k`` for each coordinate k of the blocks; every other
    entry of ``C`` is zero.  The catalog needs at most two couplings,
    theta<->r and r<->xi.  A coefficient that depends on the state is an
    (N, 1) or (N, d) array; one that does not is a scalar or a vector
    broadcasting against each row.
    """

    a: Array | float
    couplings: tuple[tuple[Array | float, slice, slice], ...] = ()

    @cached_property
    def terms(self) -> tuple[tuple[Array | float, tuple[slice, ...]], ...]:
        """Each coefficient with the source column blocks it multiplies:
        ``a`` on all columns, then each coupling on ``w`` and on ``u``.
        Flattened, this is the order in which :meth:`combine` takes its
        parts."""
        return ((self.a, (slice(None),)),) + tuple(
            (c, (w, u)) for c, u, w in self.couplings)

    def combine(self, parts) -> Array:
        """Assemble ``(A + C)`` applied blockwise from its products.

        ``parts`` holds, in :meth:`terms` order, a new (N, |s|) array per
        coefficient ``c`` and source block ``s``: ``c`` times the quantity
        ``(A + C)`` acts on, restricted to columns ``s``.
        """
        parts = iter(parts)
        out = next(parts)
        for _, u, w in self.couplings:
            out[:, u] -= next(parts)
            out[:, w] += next(parts)
        return out

    def apply(self, V: Array) -> Array:
        """Row-wise ``(A + C) v`` for an (N, D) batch of vectors."""
        return self.combine([c * V[:, s] for c, sources in self.terms
                             for s in sources])


@dataclass(frozen=True)
class DynamicsSpec:
    """A named (A, C) parametrization on the state its kind augments.

    The kind fixes the blocks of the (N, D) state, in column order: theta
    alone for LD and RLD, a momentum block ``r`` for HMC and RHMC, and ``r``
    plus a thermostat block ``xi`` for NHT and ThirdOrder, each as wide as
    theta.  The spec also owns the Gaussian factors of those blocks in the
    target (:meth:`augment`).

    Attributes:
        kind: One of :data:`KINDS`.
        d_theta: Width of the theta block.
        sigma2: Momentum variance: ``r ~ N(0, sigma2 I)``.
        friction: The scalar ``a`` of the diffusion blocks (HMC, NHT,
            ThirdOrder).
        mu: Thermostat precision: ``xi ~ N(xi_mean, 1/mu I)``.
        gamma: Third-order coupling strength.
        riemann: Metric configuration, required for RLD and RHMC.
    """

    kind: str
    d_theta: int
    sigma2: float = 1.0
    friction: float = 0.0
    mu: float = 1.0
    gamma: float = 1.0
    riemann: Optional[RiemannConfig] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown dynamics kind '{self.kind}'")
        if not isinstance(self.d_theta, (int, np.integer)) or self.d_theta < 1:
            raise ValueError("d_theta must be a positive integer")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.kind in RIEMANN_KINDS and self.riemann is None:
            raise ValueError(f"{self.kind} requires a RiemannConfig")
        if self.friction < 0:
            raise ValueError("friction must be nonnegative")

    @property
    def has_r(self) -> bool:
        return self.kind in KINDS_WITH_R

    @property
    def has_xi(self) -> bool:
        return self.kind in KINDS_WITH_XI

    @cached_property
    def dim(self) -> int:
        return self.d_theta * (1 + self.has_r + self.has_xi)

    @cached_property
    def theta_slice(self) -> slice:
        return slice(0, self.d_theta)

    @cached_property
    def r_slice(self) -> slice:
        """Columns of the momentum block; empty when the kind has none."""
        d = self.d_theta
        return slice(d, 2 * d if self.has_r else d)

    @cached_property
    def xi_slice(self) -> slice:
        """Columns of the thermostat block; empty when the kind has none."""
        d = self.d_theta
        return slice(2 * d, 3 * d if self.has_xi else 2 * d)

    @property
    def xi_mean(self) -> float:
        """Mean of the thermostat factor: the friction for NHT, else 0."""
        return self.friction if self.kind == "NHT" else 0.0

    def augment(self, base: TargetDensity) -> TargetDensity:
        """The target on this spec's state: ``base`` on theta times
        ``N(r | 0, sigma2 I)`` and ``N(xi | xi_mean, 1/mu I)`` for the blocks
        the kind has.  Returns ``base`` itself for LD and RLD.

        The density factorizes, so the theta-block score is the base's.  The
        exact sampler, present when ``base`` has one, draws theta, then r,
        then xi.
        """
        d = self.d_theta
        if base.dim != d:
            raise ValueError(
                f"target dim {base.dim} does not match d_theta {d}")
        if not self.has_r:
            return base
        t, r, xi, has_xi = (self.theta_slice, self.r_slice, self.xi_slice,
                            self.has_xi)
        sigma2, mu, mean = self.sigma2, self.mu, self.xi_mean

        def grad_fn(X: Array) -> Array:
            out = np.empty_like(X)
            out[:, t] = base.grad_many(X[:, t])
            out[:, r] = -X[:, r] / sigma2
            if has_xi:
                out[:, xi] = -mu * (X[:, xi] - mean)
            return out

        def value_and_grad_fn(X: Array) -> tuple[Array, Array]:
            # base.logp_many stores the theta score, so grad_fn reuses it.
            out = base.logp_many(X[:, t])
            out = out - 0.5 * np.sum(X[:, r] ** 2, axis=1) / sigma2
            if has_xi:
                out = out - 0.5 * mu * np.sum((X[:, xi] - mean) ** 2, axis=1)
            return out, grad_fn(X)

        sampler = None
        if base.exact_sampler is not None:
            def sampler(rng: np.random.Generator, n: int) -> Array:
                blocks = [base.sample_exact(rng, n),
                          np.sqrt(sigma2) * rng.standard_normal((n, d))]
                if has_xi:
                    blocks.append(
                        mean + rng.standard_normal((n, d)) / np.sqrt(mu))
                return np.concatenate(blocks, axis=1)

        name = base.name + ("+r+xi" if has_xi else "+r")
        return TargetDensity(self.dim, value_and_grad_fn, grad_fn, sampler,
                             name)

    def _check_states(self, X: Array) -> Array:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"states have shape {X.shape}, expected (N, {self.dim})")
        return X

    @cached_property
    def _friction_a(self) -> Array:
        """The diagonal of ``A`` for HMC, NHT and ThirdOrder: the friction
        on the r block (the xi block for ThirdOrder).  Read-only."""
        a = np.zeros(self.dim)
        a[self.xi_slice if self.kind == "ThirdOrder" else self.r_slice] = \
            self.friction
        a.flags.writeable = False
        return a

    @cached_property
    def _constant_ac(self) -> StructuredAC | None:
        """The ``(A, C)`` record of LD, HMC and ThirdOrder, which does not
        depend on the state; None for the other kinds."""
        t, r, xi = self.theta_slice, self.r_slice, self.xi_slice
        if self.kind == "LD":
            return StructuredAC(1.0)
        if self.kind == "HMC":
            return StructuredAC(self._friction_a, ((1.0, t, r),))
        if self.kind == "ThirdOrder":
            return StructuredAC(self._friction_a,
                                ((1.0, t, r), (self.gamma, r, xi)))
        return None

    def _structure(self, X: Array) -> tuple[StructuredAC, Array | None]:
        """``(A, C)`` at each row plus the divergence of ``A + C`` (None
        where it vanishes); the metric is evaluated at most once."""
        if self._constant_ac is not None:
            return self._constant_ac, None
        t, r, xi = self.theta_slice, self.r_slice, self.xi_slice
        if self.kind in RIEMANN_KINDS:
            s, ds = self.riemann.metric(X[:, t])
            if self.kind == "RLD":
                return StructuredAC(s[:, None]), ds
            # RHMC: theta rows vanish; r rows pick up d(sqrt(s))/dtheta.
            root = np.sqrt(s)
            a = np.zeros_like(X)
            a[:, r] = s[:, None]
            div = np.zeros_like(X)
            div[:, r] = ds / (2.0 * root[:, None])
            return StructuredAC(a, ((root[:, None], t, r),)), div
        # NHT: only the xi rows' r-dependence survives in the divergence.
        coupling = -X[:, r] / (self.mu * self.sigma2)
        div = np.zeros_like(X)
        div[:, xi] = -1.0 / (self.mu * self.sigma2)
        return StructuredAC(self._friction_a,
                            ((1.0, t, r), (coupling, r, xi))), div

    def drift_many(self, X: Array, target) -> tuple[Array, StructuredAC]:
        """Stationary drift ``(A+C) grad_logp + div(A+C)`` for each row,
        together with the ``(A, C)`` record it was built from."""
        X = self._check_states(X)
        if target.dim != self.dim:
            raise ValueError(
                f"target dim {target.dim} does not match dynamics dim {self.dim}")
        ac, div = self._structure(X)
        F = ac.apply(target.grad_many(X))
        if div is not None:
            F += div
        return F, ac
