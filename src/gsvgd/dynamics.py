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
Each coupling joins two adjacent blocks, so the product ``(A + C) v`` is
``a * v`` plus, per coupling, one gather over the coupling's own columns:
the two blocks swapped and multiplied by a signed coefficient built once
with the record (once per run for the constant records of LD, HMC and
ThirdOrder).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .targets import TargetDensity

Array = np.ndarray

KINDS = ("LD", "RLD", "HMC", "NHT", "RHMC", "ThirdOrder")
KINDS_WITH_R = ("HMC", "NHT", "RHMC", "ThirdOrder")
KINDS_WITH_XI = ("NHT", "ThirdOrder")
RIEMANN_KINDS = ("RLD", "RHMC")
# Floor on the square root of the Riemannian metric (:class:`RiemannConfig`).
_SQRT_FLOOR = 1e-8


@dataclass(frozen=True)
class RiemannConfig:
    """Scalar metric ``Ginv(theta) = d_scale * sqrt(|U(theta) + c_offset|)``.

    ``U(theta) = -logp(theta)`` is the energy of the base (theta-space)
    target.  The square root is floored at ``_SQRT_FLOOR`` so the metric
    and its reciprocal stay finite where ``U + c_offset`` crosses zero.
    """

    base: TargetDensity
    d_scale: float = 1.5
    c_offset: float = 0.5

    def __post_init__(self):
        # Written as ranges, so that NaN fails them too.
        if not 0 < self.d_scale < math.inf:
            raise ValueError("d_scale must be positive (A must stay PSD) "
                             "and finite")
        if not math.isfinite(self.c_offset):
            raise ValueError("c_offset must be finite")

    def metric(self, theta: Array) -> tuple[Array, Array]:
        """Return ``(s, ds)``: the metric scalar per row and its theta-gradient.

        Where the floor is active the gradient is zero (the metric is flat
        there by construction).
        """
        u = -self.base.logp_many(theta) + self.c_offset
        root = np.sqrt(np.abs(u))
        active = root > _SQRT_FLOOR
        s = self.d_scale * np.maximum(root, _SQRT_FLOOR)
        du = -self.base.grad_many(theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            ds = self.d_scale * np.sign(u)[:, None] * du / (2.0 * root[:, None])
        ds = np.where(active[:, None], ds, 0.0)
        return s, ds


@lru_cache(maxsize=None)
def _swap(start: int, d: int) -> tuple[Array, Array]:
    """The columns ``[start, start + 2d)`` with their two halves swapped,
    and the signs of a coupling on them: -1 on the first half, +1 on the
    second.  Read-only."""
    source = np.concatenate((np.arange(start + d, start + 2 * d),
                             np.arange(start, start + d)))
    sign = np.repeat((-1.0, 1.0), d)
    source.flags.writeable = sign.flags.writeable = False
    return source, sign


@dataclass(frozen=True)
class StructuredAC:
    """``(A, C)`` over an ensemble: a diagonal ``A`` and skew block couplings.

    ``A = diag(a)``.  Each coupling ``(c, u, w)`` of ``C`` joins adjacent
    column blocks ``u`` and ``w = [u.stop, u.stop + width(u))`` of equal
    width (the constructor raises a ValueError otherwise):
    ``C[u_k, w_k] = -c_k`` and ``C[w_k, u_k] = c_k`` for each
    coordinate k of the blocks; every other entry of ``C`` is zero.  The
    catalog needs at most two couplings, theta<->r and r<->xi.  A
    coefficient that depends on the state is an (N, 1) or (N, d) array; one
    that does not is a scalar or a vector broadcasting against each row.

    :meth:`apply` adds each coupling as one gather over its own columns
    ``[u.start, w.stop)``: the two blocks swapped, times ``-c`` on ``u`` and
    ``c`` on ``w``.  No coupling reads or writes another column, so a
    non-finite entry of ``V`` reaches only the columns its couplings join.
    """

    a: Array | float
    couplings: tuple[tuple[Array | float, slice, slice], ...] = ()
    # ``(columns, source, coef)`` per coupling: ``out[:, columns] += coef *
    # V[:, source]`` adds it.  Built with the record, so a record kept on
    # its spec builds them once per run.
    _gathers: tuple[tuple[slice, Array, Array], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        gathers = []
        for c, u, w in self.couplings:
            d = u.stop - u.start
            if w.start != u.stop or w.stop - w.start != d:
                raise ValueError("a coupling joins a block u to the block "
                                 "of equal width right after it")
            source, sign = _swap(u.start, d)
            # Multiplied by -1, not negated, so that a NaN keeps its bits.
            coef = (np.concatenate((c * -1.0, c), axis=-1)
                    if np.shape(c)[-1:] == (d,) else c * sign)
            gathers.append((slice(u.start, w.stop), source, coef))
        object.__setattr__(self, "_gathers", tuple(gathers))

    def apply(self, V: Array) -> Array:
        """Row-wise ``(A + C) v`` for an (N, D) batch of vectors."""
        out = self.a * V
        for columns, source, coef in self._gathers:
            out[:, columns] += coef * V.take(source, axis=1)
        return out


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
        if not 0 < self.sigma2 < math.inf:
            raise ValueError("sigma2 must be positive and finite")
        if not 0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")
        if self.kind in RIEMANN_KINDS and self.riemann is None:
            raise ValueError(f"{self.kind} requires a RiemannConfig")
        if not 0 <= self.friction < math.inf:
            raise ValueError("friction must be nonnegative and finite")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")

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

        The density factorizes, so the theta-block score is the base's, and
        it comes from the base's memo.  The augmented target keeps no memo
        of its own (its states never repeat).  The exact sampler, present
        when ``base`` has one, draws theta, then r, then xi.
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
            blocks = [base.grad_many(X[:, t]), -X[:, r] / sigma2]
            if has_xi:
                blocks.append(-mu * (X[:, xi] - mean))
            return np.concatenate(blocks, axis=1)

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
                             name, memo=False)

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
