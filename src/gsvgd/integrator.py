"""Time discretization: forward Euler and a leapfrog-style symmetric split.

The split step advances momentum by a half step, positions by a full step at
the updated momenta, then momentum by another half step, re-evaluating the
velocity field at each sub-state.  The kernel bandwidth is resolved once per
outer step so the three sub-steps see a consistent kernel.  Thermostat (xi)
coordinates, when present, are grouped with the momentum half-steps, which
preserves the symmetric structure.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .dynamics import DynamicsSpec
from .kernels import KernelConfig
from .sampler import Ensemble, check_finite, gsvgd_velocity

Array = np.ndarray


def euler_step(e: Ensemble, vfield_fn: Callable[[Ensemble], Array],
               eps: float) -> Ensemble:
    """``positions <- positions + eps * v(snapshot)``; one field evaluation."""
    if eps < 0:
        raise ValueError("step size must be nonnegative")
    return e.with_positions(check_finite(e.positions + eps * vfield_fn(e),
                                         "particle position"))


def symmetric_split_step(e: Ensemble, target, spec: DynamicsSpec,
                         kernel: KernelConfig | None = None,
                         eps: float = 0.0,
                         field_fn: Callable[[Ensemble, float], Array] | None = None,
                         h: float | None = None) -> Ensemble:
    """One half/full/half split step of a block-structured velocity field.

    ``field_fn(ensemble, h)`` must return the full (N, D) velocity field;
    each sub-step applies only its block (r and xi for the half steps, theta
    for the middle step).  Defaults to the Stein-operator field.  The two
    intermediate sub-states are not re-validated: a non-finite value there
    surfaces as the next field's drift check or as the step's one position
    check.  For a single particle with Hamiltonian dynamics and zero
    friction this is exactly classic leapfrog.
    """
    if eps < 0:
        raise ValueError("step size must be nonnegative")
    lo = e.layout
    if not lo.has_r:
        raise ValueError("split integrator requires a momentum block")
    if h is None:
        if kernel is None:
            raise ValueError(
                "either a kernel config or an explicit bandwidth is required")
        h = kernel.bandwidth(e.positions)

    if field_fn is None:
        def field_fn(ens: Ensemble, hh: float):
            return gsvgd_velocity(ens, target, spec, h=hh)

    aux = [lo.r_slice]
    if lo.has_xi:
        aux.append(lo.xi_slice)

    x = e.positions.copy()
    v = field_fn(e, h)
    for s in aux:
        x[:, s] += 0.5 * eps * v[:, s]
    v = field_fn(e.with_positions(x.copy()), h)
    x[:, lo.theta_slice] += eps * v[:, lo.theta_slice]
    v = field_fn(e.with_positions(x.copy()), h)
    for s in aux:
        x[:, s] += 0.5 * eps * v[:, s]
    return e.with_positions(check_finite(x, "particle position"))
