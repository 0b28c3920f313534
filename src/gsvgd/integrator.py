"""Time discretization: forward Euler and a leapfrog-style symmetric split.

Both steps take the (N, D) state and a velocity field ``field(X) -> (N, D)``
and return the new state.  The split step advances momentum by a half step,
positions by a full step at the updated momenta, then momentum by another
half step, re-evaluating the field at each sub-state.  The caller fixes the
kernel bandwidth inside ``field`` once per outer step, so the three sub-steps
see a consistent kernel.  Thermostat (xi) coordinates, when present, are
grouped with the momentum half-steps, which preserves the symmetric
structure.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .dynamics import DynamicsSpec
from .sampler import check_finite

Array = np.ndarray


def euler_step(X: Array, field: Callable[[Array], Array],
               eps: float) -> Array:
    """``X + eps * field(X)``; one field evaluation."""
    if eps < 0:
        raise ValueError("step size must be nonnegative")
    return check_finite(X + eps * field(X), "particle position")


def symmetric_split_step(X: Array, field: Callable[[Array], Array],
                         eps: float, spec: DynamicsSpec) -> Array:
    """One half/full/half split step over the blocks of ``spec``.

    ``field`` must return the full (N, D) velocity; each sub-step applies
    only its block (r and xi for the half steps, theta for the middle step).
    ``X`` is left unchanged, and each sub-state the field sees is its own
    snapshot.  The two intermediate sub-states are not re-validated: a
    non-finite value there surfaces as the next field's drift check or as
    the step's one position check.  For a single particle with Hamiltonian
    dynamics and zero friction this is exactly classic leapfrog.
    """
    if eps < 0:
        raise ValueError("step size must be nonnegative")
    if not spec.has_r:
        raise ValueError("split integrator requires a momentum block")
    aux = [spec.r_slice]
    if spec.has_xi:
        aux.append(spec.xi_slice)
    theta = spec.theta_slice

    x = X.copy()
    v = field(X)
    for s in aux:
        x[:, s] += 0.5 * eps * v[:, s]
    v = field(x.copy())
    x[:, theta] += eps * v[:, theta]
    v = field(x.copy())
    for s in aux:
        x[:, s] += 0.5 * eps * v[:, s]
    return check_finite(x, "particle position")
