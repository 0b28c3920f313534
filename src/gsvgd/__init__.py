"""Deterministic Stein-type particle samplers for drift/diffusion dynamics."""

from .dynamics import KINDS, DynamicsSpec, RiemannConfig, StructuredAC
from .errors import ConfigError, NumericalError
from .integrator import euler_step, symmetric_split_step
from .kernels import (KernelConfig, median_bandwidth, rbf_eval, rbf_grad1,
                      rbf_grad2, rbf_matrix)
from .sampler import (Ensemble, VelocityField, blob_grad_log_density,
                      gsvgd_velocity, gsvgd_velocity_alt, mcmc_step,
                      parvi_blob_velocity, resample_momentum)
from .targets import (AugmentedTarget, BlockLayout, TargetDensity,
                      augment_with_momentum, augment_with_thermostat,
                      gaussian, gaussian_mixture, standard_gaussian,
                      tri_crescent_target)

__all__ = [
    "KINDS", "DynamicsSpec", "RiemannConfig", "StructuredAC",
    "ConfigError", "NumericalError",
    "euler_step", "symmetric_split_step",
    "KernelConfig", "median_bandwidth", "rbf_eval", "rbf_grad1", "rbf_grad2",
    "rbf_matrix",
    "Ensemble", "VelocityField", "blob_grad_log_density", "gsvgd_velocity",
    "gsvgd_velocity_alt", "mcmc_step", "parvi_blob_velocity",
    "resample_momentum",
    "AugmentedTarget", "BlockLayout", "TargetDensity",
    "augment_with_momentum", "augment_with_thermostat", "gaussian",
    "gaussian_mixture", "standard_gaussian", "tri_crescent_target",
]

__version__ = "0.1.0"
