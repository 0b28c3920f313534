"""Deterministic Stein-type particle samplers for drift/diffusion dynamics."""

from .dynamics import KINDS, DynamicsSpec, RiemannConfig, StructuredAC
from .errors import ConfigError, NumericalError
from .integrator import euler_step, symmetric_split_step
from .kernels import KernelConfig, median_bandwidth
from .sampler import (blob_grad_log_density, gsvgd_velocity,
                      gsvgd_velocity_alt, mcmc_step, parvi_blob_velocity,
                      resample_momentum)
from .targets import (TargetDensity, gaussian, gaussian_mixture,
                      standard_gaussian, tri_crescent_target)

__all__ = [
    "KINDS", "DynamicsSpec", "RiemannConfig", "StructuredAC",
    "ConfigError", "NumericalError",
    "euler_step", "symmetric_split_step",
    "KernelConfig", "median_bandwidth",
    "blob_grad_log_density", "gsvgd_velocity", "gsvgd_velocity_alt",
    "mcmc_step", "parvi_blob_velocity", "resample_momentum",
    "TargetDensity", "gaussian", "gaussian_mixture",
    "standard_gaussian", "tri_crescent_target",
]

__version__ = "0.1.0"
