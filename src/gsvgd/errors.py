"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid run configuration. Carries the offending (dotted) key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


class NumericalError(RuntimeError):
    """A non-finite value was produced during a computation or run."""

    def __init__(self, message: str, iteration: int | None = None,
                 particle: int | None = None):
        parts = [message]
        if iteration is not None:
            parts.append(f"iteration={iteration}")
        if particle is not None:
            parts.append(f"particle={particle}")
        super().__init__(" ".join(parts))
        self.message = message
        self.iteration = iteration
        self.particle = particle

