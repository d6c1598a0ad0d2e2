"""Exception types shared across the package."""

from __future__ import annotations


class LoopGateError(Exception):
    """Base class for all package-specific errors."""


class InvalidTrajectoryError(LoopGateError):
    """A phase-space trajectory is malformed (too short, non-monotone grid, non-finite points)."""


class SingularDetuningError(LoopGateError):
    """The drive detuning is zero or otherwise outside the valid range."""


class UnreachablePhaseError(LoopGateError):
    """No drive in the supported family reaches the requested phase."""


class InternalConsistencyError(LoopGateError):
    """A quantity violated a structural property it must satisfy by construction."""


class LoopNotClosedError(LoopGateError):
    """A drive expected to close its phase-space loop left a nonzero residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NonDiagonalGateError(LoopGateError):
    """An operation that requires a diagonal gate or conditioner received a non-diagonal one."""


class NonUnitaryError(LoopGateError):
    """A matrix expected to be unitary failed the unitarity check."""


class TruncationError(LoopGateError):
    """Fock-space truncation is too small for the requested evolution.

    ``recommended_n_max`` is None when the evolution needs more than the
    oracle's cap on n_max.
    """

    def __init__(self, message: str, leakage: float, recommended_n_max: int | None):
        super().__init__(message)
        self.leakage = leakage
        self.recommended_n_max = recommended_n_max


class UndefinedPhaseError(LoopGateError):
    """The overlap with the initial state became too small to define a total phase."""


class ConfigError(LoopGateError):
    """A run configuration file or argument set failed validation."""
