"""Exception types shared across the package; the base of each sets its CLI exit code."""

from __future__ import annotations


class LoopGateError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(LoopGateError):
    """The inputs are outside what the computation accepts (CLI exit 2)."""


class NumericalFailureError(LoopGateError):
    """A computation on valid inputs failed one of its own checks (CLI exit 3)."""


class InvalidTrajectoryError(InvalidInputError):
    """A phase-space trajectory is malformed (too short, non-monotone grid, non-finite points)."""


class SingularDetuningError(InvalidInputError):
    """The drive detuning is zero or otherwise outside the valid range."""


class UnreachablePhaseError(InvalidInputError):
    """No drive in the supported family reaches the requested phase."""


class InternalConsistencyError(NumericalFailureError):
    """A quantity violated a structural property it must satisfy by construction."""


class LoopNotClosedError(InvalidInputError):
    """A drive expected to close its phase-space loop left a nonzero residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NonDiagonalGateError(InvalidInputError):
    """An operation that requires a diagonal gate or conditioner received a non-diagonal one."""


class NonUnitaryError(NumericalFailureError):
    """A matrix expected to be unitary failed the unitarity check."""


class TruncationError(NumericalFailureError):
    """Fock-space truncation is too small for the requested evolution.

    ``recommended_n_max`` is None when the evolution needs more than the
    oracle's cap on n_max.
    """

    def __init__(self, message: str, leakage: float, recommended_n_max: int | None):
        super().__init__(message)
        self.leakage = leakage
        self.recommended_n_max = recommended_n_max


class UndefinedPhaseError(NumericalFailureError):
    """The overlap with the initial state became too small to define a total phase."""


class ConfigError(InvalidInputError):
    """A run configuration file or argument set failed validation."""
