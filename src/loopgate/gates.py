"""Two-qubit gates built from conditioned phase-space loops.

All matrices act in the fixed computational basis

    (|down,down>, |down,up>, |up,down>, |up,up>)

with |up> the +1 eigenstate of sigma_z.  A spin conditioner C multiplies the
oscillator displacement generator, so each conditioner eigenvalue beta traces
its own loop and acquires the phase beta**2 * gamma0.  Diagonal conditioners
therefore yield diagonal gates whose phases are read off directly; the
collective sigma_y conditioner yields exp(-i * gamma * Jy**2), diagonal in the
Jy eigenbasis instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .drives import DriveProfile, loop_phase, require_closed
from .errors import InternalConsistencyError, NonDiagonalGateError, NonUnitaryError
from .phasespace import DEFAULT_CLOSURE_TOLERANCE, PhaseDecomposition, decompose

BASIS_LABELS = ("dd", "du", "ud", "uu")

# Unitarity budget for gate construction.
UNITARITY_TOLERANCE = 1e-10

# Tolerance of the nontriviality predicate (mod-2*pi distance).
NONTRIVIALITY_TOLERANCE = 1e-9

_SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_IDENTITY2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class SpinConditioner:
    """Hermitian two-qubit operator multiplying the oscillator displacement.

    ``basis_eigenvalues`` holds the diagonal entries when the matrix is
    diagonal in the computational basis, and None otherwise.
    """

    name: str
    matrix: np.ndarray
    basis_eigenvalues: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=complex).copy()
        if matrix.shape != (4, 4):
            raise ValueError(f"conditioner matrix must be 4x4, got {matrix.shape}")
        if np.max(np.abs(matrix - matrix.conj().T)) > 1e-12:
            raise ValueError("conditioner matrix must be Hermitian")
        if self.basis_eigenvalues is not None:
            eigenvalues = tuple(float(b) for b in self.basis_eigenvalues)
            if len(eigenvalues) != 4:
                raise ValueError("basis_eigenvalues needs exactly four entries")
            if np.max(np.abs(matrix - np.diag(eigenvalues))) > 1e-12:
                raise InternalConsistencyError(
                    "basis_eigenvalues disagree with the conditioner matrix"
                )
            object.__setattr__(self, "basis_eigenvalues", eigenvalues)
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @property
    def is_diagonal(self) -> bool:
        return self.basis_eigenvalues is not None

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and orthonormal eigenvector columns of the matrix."""
        if self.is_diagonal:
            return np.array(self.basis_eigenvalues, dtype=float), np.eye(4, dtype=complex)
        values, vectors = np.linalg.eigh(self.matrix)
        return values, vectors


# The standard conditioners and cz_gate build their object on the first call
# and return that one object after it: it is frozen and its matrix read-only.


@functools.cache
def odd_parity_projector() -> SpinConditioner:
    """Projector onto the odd-parity states |down,up> and |up,down>."""
    return SpinConditioner(
        name="odd-parity-projector",
        matrix=np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex),
        basis_eigenvalues=(0.0, 1.0, 1.0, 0.0),
    )


@functools.cache
def jz_conditioner() -> SpinConditioner:
    """Collective sigma_z: eigenvalues -2, 0, 0, +2 on the computational basis."""
    matrix = np.kron(_SIGMA_Z, _IDENTITY2) + np.kron(_IDENTITY2, _SIGMA_Z)
    return SpinConditioner(name="jz", matrix=matrix, basis_eigenvalues=(-2.0, 0.0, 0.0, 2.0))


@functools.cache
def jy_conditioner() -> SpinConditioner:
    """Collective sigma_y: eigenvalues {+2, 0, 0, -2}, not diagonal in this basis."""
    matrix = np.kron(_SIGMA_Y, _IDENTITY2) + np.kron(_IDENTITY2, _SIGMA_Y)
    return SpinConditioner(name="jy", matrix=matrix, basis_eigenvalues=None)


def standard_conditioner(name: str) -> SpinConditioner:
    """Look up a conditioner by name (case-insensitive)."""
    factories = {
        "odd-parity-projector": odd_parity_projector,
        "jz": jz_conditioner,
        "jy": jy_conditioner,
    }
    key = str(name).lower()
    if key not in factories:
        raise ValueError(f"unknown conditioner {name!r}; expected one of {sorted(factories)}")
    return factories[key]()


@dataclass(frozen=True)
class TwoQubitGate:
    """A unitary on the fixed two-qubit basis.

    ``phases`` carries the exact (unwrapped) diagonal phases when the gate is
    diagonal, so downstream code never has to re-extract angles from matrix
    entries.  Unitarity is enforced at construction: the defect is the
    spectral norm of M^H M - I, which for an exactly diagonal M is the
    largest ||d_i|**2 - 1| over its diagonal d, with no SVD.
    """

    matrix: np.ndarray
    phases: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=complex).copy()
        if matrix.shape != (4, 4):
            raise ValueError(f"gate matrix must be 4x4, got {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ValueError("gate matrix has non-finite entries")
        diagonal = matrix.diagonal()
        if np.count_nonzero(matrix) == np.count_nonzero(diagonal):
            # In Python floats a square past the float range is inf, with no warning.
            defect = max(abs(z.real * z.real + z.imag * z.imag - 1.0) for z in diagonal.tolist())
        else:
            defect = np.linalg.norm(matrix.conj().T @ matrix - np.eye(4), 2)
        if defect > UNITARITY_TOLERANCE:
            raise NonUnitaryError(f"gate matrix is not unitary: defect {defect:.3e}")
        if self.phases is not None:
            phases = tuple(float(p) for p in self.phases)
            if len(phases) != 4:
                raise ValueError("phases needs exactly four entries")
            rebuilt = np.diag(np.exp(1j * np.array(phases)))
            if np.max(np.abs(matrix - rebuilt)) > 1e-9:
                raise InternalConsistencyError("stored phases disagree with the gate matrix")
            object.__setattr__(self, "phases", phases)
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @property
    def is_diagonal(self) -> bool:
        return self.phases is not None

    def to_dict(self) -> dict:
        data: dict = {
            "basis": list(BASIS_LABELS),
            "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in self.matrix],
        }
        data["phases"] = list(self.phases) if self.phases is not None else None
        return data


def phase_gate(gamma: float) -> TwoQubitGate:
    """Controlled phase gate diag(1, e^{i*gamma}, e^{i*gamma}, 1).

    Only the odd-parity states acquire the loop phase, so the gate entangles
    exactly when gamma is not a multiple of pi.
    """
    gamma = float(gamma)
    return TwoQubitGate(
        matrix=np.diag([1.0, np.exp(1j * gamma), np.exp(1j * gamma), 1.0]),
        phases=(0.0, gamma, gamma, 0.0),
    )


@functools.cache
def cz_gate() -> TwoQubitGate:
    """The controlled-Z gate diag(1, 1, 1, -1)."""
    return TwoQubitGate(
        matrix=np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
        phases=(0.0, 0.0, 0.0, math.pi),
    )


def diagonal_gate(
    conditioner: SpinConditioner, gamma0_value: float
) -> tuple[TwoQubitGate, tuple[PhaseDecomposition, ...]]:
    """Gate a loop with phase functional ``gamma0_value`` makes under ``conditioner``.

    Each basis state with conditioner eigenvalue beta acquires the phase
    beta**2 * gamma0, decomposed as geometric -beta**2 * gamma0 and dynamic
    +2 * beta**2 * gamma0.  Returns the diagonal gate together with the four
    per-state decompositions.

    Raises :class:`NonDiagonalGateError` for conditioners that are not
    diagonal in the computational basis.
    """
    if not conditioner.is_diagonal:
        raise NonDiagonalGateError(
            f"conditioner {conditioner.name!r} is not diagonal in the computational basis"
        )
    phases = tuple(float(b * b * gamma0_value) for b in conditioner.basis_eigenvalues)
    # An overflowing phase makes a non-finite entry, which TwoQubitGate refuses.
    with np.errstate(invalid="ignore"):
        matrix = np.diag(np.exp(1j * np.array(phases)))
    gate = TwoQubitGate(matrix=matrix, phases=phases)
    return gate, tuple(decompose(-phase, 2.0 * phase) for phase in phases)


def collective_gate(
    drive: DriveProfile,
    tau: float | None = None,
    conditioner: SpinConditioner | None = None,
    *,
    closure_tolerance: float = DEFAULT_CLOSURE_TOLERANCE,
) -> tuple[TwoQubitGate, tuple[PhaseDecomposition, ...]]:
    """Gate produced by a closed drive loop under a diagonal conditioner.

    The :func:`diagonal_gate` of the closed-form ``loop_phase(drive, tau)`` once
    :func:`~loopgate.drives.require_closed` accepts the loop, with the
    drive's own conditioner unless ``conditioner`` is given.

    Raises :class:`LoopNotClosedError` when the loop has a closure residual
    above ``closure_tolerance`` at ``tau``, and :class:`NonDiagonalGateError`
    for conditioners that are not diagonal in the computational basis.
    """
    if conditioner is None:
        conditioner = drive.conditioner
    require_closed(drive, tau, closure_tolerance)
    return diagonal_gate(conditioner, loop_phase(drive, tau))


def jy_squared_gate(gamma: float) -> TwoQubitGate:
    """exp(-i * gamma * Jy**2) for the collective sigma_y operator Jy.

    Jy**2 has eigenvalues {0, 4}, so the gate applies e^{-4i*gamma} on the
    two-dimensional Jy = +/-2 subspace and leaves its kernel alone.  Built by
    eigendecomposition; not diagonal in the computational basis.
    """
    gamma = float(gamma)
    jy = jy_conditioner().matrix
    values, vectors = np.linalg.eigh(jy @ jy)
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = (vectors * np.exp(-1j * gamma * values)) @ vectors.conj().T
    return TwoQubitGate(matrix=matrix, phases=None)


def apply_local_phase_correction(gate: TwoQubitGate, theta: float) -> TwoQubitGate:
    """Apply diag(1, e^{i*theta}) to each qubit after the gate.

    The correction shifts the diagonal phases by (0, theta, theta, 2*theta);
    with theta = pi/2 it turns the gamma = -pi/2 phase gate into controlled-Z.
    """
    theta = float(theta)
    local = np.diag([1.0, np.exp(1j * theta)])
    corrected = np.kron(local, local) @ gate.matrix
    if gate.phases is not None:
        phases = (
            gate.phases[0],
            gate.phases[1] + theta,
            gate.phases[2] + theta,
            gate.phases[3] + 2.0 * theta,
        )
        return TwoQubitGate(matrix=corrected, phases=phases)
    return TwoQubitGate(matrix=corrected, phases=None)


def gate_fidelity(u: TwoQubitGate | np.ndarray, v: TwoQubitGate | np.ndarray) -> float:
    """Phase-insensitive overlap |tr(U_dag V)| / 4 between two unitaries (defects up to 1e-8)."""
    mu = _as_matrix(u)
    mv = _as_matrix(v)
    return float(abs(np.trace(mu.conj().T @ mv)) / 4.0)


def is_nontrivial(gate: TwoQubitGate) -> bool:
    """Whether a diagonal gate entangles.

    A diagonal gate is a product of local phase rotations exactly when
    phi_dd + phi_uu - phi_du - phi_ud is a multiple of 2*pi; the predicate
    returns True when that combination is farther than
    ``NONTRIVIALITY_TOLERANCE`` from every multiple.
    """
    phases = _diagonal_phases(gate)
    combination = phases[0] + phases[3] - phases[1] - phases[2]
    wrapped = math.remainder(combination, 2.0 * math.pi)
    return abs(wrapped) > NONTRIVIALITY_TOLERANCE


def _diagonal_phases(gate: TwoQubitGate) -> tuple[float, float, float, float]:
    if gate.phases is not None:
        return gate.phases
    off_diag = gate.matrix - np.diag(np.diag(gate.matrix))
    if np.max(np.abs(off_diag)) > 1e-12:
        raise NonDiagonalGateError("gate is not diagonal in the computational basis")
    return tuple(float(a) for a in np.angle(np.diag(gate.matrix)))


def _as_matrix(gate: TwoQubitGate | np.ndarray) -> np.ndarray:
    """The 4x4 matrix of ``gate``; a raw array is checked here, a gate was checked when built."""
    if isinstance(gate, TwoQubitGate):
        return gate.matrix
    matrix = np.asarray(gate, dtype=complex)
    if matrix.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {matrix.shape}")
    defect = np.linalg.norm(matrix.conj().T @ matrix - np.eye(4), 2)
    if defect > 1e-8:
        raise NonUnitaryError(f"matrix is not unitary: defect {defect:.3e}")
    return matrix
