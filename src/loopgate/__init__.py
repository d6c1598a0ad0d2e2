"""Geometric two-qubit phase gates from driven-oscillator loops.

A detuned drive pushes an oscillator coherent state around a closed loop in
phase space; a spin-dependent drive strength turns the loop phase into a
two-qubit gate.  This package computes the total, geometric, and dynamic
phases of such loops in closed form and by quadrature, builds the resulting
gates, and certifies every analytic value against a brute-force propagation
in a truncated number basis.

Layout:

- :mod:`loopgate.phasespace`: trajectories, the phase decomposition, and the
  line-integral/quadrature phase functionals.
- :mod:`loopgate.drives`: drive profiles f(t), the induced path alpha(t),
  loop closure, the loop phase functional, and inverse design.
- :mod:`loopgate.gates`: spin conditioners, two-qubit gates, the local
  correction to CZ, fidelity, and nontriviality.
- :mod:`loopgate.oracle`: independent truncated-number-basis propagator used
  to verify every analytic claim.
- :mod:`loopgate.robustness`: eta invariance, timing-error response,
  noncyclic scans, and equal-area loop studies.
- :mod:`loopgate.cli`: the ``loopgate`` command.
"""

from ._version import __version__
from .drives import (
    ConstantDriveParams,
    DriveProfile,
    DriveSegment,
    closure_residual,
    constant_drive,
    design_constant_drive,
    drive_from_dict,
    drive_to_dict,
    four_pulse_sequence,
    gamma0,
    induced_trajectory,
)
from .errors import (
    ConfigError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidTrajectoryError,
    LoopGateError,
    LoopNotClosedError,
    NonDiagonalGateError,
    NonUnitaryError,
    NumericalFailureError,
    SingularDetuningError,
    TruncationError,
    UndefinedPhaseError,
    UnreachablePhaseError,
)
from .gates import (
    SpinConditioner,
    TwoQubitGate,
    apply_local_phase_correction,
    collective_gate,
    cz_gate,
    diagonal_gate,
    gate_fidelity,
    is_nontrivial,
    jy_conditioner,
    jy_squared_gate,
    jz_conditioner,
    odd_parity_projector,
    phase_gate,
    standard_conditioner,
)
from .oracle import (
    FockPropagation,
    FockSpace,
    propagate,
    verify_magnus_form,
)
from .phasespace import (
    PhaseDecomposition,
    Trajectory,
    analytic_total_phase,
    analytic_trajectory,
    decompose,
    dynamic_phase,
    geometric_phase,
)
from .robustness import (
    OracleSettings,
    SweepReport,
    SweepRow,
    SweepSpec,
    area_invariance_study,
    eta_invariance_sweep,
    noncyclic_scan,
    timing_error_sweep,
)

__all__ = [
    "__version__",
    "ConfigError",
    "ConstantDriveParams",
    "DriveProfile",
    "DriveSegment",
    "FockPropagation",
    "FockSpace",
    "InternalConsistencyError",
    "InvalidInputError",
    "InvalidTrajectoryError",
    "LoopGateError",
    "LoopNotClosedError",
    "NonDiagonalGateError",
    "NonUnitaryError",
    "NumericalFailureError",
    "OracleSettings",
    "PhaseDecomposition",
    "SingularDetuningError",
    "SpinConditioner",
    "SweepReport",
    "SweepRow",
    "SweepSpec",
    "Trajectory",
    "TruncationError",
    "TwoQubitGate",
    "UndefinedPhaseError",
    "UnreachablePhaseError",
    "analytic_total_phase",
    "analytic_trajectory",
    "apply_local_phase_correction",
    "area_invariance_study",
    "closure_residual",
    "collective_gate",
    "constant_drive",
    "cz_gate",
    "decompose",
    "design_constant_drive",
    "diagonal_gate",
    "drive_from_dict",
    "drive_to_dict",
    "dynamic_phase",
    "eta_invariance_sweep",
    "four_pulse_sequence",
    "gamma0",
    "gate_fidelity",
    "geometric_phase",
    "induced_trajectory",
    "is_nontrivial",
    "jy_conditioner",
    "jy_squared_gate",
    "jz_conditioner",
    "noncyclic_scan",
    "odd_parity_projector",
    "phase_gate",
    "propagate",
    "standard_conditioner",
    "timing_error_sweep",
    "verify_magnus_form",
]
