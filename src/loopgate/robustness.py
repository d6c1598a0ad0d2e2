"""Parameter sweeps that exercise the robustness properties of loop gates.

Four studies ship here: the phase relations away from loop closure, the
response of the total phase to timing errors in the loop period, the
parameter independence of the dynamic-to-geometric ratio eta, and the
dependence of the geometric phase on loop area alone.  Every report row keeps
total = geometric + dynamic by construction, and reports are deterministic:
nothing in the core draws random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._version import __version__
from .drives import (
    MAX_SAMPLES,
    ConstantDriveParams,
    DriveProfile,
    _sample_path,
    closure_residual,
    constant_drive,
    peak_alpha,
)
from .errors import InternalConsistencyError, LoopNotClosedError
from .gates import TwoQubitGate, gate_fidelity, phase_gate
from .oracle import DEFAULT_N_MAX, DEFAULT_STEPS, FockSpace, propagate
from .phasespace import (
    DEFAULT_CLOSURE_TOLERANCE,
    PhaseDecomposition,
    _chord_phase,
    _circle_path,
    _require_grid_path,
    _trapezoid_phase,
    analytic_total_phase,
    decompose,
    loop_closes,
    uniform_exp,
)

# Quadrature sampling densities chosen so the stated analytic tolerances
# (1e-9 on phase identities) hold with margin; both are second order in the
# grid spacing.  NONCYCLIC_SAMPLES is the floor of a time scan's sample
# count; see _noncyclic_samples.
ETA_SWEEP_SAMPLES = 400_001
NONCYCLIC_SAMPLES = 200_001
AREA_STUDY_SAMPLES = 100_001

NONCYCLIC_ANALYTIC_TOL = 1e-9
NONCYCLIC_ORACLE_TOL = 1e-4

# The parameters an eta sweep can vary; see eta_invariance_sweep.
ETA_SWEEP_PARAMETERS = ("omega_over_delta", "phi_l", "delta")


@dataclass(frozen=True)
class OracleSettings:
    """Truncation and step count for sweep points that also run the oracle."""

    n_max: int = DEFAULT_N_MAX
    steps: int = DEFAULT_STEPS

    def __post_init__(self) -> None:
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")
        if self.steps < 1:
            raise ValueError(f"steps must be positive, got {self.steps}")

    @property
    def space(self) -> FockSpace:
        return FockSpace(self.n_max)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter eta sweep description; ``parameter`` is one of
    :data:`ETA_SWEEP_PARAMETERS`.

    ``oracle_settings=None`` means analytic-only; otherwise every grid point
    also runs the brute-force propagation at those settings.
    """

    parameter: str
    grid: tuple[float, ...]
    base: ConstantDriveParams
    oracle_settings: OracleSettings | None = None

    def __post_init__(self) -> None:
        if self.parameter not in ETA_SWEEP_PARAMETERS:
            raise ValueError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"expected one of {ETA_SWEEP_PARAMETERS}"
            )
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValueError("sweep grid must not be empty")
        if not all(math.isfinite(v) for v in grid):
            raise ValueError("sweep grid values must be finite")
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class SweepRow:
    """One grid point: phases, eta, and optional fidelity/oracle columns."""

    value: float
    total: float
    geometric: float
    dynamic: float
    eta: float | None
    fidelity: float | None = None
    oracle_deviation: float | None = None


@dataclass(frozen=True)
class SweepReport:
    """Rows plus metadata; ``dataclasses.asdict`` gives the report tree."""

    parameter: str
    rows: tuple[SweepRow, ...]
    metadata: dict = field(default_factory=dict)


def _row(
    value: float,
    decomposition: PhaseDecomposition,
    fidelity: float | None = None,
    oracle_deviation: float | None = None,
) -> SweepRow:
    """The report row of one grid point."""
    return SweepRow(
        value=value,
        total=decomposition.total,
        geometric=decomposition.geometric,
        dynamic=decomposition.dynamic,
        eta=decomposition.eta,
        fidelity=fidelity,
        oracle_deviation=oracle_deviation,
    )


def _metadata(oracle_settings: OracleSettings | None, **summary) -> dict:
    """Report metadata: the package version, the oracle settings and the sweep's summary."""
    oracle = None
    if oracle_settings is not None:
        oracle = {"n_max": oracle_settings.n_max, "steps": oracle_settings.steps}
    return {"package_version": __version__, "oracle": oracle, **summary}


def _oracle_phase_triplet(
    drive: DriveProfile, tau: float, settings: OracleSettings, spin_state: int = 1
) -> tuple[float, float, float]:
    """Brute-force (total, geometric, dynamic) for one spin basis state."""
    propagation = propagate(
        drive,
        tau,
        space=settings.space,
        steps=settings.steps,
        with_operator=False,
    )
    decomposition = propagation.decomposition(spin_state)
    return decomposition.total, decomposition.geometric, decomposition.dynamic


def _constant_drive_phases(
    params: ConstantDriveParams, t: np.ndarray, rotation: np.ndarray
) -> tuple[float, float]:
    """Geometric and dynamic phase of the constant-drive path on the ``np.linspace`` grid ``t``.

    ``rotation`` is exp(-i*delta*t) on that grid; the path and
    <H> = energy_scale * (1 - cos(delta*t)) are both read off it.
    """
    energy_scale = params.energy_scale
    path = _circle_path(params.ratio, params.phi_l, rotation)
    _require_grid_path(t, path)
    return _chord_phase(path), _trapezoid_phase(energy_scale * (1.0 - rotation.real), t)


def _noncyclic_samples(
    drive: ConstantDriveParams,
    window: float,
    analytic_tolerance: float = NONCYCLIC_ANALYTIC_TOL,
) -> int:
    """Quadrature samples a time scan up to ``window`` needs for its analytic check.

    With S samples the chord sum of the open arc up to t misses the geometric
    phase by r**2 * (delta*t)**3 / (6 * (S - 1)**2), r = |omega/delta|.  This
    is the smallest S >= NONCYCLIC_SAMPLES that keeps that bound at
    ``window`` within ``analytic_tolerance / 4``.  When no finite count can
    (a tolerance that is not positive, or a bound that overflows) it is
    NONCYCLIC_SAMPLES, and the scan's own check reports the failure.
    """
    x = abs(drive.delta * window)
    bound = drive.ratio * drive.ratio * x * x * x / 6.0
    if not analytic_tolerance > 0.0:
        return NONCYCLIC_SAMPLES
    intervals = math.sqrt(4.0 * bound / analytic_tolerance)
    if not math.isfinite(intervals):
        return NONCYCLIC_SAMPLES
    return max(NONCYCLIC_SAMPLES, math.ceil(intervals) + 1)


def noncyclic_scan(
    drive: ConstantDriveParams,
    times: Sequence[float],
    *,
    samples: int | None = None,
    oracle_settings: OracleSettings | None = None,
    analytic_tolerance: float = NONCYCLIC_ANALYTIC_TOL,
    oracle_tolerance: float = NONCYCLIC_ORACLE_TOL,
) -> SweepReport:
    """Check the phase relations at times where the loop has not closed.

    For each requested time t the closed-form total phase Phi(t) is compared
    against quadrature values of the open-path line integral (geometric) and
    of -integral <H> (dynamic): the scan asserts geometric(t) = -Phi(t) and
    dynamic(t) = 2*Phi(t) within ``analytic_tolerance``.  With oracle settings
    the brute-force total and dynamic phases must match Phi(t) and 2*Phi(t)
    within ``oracle_tolerance``; each oracle time must lie on the step grid.

    ``samples=None`` takes :func:`_noncyclic_samples` of the latest time, and
    raises ValueError when that exceeds ``drives.MAX_SAMPLES``.
    """
    times = [float(t) for t in times]
    if not times:
        raise ValueError("no scan times given")
    period = drive.period
    if min(times) < 0.0 or max(times) > 10.0 * period:
        raise ValueError("scan times must lie within [0, 10 periods]")
    if samples is None:
        samples = _noncyclic_samples(drive, max(times), analytic_tolerance)
        if samples > MAX_SAMPLES:
            raise ValueError(
                f"a time scan up to t = {max(times):g} needs {samples:.4g} quadrature samples "
                f"(--samples) to hold the analytic tolerance {analytic_tolerance:g}, above "
                f"the cap {MAX_SAMPLES}; loosen --analytic-tolerance or scan a shorter window"
            )

    oracle_samples = None
    if oracle_settings is not None and max(times) > 0.0:
        window = max(times)
        profile = constant_drive(drive, periods=window / period)
        propagation = propagate(
            profile,
            window,
            space=oracle_settings.space,
            steps=oracle_settings.steps,
            sample_times=times,
            with_operator=False,
        )
        oracle_samples = propagation.samples

    drive.energy_scale  # raises ValueError when omega_d**2 overflows
    rows = []
    max_dev_analytic = 0.0
    max_dev_oracle = 0.0
    for i, t in enumerate(times):
        phi = analytic_total_phase(drive.ratio, drive.delta, t)
        if t == 0.0:
            geometric = 0.0
            dyn = 0.0
        else:
            grid = np.linspace(0.0, t, samples)
            geometric, dyn = _constant_drive_phases(drive, grid, uniform_exp(drive.delta, grid))
        dev_geometric = abs(geometric + phi)
        dev_dynamic = abs(dyn - 2.0 * phi)
        max_dev_analytic = max(max_dev_analytic, dev_geometric, dev_dynamic)
        if dev_geometric > analytic_tolerance or dev_dynamic > analytic_tolerance:
            raise InternalConsistencyError(
                f"analytic phase relations violated at t={t}: "
                f"geometric residual {dev_geometric:.3e}, dynamic residual {dev_dynamic:.3e}"
            )
        oracle_deviation = None
        if oracle_samples is not None:
            oracle_total = float(oracle_samples["total_phase"][i, 1])
            oracle_dynamic = float(oracle_samples["dynamic_phase"][i, 1])
            oracle_deviation = max(abs(oracle_total - phi), abs(oracle_dynamic - 2.0 * phi))
            max_dev_oracle = max(max_dev_oracle, oracle_deviation)
            if oracle_deviation > oracle_tolerance:
                raise InternalConsistencyError(
                    f"oracle phase relations violated at t={t}: deviation {oracle_deviation:.3e}"
                )
        rows.append(_row(t, decompose(geometric, dyn), oracle_deviation=oracle_deviation))

    metadata = _metadata(
        oracle_settings,
        tolerances={
            "analytic": analytic_tolerance,
            "oracle": oracle_tolerance if oracle_settings is not None else None,
        },
        samples=samples,
        max_analytic_relation_residual=max_dev_analytic,
        max_oracle_relation_residual=max_dev_oracle if oracle_settings is not None else None,
    )
    return SweepReport(parameter="time", rows=tuple(rows), metadata=metadata)


def timing_error_sweep(
    base: ConstantDriveParams,
    epsilons: Sequence[float],
    *,
    oracle_settings: OracleSettings | None = None,
) -> SweepReport:
    """Response of the gate to a relative error epsilon in the loop period.

    Each row evaluates the evolution up to tau = T * (1 + epsilon): the total
    phase is Phi(tau) in closed form (the phase relations hold at every
    endpoint, so geometric = -Phi and dynamic = 2*Phi still), and the fidelity
    column compares the analytic phase gate phase_gate(Phi(tau)) against the
    ideal gate phase_gate(Phi(T)) at the nominal period.  With oracle
    settings, ``oracle_deviation`` is |oracle total phase - Phi(tau)| for
    state du.  The phase error Phi(tau) - Phi(T) vanishes to third order in
    epsilon, which the metadata records as a log-log slope over the rows with
    |epsilon| in [1e-3, 1e-2] (when at least two such rows exist).
    """
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise ValueError("no epsilon values given")
    if any(abs(e) >= 0.5 for e in epsilons):
        raise ValueError("timing errors must satisfy |epsilon| < 0.5")

    period = base.period
    nominal_phase = analytic_total_phase(base.ratio, base.delta, period)
    ideal = phase_gate(nominal_phase)

    rows = []
    errors = []
    for eps in epsilons:
        tau = period * (1.0 + eps)
        if tau <= 0.0:
            raise ValueError(f"epsilon {eps} leaves no evolution window")
        phi = analytic_total_phase(base.ratio, base.delta, tau)
        errors.append((eps, abs(phi - nominal_phase)))
        perturbed = phase_gate(phi)
        fidelity = gate_fidelity(perturbed, ideal)

        oracle_deviation = None
        if oracle_settings is not None:
            profile = constant_drive(base, periods=1.0 + eps) if eps != 0.0 else constant_drive(base)
            oracle_total, _, _ = _oracle_phase_triplet(
                profile, tau, oracle_settings, spin_state=1
            )
            oracle_deviation = abs(oracle_total - phi)

        rows.append(_row(eps, decompose(-phi, 2.0 * phi), fidelity, oracle_deviation))

    metadata = _metadata(
        oracle_settings,
        nominal_total_phase=nominal_phase,
        max_abs_phase_error=max(error for _, error in errors),
        loglog_slope=_loglog_slope(errors),
    )
    return SweepReport(parameter="timing_error", rows=tuple(rows), metadata=metadata)


def _loglog_slope(errors: Sequence[tuple[float, float]]) -> float | None:
    """Slope of log(error) vs log|eps| over the (eps, error) pairs with |eps| in [1e-3, 1e-2]."""
    xs = []
    ys = []
    for eps, error in errors:
        if 1e-3 <= abs(eps) <= 1e-2 and error > 0.0:
            xs.append(math.log(abs(eps)))
            ys.append(math.log(error))
    if len(xs) < 2:
        return None
    return float(np.polyfit(xs, ys, 1)[0])


def eta_invariance_sweep(spec: SweepSpec, *, samples: int = ETA_SWEEP_SAMPLES) -> SweepReport:
    """eta over a one-parameter family of closed one-period loops.

    The swept parameter is one of omega_over_delta (detuning fixed), delta
    (ratio fixed, so the loop shape is preserved while the traversal speed
    changes), or phi_l.  Every point is evaluated at exactly one period, so
    the loop is closed and eta is well defined; the metadata summarizes
    max |eta + 2| for the analytic rows and, when oracle settings are given,
    for the brute-force rows as well.
    """
    rows = []
    max_eta_dev = 0.0
    max_eta_dev_oracle = None
    # Points that share delta share the one-period grid and its rotation.
    delta = grid = rotation = None
    for value in spec.grid:
        params = _apply_parameter(spec.base, spec.parameter, value)
        if params.delta != delta:
            # Drop the previous pair first, so one rotation is held at a time.
            grid = rotation = None
            delta = params.delta
            grid = np.linspace(0.0, params.period, samples)
            rotation = uniform_exp(delta, grid)
        geometric, dyn = _constant_drive_phases(params, grid, rotation)
        decomposition = decompose(geometric, dyn)
        if decomposition.eta is not None:
            max_eta_dev = max(max_eta_dev, abs(decomposition.eta + 2.0))

        oracle_deviation = None
        if spec.oracle_settings is not None:
            profile = constant_drive(params)
            total_o, geometric_o, dynamic_o = _oracle_phase_triplet(
                profile, params.period, spec.oracle_settings, spin_state=1
            )
            oracle_deviation = max(
                abs(total_o - decomposition.total),
                abs(geometric_o - geometric),
                abs(dynamic_o - dyn),
            )
            if abs(geometric_o) > 1e-9:
                eta_o = dynamic_o / geometric_o
                dev = abs(eta_o + 2.0)
                max_eta_dev_oracle = (
                    dev if max_eta_dev_oracle is None else max(max_eta_dev_oracle, dev)
                )

        rows.append(_row(value, decomposition, oracle_deviation=oracle_deviation))

    metadata = _metadata(
        spec.oracle_settings,
        samples=samples,
        max_abs_eta_plus_2=max_eta_dev,
        max_abs_eta_plus_2_oracle=max_eta_dev_oracle,
    )
    return SweepReport(parameter=spec.parameter, rows=tuple(rows), metadata=metadata)


def _apply_parameter(
    base: ConstantDriveParams, parameter: str, value: float
) -> ConstantDriveParams:
    if parameter == "omega_over_delta":
        return ConstantDriveParams(
            omega_d=value * base.delta, delta=base.delta, phi_l=base.phi_l
        )
    if parameter == "delta":
        # Keep the ratio fixed: same loop, different traversal speed.
        return ConstantDriveParams(
            omega_d=base.ratio * value, delta=value, phi_l=base.phi_l
        )
    return ConstantDriveParams(omega_d=base.omega_d, delta=base.delta, phi_l=value)


def area_invariance_study(
    loops: Sequence[DriveProfile],
    *,
    samples: int = AREA_STUDY_SAMPLES,
    agreement_tolerance: float = 1e-6,
    closure_tolerance: float = DEFAULT_CLOSURE_TOLERANCE,
) -> SweepReport:
    """Geometric phases of closed loops that share one enclosed area.

    Each profile must close (open loops are rejected); its induced trajectory
    is sampled and the geometric phase computed from the line integral.  The
    study asserts pairwise agreement within ``agreement_tolerance``, which is
    how shape, orientation offset, and traversal-rate independence are all
    checked: pass loops that differ only in those respects.
    """
    loops = list(loops)
    if not loops:
        raise ValueError("no loops given")
    rows = []
    geometrics = []
    for index, loop in enumerate(loops):
        residual = closure_residual(loop)
        if not loop_closes(residual, closure_tolerance, lambda: peak_alpha(loop)):
            raise LoopNotClosedError(
                f"loop {index} is open: residual {residual:.3e}", residual
            )
        t, f, alpha = _sample_path(loop, loop.total_duration, samples)
        _require_grid_path(t, alpha)
        geometric = _chord_phase(alpha)
        # <H> = 2 Im(f conj(alpha)) at conditioner eigenvalue 1; an overflowing
        # real part of the product leaves the imaginary part intact.
        with np.errstate(over="ignore", invalid="ignore"):
            energy = 2.0 * np.imag(f * np.conj(alpha))
        dyn = _trapezoid_phase(energy, t)
        geometrics.append(geometric)
        rows.append(_row(float(index), decompose(geometric, dyn)))
    spread = float(np.max(geometrics) - np.min(geometrics)) if len(geometrics) > 1 else 0.0
    if spread > agreement_tolerance:
        raise InternalConsistencyError(
            f"geometric phases disagree across equal-area loops: spread {spread:.3e}"
        )
    metadata = _metadata(
        None,
        samples=samples,
        agreement_tolerance=agreement_tolerance,
        geometric_phase_spread=spread,
    )
    return SweepReport(parameter="loop_shape", rows=tuple(rows), metadata=metadata)
