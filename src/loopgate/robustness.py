"""Parameter sweeps that exercise the robustness properties of loop gates.

Four studies ship here: the phase relations away from loop closure, the
response of the total phase to timing errors in the loop period, the
parameter independence of the dynamic-to-geometric ratio eta, and the
dependence of the geometric phase on loop area alone.  Every report row keeps
total = geometric + dynamic by construction, and reports are deterministic:
nothing in the core draws random numbers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._version import __version__
from .drives import (
    MAX_SAMPLES,
    ConstantDriveParams,
    DriveProfile,
    _grid_times,
    _require_samples,
    _walk,
    constant_drive,
    require_closed,
)
from .errors import InternalConsistencyError
from .gates import TwoQubitGate, gate_fidelity, phase_gate
from .oracle import DEFAULT_N_MAX, DEFAULT_STEPS, FockPropagation, FockSpace, propagate
from .oracle import extract_total_phase
from .phasespace import (
    DEFAULT_CLOSURE_TOLERANCE,
    PhaseDecomposition,
    _block_phases,
    _chord_sum,
    _exp_factors,
    _exp_rows,
    _require_finite_chord,
    _require_finite_dynamic,
    _require_grid_path,
    _trapezoid_sum,
    _Workspace,
    _workspace,
    analytic_total_phase,
    decompose,
)

# Quadrature sampling densities chosen so the stated analytic tolerances
# (1e-9 on phase identities) hold with margin.  The time scan and the area
# study are second order in the grid spacing; NONCYCLIC_SAMPLES is the floor
# of a time scan's sample count (see _noncyclic_samples).  The eta sweep
# extrapolates from every other sample, once per sweep, so it is fourth
# order and its count is odd; see _extrapolated_unit_sums.
ETA_SWEEP_SAMPLES = 4_097
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
        FockSpace(self.n_max)  # the oracle's own n_max rule
        if self.steps < 1:
            raise ValueError(f"steps must be positive, got {self.steps}")

    @property
    def space(self) -> FockSpace:
        return FockSpace(self.n_max)

    def propagate(
        self, drive: DriveProfile, tau: float, sample_times: Sequence[float] | None = None
    ) -> FockPropagation:
        """The state-only :func:`~loopgate.oracle.propagate` of ``drive`` at these settings."""
        return propagate(
            drive,
            tau,
            space=self.space,
            steps=self.steps,
            sample_times=sample_times,
            with_operator=False,
        )


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
    """Rows plus metadata; the CLI's report tree is a shallow copy of its fields and rows."""

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


def _unit_sums(
    delta: float, times: Sequence[float], samples: int
) -> list[tuple[float, float, float]]:
    """Chord sum, trapezoid and peak energy of the unit loop up to each of ``times``.

    The unit loop is u = exp(-i*delta*t) - 1 and its energy
    1 - cos(delta*t) = -Re(u), rounded alike.  One walk covers
    ``np.linspace(0, times[-1], samples)``; the times are positive and
    strictly increasing.  Each block's times come from ``drives._grid_times``
    and its u from whole rows of the ``_exp_factors`` table, so no N-sample
    array is built.  The last time takes the sums of the whole grid.  An
    earlier time t takes them up to j, the last node at or below t: the
    block that holds j adds its chord products and trapezoid terms up to j
    on the side, and one interval from j to t, with u(t) evaluated directly,
    closes the row unless t is a node.  Returns, per time, the chord sum of
    u, -integral(1 - cos(delta*t) dt) and max(1 - cos(delta*t)), all finite.
    """
    tau = times[-1]
    factors = _exp_factors(delta, samples, lambda k: _grid_times(k, tau, samples))
    width = factors[1].size
    chord = trapezoid = peak = 0.0
    sums = []
    work = _workspace()
    block = max(1, min(work.block // width, factors[0].size)) * width
    work.reserve(block + 1)
    # Slot 0 of u and of t carries the previous block's last sample.
    u, t = work.alpha, work.times
    terms = work.scratch.view(float)
    for start in range(0, samples, block):
        stop = min(start + block, samples)
        count = stop - start
        fresh = _exp_rows(
            factors, start, stop, samples, out=u[1 : count + 1], tile=work.scratch[:count]
        )
        fresh -= 1.0
        fresh_times = np.add(work.ramp[:count], start, out=t[1 : count + 1])
        _grid_times(fresh_times, tau, samples, out=fresh_times)
        head = 0 if start else 1
        part, nodes = u[head : count + 1], t[head : count + 1]
        # The earlier times below this block's last node, each with the
        # index j in ``part`` of the last node at or below it.
        pending = times[len(sums) : -1]
        ends = np.searchsorted(nodes, pending, side="right")
        reads = list(zip(pending, ends[ends < nodes.size] - 1))
        # Both sums leave their terms in the scratch array, which they share.
        block_chord = _chord_sum(part, work.scratch)
        chords = [chord - float(np.sum(work.scratch[:j].imag)) for _, j in reads]
        block_trapezoid = _trapezoid_sum(part.real, nodes, terms)
        for (time, j), row_chord in zip(reads, chords):
            row_trapezoid = trapezoid + float(np.add.reduce(terms[:j]))
            row_peak = max(peak, -float(part.real[: j + 1].min()))
            if nodes[j] < time:
                node, last = complex(part[j]), cmath.exp(-1j * delta * time) - 1.0
                row_chord -= (node.conjugate() * last).imag
                row_trapezoid += (time - float(nodes[j])) * (node.real + last.real) / 2.0
                row_peak = max(row_peak, -last.real)
            sums.append((row_chord, row_trapezoid, row_peak))
        chord += block_chord
        trapezoid -= block_trapezoid
        peak = max(peak, -float(fresh.real.min()))
        u[0], t[0] = u[count], t[count]
    sums.append((chord, trapezoid, peak))
    return sums


def _extrapolated_unit_sums(samples: int) -> tuple[float, float, float]:
    """:func:`_unit_sums` of one period at delta = 1, Richardson-extrapolated.

    ``samples`` must be odd, so that (samples + 1) // 2 samples make every
    other one of the grid.  Each of the chord sum and the trapezoid is
    S_N + (S_N - S_half) / 3 = (4 S_N - S_half) / 3, written so that it
    overflows only where S_N does.  On M = N - 1 intervals the unit chord
    sum is off by M sin(x/M) - x = -x**3 / (6 M**2) + x**5 / (120 M**4) - ...
    at x = 2 pi, so the extrapolation leaves -x**5 / (30 M**4) to leading
    order.  The trapezoid of 1 - cos over one period is exact up to rounding.
    """
    if _require_samples(samples) % 2 == 0:
        raise ValueError(f"an eta sweep needs an odd number of samples, got {samples}")
    ((chord, trapezoid, peak),) = _unit_sums(1.0, [2.0 * math.pi], samples)
    ((coarse_chord, coarse_trapezoid, _),) = _unit_sums(1.0, [2.0 * math.pi], (samples + 1) // 2)
    return (
        chord + (chord - coarse_chord) / 3.0,
        trapezoid + (trapezoid - coarse_trapezoid) / 3.0,
        peak,
    )


def _scaled_phases(
    ratio: float, energy_scale: float, tau: float, samples: int, unit: tuple[float, float, float]
) -> tuple[float, float]:
    """Geometric and dynamic phase of the constant-drive path from its ``unit`` loop sums.

    The path is i*ratio*exp(i*phi_l)*u on the samples up to ``tau`` that
    ``unit`` sums (:func:`_unit_sums`), so its chord sum is ratio**2 times
    that of u, and its trapezoid of <H> = energy_scale * (1 - cos(delta*t))
    is energy_scale times the unit one.  The checks of
    :func:`~loopgate.phasespace._block_phases` run in its order, from
    scalars and the last two times of ``np.linspace(0, tau, samples)``: the
    peak |path| = |ratio| * sqrt(2 * max(1 - cos)), the times, the scaled
    chord sum, the peak energy energy_scale * max(1 - cos) and the scaled
    integral.
    """
    chord, trapezoid, peak = unit
    last = _grid_times(np.array([samples - 2, samples - 1]), tau, samples)
    _require_grid_path(last, samples, math.isfinite(abs(ratio) * math.sqrt(2.0 * peak)))
    geometric = _require_finite_chord(ratio * ratio * chord)
    return geometric, _require_finite_dynamic(
        math.isfinite(energy_scale * peak), energy_scale * trapezoid
    )


def _chord_bound(drive: ConstantDriveParams, window: float, samples: int) -> float:
    """r**2 * x**3 / (6 * (samples - 1)**2), x = |delta * window|: a time scan's chord error bound."""
    x = abs(drive.delta * window)
    return drive.ratio * drive.ratio * x * x * x / (6.0 * (samples - 1) ** 2)


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
    bound = _chord_bound(drive, window, 2)  # r**2 x**3 / 6, on one interval
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
    within ``oracle_tolerance``; each oracle time must lie on the step grid,
    and an overlap that drops below the oracle's floor raises
    :class:`~loopgate.errors.UndefinedPhaseError`.

    ``samples=None`` takes :func:`_noncyclic_samples` of the latest time, and
    raises ValueError when that exceeds ``drives.MAX_SAMPLES``.

    One walk of the unit loop over ``np.linspace(0, t_max, samples)`` serves
    every row (:func:`_unit_sums`): the row at t_max is the whole grid, and
    an earlier time t_k takes the nodes up to t_k and one partial interval
    to t_k.  With x = delta*t_max, M = samples - 1 and h = t_max / M the
    common spacing, the default count keeps r**2 x**3 / (6 M**2) within
    ``analytic_tolerance / 4``.  An earlier row's chord error,
    r**2 (delta t_k) (delta h)**2 / 6, is then within that bound, since
    delta t_k <= x and (delta h)**2 = x**2 / M**2; so is its trapezoid error,
    r**2 (delta h)**2 |sin(delta t_k)| / 6, since |sin(delta t_k)| <= x.  A
    failing row whose bound at the given count passes a quarter of the
    tolerance names the count that holds it.
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
    _require_samples(samples)

    oracle_samples = None
    if oracle_settings is not None and max(times) > 0.0:
        window = max(times)
        profile = constant_drive(drive, periods=window / period)
        propagation = oracle_settings.propagate(profile, window, times)
        extract_total_phase(propagation, 1)  # the overlap floor
        oracle_samples = propagation.samples

    energy_scale = drive.energy_scale  # raises ValueError when omega_d**2 overflows
    walked = sorted({t for t in times if t > 0.0})
    sums = dict(zip(walked, _unit_sums(drive.delta, walked, samples))) if walked else {}
    rows = []
    max_dev_analytic = 0.0
    max_dev_oracle = 0.0
    for i, t in enumerate(times):
        phi = analytic_total_phase(drive.ratio, drive.delta, t)
        if t == 0.0:
            geometric = 0.0
            dyn = 0.0
        else:
            geometric, dyn = _scaled_phases(drive.ratio, energy_scale, t, samples, sums[t])
        dev_geometric = abs(geometric + phi)
        dev_dynamic = abs(dyn - 2.0 * phi)
        max_dev_analytic = max(max_dev_analytic, dev_geometric, dev_dynamic)
        if dev_geometric > analytic_tolerance or dev_dynamic > analytic_tolerance:
            raise InternalConsistencyError(
                f"analytic phase relations violated at t={t}: "
                f"geometric residual {dev_geometric:.3e}, dynamic residual {dev_dynamic:.3e}"
                + _undersampling_note(drive, max(times), samples, analytic_tolerance)
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


def _undersampling_note(
    drive: ConstantDriveParams, window: float, samples: int, tolerance: float
) -> str:
    """What a failed time scan adds when its chord bound passes a quarter of ``tolerance``.

    It names the count :func:`_noncyclic_samples` takes, where that count
    holds the bound, and the cap when the count passes it; otherwise, and
    when the bound holds, nothing.
    """
    bound = _chord_bound(drive, window, samples)
    needed = _noncyclic_samples(drive, window, tolerance)
    if not bound > tolerance / 4.0 >= _chord_bound(drive, window, needed):
        return ""
    note = (
        f"; {samples} samples bound the chord error by {bound:.2g}, "
        f"--samples {needed} or more holds {tolerance:g}"
    )
    return note + (f", above the cap {MAX_SAMPLES}" if needed > MAX_SAMPLES else "")


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
    |epsilon| in [1e-3, 1e-2] (when they hold at least two distinct |epsilon|).
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
        phi = analytic_total_phase(base.ratio, base.delta, tau)
        errors.append((eps, abs(phi - nominal_phase)))
        perturbed = phase_gate(phi)
        fidelity = gate_fidelity(perturbed, ideal)

        oracle_deviation = None
        if oracle_settings is not None:
            profile = constant_drive(base, periods=1.0 + eps)
            oracle_total = oracle_settings.propagate(profile, tau).decomposition(1).total
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
    """Slope of log(error) vs log|eps| over the (eps, error) pairs with |eps| in [1e-3, 1e-2].

    None unless those pairs hold two distinct |eps|, the least a line fit needs.
    """
    xs = []
    ys = []
    for eps, error in errors:
        if 1e-3 <= abs(eps) <= 1e-2 and error > 0.0:
            xs.append(math.log(abs(eps)))
            ys.append(math.log(error))
    if len(set(xs)) < 2:
        return None
    return float(np.polyfit(xs, ys, 1)[0])


def eta_invariance_sweep(spec: SweepSpec, *, samples: int = ETA_SWEEP_SAMPLES) -> SweepReport:
    """eta over a one-parameter family of closed one-period loops.

    The swept parameter is one of omega_over_delta (detuning fixed), delta
    (ratio fixed, so the loop shape is preserved while the traversal speed
    changes), or phi_l.  Every point is evaluated at exactly one period, so
    the loop is closed and eta is well defined; the metadata summarizes
    max |eta + 2| for the analytic rows and, when oracle settings are given,
    for the brute-force rows as well.  Every point scales one unit loop,
    integrated once per sweep and extrapolated from every other sample
    (:func:`_extrapolated_unit_sums`), so ``samples`` must be odd; an even
    count raises ValueError.
    """
    rows = []
    max_eta_dev = 0.0
    max_eta_dev_oracle = None
    sums = None
    for value in spec.grid:
        params = _apply_parameter(spec.base, spec.parameter, value)
        energy_scale = params.energy_scale  # raises ValueError when omega_d**2 overflows
        if sums is None:
            sums = _extrapolated_unit_sums(samples)
        chord, trapezoid, peak = sums
        # The unit loop runs over delta*t, so its trapezoid is divided by delta.
        unit = chord, trapezoid / params.delta, peak
        geometric, dyn = _scaled_phases(params.ratio, energy_scale, params.period, samples, unit)
        decomposition = decompose(geometric, dyn)
        if decomposition.eta is not None:
            max_eta_dev = max(max_eta_dev, abs(decomposition.eta + 2.0))

        oracle_deviation = None
        if spec.oracle_settings is not None:
            propagation = spec.oracle_settings.propagate(constant_drive(params), params.period)
            oracle = propagation.decomposition(1)
            oracle_deviation = max(
                abs(oracle.total - decomposition.total),
                abs(oracle.geometric - geometric),
                abs(oracle.dynamic - dyn),
            )
            if oracle.eta is not None:
                dev = abs(oracle.eta + 2.0)
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


def _loop_blocks(loop: DriveProfile, samples: int, work: _Workspace):
    """Times, path and <H> of ``loop`` on the blocks of :func:`~loopgate.drives._walk`.

    <H> = 2 Im(f conj(alpha)) at conditioner eigenvalue 1, written over f;
    an overflowing real part of the product leaves the imaginary part intact.
    """
    for t, f, alpha in _walk(loop, loop.total_duration, samples, work):
        np.multiply(f, np.conjugate(alpha, out=work.scratch[: t.size]), out=f)
        energy = f.imag
        energy *= 2.0
        yield t, alpha, energy


def area_invariance_study(
    loops: Sequence[DriveProfile],
    *,
    samples: int = AREA_STUDY_SAMPLES,
    agreement_tolerance: float = 1e-6,
    closure_tolerance: float = DEFAULT_CLOSURE_TOLERANCE,
) -> SweepReport:
    """Geometric phases of closed loops that share one enclosed area.

    Each profile must close (open loops are rejected).  Its phases are the
    chord sum and the trapezoid on :func:`~loopgate.drives._walk`, exact on
    pulses; ``samples`` sets the resolution of tones only.  The
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
        require_closed(loop, tolerance=closure_tolerance, name=f"loop {index}")
        work = _workspace()
        geometric, dyn = _block_phases(lambda: _loop_blocks(loop, samples, work), samples, work)
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
