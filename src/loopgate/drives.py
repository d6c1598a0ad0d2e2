"""Drive profiles for a conditionally displaced oscillator.

A drive is the time-dependent coefficient f(t) of the displacement generator

    H(t) = -i * (f(t) a_dag - conj(f(t)) a) * C,

where C is a spin conditioner (see :mod:`loopgate.gates`).  Starting from the
vacuum, a spin sector with conditioner eigenvalue beta follows the coherent
path alpha_beta(t) = -beta * integral_0^t f(s) ds, so the drive alone fixes
the phase-space loop geometry and every phase in the problem.

Profiles are piecewise: each segment carries f(s) = amplitude * exp(-i *
frequency * s) in local segment time s, a constant pulse (frequency 0) or a
detuned tone, so every path has a closed form.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from ._serialize import SCHEMA_VERSION, of_kind, require_schema_version
from .errors import ConfigError, LoopNotClosedError, SingularDetuningError, UnreachablePhaseError
from .phasespace import (
    DEFAULT_CLOSURE_TOLERANCE,
    Trajectory,
    _all_finite,
    _exp_factors,
    _exp_rows,
    _require_finite_dynamic,
    _require_positive_delta,
    _sin_minus_x_over_square,
    _trapezoid_sum,
    _Workspace,
    _workspace,
    loop_closes,
)

if TYPE_CHECKING:
    from .gates import SpinConditioner

# Default quadrature sampling for drive functionals.
DEFAULT_DRIVE_SAMPLES = 20_001

# Cap on quadrature samples.  The quadratures stream their grid in blocks, so
# the cap bounds only the arrays of an induced trajectory, a few per sample
# (75 MB at the cap for three segments, its copies included).
MAX_SAMPLES = 1_000_001

# Largest |target phase| design_constant_drive accepts; keeps the loop radius
# at or below 2, where the default oracle truncation stays comfortable.
DESIGN_PHASE_CAP = 8.0 * math.pi


@dataclass(frozen=True)
class ConstantDriveParams:
    """Constant-amplitude drive a fixed detuning away from oscillator resonance.

    ``omega_d`` is the drive strength, ``delta`` the detuning (positive), and
    ``phi_l`` the drive phase.  The induced loop is a circle of radius
    |omega_d/delta| that closes after each period 2*pi/delta.
    """

    omega_d: float
    delta: float
    phi_l: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.omega_d):
            raise ValueError(f"omega_d must be finite, got {self.omega_d}")
        _require_positive_delta(self.delta)
        if not math.isfinite(self.period):
            raise SingularDetuningError(
                f"detuning {self.delta:g} is too small: its loop period 2*pi/delta overflows"
            )
        if not math.isfinite(self.phi_l):
            raise ValueError(f"phi_l must be finite, got {self.phi_l}")

    @property
    def ratio(self) -> float:
        """Drive strength over detuning; the loop radius."""
        return self.omega_d / self.delta

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.delta

    @property
    def energy_scale(self) -> float:
        """2*omega_d**2/delta, so that <H> = energy_scale * (1 - cos(delta*t)) on the path.

        Raises ValueError when omega_d**2 overflows.
        """
        try:
            return 2.0 * self.omega_d**2 / self.delta
        except OverflowError:
            raise ValueError(f"omega_d^2 overflows at omega_d = {self.omega_d:g}") from None


@dataclass(frozen=True)
class DriveSegment:
    """One piece of a drive: f(s) = amplitude * exp(-i * frequency * s).

    ``s`` is local time in [0, duration]: a pulse at frequency 0, else a tone.
    """

    duration: float
    amplitude: complex = 0.0 + 0.0j
    frequency: float = 0.0

    # Always None, and not a field: perfbench/tracer.py keys drives on id(segment.func).
    func = None

    def __post_init__(self) -> None:
        if not (self.duration > 0.0 and math.isfinite(self.duration)):
            raise ValueError(f"segment duration must be positive and finite, got {self.duration}")
        amplitude = complex(self.amplitude)
        if not (math.isfinite(amplitude.real) and math.isfinite(amplitude.imag)):
            raise ValueError("segment amplitude must be finite")
        if not math.isfinite(self.frequency):
            raise ValueError("segment frequency must be finite")
        if not math.isfinite(self.frequency * self.duration):
            raise ValueError(
                f"segment phase frequency * duration overflows: "
                f"{self.frequency:g} * {self.duration:g}"
            )
        object.__setattr__(self, "amplitude", amplitude)

    # Where a closed form overflows, values and alpha_increment return
    # non-finite entries without a warning; the checks that read them name it.

    def values(self, s: np.ndarray) -> np.ndarray:
        """f evaluated at local times ``s``."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.amplitude * np.exp(-1j * self.frequency * np.asarray(s))

    def alpha_increment(self, s: np.ndarray) -> np.ndarray:
        """-integral_0^s f(u) du at local times ``s``, in closed form."""
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.frequency == 0.0:
                return -self.amplitude * s
            rotation = np.exp(-1j * self.frequency * s)
            return -self.amplitude * (1.0 - rotation) / (1j * self.frequency)


@dataclass(frozen=True)
class DriveProfile:
    """A sequence of drive segments applied under a single spin conditioner.

    ``segment_starts`` and ``segment_alpha_starts`` (read-only) hold the time
    and alpha at the start of each segment, from 0, and
    ``segment_alpha_increments`` each segment's ``alpha_increment`` over its
    whole duration; they are computed once, at construction.  Every segment
    must start strictly before the next one and end at a finite time and a
    finite alpha; otherwise ValueError names the first segment that float
    arithmetic cannot lay out.
    """

    segments: tuple[DriveSegment, ...]
    conditioner: "SpinConditioner"
    total_duration: float = 0.0

    def __post_init__(self) -> None:
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("a drive profile needs at least one segment")
        # Python floats overflow without numpy's warnings, so a refusal comes alone.
        starts = list(itertools.accumulate((s.duration for s in segments), initial=0.0))
        increments = [complex(s.alpha_increment(s.duration)) for s in segments]
        alphas = list(itertools.accumulate(increments))
        for i, (segment, start, end, alpha) in enumerate(zip(segments, starts, starts[1:], alphas)):
            if not start < end < math.inf:
                raise ValueError(
                    f"segment {i} must end after its start, at a finite time: "
                    f"{start:g} + {segment.duration:g} rounds to {end:g}"
                )
            if not cmath.isfinite(alpha):
                raise ValueError(f"segment {i} ends at a non-finite alpha: the path overflows")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "total_duration", float(sum(s.duration for s in segments)))
        for name, values in (("segment_starts", starts[:-1]),
                             ("segment_alpha_starts", [0j, *alphas[:-1]]),
                             ("segment_alpha_increments", increments)):
            values = np.array(values)
            values.flags.writeable = False
            object.__setattr__(self, name, values)


def constant_drive(
    params: ConstantDriveParams,
    periods: float = 1.0,
    conditioner: "SpinConditioner | None" = None,
) -> DriveProfile:
    """Drive profile for a constant-amplitude detuned tone over ``periods`` loops.

    The default conditioner restricts the displacement to the odd-parity
    two-qubit states, which is the configuration that produces the two-qubit
    phase gate out of a single shared loop.
    """
    if not (periods > 0.0 and math.isfinite(periods)):
        raise ValueError(f"periods must be positive and finite, got {periods}")
    if conditioner is None:
        from .gates import odd_parity_projector

        conditioner = odd_parity_projector()
    segment = DriveSegment(
        duration=periods * params.period,
        amplitude=-params.omega_d * np.exp(1j * params.phi_l),
        frequency=params.delta,
    )
    return DriveProfile(segments=(segment,), conditioner=conditioner)


def four_pulse_sequence(
    amplitudes: Sequence[complex],
    durations: Sequence[float],
    conditioner: "SpinConditioner | None" = None,
) -> DriveProfile:
    """Piecewise-constant profile of four pulses.

    Each pulse moves alpha along the straight chord -amplitude * duration, so
    four pulses trace a quadrilateral.  Closure requires the four chords to
    sum to zero; use :func:`require_closed` to check.
    """
    if len(amplitudes) != 4 or len(durations) != 4:
        raise ValueError("exactly four amplitudes and four durations are required")
    if conditioner is None:
        from .gates import jz_conditioner

        conditioner = jz_conditioner()
    segments = tuple(
        DriveSegment(duration=float(d), amplitude=complex(c)) for c, d in zip(amplitudes, durations)
    )
    return DriveProfile(segments=segments, conditioner=conditioner)


def _window_slack(drive: DriveProfile) -> float:
    """Rounding slack at each end of the drive window [0, duration]; the one rule for all checks."""
    return 1e-12 * max(1.0, drive.total_duration)


def _require_window(drive: DriveProfile, low: float, high: float) -> None:
    """Check that times from ``low`` to ``high`` lie in the drive window, up to rounding slack."""
    slack = _window_slack(drive)
    if low < -slack or high > drive.total_duration + slack:
        raise ValueError(
            f"time outside the drive window [0, {drive.total_duration}]: range [{low}, {high}]"
        )


def _locate(drive: DriveProfile, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment index and local time for each global time, validating the range."""
    t = np.asarray(t, dtype=float)
    if t.size:
        _require_window(drive, t.min(), t.max())
    t = np.clip(t, 0.0, drive.total_duration)
    starts = drive.segment_starts
    index = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(drive.segments) - 1)
    return index, t - starts[index]


def alpha_array(drive: DriveProfile, t: Sequence[float] | np.ndarray) -> np.ndarray:
    """Phase-space positions alpha(t) = -integral_0^t f for an array of times.

    The times are grouped by segment once, by a stable sort of their segment
    index, which costs one pass on sorted times; each segment then evaluates
    its own contiguous share.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    index, local = _locate(drive, t.ravel())
    order = np.argsort(index, kind="stable")
    ends = np.searchsorted(index[order], np.arange(len(drive.segments) + 1))
    alpha_starts = drive.segment_alpha_starts
    out = np.empty(t.size, dtype=complex)
    for i, segment in enumerate(drive.segments):
        if ends[i] < ends[i + 1]:
            share = order[ends[i]:ends[i + 1]]
            out[share] = alpha_starts[i] + segment.alpha_increment(local[share])
    return out.reshape(t.shape)


def _path_end(drive: DriveProfile, tau: float | None) -> tuple[int, float, complex]:
    """Segment i holding ``tau`` (None: the full duration), tau's local time in it, its increment.

    alpha(tau) is ``segment_alpha_starts[i]`` plus that increment, read off
    segment i alone, as :func:`alpha_array` reads it.
    """
    tau = drive.total_duration if tau is None else float(tau)
    # _locate's rule, on one Python float.
    _require_window(drive, tau, tau)
    tau = min(max(tau, 0.0), drive.total_duration)
    starts = drive.segment_starts
    i = min(max(bisect.bisect_right(starts, tau) - 1, 0), len(starts) - 1)
    local = tau - float(starts[i])
    return i, local, complex(drive.segments[i].alpha_increment(np.array([local]))[0])


def closure_residual(drive: DriveProfile, tau: float | None = None) -> float:
    """|alpha(tau) - alpha(0)|, with alpha(0) = 0: zero exactly when the loop closes at ``tau``."""
    i, _, increment = _path_end(drive, tau)
    return float(abs(drive.segment_alpha_starts[i] + increment))


def peak_alpha(drive: DriveProfile, tau: float | None = None) -> float:
    """Largest |alpha(t)| over [0, tau], exact up to rounding, at one step per segment.

    A pulse moves alpha along a chord, so its |alpha| peaks at one of its two
    vertices.  A tone's arc lies on the circle of centre a + i*A/w and radius
    |A/w| (a its start vertex, A its amplitude, w its frequency), which it
    turns clockwise for w > 0; it reaches |centre| + radius if it turns past
    the circle's far point, at arg(centre), and peaks at a vertex otherwise.
    """
    last, local, increment = _path_end(drive, tau)
    starts = drive.segment_alpha_starts.tolist()
    # Each segment's end vertex: the next one's start, or alpha(tau) in the last.
    ends = [*starts[1 : last + 1], starts[last] + increment]
    peak = 0.0
    for i, (segment, start, end) in enumerate(zip(drive.segments, starts, ends)):
        peak = max(peak, abs(start), abs(end))
        w, amplitude = segment.frequency, segment.amplitude
        if w != 0.0:
            length = local if i == last else segment.duration
            # i*A/w, formed apart so an infinite quotient makes no NaN.
            centre = start + complex(-amplitude.imag / w, amplitude.real / w)
            # The arc starts at angle arg(-i*A/w) about the centre and turns by -w*s.
            turn = cmath.phase(complex(amplitude.imag, -amplitude.real) / w) - cmath.phase(centre)
            if (turn if w > 0.0 else -turn) % (2.0 * math.pi) <= abs(w) * length:
                # Never past the path length from the start, where rounding gives inf.
                far = abs(centre) + abs(amplitude / w)
                peak = max(peak, min(far, abs(start) + abs(amplitude) * length))
    return peak


def require_closed(
    drive: DriveProfile,
    tau: float | None = None,
    tolerance: float = DEFAULT_CLOSURE_TOLERANCE,
    name: str = "loop",
) -> float:
    """The closure residual of a loop that must close at ``tau``; the one closed-loop check.

    The loop closes when :func:`~loopgate.phasespace.loop_closes` accepts
    its residual against ``tolerance`` and the :func:`peak_alpha` rounding
    floor.  Otherwise :class:`LoopNotClosedError` carries the residual, and
    its message starts with ``name``.
    """
    if tau is None:
        tau = drive.total_duration
    residual = closure_residual(drive, tau)
    if not loop_closes(residual, tolerance, lambda: peak_alpha(drive, tau)):
        raise LoopNotClosedError(
            f"{name} is open at tau={tau:.12g}: closure residual {residual:.6e} "
            f"exceeds {tolerance:.3e}",
            residual,
        )
    return residual


def _require_samples(samples: int) -> int:
    """``samples`` after checking that it makes a grid of at least two samples."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    return samples


def _grid_times(
    index: np.ndarray, tau: float, samples: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``np.linspace(0.0, tau, samples)[index]``, bit for bit, at increasing float sample numbers.

    linspace takes sample k to k * (tau / (samples - 1)), or to
    k / (samples - 1) * tau when that step underflows to 0, and sets the
    last sample to tau.  ``out`` may be ``index`` itself.
    """
    ends = index[-1] == samples - 1
    step = tau / (samples - 1)
    if step == 0.0:
        out = np.divide(index, samples - 1, out=out)
        out *= tau
    else:
        out = np.multiply(index, step, out=out)
    if ends:
        out[-1] = tau
    return out


def _segment_bounds(drive: DriveProfile, time: Callable[[int], float], count: int) -> list[int]:
    """``[0, b_1, ..., count]``: sample k of ``count`` lies in segment i for b_i <= k < b_(i+1).

    b_i is the first k with ``time(k)`` at or past the start of segment i,
    found by bisection, so the times must not decrease.  Each sample then
    belongs to the segment :func:`_locate` assigns it to, clipping included.
    """
    starts = drive.segment_starts[1:]
    return [0, *(bisect.bisect_left(range(count), start, key=time) for start in starts), count]


def _local_times(t: np.ndarray, start: float, end: float, out: np.ndarray) -> np.ndarray:
    """Increasing times ``t`` clipped to [0, end], less ``start``: :func:`_locate`'s local times."""
    if t[0] < 0.0 or t[-1] > end:
        t = np.clip(t, 0.0, end, out=out)
    return np.subtract(t, start, out=out)


def _walk(
    drive: DriveProfile, tau: float, samples: int, work: _Workspace
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Times, f and alpha on consecutive blocks of [0, tau], segment by segment.

    Segment i's blocks run from its start vertex to its end vertex, or to
    ``tau``, with f taken from segment i at both.  A pulse is one block of its
    two vertices, on which its chord and its trapezoid are exact.  A tone also
    takes the points of ``np.linspace(0.0, tau, samples)`` strictly inside it,
    bit for bit, from rows of the :func:`~loopgate.phasespace._exp_factors`
    table of its whole run (the samples :func:`_locate` assigns it), so they
    do not depend on where blocks split it.

    Each block brings up to ``work.block`` new samples, and each block of a
    segment after its first starts with the previous block's last sample, so
    a chord sum or a trapezoid adds up block by block.  The arrays are views
    of ``work`` that the next block overwrites; the caller may write to f,
    alpha and ``work.scratch``, which the walk uses only while it builds a
    block.  No complex product overwrites one of its operands: numpy rounds
    some such products differently.
    """
    _require_samples(samples)
    _require_window(drive, 0.0, tau)
    end = drive.total_duration
    starts = drive.segment_starts
    step = tau / (samples - 1)

    def time(k: int) -> float:
        # Sample k by the rule of _grid_times.
        if k == samples - 1:
            return tau
        return k * step if step else k / (samples - 1) * tau

    bounds = _segment_bounds(drive, time, samples)

    def local(i: int, index: np.ndarray) -> np.ndarray:
        t = _grid_times(np.add(index, bounds[i], dtype=float), tau, samples)
        return _local_times(t, starts[i], end, out=t)

    work.reserve(min(work.block, samples) + 1)
    for i, segment in enumerate(drive.segments):
        if starts[i] >= tau:
            break
        amplitude, alpha_start = segment.amplitude, drive.segment_alpha_starts[i]
        stop_time = min(starts[i + 1], tau) if i + 1 < len(starts) else tau
        # Grid samples lo to hi - 1 lie strictly inside a tone; a pulse takes none.
        lo = bisect.bisect_right(range(samples), starts[i], key=time)
        hi = bisect.bisect_left(range(samples), stop_time, key=time) if segment.frequency else lo
        count = max(hi - lo, 0) + 2
        if count > 2:
            size = bounds[i + 1] - bounds[i]
            table = _exp_factors(segment.frequency, size, lambda k: local(i, k))
        for first in range(0, count, work.block):
            # The segment's samples first to stop - 1, after the carried one.
            stop = min(first + work.block, count)
            offset = min(first, 1)
            new = slice(offset, offset + stop - first)
            t, f, alpha = work.times[: new.stop], work.f[: new.stop], work.alpha[: new.stop]
            if first:
                t[0], f[0], alpha[0] = carried
            times = np.add(work.ramp[: stop - first], lo - 1 + first, out=t[new])
            _grid_times(times, tau, samples, out=times)
            # The vertices; a tone's rotation exp(-i w s) is 1 at its start.
            rotation, scratch = alpha[new], work.scratch[new]
            if first == 0:
                t[0], rotation[0] = starts[i], 1.0
            if stop == count:
                t[-1] = stop_time
                rotation[-1] = np.exp(-1j * segment.frequency * (min(stop_time, end) - starts[i]))
            if segment.frequency == 0.0:
                # alpha = alpha_start - amplitude * s, with s held as s + 0j.
                _local_times(t, starts[i], end, out=rotation.real)
                rotation.imag = 0.0
                np.add(alpha_start, np.multiply(-amplitude, rotation, out=scratch), out=rotation)
                f[...] = amplitude
            else:
                # The rotation inside a tone, from rows of its table.
                low, high = max(first, 1) - first, min(stop, count - 1) - first
                if low < high:
                    row, rows = lo - bounds[i] - 1 + first, slice(low, high)
                    _exp_rows(table, row + low, row + high, size, rotation[rows], scratch[rows])
                np.multiply(amplitude, rotation, out=f[new])
                increment = np.subtract(1.0, rotation, out=scratch)
                np.multiply(-amplitude, increment, out=rotation)
                np.divide(rotation, 1j * segment.frequency, out=scratch)
                np.add(alpha_start, scratch, out=rotation)
            # Carried before the caller overwrites f and alpha.
            carried = t[-1], f[-1], alpha[-1]
            yield t, f, alpha


def induced_trajectory(
    drive: DriveProfile,
    tau: float | None = None,
    samples: int = DEFAULT_DRIVE_SAMPLES,
) -> Trajectory:
    """Sample the phase-space path the drive induces on ``np.linspace(0, tau, samples)``."""
    if tau is None:
        tau = drive.total_duration
    t = np.linspace(0.0, float(tau), _require_samples(samples))
    return Trajectory(t, alpha_array(drive, t))


def _require_tau(drive: DriveProfile, tau: float | None) -> float:
    """``tau`` as a float, the full duration when None; it must lie in (0, duration]."""
    tau = drive.total_duration if tau is None else float(tau)
    if not (0.0 < tau <= drive.total_duration + _window_slack(drive)):
        raise ValueError(f"tau must lie in (0, {drive.total_duration}], got {tau}")
    return tau


def gamma0(drive: DriveProfile, tau: float | None = None, samples: int = DEFAULT_DRIVE_SAMPLES) -> float:
    """Loop phase functional per unit squared conditioner eigenvalue.

    Evaluates (i/2) * integral_0^tau (conj(alpha) f - alpha conj(f)) dt by
    trapezoidal quadrature on the samples of :func:`_walk`: a pulse adds its
    exact term from its two vertices, and ``samples`` sets the resolution of
    tones only.  The bracket is purely imaginary (it equals
    2i * Im(conj(alpha) f)), so the value is -integral Im(conj(alpha) f) dt;
    an integrand that overflows raises ValueError.

    A spin sector with conditioner eigenvalue beta accumulates the total phase
    beta**2 * gamma0(tau), split as geometric -beta**2 * gamma0 and dynamic
    +2 * beta**2 * gamma0.
    """
    tau = _require_tau(drive, tau)
    phase = 0.0
    work = _workspace()
    with np.errstate(over="ignore", invalid="ignore"):
        for t, f, alpha in _walk(drive, tau, samples, work):
            z = np.multiply(np.conjugate(alpha, out=work.scratch[: t.size]), f, out=alpha)
            # Only the imaginary part is integrated, and numpy forms it apart
            # from the real part, which may overflow on its own.
            if not _all_finite(z.imag, work.flags):
                raise ValueError(
                    "loop-phase integrand conj(alpha) f is not finite: "
                    "the drive or its path overflows"
                )
            phase += _trapezoid_sum(z.imag, t, f.view(float))
    return _require_finite_dynamic(True, phase)


def loop_phase(drive: DriveProfile, tau: float | None = None) -> float:
    """The loop phase :func:`gamma0` integrates, in closed form: one exact term per segment.

    Segment i runs from its start vertex a_i by the increment d_i over its
    length L up to ``tau``.  It adds Im(conj(a_i) * d_i), twice the signed
    area between the origin and its chord; a tone of amplitude A and
    frequency w also adds |A|**2 (sin(wL) - wL) / w**2, twice the signed
    area between its arc and its chord.  That term is formed as
    (|A| L)**2 (sin x - x) / x**2 at x = wL, which overflows only where the
    term does and keeps the term where x**2 underflows.  Only the segment
    holding ``tau`` evaluates its increment; the others read the ones the
    profile stored.  ``tau`` must lie in (0, duration], and a phase that
    overflows raises ValueError.
    """
    last, local, increment = _path_end(drive, _require_tau(drive, tau))
    starts = drive.segment_alpha_starts.tolist()
    increments = [*drive.segment_alpha_increments[:last].tolist(), increment]
    phase = 0.0
    for i, (segment, start, step) in enumerate(zip(drive.segments, starts, increments)):
        phase += start.real * step.imag - start.imag * step.real
        if segment.frequency:
            length = local if i == last else segment.duration
            # Python floats overflow to inf here, where ** would raise.
            scale = math.hypot(segment.amplitude.real, segment.amplitude.imag) * length
            phase += scale * _sin_minus_x_over_square(segment.frequency * length) * scale
    if not math.isfinite(phase):
        raise ValueError("loop phase is not finite: the drive or its path overflows")
    return phase


def design_constant_drive(
    target_phase: float, delta: float, phi_l: float = 0.0
) -> ConstantDriveParams:
    """Constant-drive parameters whose one-period loop yields ``target_phase``.

    The one-period total phase of this family is -2*pi*(omega_d/delta)**2,
    so only targets in [-{cap}, 0) are reachable; anything else raises
    :class:`UnreachablePhaseError`.  The cap keeps the loop radius at or
    below 2 so the default oracle truncation remains adequate.
    """
    _require_positive_delta(delta)
    if not math.isfinite(target_phase) or target_phase >= 0.0:
        raise UnreachablePhaseError(
            f"one-period loop phases of this family are negative, got {target_phase}"
        )
    if -target_phase > DESIGN_PHASE_CAP:
        raise UnreachablePhaseError(
            f"|target phase| exceeds the design cap {DESIGN_PHASE_CAP}: {target_phase}"
        )
    omega = delta * math.sqrt(-target_phase / (2.0 * math.pi))
    return ConstantDriveParams(omega_d=omega, delta=delta, phi_l=phi_l)


design_constant_drive.__doc__ = design_constant_drive.__doc__.format(cap=f"{DESIGN_PHASE_CAP:.6f}")


def constant_drive_h_expect(params: ConstantDriveParams) -> Callable:
    """Closed-form expectation 2*(omega_d**2/delta)*(1 - cos(delta*t)).

    This is <H> = 2*Im(f(t)*conj(alpha)) at conditioner eigenvalue 1,
    evaluated on the analytic constant-drive path; it depends on time only.
    """
    scale = params.energy_scale

    def h_expect(alpha, t):
        values = scale * (1.0 - np.cos(params.delta * np.asarray(t, dtype=float)))
        return values if np.ndim(t) else float(values)

    return h_expect


def drive_to_dict(drive: DriveProfile) -> dict:
    """Serialize a profile to the JSON-compatible drive schema."""
    segments = [
        {
            "duration": segment.duration,
            "amplitude": [segment.amplitude.real, segment.amplitude.imag],
            "frequency": segment.frequency,
        }
        for segment in drive.segments
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "conditioner": drive.conditioner.name,
        "segments": segments,
    }


def drive_from_dict(data: dict) -> DriveProfile:
    """Rebuild a profile from the drive schema, rejecting unknown keys."""
    from .gates import standard_conditioner

    if not isinstance(data, dict):
        raise ConfigError("drive document must be a JSON object")
    allowed = {"schema_version", "conditioner", "segments"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown drive keys: {sorted(unknown)}")
    missing = allowed - set(data)
    if missing:
        raise ConfigError(f"missing drive keys: {sorted(missing)}")
    require_schema_version(data["schema_version"], "drive")
    segments = []
    if not isinstance(data["segments"], list) or not data["segments"]:
        raise ConfigError("segments must be a nonempty list")
    for i, raw in enumerate(data["segments"]):
        if not isinstance(raw, dict):
            raise ConfigError(f"segment {i} must be an object")
        seg_allowed = {"duration", "amplitude", "frequency"}
        seg_unknown = set(raw) - seg_allowed
        if seg_unknown:
            raise ConfigError(f"segment {i} has unknown keys: {sorted(seg_unknown)}")
        if "duration" not in raw or "amplitude" not in raw:
            raise ConfigError(f"segment {i} needs duration and amplitude")
        amplitude = raw["amplitude"]
        if not (isinstance(amplitude, list) and len(amplitude) == 2):
            raise ConfigError(f"segment {i} amplitude must be a [re, im] pair")
        numbers = (raw["duration"], *amplitude, raw.get("frequency", 0.0))
        for key, value in zip(("duration", "amplitude", "amplitude", "frequency"), numbers):
            if not of_kind(value, float):
                raise ConfigError(f"segment {i} {key} must be a number, got {value!r}")
        try:
            duration, real, imag, frequency = map(float, numbers)
            segments.append(DriveSegment(duration, complex(real, imag), frequency))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"segment {i} is invalid: {exc}") from exc
    return DriveProfile(
        segments=tuple(segments), conditioner=standard_conditioner(data["conditioner"])
    )
