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
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, LoopNotClosedError, SingularDetuningError, UnreachablePhaseError
from .phasespace import (
    DEFAULT_CLOSURE_TOLERANCE,
    Trajectory,
    _all_finite,
    _exp_factors,
    _exp_rows,
    _require_finite_dynamic,
    _require_positive_delta,
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
# the cap bounds only the arrays of an induced trajectory, which have one
# entry per sample: its times and points (24 MB at the cap, and as much
# again while it copies them).
MAX_SAMPLES = 1_000_001

# Largest |target phase| design_constant_drive accepts; keeps the loop radius
# at or below 2, where the default oracle truncation stays comfortable.
DESIGN_PHASE_CAP = 8.0 * math.pi

SCHEMA_VERSION = 1


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

    ``segment_alpha_starts`` (read-only) holds alpha at the start of each
    segment, with alpha(0) = 0; it is computed once, at construction.
    """

    segments: tuple[DriveSegment, ...]
    conditioner: "SpinConditioner"
    total_duration: float = 0.0

    def __post_init__(self) -> None:
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("a drive profile needs at least one segment")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "total_duration", float(sum(s.duration for s in segments)))
        increments = [
            complex(seg.alpha_increment(np.array([seg.duration]))[0]) for seg in segments
        ]
        alpha_starts = np.concatenate([[0.0 + 0.0j], np.cumsum(increments)[:-1]])
        alpha_starts.flags.writeable = False
        object.__setattr__(self, "segment_alpha_starts", alpha_starts)

    @property
    def segment_starts(self) -> np.ndarray:
        durations = np.array([s.duration for s in self.segments])
        return np.concatenate([[0.0], np.cumsum(durations)[:-1]])


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
    """Phase-space positions alpha(t) = -integral_0^t f for an array of times."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    index, local = _locate(drive, t)
    alpha_starts = drive.segment_alpha_starts
    out = np.empty(t.shape, dtype=complex)
    for i, segment in enumerate(drive.segments):
        mask = index == i
        if np.any(mask):
            out[mask] = alpha_starts[i] + segment.alpha_increment(local[mask])
    return out


def closure_residual(drive: DriveProfile, tau: float | None = None) -> float:
    """|alpha(tau) - alpha(0)|: zero exactly when the loop closes at ``tau``."""
    if tau is None:
        tau = drive.total_duration
    endpoints = alpha_array(drive, np.array([0.0, float(tau)]))
    return float(abs(endpoints[1] - endpoints[0]))


def peak_alpha(drive: DriveProfile, tau: float | None = None) -> float:
    """Largest |alpha(t)| on 2001 evenly spaced times of [0, tau]."""
    if tau is None:
        tau = drive.total_duration
    t = np.linspace(0.0, float(tau), 2001)
    return float(np.max(np.abs(alpha_array(drive, t))))


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
    """Times, f and alpha on consecutive blocks of ``np.linspace(0.0, tau, samples)``.

    Each block brings up to ``work.block`` new samples, and every block after
    the first starts with the previous block's last sample, so a chord sum or
    a trapezoid adds up block by block.  The arrays are views of ``work``
    that the next block overwrites; the caller may write to f, alpha and
    ``work.scratch``, which the walk uses only while it builds a block.

    Times are the grid's bit for bit, and each sample belongs to the segment
    :func:`_locate` assigns it to.  A pulse fills its samples in place; a
    tone reads rows of the :func:`~loopgate.phasespace._exp_factors` table
    of its whole run, so its samples do not depend on where blocks split it.
    """
    _require_samples(samples)
    _require_window(drive, min(0.0, tau), max(0.0, tau))
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

    # A tone's table factors on its whole run.
    runs = {}
    for i, segment in enumerate(drive.segments):
        size = bounds[i + 1] - bounds[i]
        if size > 0 and segment.frequency != 0.0:
            runs[i] = _exp_factors(segment.frequency, size, lambda k, i=i: local(i, k))

    def fill(i: int, first: int, stop: int, run: slice) -> None:
        """Samples ``first`` to ``stop - 1`` of segment i's run into the block's ``run``.

        No complex product overwrites one of its operands: numpy rounds some
        such products differently, and a sample should not depend on where
        the blocks split its run.
        """
        segment = drive.segments[i]
        alpha_start = drive.segment_alpha_starts[i]
        amplitude = segment.amplitude
        f, alpha, scratch = work.f[run], work.alpha[run], work.scratch[run]
        if segment.frequency == 0.0:
            # alpha = alpha_start - amplitude * s, with s held as s + 0j.
            _local_times(work.times[run], starts[i], end, out=alpha.real)
            alpha.imag = 0.0
            np.add(alpha_start, np.multiply(-amplitude, alpha, out=scratch), out=alpha)
            f[...] = amplitude
        else:
            size = bounds[i + 1] - bounds[i]
            rotation = _exp_rows(runs[i], first, stop, size, out=alpha, tile=scratch)
            np.multiply(amplitude, rotation, out=f)
            increment = np.subtract(1.0, rotation, out=scratch)
            np.multiply(-amplitude, increment, out=alpha)
            np.divide(alpha, 1j * segment.frequency, out=scratch)
            np.add(alpha_start, scratch, out=alpha)

    work.reserve(min(work.block, samples) + 1)
    i = 0
    carried = None
    for first in range(0, samples, work.block):
        stop = min(first + work.block, samples)
        offset = 0 if carried is None else 1
        size = offset + stop - first
        t, f, alpha = work.times[:size], work.f[:size], work.alpha[:size]
        if carried is not None:
            t[0], f[0], alpha[0] = carried
        np.add(work.ramp[: stop - first], first, out=t[offset:])
        _grid_times(t[offset:], tau, samples, out=t[offset:])
        while True:
            low, high = max(bounds[i], first), min(bounds[i + 1], stop)
            if low < high:
                run = slice(offset + low - first, offset + high - first)
                fill(i, low - bounds[i], high - bounds[i], run)
            if bounds[i + 1] >= stop:
                break
            i += 1
        carried = t[-1], f[-1], alpha[-1]
        yield t, f, alpha


def induced_trajectory(
    drive: DriveProfile,
    tau: float | None = None,
    samples: int = DEFAULT_DRIVE_SAMPLES,
) -> Trajectory:
    """Sample the phase-space path the drive induces on [0, tau]."""
    if tau is None:
        tau = drive.total_duration
    times = np.empty(_require_samples(samples))
    points = np.empty(samples, dtype=complex)
    stop = 0
    for t, _, alpha in _walk(drive, float(tau), samples, _workspace()):
        start = max(stop - 1, 0)
        stop = start + t.size
        times[start:stop] = t
        points[start:stop] = alpha
    return Trajectory(times, points)


def _require_tau(drive: DriveProfile, tau: float | None) -> float:
    """``tau`` as a float, the full duration when None; it must lie in (0, duration]."""
    tau = drive.total_duration if tau is None else float(tau)
    if not (0.0 < tau <= drive.total_duration + _window_slack(drive)):
        raise ValueError(f"tau must lie in (0, {drive.total_duration}], got {tau}")
    return tau


def gamma0(drive: DriveProfile, tau: float | None = None, samples: int = DEFAULT_DRIVE_SAMPLES) -> float:
    """Loop phase functional per unit squared conditioner eigenvalue.

    Evaluates (i/2) * integral_0^tau (conj(alpha) f - alpha conj(f)) dt by
    trapezoidal quadrature.  The bracket is purely imaginary (it equals
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
    if data["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported drive schema_version: {data['schema_version']}")
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
            # bool is a subclass of int, so booleans are told apart first.
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"segment {i} {key} must be a number, got {value!r}")
        try:
            duration, real, imag, frequency = map(float, numbers)
            segments.append(DriveSegment(duration, complex(real, imag), frequency))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"segment {i} is invalid: {exc}") from exc
    return DriveProfile(
        segments=tuple(segments), conditioner=standard_conditioner(data["conditioner"])
    )
