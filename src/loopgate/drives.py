"""Drive profiles for a conditionally displaced oscillator.

A drive is the time-dependent coefficient f(t) of the displacement generator

    H(t) = -i * (f(t) a_dag - conj(f(t)) a) * C,

where C is a spin conditioner (see :mod:`loopgate.gates`).  Starting from the
vacuum, a spin sector with conditioner eigenvalue beta follows the coherent
path alpha_beta(t) = -beta * integral_0^t f(s) ds, so the drive alone fixes
the phase-space loop geometry and every phase in the problem.

Profiles are piecewise: each segment carries f(s) = amplitude * exp(-i *
frequency * s) in local segment time s, which covers constant pulses
(frequency 0), detuned tones, and, through an optional callable, arbitrary
shapes integrated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import ConfigError, SingularDetuningError, UnreachablePhaseError
from .phasespace import (
    DEFAULT_CLOSURE_TOLERANCE,
    Trajectory,
    _require_positive_delta,
    _trapezoid_phase,
    uniform_exp,
)

if TYPE_CHECKING:
    from .gates import SpinConditioner

# Default quadrature sampling for drive functionals.
DEFAULT_DRIVE_SAMPLES = 20_001

# Cap on quadrature samples: past it the sampled path and drive arrays of one
# quadrature outgrow about 100 MB.
MAX_SAMPLES = 1_000_001

# Internal grid resolution used to integrate callable segments.
_CALLABLE_RESOLUTION = 20_001

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

    ``s`` is local time in [0, duration].  When ``func`` is given it replaces
    the closed form entirely and is integrated by quadrature.
    """

    duration: float
    amplitude: complex = 0.0 + 0.0j
    frequency: float = 0.0
    func: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if not (self.duration > 0.0 and math.isfinite(self.duration)):
            raise ValueError(f"segment duration must be positive and finite, got {self.duration}")
        if self.func is None:
            amplitude = complex(self.amplitude)
            if not (math.isfinite(amplitude.real) and math.isfinite(amplitude.imag)):
                raise ValueError("segment amplitude must be finite")
            if not math.isfinite(self.frequency):
                raise ValueError("segment frequency must be finite")
            object.__setattr__(self, "amplitude", amplitude)
        elif self.amplitude != 0.0 + 0.0j or self.frequency != 0.0:
            raise ValueError("a callable segment must not also set amplitude or frequency")

    def values(self, s: np.ndarray) -> np.ndarray:
        """f evaluated at local times ``s``."""
        if self.func is not None:
            return np.asarray(self.func(s), dtype=complex)
        return self.amplitude * np.exp(-1j * self.frequency * np.asarray(s))

    def alpha_increment(self, s: np.ndarray) -> np.ndarray:
        """-integral_0^s f(u) du at local times ``s``, exact for closed forms."""
        s = np.asarray(s, dtype=float)
        if self.func is not None:
            grid = np.linspace(0.0, self.duration, _CALLABLE_RESOLUTION)
            values = np.asarray(self.func(grid), dtype=complex)
            cumulative = np.concatenate(
                [[0.0], np.cumsum((values[1:] + values[:-1]) * 0.5 * np.diff(grid))]
            )
            return -(
                np.interp(s, grid, cumulative.real) + 1j * np.interp(s, grid, cumulative.imag)
            )
        if self.frequency == 0.0:
            return -self.amplitude * s
        return self._tone_increment(np.exp(-1j * self.frequency * s))

    def _tone_increment(self, rotation: np.ndarray) -> np.ndarray:
        """alpha_increment of a tone given ``rotation`` = exp(-i * frequency * s)."""
        return -self.amplitude * (1.0 - rotation) / (1j * self.frequency)

    def _sample(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f and alpha_increment at the equally spaced local times ``s``.

        A tone takes both from one :func:`~loopgate.phasespace.uniform_exp`
        and a pulse needs no exponential; a callable is evaluated as in
        :meth:`values` and :meth:`alpha_increment`.
        """
        if self.func is not None:
            return self.values(s), self.alpha_increment(s)
        if self.frequency == 0.0:
            return np.full(s.shape, self.amplitude), -self.amplitude * s
        rotation = uniform_exp(self.frequency, s)
        return self.amplitude * rotation, self._tone_increment(rotation)


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
    sum to zero; use :func:`closure_residual` to check.
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


def _locate(drive: DriveProfile, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment index and local time for each global time, validating the range."""
    t = np.asarray(t, dtype=float)
    slack = 1e-12 * max(1.0, drive.total_duration)
    if np.any(t < -slack) or np.any(t > drive.total_duration + slack):
        raise ValueError(
            f"time outside the drive window [0, {drive.total_duration}]: "
            f"range [{t.min()}, {t.max()}]"
        )
    t = np.clip(t, 0.0, drive.total_duration)
    starts = drive.segment_starts
    index = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(drive.segments) - 1)
    return index, t - starts[index]


def f_array(drive: DriveProfile, t: Sequence[float] | np.ndarray) -> np.ndarray:
    """Drive values f(t) on an array of global times."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    index, local = _locate(drive, t)
    out = np.empty(t.shape, dtype=complex)
    for i, segment in enumerate(drive.segments):
        mask = index == i
        if np.any(mask):
            out[mask] = segment.values(local[mask])
    return out


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


def _sample_path(
    drive: DriveProfile, tau: float, samples: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times, f and alpha on ``samples`` evenly spaced times of [0, tau].

    One :func:`_locate` serves both arrays, and each segment fills its run of
    samples from :meth:`DriveSegment._sample`.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    t = np.linspace(0.0, float(tau), samples)
    index, local = _locate(drive, t)
    # t increases, so each segment owns one contiguous run of samples.
    bounds = np.searchsorted(index, np.arange(len(drive.segments) + 1))
    f = np.empty(t.shape, dtype=complex)
    alpha = np.empty(t.shape, dtype=complex)
    alpha_starts = drive.segment_alpha_starts
    for i, segment in enumerate(drive.segments):
        run = slice(bounds[i], bounds[i + 1])
        if run.start < run.stop:
            f[run], increment = segment._sample(local[run])
            alpha[run] = alpha_starts[i] + increment
    return t, f, alpha


def induced_trajectory(
    drive: DriveProfile,
    tau: float | None = None,
    samples: int = DEFAULT_DRIVE_SAMPLES,
    closure_tolerance: float = DEFAULT_CLOSURE_TOLERANCE,
) -> Trajectory:
    """Sample the phase-space path the drive induces on [0, tau]."""
    if tau is None:
        tau = drive.total_duration
    t, _, alpha = _sample_path(drive, tau, samples)
    return Trajectory(t, alpha, closure_tolerance)


def _require_tau(drive: DriveProfile, tau: float | None) -> float:
    """``tau`` as a float, the full duration when None; it must lie in (0, duration]."""
    tau = drive.total_duration if tau is None else float(tau)
    if not (0.0 < tau <= drive.total_duration * (1.0 + 1e-12)):
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
    with np.errstate(over="ignore", invalid="ignore"):
        t, f, alpha = _sample_path(drive, tau, samples)
        z = np.conj(alpha) * f
    if not np.all(np.isfinite(z)):
        raise ValueError(
            "loop-phase integrand conj(alpha) f is not finite: the drive or its path overflows"
        )
    return _trapezoid_phase(z.imag, t)


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
    segments = []
    for segment in drive.segments:
        if segment.func is not None:
            raise ConfigError("callable drive segments are not serializable")
        segments.append(
            {
                "duration": segment.duration,
                "amplitude": [segment.amplitude.real, segment.amplitude.imag],
                "frequency": segment.frequency,
            }
        )
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
        try:
            segments.append(
                DriveSegment(
                    duration=float(raw["duration"]),
                    amplitude=complex(float(amplitude[0]), float(amplitude[1])),
                    frequency=float(raw.get("frequency", 0.0)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"segment {i} is invalid: {exc}") from exc
    return DriveProfile(
        segments=tuple(segments), conditioner=standard_conditioner(data["conditioner"])
    )
