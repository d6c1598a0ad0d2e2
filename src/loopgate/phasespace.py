"""Phase-space trajectories of a driven oscillator and the phases they accumulate.

A coherent-state path alpha(t) picks up two distinct contributions:

* a geometric phase, the line integral (i/2) * integral(alpha* d(alpha) - alpha d(alpha*)),
  which for a closed loop equals -2 times the signed enclosed area
  (counterclockwise positive), and
* a dynamic phase, -integral(<H>(t) dt), the accumulated expectation value of the
  Hamiltonian along the path.

Both functionals are evaluated by trapezoidal quadrature on the sampled
trajectory, so their accuracy is second order in the grid spacing.  The total
phase is always their sum; the ratio eta = dynamic/geometric classifies the
evolution (eta = 0 purely geometric, eta = -1 trivial, anything else is an
unconventional mix whose total phase still depends only on the loop geometry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InternalConsistencyError, InvalidTrajectoryError, SingularDetuningError

# |geometric| below this threshold leaves the ratio eta undefined.
ETA_GEOMETRIC_THRESHOLD = 1e-9

# Default closure tolerance for |alpha(T) - alpha(0)|.
DEFAULT_CLOSURE_TOLERANCE = 1e-9

# Rounding floor of the closure test per unit of peak |alpha|: endpoints
# computed from terms of size |alpha| carry a few eps * |alpha| of rounding.
CLOSURE_ROUNDING = 16.0 * np.finfo(float).eps

# Tolerance used when classifying a decomposition by its eta value.
CLASSIFICATION_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """A sampled phase-space path.

    Parameters
    ----------
    times:
        Strictly increasing sample times, length >= 2.
    points:
        Complex samples alpha(t_k), same length as ``times``.
    closure_tolerance:
        Radius within which the endpoints count as closed.

    The arrays are copied and frozen; a trajectory never changes after
    construction.
    """

    times: np.ndarray
    points: np.ndarray
    closure_tolerance: float = DEFAULT_CLOSURE_TOLERANCE

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float)
        points = np.array(self.points, dtype=complex)
        if times.ndim != 1 or points.ndim != 1:
            raise InvalidTrajectoryError("times and points must be one-dimensional")
        if times.size < 2:
            raise InvalidTrajectoryError("a trajectory needs at least two samples")
        if times.size != points.size:
            raise InvalidTrajectoryError(
                f"length mismatch: {times.size} times vs {points.size} points"
            )
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(points)):
            raise InvalidTrajectoryError("trajectory contains non-finite samples")
        if not np.all(np.diff(times) > 0.0):
            raise InvalidTrajectoryError("times must be strictly increasing")
        if not (self.closure_tolerance >= 0.0):
            raise InvalidTrajectoryError("closure_tolerance must be nonnegative")
        times.flags.writeable = False
        points.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def closure_residual(self) -> float:
        """Distance |alpha(t_end) - alpha(t_start)| between the endpoints."""
        return float(abs(self.points[-1] - self.points[0]))

    def is_closed(self) -> bool:
        return loop_closes(
            self.closure_residual,
            self.closure_tolerance,
            lambda: float(np.max(np.abs(self.points))),
        )


def loop_closes(residual: float, tolerance: float, peak: Callable[[], float]) -> bool:
    """Whether endpoints ``residual`` apart close a loop whose largest |alpha| is ``peak()``.

    The tolerance is widened by ``CLOSURE_ROUNDING * peak()``, the rounding
    left by endpoints computed from terms of that size, so a closed loop of
    large radius does not read as open from rounding alone.  ``peak`` scans
    the path, so it is called only when ``residual`` exceeds ``tolerance``.
    """
    return bool(residual <= tolerance or residual <= tolerance + CLOSURE_ROUNDING * peak())


@dataclass(frozen=True)
class PhaseDecomposition:
    """Total phase split into its geometric and dynamic parts.

    ``eta`` is dynamic/geometric, or None when the geometric part is too small
    for the ratio to mean anything.  ``classification`` is one of
    ``"conventional-geometric"`` (eta = 0), ``"trivial"`` (eta = -1, so the
    total vanishes), ``"unconventional"`` or ``"undefined"``.
    """

    total: float
    geometric: float
    dynamic: float
    eta: float | None = None
    classification: str = field(default="undefined")

    def __post_init__(self) -> None:
        if self.total != self.geometric + self.dynamic:
            raise InternalConsistencyError(
                "total phase must equal geometric + dynamic exactly; "
                "use decompose() to build consistent values"
            )


def decompose(geometric: float, dynamic: float) -> PhaseDecomposition:
    """Combine a geometric and a dynamic phase into a classified decomposition.

    The total is geometric + dynamic by construction.  ``eta`` is reported only
    when |geometric| exceeds ``ETA_GEOMETRIC_THRESHOLD``, and classified within
    ``CLASSIFICATION_TOLERANCE``.
    """
    geometric = float(geometric)
    dynamic = float(dynamic)
    if abs(geometric) > ETA_GEOMETRIC_THRESHOLD:
        eta: float | None = dynamic / geometric
    else:
        eta = None
    if eta is None:
        classification = "undefined"
    elif abs(eta) <= CLASSIFICATION_TOLERANCE:
        classification = "conventional-geometric"
    elif abs(eta + 1.0) <= CLASSIFICATION_TOLERANCE:
        classification = "trivial"
    else:
        classification = "unconventional"
    return PhaseDecomposition(
        total=geometric + dynamic,
        geometric=geometric,
        dynamic=dynamic,
        eta=eta,
        classification=classification,
    )


def geometric_phase(trajectory: Trajectory) -> float:
    """Geometric phase of a sampled path.

    Evaluates (i/2) * integral(alpha* d(alpha) - alpha d(alpha*)) with the
    trapezoidal rule on the sample chords, which reduces to
    -sum_k Im(conj(alpha_k) * alpha_{k+1}).  For a closed sampled loop this is
    exactly -2 times the signed polygon area of the samples, counterclockwise
    positive.  Open paths are allowed; the value is then the line integral
    along the open path.
    """
    return _chord_phase(trajectory.points)


def dynamic_phase(
    trajectory: Trajectory,
    h_expect: Callable,
) -> float:
    """Dynamic phase -integral(<H>(t) dt) along a sampled path.

    ``h_expect`` maps (points, times), a complex and a float array, to the
    real Hamiltonian expectation value on each trajectory sample.
    """
    times = trajectory.times
    values = np.asarray(h_expect(trajectory.points, times), dtype=float)
    if values.shape != times.shape:
        raise ValueError(
            f"h_expect returned shape {values.shape} for {times.size} trajectory samples"
        )
    return _trapezoid_phase(values, times)


def _require_grid_path(times: np.ndarray, points: np.ndarray) -> None:
    """The checks of :class:`Trajectory` for a path on an ``np.linspace`` grid from 0.

    Such a grid is finite, and it increases unless its step underflows to 0
    or rounds up so far that the last but one sample reaches the end, which
    only subnormal ends allow; so two comparisons stand in for one per sample.
    """
    if not np.all(np.isfinite(points)):
        raise InvalidTrajectoryError("trajectory contains non-finite samples")
    if not (times[-1] / (times.size - 1) > 0.0 and times[-1] > times[-2]):
        raise InvalidTrajectoryError("times must be strictly increasing")


def _chord_phase(z: np.ndarray) -> float:
    """-sum_k Im(conj(z_k) * z_{k+1}): the geometric phase of the samples ``z``, checked finite.

    A product whose real part overflows leaves its imaginary part, the one used, intact.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        phase = float(-np.sum(np.imag(np.conj(z[:-1]) * z[1:])))
    if not math.isfinite(phase):
        raise InvalidTrajectoryError(
            "geometric phase overflows: the chord sum of the path is not finite"
        )
    return phase


def _trapezoid_phase(energy: np.ndarray, times: np.ndarray) -> float:
    """-integral(energy dt) by the trapezoidal rule, after checking that ``energy`` is finite."""
    if not np.all(np.isfinite(energy)):
        raise InvalidTrajectoryError("Hamiltonian expectation produced non-finite values")
    return float(-np.trapezoid(energy, times))


def uniform_exp(rate: float, s: np.ndarray) -> np.ndarray:
    """exp(-1j * rate * s) on the equally spaced times ``s``, with about 2*sqrt(N) exponentials.

    With B = ceil(sqrt(N)), sample a + b*B is the product
    exp(-1j * rate * (s[b*B] - s[0])) * exp(-1j * rate * s[a]), so only the
    first B times and every B-th time are exponentiated, and each sample
    costs one complex product.  The result differs from ``np.exp`` by the
    rounding of the split phase: at most about 2e-15 over one period of the
    phase and 1.6e-14 over ten.  The last sample is evaluated directly, so a
    closed loop's endpoint, and with it its closure residual, is that of
    ``np.exp``.

    ``s`` must be nonempty and equally spaced up to rounding, as
    ``np.linspace`` grids and their slices shifted by a segment start are;
    on any other times the result is wrong.
    """
    n = s.size
    block = math.isqrt(n - 1) + 1
    rows = -(-n // block)
    table = np.empty((rows, block), dtype=complex)
    np.multiply(
        np.exp(-1j * rate * (s[::block] - s[0]))[:, None],
        np.exp(-1j * rate * s[:block]),
        out=table,
    )
    out = table.reshape(-1)[:n]
    out[-1] = np.exp(-1j * rate * s[-1])
    return out


def constant_drive_alpha(
    omega_over_delta: float, delta: float, phi_l: float, t: float | np.ndarray
):
    """Coherent-state path i*(omega/delta)*(exp(-i*delta*t) - 1)*exp(i*phi_l).

    This is the response, from the vacuum, of an oscillator driven at constant
    amplitude a fixed detuning ``delta`` away from resonance.  The path is a
    circle of radius |omega/delta| that closes after each period 2*pi/delta.
    """
    _require_positive_delta(delta)
    return _circle_path(omega_over_delta, phi_l, np.exp(-1j * delta * np.asarray(t)))


def _circle_path(omega_over_delta: float, phi_l: float, rotation):
    """The constant-drive path given ``rotation`` = exp(-i*delta*t); overflows are not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 1j * omega_over_delta * (rotation - 1.0) * np.exp(1j * phi_l)


def analytic_trajectory(
    omega_over_delta: float,
    delta: float,
    phi_l: float,
    t_grid: Sequence[float] | np.ndarray,
    closure_tolerance: float = DEFAULT_CLOSURE_TOLERANCE,
) -> Trajectory:
    """Sample the constant-drive circular path on the supplied time grid."""
    t = np.asarray(t_grid, dtype=float)
    alphas = constant_drive_alpha(omega_over_delta, delta, phi_l, t)
    return Trajectory(t, alphas, closure_tolerance)


def analytic_total_phase(omega_over_delta: float, delta: float, t: float) -> float:
    """Closed-form total phase (omega/delta)^2 * (sin(delta*t) - delta*t).

    Valid at every time, whether or not the loop has closed.  Equal to the
    geometric plus dynamic phases of the constant-drive path up to time ``t``.
    """
    _require_positive_delta(delta)
    x = delta * float(t)
    try:
        phase = float(omega_over_delta) ** 2 * (math.sin(x) - x)
    except OverflowError:
        phase = math.inf
    if not math.isfinite(phase):
        raise ValueError(
            "total phase (omega/delta)^2 * (sin(delta t) - delta t) is not finite at "
            f"omega/delta = {omega_over_delta:g}, delta t = {x:g}"
        )
    return phase


def _require_positive_delta(delta: float) -> None:
    if delta == 0.0:
        raise SingularDetuningError("detuning is zero: the drive never closes a loop")
    if not (delta > 0.0) or not math.isfinite(delta):
        raise SingularDetuningError(f"detuning must be positive and finite, got {delta}")
