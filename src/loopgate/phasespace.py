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
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

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

    The arrays are copied and frozen; a trajectory never changes after
    construction.  It carries no closure test: whether a drive's loop
    closes is :func:`loopgate.drives.require_closed`'s to say.
    """

    times: np.ndarray
    points: np.ndarray

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
        times.flags.writeable = False
        points.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)


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
    ``CLASSIFICATION_TOLERANCE``.  A part that is not finite, as when a phase
    overflows, raises ValueError naming it.
    """
    geometric = float(geometric)
    dynamic = float(dynamic)
    if abs(geometric) > ETA_GEOMETRIC_THRESHOLD:
        eta: float | None = dynamic / geometric
    else:
        eta = None
    total = geometric + dynamic
    parts = (("geometric phase", geometric), ("dynamic phase", dynamic), ("total phase", total))
    for name, value in (*parts, ("eta", eta)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} is not finite ({value}): the phase decomposition overflows")
    if eta is None:
        classification = "undefined"
    elif abs(eta) <= CLASSIFICATION_TOLERANCE:
        classification = "conventional-geometric"
    elif abs(eta + 1.0) <= CLASSIFICATION_TOLERANCE:
        classification = "trivial"
    else:
        classification = "unconventional"
    return PhaseDecomposition(
        total=total,
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
    with np.errstate(over="ignore", invalid="ignore"):
        phase = _chord_sum(trajectory.points)
    return _require_finite_chord(phase)


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
    with np.errstate(over="ignore", invalid="ignore"):
        phase = _trapezoid_sum(values, times)
    return _require_finite_dynamic(bool(np.all(np.isfinite(values))), phase)


def _require_grid_path(times: np.ndarray, samples: int, points_finite: bool) -> None:
    """The checks of :class:`Trajectory` for a path on an ``np.linspace`` grid from 0.

    ``times`` is the grid or its last block, or a drive walk's last block,
    and ``points_finite`` tells whether every point of the path is finite.
    Such a grid is finite, and it increases unless its step underflows to 0
    or rounds up so far that the last but one sample reaches the end, which
    only subnormal ends allow; so two comparisons stand in for one per sample.
    """
    if not points_finite:
        raise InvalidTrajectoryError("trajectory contains non-finite samples")
    if not (times[-1] / (samples - 1) > 0.0 and times[-1] > times[-2]):
        raise InvalidTrajectoryError("times must be strictly increasing")


def _chord_sum(z: np.ndarray, scratch: np.ndarray | None = None) -> float:
    """-sum_k Im(conj(z_k) * z_{k+1}): the geometric phase of the samples ``z``, unchecked.

    The products go to ``scratch``, a complex array of at least ``z.size - 1``
    entries, or to a new array.  A product whose real part overflows leaves
    its imaginary part, the one used, intact; the caller silences the
    overflow.  Any non-finite part of any sample makes the sum non-finite.
    """
    products = np.conjugate(z[:-1], out=None if scratch is None else scratch[: z.size - 1])
    np.multiply(products, z[1:], out=products)
    return float(-np.sum(products.imag))


def _trapezoid_sum(
    energy: np.ndarray, times: np.ndarray, scratch: np.ndarray | None = None
) -> float:
    """-integral(energy dt) by the trapezoidal rule, unchecked; the caller silences overflow.

    The terms are those of ``np.trapezoid``, in its order, written to
    ``scratch``, a float array of at least ``2 * (times.size - 1)`` entries,
    or to a new array.  Any non-finite energy makes the sum non-finite.
    """
    n = times.size - 1
    if scratch is None:
        scratch = np.empty(2 * n)
    widths = np.subtract(times[1:], times[:-1], out=scratch[:n])
    np.multiply(widths, np.add(energy[1:], energy[:-1], out=scratch[n : 2 * n]), out=widths)
    widths /= 2.0
    return float(-np.add.reduce(widths))


def _require_finite_chord(phase: float) -> float:
    """``phase``, a chord sum, after checking that it is finite."""
    if not math.isfinite(phase):
        raise InvalidTrajectoryError(
            "geometric phase overflows: the chord sum of the path is not finite"
        )
    return phase


def _require_finite_dynamic(energy_finite: bool, phase: float) -> float:
    """``phase``, a trapezoid of energies, after checking the energies and then the integral."""
    if not energy_finite:
        raise InvalidTrajectoryError("Hamiltonian expectation produced non-finite values")
    if not math.isfinite(phase):
        raise InvalidTrajectoryError(
            "dynamic phase overflows: the integral of the Hamiltonian expectation is not finite"
        )
    return phase


# Samples per block of the streamed quadratures: a block's arrays (about 1 MB
# in all) stay in cache, and there are few enough blocks that their Python
# overhead is small beside the arithmetic.
_BLOCK_SAMPLES = 16_384


class _Workspace:
    """The block arrays of one streamed quadrature, all of one length.

    ``ramp`` holds 0, 1, 2, ... for rebuilding grid times, ``times``, ``f``
    and ``alpha`` hold a block of the drive walk, ``scratch`` takes products
    and trapezoid terms, and ``flags`` takes finiteness scans.  The arrays
    only grow, so every block operation can write into them with ``out=``
    and touches no new page once the first quadrature has run.
    """

    def __init__(self) -> None:
        self._allocate(0)

    def _allocate(self, size: int) -> None:
        self.ramp = np.arange(size, dtype=float)
        self.times = np.empty(size)
        self.f = np.empty(size, dtype=complex)
        self.alpha = np.empty(size, dtype=complex)
        self.scratch = np.empty(size, dtype=complex)
        self.flags = np.empty(size, dtype=bool)

    def reserve(self, size: int) -> None:
        """Grow every array to at least ``size`` entries."""
        if size > self.ramp.size:
            self._allocate(size)


_workspaces = threading.local()


def _workspace() -> _Workspace:
    """This thread's workspace, allocated on first use; its ``block`` is ``_BLOCK_SAMPLES``.

    No quadrature runs inside another, so one workspace per thread serves
    them all.  The caller reserves what its blocks need.
    """
    work = getattr(_workspaces, "work", None)
    if work is None:
        work = _workspaces.work = _Workspace()
    work.block = _BLOCK_SAMPLES
    return work


def _all_finite(x: np.ndarray, flags: np.ndarray) -> bool:
    """Whether every entry of ``x`` is finite, scanned into the bool array ``flags``."""
    return bool(np.isfinite(x, out=flags[: x.size]).all())


def _block_phases(
    blocks: Callable[[], Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]],
    samples: int,
    work: _Workspace,
) -> tuple[float, float]:
    """Geometric and dynamic phase of a path walked to the end of an ``np.linspace`` grid from 0.

    ``blocks()`` yields (times, path, energy) for consecutive blocks whose
    chord sums and trapezoids add up, as the blocks of
    :func:`~loopgate.drives._walk` do, the last ending at the end of the
    grid of ``samples``; it may use ``work.scratch`` only while it builds a
    block, since the sums use it in between.  Each block adds to one chord
    sum and one trapezoid.  A non-finite path sample always makes the chord sum
    non-finite and a non-finite energy the trapezoid, so the samples are
    scanned only when a sum comes out non-finite, in a second walk; the
    checks then run in the order of the dense quadrature: path, times, chord
    sum, energies, integral.
    """
    geometric = dynamic = 0.0
    path_finite = energy_finite = True
    with np.errstate(over="ignore", invalid="ignore"):
        for times, path, energy in blocks():
            geometric += _chord_sum(path, work.scratch)
            dynamic += _trapezoid_sum(energy, times, work.scratch.view(float))
        if not (math.isfinite(geometric) and math.isfinite(dynamic)):
            for _, path, energy in blocks():
                path_finite = path_finite and _all_finite(path, work.flags)
                energy_finite = energy_finite and _all_finite(energy, work.flags)
    _require_grid_path(times, samples, path_finite)
    return _require_finite_chord(geometric), _require_finite_dynamic(energy_finite, dynamic)


def _exp_factors(
    rate: float, size: int, times_at: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray, complex]:
    """The factors of a table of exp(-1j * rate * s) on ``size`` equally spaced times ``s``.

    ``times_at`` maps an array of sample numbers to the times ``s`` there.
    With B = ceil(sqrt(N)) the factors are the first column
    exp(-1j * rate * (s[b*B] - s[0])), the first row exp(-1j * rate * s[a])
    for a < B, and the last sample exp(-1j * rate * s[-1]).  Sample a + b*B
    of the table (:func:`_exp_rows`) is column[b] * row[a], except the last,
    which is evaluated directly, so a closed loop's endpoint, and with it
    its closure residual, is that of ``np.exp``.  Only about 2*sqrt(N)
    times are exponentiated and each sample costs one complex product; the
    table differs from ``np.exp`` by the rounding of the split phase, at
    most about 2e-15 over one period of the phase and 1.6e-14 over ten.

    The times must be equally spaced up to rounding, as ``np.linspace``
    grids and their runs shifted by a segment start are; on any other times
    the table is wrong.
    """
    block = math.isqrt(size - 1) + 1
    column = times_at(np.arange(0, size, block))
    return (
        np.exp(-1j * rate * (column - column[0])),
        np.exp(-1j * rate * times_at(np.arange(block))),
        np.exp(-1j * rate * times_at(np.array([size - 1]))[0]),
    )


def _exp_rows(
    factors: tuple[np.ndarray, np.ndarray, complex],
    first: int,
    stop: int,
    size: int,
    out: np.ndarray,
    tile: np.ndarray,
) -> np.ndarray:
    """Samples ``first`` to ``stop - 1`` of the ``size``-sample table of ``factors``, into ``out``.

    Whole rows are multiplied as two full arrays, the column factors spread
    over ``out`` and the row copied into ``tile`` (an array as long as
    ``out``), because a broadcast product makes numpy allocate iteration
    buffers of about 256 KB on every call.
    """
    column, row, last = factors
    width = row.size
    head_row, head = divmod(first, width)
    tail_row, tail = divmod(stop, width)
    if head_row == tail_row:
        np.multiply(column[head_row], row[head:tail], out=out)
    else:
        body = width - head
        np.multiply(column[head_row], row[head:], out=out[:body])
        rows = slice(body, body + (tail_row - head_row - 1) * width)
        table, tiles = out[rows].reshape(-1, width), tile[rows].reshape(-1, width)
        np.copyto(table, column[head_row + 1 : tail_row, None])
        np.copyto(tiles, row)
        np.multiply(table, tiles, out=table)
        if tail:
            np.multiply(column[tail_row], row[:tail], out=out[stop - first - tail :])
    if stop == size:
        out[-1] = last
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
    rotation = np.exp(-1j * delta * np.asarray(t))
    # A path that overflows is not finite; Trajectory refuses it.
    with np.errstate(over="ignore", invalid="ignore"):
        return (rotation - 1.0) * (1j * omega_over_delta) * np.exp(1j * phi_l)


def analytic_trajectory(
    omega_over_delta: float,
    delta: float,
    phi_l: float,
    t_grid: Sequence[float] | np.ndarray,
) -> Trajectory:
    """Sample the constant-drive circular path on the supplied time grid."""
    t = np.asarray(t_grid, dtype=float)
    alphas = constant_drive_alpha(omega_over_delta, delta, phi_l, t)
    return Trajectory(t, alphas)


# The Taylor coefficients of sin(x) - x from x**3 to x**21: below |x| = 1 the
# series is accurate to rounding, and there sin(x) - x cancels digits.
_SIN_MINUS_X = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(1, 11))


def _sin_minus_x(x: float) -> float:
    """sin(x) - x, summed as its Taylor series below |x| = 1, where the difference cancels."""
    if not abs(x) < 1.0:
        return math.sin(x) - x
    square = x * x
    series = 0.0
    for coefficient in reversed(_SIN_MINUS_X):
        series = series * square + coefficient
    return x * square * series


def analytic_total_phase(omega_over_delta: float, delta: float, t: float) -> float:
    """Closed-form total phase (omega/delta)^2 * (sin(delta*t) - delta*t).

    Valid at every time, whether or not the loop has closed.  Equal to the
    geometric plus dynamic phases of the constant-drive path up to time ``t``.
    """
    _require_positive_delta(delta)
    x = delta * float(t)
    try:
        phase = float(omega_over_delta) ** 2 * _sin_minus_x(x)
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
