"""Tests for trajectories, phase functionals, and the phase decomposition."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from loopgate.drives import ConstantDriveParams, constant_drive, induced_trajectory, require_closed
from loopgate.errors import (
    InternalConsistencyError,
    InvalidTrajectoryError,
    SingularDetuningError,
)
from loopgate.phasespace import (
    PhaseDecomposition,
    Trajectory,
    analytic_total_phase,
    analytic_trajectory,
    constant_drive_alpha,
    decompose,
    dynamic_phase,
    geometric_phase,
    loop_closes,
)

TWO_PI = 2.0 * math.pi

# enough samples for the polygon rule to resolve 1e-9 on unit-scale loops
DENSE = 400_001


def shoelace_area(points: np.ndarray) -> float:
    """Signed polygon area, counterclockwise positive.  Independent oracle."""
    x, y = points.real, points.imag
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def circle_trajectory(ratio, delta=1.0, phi_l=0.0, periods=1.0, samples=DENSE):
    grid = np.linspace(0.0, periods * TWO_PI / delta, samples)
    return analytic_trajectory(ratio, delta, phi_l, grid)


# ---------------------------------------------------------------------------
# Trajectory: phase-space points alpha = re + i*im sampled in time


def test_phase_point_complex_round_trip():
    trajectory = Trajectory([0.0, 1.0], [0.25 - 1.5j, 1.0])
    assert trajectory.points[0] == 0.25 - 1.5j
    assert trajectory.points.dtype == complex


@pytest.mark.parametrize("re,im", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_phase_point_rejects_non_finite(re, im):
    with pytest.raises(InvalidTrajectoryError):
        Trajectory([0.0, 1.0], [0j, complex(re, im)])


def test_trajectory_validation():
    good_t = np.array([0.0, 1.0, 2.0])
    good_z = np.array([0j, 1j, 0j])
    with pytest.raises(InvalidTrajectoryError):
        Trajectory(np.array([0.0]), np.array([0j]))  # too short
    with pytest.raises(InvalidTrajectoryError):
        Trajectory(np.array([0.0, 1.0, 1.0]), good_z)  # not strictly increasing
    with pytest.raises(InvalidTrajectoryError):
        Trajectory(good_t, np.array([0j, np.nan * 1j, 0j]))  # non-finite point
    with pytest.raises(InvalidTrajectoryError):
        Trajectory(good_t, np.array([0j, 1j]))  # length mismatch


def test_trajectory_arrays_are_frozen():
    trajectory = Trajectory(np.array([0.0, 1.0]), np.array([0j, 1j]))
    with pytest.raises(ValueError):
        trajectory.points[0] = 1.0 + 0j
    with pytest.raises(ValueError):
        trajectory.times[0] = -1.0


def test_closure_allows_rounding_of_large_loops():
    # One period of a radius-1e8 circle ends 2.4e-8 from its start, from the
    # rounding of exp(-2 pi i) - 1 alone; the rounding floor accepts it.
    loop = constant_drive(ConstantDriveParams(omega_d=1e8, delta=1.0))
    assert require_closed(loop) == pytest.approx(2.449e-8, rel=1e-3)
    assert loop_closes(2.4e-8, 1e-9, lambda: 2e8)
    assert not loop_closes(1e-6, 1e-9, lambda: 2e8)
    assert not loop_closes(2e-9, 1e-9, lambda: 1.0)


def test_trajectory_from_points():
    # plain sequences of times and complex points are copied into arrays
    trajectory = Trajectory([0.0, 0.5, 1.0], [0j, 1.0 + 0j, 0j])
    assert trajectory.points[1] == 1.0
    assert trajectory.points[-1] == trajectory.points[0]


# ---------------------------------------------------------------------------
# geometric phase: chord rule vs the shoelace oracle

SQUARE = np.array([0, 1, 1 + 1j, 1j, 0], dtype=complex)
TRIANGLE = np.array([0, 2, 1 + 1j, 0], dtype=complex)
PENTAGON = np.exp(2j * np.pi * np.arange(6) / 5) * 1.3
STAR = np.array([0, 2 + 1j, 1j, -2 + 1j, 0, 2 - 1j, -1j, -2 - 1j, 0], dtype=complex)


@pytest.mark.parametrize("vertices", [SQUARE, TRIANGLE, PENTAGON, STAR])
def test_geometric_phase_matches_shoelace(vertices):
    # The chord-sum line integral equals -2 x (signed area) identically, so
    # the two computations must agree to rounding even on coarse polygons.
    trajectory = Trajectory(np.arange(len(vertices), dtype=float), vertices)
    assert geometric_phase(trajectory) == pytest.approx(
        -2.0 * shoelace_area(vertices), abs=1e-12
    )


def test_geometric_phase_unit_square_exact():
    # CCW unit square: area +1, so the geometric phase is exactly -2.
    trajectory = Trajectory(np.arange(5, dtype=float), SQUARE)
    assert geometric_phase(trajectory) == pytest.approx(-2.0, abs=1e-15)


@pytest.mark.parametrize("ratio", [0.2, 0.5, 0.8, 1.1])
@pytest.mark.parametrize("phi_l", [0.0, 1.1])
def test_geometric_phase_circle(ratio, phi_l):
    # One clockwise circle of radius r: signed area -pi r^2, phase +2 pi r^2.
    trajectory = circle_trajectory(ratio, phi_l=phi_l)
    assert geometric_phase(trajectory) == pytest.approx(
        TWO_PI * ratio**2, abs=1e-9
    )


def test_geometric_phase_quadrature_order():
    # Chord rule on a smooth loop converges at second order in the step.
    exact = TWO_PI * 0.25
    errors = []
    for samples in (2_001, 4_001, 8_001):
        value = geometric_phase(circle_trajectory(0.5, samples=samples))
        errors.append(abs(value - exact))
    assert errors[0] / errors[1] > 3.5
    assert errors[1] / errors[2] > 3.5


# ---------------------------------------------------------------------------
# dynamic phase vs scipy quadrature


@pytest.mark.parametrize("ratio,delta", [(0.3, 1.0), (0.5, 1.0), (0.5, 2.0)])
def test_dynamic_phase_matches_scipy_quad(ratio, delta):
    omega = ratio * delta

    def energy(t):
        return 2.0 * (omega**2 / delta) * (1.0 - math.cos(delta * t))

    period = TWO_PI / delta
    trajectory = circle_trajectory(ratio, delta, samples=200_001)

    def h_expect(points, times):
        return 2.0 * (omega**2 / delta) * (1.0 - np.cos(delta * times))

    reference, _ = quad(energy, 0.0, period)
    assert dynamic_phase(trajectory, h_expect) == pytest.approx(-reference, abs=1e-9)
    # ratio 0.3 over one period: -4 pi (0.3)^2 = -0.36 pi
    assert reference == pytest.approx(4.0 * math.pi * ratio**2, abs=1e-10)


def test_dynamic_phase_rejects_scalar_result():
    # h_expect is called once on the whole sampled path and must return one
    # value per sample; a single number is not broadcast.
    trajectory = circle_trajectory(0.4, samples=5_001)
    with pytest.raises(ValueError, match="shape"):
        dynamic_phase(trajectory, lambda points, times: 0.32)


# ---------------------------------------------------------------------------
# decomposition and classification


def test_decompose_headline_values():
    decomposition = decompose(math.pi / 2.0, -math.pi)
    assert decomposition.total == pytest.approx(-math.pi / 2.0, abs=1e-15)
    assert decomposition.eta == pytest.approx(-2.0, abs=1e-15)
    assert decomposition.classification == "unconventional"


@pytest.mark.parametrize(
    "geometric,dynamic,classification,eta",
    [
        (1.0, 0.0, "conventional-geometric", 0.0),
        (1.0, -1.0, "trivial", -1.0),
        (1.0, -2.0, "unconventional", -2.0),
        (0.0, 1.0, "undefined", None),
        (1e-12, 1.0, "undefined", None),
    ],
)
def test_decompose_classification(geometric, dynamic, classification, eta):
    decomposition = decompose(geometric, dynamic)
    assert decomposition.classification == classification
    if eta is None:
        assert decomposition.eta is None
    else:
        assert decomposition.eta == pytest.approx(eta, abs=1e-9)


@pytest.mark.parametrize(
    "geometric,dynamic,part",
    [
        (math.nan, 1.0, "geometric phase"),
        (1.0, -math.inf, "dynamic phase"),
        (1e308, 1e308, "total phase"),
        (1e-8, 1e305, "eta"),
    ],
)
def test_decompose_rejects_non_finite_parts(geometric, dynamic, part):
    with pytest.raises(ValueError, match=f"^{part} is not finite"):
        decompose(geometric, dynamic)


def test_decompose_total_is_exact_sum():
    decomposition = decompose(0.1, 0.2)
    assert decomposition.total == decomposition.geometric + decomposition.dynamic


def test_phase_decomposition_rejects_inconsistent_total():
    with pytest.raises(InternalConsistencyError):
        PhaseDecomposition(total=1.0, geometric=0.3, dynamic=0.3)


def test_noncyclic_geometric_phase():
    # away from closure the geometric part is the total minus the dynamic part
    total, dynamic = -0.5, -1.0
    decomposition = decompose(total - dynamic, dynamic)
    assert decomposition.geometric == pytest.approx(0.5, abs=1e-15)
    assert decomposition.total == total


# ---------------------------------------------------------------------------
# closed forms for the constant drive


@pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("delta", [1.0, 2.5])
def test_analytic_total_phase_full_period(ratio, delta):
    period = TWO_PI / delta
    assert analytic_total_phase(ratio, delta, period) == pytest.approx(
        -TWO_PI * ratio**2, abs=1e-12
    )


def test_analytic_total_phase_half_period():
    # Phi(T/2) = r^2 (sin(pi) - pi) = -pi r^2
    assert analytic_total_phase(0.5, 1.0, math.pi) == pytest.approx(
        -math.pi / 4.0, abs=1e-12
    )


def test_analytic_total_phase_at_zero():
    assert analytic_total_phase(0.7, 1.0, 0.0) == 0.0


def sin_minus_x(x: float) -> decimal.Decimal:
    """sin(x) - x of the float ``x`` by its Taylor series in 80-digit decimal arithmetic."""
    with decimal.localcontext(decimal.Context(prec=80)):
        square = decimal.Decimal(x) ** 2
        term = decimal.Decimal(x)
        total = decimal.Decimal(0)
        n = 1
        while True:
            term = -term * square / ((n + 1) * (n + 2))
            n += 2
            total += term
            if abs(term) < abs(total) * decimal.Decimal("1e-40"):
                return total


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    log_x=st.floats(-8.0, math.log10(20.0 * math.pi)),
    log_ratio=st.floats(-3.0, 6.0),
    delta=st.floats(0.1, 10.0),
)
def test_analytic_total_phase_keeps_its_digits_where_sin_x_minus_x_cancels(
    log_x, log_ratio, delta
):
    # From delta t = 1e-8 to ten periods: a plain sin(x) - x loses about
    # 2 log10(1/x) digits below x = 1, which r**2 = 1e12 puts into the phase.
    t = 10.0**log_x / delta
    ratio = 10.0**log_ratio
    exact = decimal.Decimal(ratio) ** 2 * sin_minus_x(delta * t)
    phase = analytic_total_phase(ratio, delta, t)
    assert abs(decimal.Decimal(phase) - exact) <= abs(exact) * decimal.Decimal("1e-15")


@pytest.mark.parametrize("ratio,phi_l", [(0.5, 0.0), (0.8, 2.0)])
def test_constant_drive_alpha_loop(ratio, phi_l):
    delta = 1.3
    # starts at the origin, returns at the period, farthest point at T/2
    assert constant_drive_alpha(ratio, delta, phi_l, 0.0) == pytest.approx(0.0)
    assert abs(constant_drive_alpha(ratio, delta, phi_l, TWO_PI / delta)) < 1e-12
    half = constant_drive_alpha(ratio, delta, phi_l, math.pi / delta)
    assert abs(half) == pytest.approx(2.0 * ratio, abs=1e-12)


def test_analytic_trajectory_phase_relations():
    # total = -geometric and dynamic = 2 x (-geometric) on the closed loop
    ratio = 0.6
    trajectory = circle_trajectory(ratio)
    geometric = geometric_phase(trajectory)
    phi = analytic_total_phase(ratio, 1.0, TWO_PI)
    assert geometric == pytest.approx(-phi, abs=1e-9)


def test_period_grid():
    # a drive's induced path is sampled uniformly over its whole duration
    params = ConstantDriveParams(omega_d=1.0, delta=2.0)  # period 2 pi / 2 = pi
    grid = induced_trajectory(constant_drive(params), samples=10_000).times
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(math.pi)
    assert len(grid) == 10_000
    assert np.all(np.diff(grid) > 0)
    half = induced_trajectory(constant_drive(params, periods=0.5), samples=5_000).times
    assert half[-1] == pytest.approx(math.pi / 2.0)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
def test_nonpositive_detuning_rejected(delta):
    with pytest.raises(SingularDetuningError):
        analytic_total_phase(0.5, delta, 1.0)
