"""Tests for drive profiles, the induced path, the loop phase, and design."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from loopgate.drives import (
    ConstantDriveParams,
    DriveProfile,
    DriveSegment,
    alpha_array,
    closure_residual,
    constant_drive,
    constant_drive_h_expect,
    design_constant_drive,
    drive_from_dict,
    drive_to_dict,
    four_pulse_sequence,
    gamma0,
    induced_trajectory,
    require_closed,
)
from loopgate.errors import (
    ConfigError,
    LoopNotClosedError,
    SingularDetuningError,
    UnreachablePhaseError,
)
from loopgate.gates import jz_conditioner, odd_parity_projector
from loopgate.phasespace import analytic_total_phase, geometric_phase

TWO_PI = 2.0 * math.pi


def square_loop(side=1.0, conditioner=None):
    """Clockwise square of the given side, one second per edge."""
    return four_pulse_sequence(
        amplitudes=(-side, 1j * side, side, -1j * side),
        durations=(1.0, 1.0, 1.0, 1.0),
        conditioner=conditioner,
    )


# ---------------------------------------------------------------------------
# parameter and segment validation


def test_constant_params_properties():
    params = ConstantDriveParams(omega_d=0.75, delta=1.5, phi_l=0.3)
    assert params.ratio == pytest.approx(0.5)
    assert params.period == pytest.approx(TWO_PI / 1.5)


def test_zero_amplitude_is_legal():
    params = ConstantDriveParams(omega_d=0.0, delta=1.0)
    assert params.ratio == 0.0


@pytest.mark.parametrize("delta", [0.0, -2.0, math.inf, 1e-310])
def test_bad_detuning_rejected(delta):
    with pytest.raises(SingularDetuningError):
        ConstantDriveParams(omega_d=0.5, delta=delta)


def test_non_finite_amplitude_rejected():
    with pytest.raises(ValueError):
        ConstantDriveParams(omega_d=math.nan, delta=1.0)


def test_segment_validation():
    with pytest.raises(ValueError):
        DriveSegment(duration=0.0, amplitude=1.0)
    with pytest.raises(ValueError):
        DriveSegment(duration=-1.0, amplitude=1.0)
    # Every segment is a pulse or a tone: no callable profile is accepted.
    with pytest.raises(TypeError):
        DriveSegment(duration=1.0, func=lambda s: s)
    with pytest.raises(ValueError, match=r"frequency \* duration overflows: 1e\+308 \* 2"):
        DriveSegment(duration=2.0, amplitude=1.0, frequency=1e308)


def test_overflowing_segment_values_are_silent():
    # f = 1.7e308 (1 + i) exp(-i s) has a real part past the float range at
    # s = pi/4, and alpha overflows by s = pi/2.  The values come back
    # non-finite for the checks that read them, with no RuntimeWarning (an
    # error under pytest).
    segment = DriveSegment(duration=2.0 * math.pi, amplitude=1.7e308 * (1 + 1j), frequency=1.0)
    s = np.array([0.25 * math.pi, 0.5 * math.pi])
    assert not np.isfinite(segment.values(s)).all()
    assert not np.isfinite(segment.alpha_increment(s)).all()


def test_segment_func_is_always_none():
    # Not a field: the perfbench tracer keys drives on id(segment.func).
    assert "func" not in {field.name for field in dataclasses.fields(DriveSegment)}
    assert DriveSegment(duration=1.0, amplitude=0.3, frequency=1.1).func is None


def test_segment_alpha_starts_are_read_only_and_computed_once(monkeypatch):
    calls = []
    increment = DriveSegment.alpha_increment
    monkeypatch.setattr(
        DriveSegment, "alpha_increment", lambda self, s: calls.append(s) or increment(self, s)
    )
    tone = DriveSegment(duration=1.5, amplitude=0.3, frequency=1.1)
    pulse = DriveSegment(duration=0.5, amplitude=0.2j)
    drive = DriveProfile(segments=(tone, pulse, tone), conditioner=odd_parity_projector())
    assert len(calls) == 3
    starts = drive.segment_alpha_starts
    assert not starts.flags.writeable
    assert drive.segment_alpha_starts is starts
    swing = increment(tone, 1.5)
    assert np.allclose(starts, [0.0, swing, swing - 0.1j], rtol=0.0, atol=1e-15)
    # gamma0 reads each vertex off the starts; the induced trajectory
    # evaluates the segments at its samples, never at a whole duration.
    for _ in range(3):
        gamma0(drive)
    assert len(calls) == 3
    for _ in range(3):
        induced_trajectory(drive, samples=101)
    assert len(calls) > 3
    assert all(np.size(s) > 1 for s in calls[3:])


def test_profile_duration_and_empty_rejection():
    profile = square_loop()
    assert profile.total_duration == pytest.approx(4.0)
    with pytest.raises(ValueError):
        DriveProfile(segments=(), conditioner=odd_parity_projector())


# ---------------------------------------------------------------------------
# the induced path of the constant drive


@pytest.mark.parametrize("ratio,delta,phi_l", [(0.5, 1.0, 0.0), (0.8, 2.0, 1.1)])
def test_constant_drive_path_matches_formula(ratio, delta, phi_l):
    params = ConstantDriveParams(omega_d=ratio * delta, delta=delta, phi_l=phi_l)
    drive = constant_drive(params)
    t = np.linspace(0.0, params.period, 301)
    expected_f = -ratio * delta * np.exp(-1j * delta * t + 1j * phi_l)
    expected_alpha = 1j * ratio * (np.exp(-1j * delta * t) - 1.0) * np.exp(1j * phi_l)
    assert np.allclose(drive.segments[0].values(t), expected_f, atol=1e-12)
    assert np.allclose(alpha_array(drive, t), expected_alpha, atol=1e-12)


def test_point_accessors():
    # A single time goes through alpha_array as a length-1 array.
    drive = constant_drive(ConstantDriveParams(omega_d=0.5, delta=1.0))
    assert drive.segments[0].values(0.0) == pytest.approx(-0.5)
    assert alpha_array(drive, math.pi).shape == (1,)
    assert abs(alpha_array(drive, math.pi)[0]) == pytest.approx(1.0, abs=1e-12)


def test_alpha_array_groups_times_by_segment_bit_for_bit():
    # 512 segments of tones and pulses; sorted, shuffled and 2-d times all
    # match a per-segment mask over every time, bit for bit.
    segments = tuple(
        DriveSegment(duration=0.01 + 0.003 * (k % 7), amplitude=complex(math.cos(k), math.sin(k)),
                     frequency=0.0 if k % 3 == 0 else 1.0 + k % 5)
        for k in range(512)
    )
    drive = DriveProfile(segments=segments, conditioner=odd_parity_projector())
    rng = np.random.default_rng(17)
    grid = np.linspace(0.0, drive.total_duration, 20_001)
    for t in (grid, rng.permutation(grid), rng.permutation(grid)[:600].reshape(20, 30)):
        index = np.clip(np.searchsorted(drive.segment_starts, t, side="right") - 1, 0, 511)
        local = t - drive.segment_starts[index]
        expected = np.empty(t.shape, dtype=complex)
        for i, segment in enumerate(segments):
            mask = index == i
            expected[mask] = drive.segment_alpha_starts[i] + segment.alpha_increment(local[mask])
        alpha = alpha_array(drive, t)
        assert alpha.shape == t.shape
        assert alpha.tobytes() == expected.tobytes()


def test_time_outside_window_rejected():
    drive = constant_drive(ConstantDriveParams(omega_d=0.5, delta=1.0))
    with pytest.raises(ValueError):
        alpha_array(drive, [-0.5])


@pytest.mark.parametrize("periods", [1.0, 2.0, 3.5])
def test_closure_residual_constant_drive(periods):
    drive = constant_drive(ConstantDriveParams(omega_d=0.5, delta=1.0), periods=periods)
    residual = closure_residual(drive)
    if periods == int(periods):
        assert residual < 1e-12
    else:
        # |alpha(tau)| = 2 r |sin(delta tau / 2)|
        expected = 2.0 * 0.5 * abs(math.sin(math.pi * periods))
        assert residual == pytest.approx(expected, abs=1e-12)


def test_closure_residual_half_period_is_diameter():
    drive = constant_drive(ConstantDriveParams(omega_d=0.5, delta=1.0), periods=0.5)
    assert closure_residual(drive) == pytest.approx(1.0, abs=1e-12)


def test_four_pulse_square_is_closed_and_piecewise_linear():
    drive = square_loop()
    assert closure_residual(drive) < 1e-15
    # alpha moves along straight chords: midpoints sit halfway along edges
    assert alpha_array(drive, [0.5, 1.0, 2.5]) == pytest.approx(
        [0.5, 1.0, 0.5 - 1.0j], abs=1e-12
    )


def test_four_pulse_requires_four():
    with pytest.raises(ValueError):
        four_pulse_sequence(amplitudes=(1.0, 2.0), durations=(1.0, 1.0))


def test_require_closed_on_a_tone():
    # A closed tone passes and returns its residual; half a period away the
    # loop is open by its diameter, which the error carries.
    drive = constant_drive(ConstantDriveParams(omega_d=0.5, delta=1.0))
    assert require_closed(drive) == closure_residual(drive) < 1e-9
    assert induced_trajectory(drive, samples=4_001).times[-1] == pytest.approx(TWO_PI)
    with pytest.raises(LoopNotClosedError) as info:
        require_closed(drive, tau=math.pi)
    assert info.value.residual == pytest.approx(1.0, abs=1e-12)


def test_require_closed_on_a_polygon():
    # The square closes exactly; two pulses at right angles end sqrt(2) away,
    # and ``name`` sets only the first words of the refusal.
    assert require_closed(square_loop()) == closure_residual(square_loop())
    open_path = DriveProfile(
        (DriveSegment(1.0, 1.0 + 0j), DriveSegment(1.0, 1j)), odd_parity_projector()
    )
    with pytest.raises(LoopNotClosedError) as info:
        require_closed(open_path, name="loop 3")
    assert str(info.value) == (
        "loop 3 is open at tau=2: closure residual 1.414214e+00 exceeds 1.000e-09"
    )
    assert info.value.residual == pytest.approx(math.sqrt(2.0))
    assert require_closed(open_path, tolerance=1.5) == info.value.residual


# ---------------------------------------------------------------------------
# the loop phase functional gamma0


def test_gamma0_full_period_frozen_value():
    # One period at ratio 1/2: gamma0 = -2 pi (1/2)^2 = -pi/2.  The integrand
    # is periodic, so the full-period trapezoid is exact to rounding.
    drive = constant_drive(ConstantDriveParams(omega_d=0.5, delta=1.0))
    assert gamma0(drive) == pytest.approx(-math.pi / 2.0, abs=1e-12)


@pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0])
def test_gamma0_scales_with_squared_amplitude(ratio):
    drive = constant_drive(ConstantDriveParams(omega_d=ratio, delta=1.0))
    doubled = constant_drive(ConstantDriveParams(omega_d=2.0 * ratio, delta=1.0))
    assert gamma0(doubled) == pytest.approx(4.0 * gamma0(drive), abs=1e-10)


@pytest.mark.parametrize("phi_l", [0.0, 0.7, math.pi, 4.0])
def test_gamma0_ignores_drive_phase(phi_l):
    base = gamma0(constant_drive(ConstantDriveParams(omega_d=0.5, delta=1.0)))
    rotated = gamma0(
        constant_drive(ConstantDriveParams(omega_d=0.5, delta=1.0, phi_l=phi_l))
    )
    assert rotated == pytest.approx(base, abs=1e-12)


def test_gamma0_rejects_an_overflowing_integrand():
    # conj(alpha) f ~ 1e310 overflows; the NaN it leaves must not come back
    # as a value.
    drive = constant_drive(ConstantDriveParams(omega_d=1e155, delta=1.0))
    with pytest.raises(ValueError, match="loop-phase integrand"):
        gamma0(drive)


def test_gamma0_of_a_line_out_and_back_is_zero():
    # conj(alpha) f reaches 1e400 in its real part, which gamma0 never reads;
    # the imaginary part is 0 throughout, as a line encloses no area.
    drive = DriveProfile(
        segments=(DriveSegment(1.0, 1e200), DriveSegment(1.0, -1e200)),
        conditioner=jz_conditioner(),
    )
    assert gamma0(drive) == 0.0


def test_gamma0_open_path_matches_closed_form():
    # gamma0(t) equals the closed-form total phase at every time, not just
    # at loop closure.
    params = ConstantDriveParams(omega_d=0.5, delta=1.0)
    drive = constant_drive(params)
    tau = math.pi
    assert gamma0(drive, tau, samples=200_001) == pytest.approx(
        analytic_total_phase(0.5, 1.0, tau), abs=1e-9
    )


def test_gamma0_matches_scipy_quad():
    # Independent quadrature of the bilinear integrand -Im(conj(alpha) f).
    params = ConstantDriveParams(omega_d=0.4, delta=1.3, phi_l=0.6)
    drive = constant_drive(params)

    def integrand(t):
        alpha = complex(
            1j * params.ratio * (np.exp(-1j * params.delta * t) - 1.0)
            * np.exp(1j * params.phi_l)
        )
        f = -params.omega_d * np.exp(-1j * params.delta * t + 1j * params.phi_l)
        return -(np.conj(alpha) * f).imag

    reference, _ = quad(integrand, 0.0, params.period, limit=200)
    assert gamma0(drive) == pytest.approx(reference, abs=1e-9)


def test_gamma0_square_loop_matches_area():
    # For the clockwise unit square: geometric = -gamma0 = -2 x (signed area),
    # signed area = -1, so gamma0 = -2.  Chords are straight and the sample
    # grid hits the corners, so the trapezoid rule is exact here.
    drive = square_loop()
    assert gamma0(drive) == pytest.approx(-2.0, abs=1e-12)
    trajectory = induced_trajectory(drive, samples=20_001)
    assert geometric_phase(trajectory) == pytest.approx(2.0, abs=1e-12)


# tests/data/half_disk.json: a half-period tone out to -i and a pulse back
# along the diameter, a half disk of radius 1/2, so gamma0 = -2 * pi / 8.
# Its vertex lies on the grid.  tests/data/unit_square.json: the
# counterclockwise unit square, one pulse per side.
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("samples", [2, 3, 101, 20_000, 20_001])
def test_gamma0_takes_each_vertex_from_its_own_segment(samples):
    # Each vertex takes f from its own segment and each pulse adds its exact
    # term, so the values hold at any sample count; the next segment's f at
    # a grid vertex moves them by up to 1e-4.
    half_disk, square = (
        drive_from_dict(json.loads((DATA / name).read_text()))
        for name in ("half_disk.json", "unit_square.json")
    )
    assert gamma0(half_disk, samples=samples) == pytest.approx(-math.pi / 4.0, rel=1e-12)
    assert gamma0(square, samples=samples) == 2.0
    assert gamma0(square, 2.0, samples) == 1.0


def test_gamma0_validates_tau_and_samples():
    drive = constant_drive(ConstantDriveParams(omega_d=0.5, delta=1.0))
    with pytest.raises(ValueError):
        gamma0(drive, tau=0.0)
    with pytest.raises(ValueError):
        gamma0(drive, tau=100.0)
    with pytest.raises(ValueError):
        gamma0(drive, samples=1)


# ---------------------------------------------------------------------------
# inverse design


@pytest.mark.parametrize("target", [-0.1, -math.pi / 2.0, -math.pi, -7.0])
def test_design_round_trip(target):
    params = design_constant_drive(target, delta=1.0)
    assert analytic_total_phase(params.ratio, params.delta, params.period) == (
        pytest.approx(target, abs=1e-12)
    )


def test_design_headline():
    params = design_constant_drive(-math.pi / 2.0, delta=1.0)
    assert params.ratio == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("target", [0.0, 1.0, -9.0 * math.pi, math.nan])
def test_design_rejects_unreachable(target):
    with pytest.raises(UnreachablePhaseError):
        design_constant_drive(target, delta=1.0)


def test_design_rejects_bad_detuning():
    with pytest.raises(SingularDetuningError):
        design_constant_drive(-1.0, delta=0.0)


# ---------------------------------------------------------------------------
# Hamiltonian expectation helpers


def h_expect(drive, alpha, t, eigenvalue=1.0):
    """<H> = 2 beta**2 Im(f(t) conj(alpha)) on a one-segment drive's path, beta the eigenvalue."""
    return 2.0 * eigenvalue**2 * np.imag(drive.segments[0].values(t) * np.conj(alpha))


def test_drive_h_expect_matches_constant_form():
    params = ConstantDriveParams(omega_d=0.5, delta=1.0, phi_l=0.4)
    drive = constant_drive(params)
    t = np.linspace(0.0, params.period, 101)
    alpha = alpha_array(drive, t)
    general = h_expect(drive, alpha, t)
    closed = constant_drive_h_expect(params)(alpha, t)
    assert np.allclose(general, closed, atol=1e-12)
    # the expectation is nonnegative along this loop and peaks at T/2
    assert np.min(general) >= -1e-12
    assert np.argmax(general) == 50


def test_drive_h_expect_eigenvalue_scaling():
    drive = constant_drive(ConstantDriveParams(omega_d=0.5, delta=1.0))
    t = np.linspace(0.0, TWO_PI, 51)
    alpha = alpha_array(drive, t)
    unit = h_expect(drive, alpha, t, eigenvalue=1.0)
    doubled = h_expect(drive, alpha, t, eigenvalue=2.0)
    assert np.allclose(doubled, 4.0 * unit, atol=1e-12)


# ---------------------------------------------------------------------------
# serialization


def test_drive_dict_round_trip():
    drive = square_loop(conditioner=jz_conditioner())
    data = drive_to_dict(drive)
    rebuilt = drive_from_dict(data)
    assert rebuilt.conditioner.name == "jz"
    assert len(rebuilt.segments) == 4
    t = np.linspace(0.0, 4.0, 101)
    assert np.allclose(alpha_array(rebuilt, t), alpha_array(drive, t), atol=1e-15)


def _kicked_square(kick):
    """A unit idle, then a square whose two horizontal sides are kicks of length ``kick``."""
    pulses = ((1.0, 0.0), (kick, 1.0 / kick), (1.0, 1j), (kick, -1.0 / kick), (1.0, -1j))
    return tuple(DriveSegment(duration, amplitude) for duration, amplitude in pulses)


@pytest.mark.parametrize(
    "segments, message",
    [
        # 1 + 1e-17 == 1: the walk would drop both kicks' chords.
        (_kicked_square(1e-17),
         "segment 1 must end after its start, at a finite time: 1 + 1e-17 rounds to 1"),
        # The last segment too: 3 + 1e-16 == 3.
        ((DriveSegment(3.0, 1.0), DriveSegment(1e-16, 1.0)),
         "segment 1 must end after its start, at a finite time: 3 + 1e-16 rounds to 3"),
        ((DriveSegment(1e308), DriveSegment(1e308)),
         "segment 1 must end after its start, at a finite time: 1e+308 + 1e+308 rounds to inf"),
        ((DriveSegment(1.0, 1e308), DriveSegment(1.0, 1e308)),
         "segment 1 ends at a non-finite alpha: the path overflows"),
        ((DriveSegment(2.0, 1e308), DriveSegment(1.0)),
         "segment 0 ends at a non-finite alpha: the path overflows"),
    ],
)
def test_drive_profile_refuses_what_floats_cannot_lay_out(segments, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DriveProfile(segments, odd_parity_projector())


def test_drive_profile_keeps_short_segments_that_floats_resolve():
    drive = DriveProfile(_kicked_square(1e-3), odd_parity_projector())
    assert gamma0(drive) == pytest.approx(2.0, rel=1e-12)


def test_drive_dict_rejects_unknown_keys():
    data = drive_to_dict(constant_drive(ConstantDriveParams(omega_d=0.5, delta=1.0)))
    data["color"] = "red"
    with pytest.raises(ConfigError):
        drive_from_dict(data)


@pytest.mark.parametrize("version", [99, "1", True, 1.0])
def test_drive_dict_rejects_bad_schema_version(version):
    # Only the JSON integer 1: true and 1.0 compare equal to 1 but are not it.
    data = drive_to_dict(constant_drive(ConstantDriveParams(omega_d=0.5, delta=1.0)))
    data["schema_version"] = version
    with pytest.raises(ConfigError, match=f"unsupported drive schema_version: {version!r}$"):
        drive_from_dict(data)


def test_drive_dict_rejects_malformed_segments():
    base = drive_to_dict(constant_drive(ConstantDriveParams(omega_d=0.5, delta=1.0)))
    for mangle in (
        lambda d: d.update(segments=[]),
        lambda d: d["segments"][0].pop("duration"),
        lambda d: d["segments"][0].update(amplitude=[1.0]),
        lambda d: d["segments"][0].update(shape="round"),
        # Numbers must be JSON numbers: no strings, no booleans.
        lambda d: d["segments"][0].update(duration="1"),
        lambda d: d["segments"][0].update(amplitude=[True, 0]),
        lambda d: d["segments"][0].update(amplitude=[0.5, "0"]),
        lambda d: d["segments"][0].update(frequency=False),
        lambda d: d["segments"][0].update(frequency=None),
        # An integer past the float range.
        lambda d: d["segments"][0].update(duration=10**400),
    ):
        data = {
            "schema_version": base["schema_version"],
            "conditioner": base["conditioner"],
            "segments": [dict(base["segments"][0])],
        }
        mangle(data)
        with pytest.raises(ConfigError):
            drive_from_dict(data)
