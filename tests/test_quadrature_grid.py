"""The dense quadratures against direct np.exp references.

The package evaluates exp(-i w t) on its own np.linspace grids as an outer
product of about 2*sqrt(N) exponentials (phasespace.uniform_exp).  These
tests pin that table against np.exp, and every quadrature that uses it (eta
sweep, time scan, area study, gamma0) against a reference written here with
one np.exp per sample.  The eta sweep and the time scan stream their grid in
blocks of table rows; they are also pinned against one dense block.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopgate import robustness
from loopgate.drives import (
    MAX_SAMPLES,
    ConstantDriveParams,
    DriveProfile,
    DriveSegment,
    constant_drive,
    constant_drive_h_expect,
    gamma0,
    induced_trajectory,
)
from loopgate.errors import InvalidTrajectoryError
from loopgate.gates import jz_conditioner, odd_parity_projector
from loopgate.phasespace import Trajectory, _exp_factors, analytic_trajectory, uniform_exp
from loopgate.robustness import (
    ETA_SWEEP_SAMPLES,
    NONCYCLIC_SAMPLES,
    SweepSpec,
    _constant_drive_phases,
    area_invariance_study,
    eta_invariance_sweep,
    noncyclic_scan,
)

TWO_PI = 2.0 * math.pi
BASE = ConstantDriveParams(omega_d=0.65, delta=1.3, phi_l=0.4)
ETA_GRIDS = [
    ("omega_over_delta", (0.2, 0.5, 1.0)),
    ("phi_l", (-2.0, 0.0, 1.5)),
    ("delta", (0.5, 1.3, 2.2)),
]


# ---------------------------------------------------------------------------
# direct references: one np.exp per sample


def direct_constant_phases(params, t):
    """Geometric and dynamic phase of the constant-drive path on grid t."""
    alpha = 1j * params.ratio * (np.exp(-1j * params.delta * t) - 1.0) * np.exp(1j * params.phi_l)
    geometric = -np.sum(np.imag(np.conj(alpha[:-1]) * alpha[1:]))
    energy = 2.0 * params.omega_d**2 / params.delta * (1.0 - np.cos(params.delta * t))
    return geometric, -np.trapezoid(energy, t)


def direct_path(drive, t):
    """f and alpha of a piecewise drive at the times t, segment by segment."""
    f = np.empty(t.shape, dtype=complex)
    alpha = np.empty(t.shape, dtype=complex)
    start, alpha_start = 0.0, 0j
    for segment in drive.segments:
        s = t - start
        # Later segments overwrite: a boundary time belongs to the later one.
        run = s >= 0.0
        if segment.func is not None:
            f[run] = segment.func(s[run])
            alpha[run] = alpha_start + segment.alpha_increment(s[run])
            alpha_start += segment.alpha_increment(np.array([segment.duration]))[0]
        elif segment.frequency == 0.0:
            f[run] = segment.amplitude
            alpha[run] = alpha_start - segment.amplitude * s[run]
            alpha_start -= segment.amplitude * segment.duration
        else:
            w, a = segment.frequency, segment.amplitude
            rotation = np.exp(-1j * w * s[run])
            f[run] = a * rotation
            alpha[run] = alpha_start - a * (1.0 - rotation) / (1j * w)
            alpha_start -= a * (1.0 - np.exp(-1j * w * segment.duration)) / (1j * w)
        start += segment.duration
    return f, alpha


def tone(r, delta, periods=1.0, phase=0.0):
    amplitude = -r * delta * np.exp(1j * phase)
    return DriveSegment(duration=periods * TWO_PI / delta, amplitude=amplitude, frequency=delta)


def callable_tone(r, delta, phase=0.0):
    amplitude = -r * delta * np.exp(1j * phase)
    return DriveSegment(
        duration=TWO_PI / delta, func=lambda s: amplitude * np.exp(-1j * delta * s)
    )


# Closed multi-segment loops: tones, a pulse out and back, a callable tone.
MIXED_LOOPS = {
    "two-tones": (tone(0.4, 1.1), tone(0.3, 2.0, phase=0.7)),
    "pulse-tone-pulse": (
        DriveSegment(duration=0.5, amplitude=0.6 - 0.2j),
        tone(0.5, 0.9, phase=-1.2),
        DriveSegment(duration=0.5, amplitude=-0.6 + 0.2j),
    ),
    "tone-callable-tone": (tone(0.3, 1.7), callable_tone(0.4, 1.0, phase=0.3), tone(0.2, 0.6)),
}


def mixed_drive(name):
    return DriveProfile(segments=MIXED_LOOPS[name], conditioner=odd_parity_projector())


# ---------------------------------------------------------------------------
# the table exponential


@pytest.mark.parametrize("n", [2, 3, 63, 64, 20_001, 400_001])
@pytest.mark.parametrize("periods", [1.0, 10.0])
@pytest.mark.parametrize("start", [0.0, 2.7])
def test_uniform_exp_matches_np_exp(n, periods, start):
    rate = 1.3
    t = np.linspace(0.0, start + periods * TWO_PI / rate, n)
    # A segment starting at `start`: its local times are a shifted slice.
    s = t[t >= start] - start if start else t
    reference = np.exp(-1j * rate * s)
    table = uniform_exp(rate, s)
    assert table.shape == reference.shape
    assert np.max(np.abs(table - reference)) <= 2e-14
    assert table[-1] == reference[-1]


# ---------------------------------------------------------------------------
# the quadratures that use it


@pytest.mark.parametrize("parameter, grid", ETA_GRIDS)
def test_eta_sweep_matches_direct_reference(parameter, grid):
    samples = 40_001
    report = eta_invariance_sweep(
        SweepSpec(parameter=parameter, grid=grid, base=BASE), samples=samples
    )
    for value, row in zip(grid, report.rows):
        if parameter == "omega_over_delta":
            params = ConstantDriveParams(value * BASE.delta, BASE.delta, BASE.phi_l)
        elif parameter == "phi_l":
            params = ConstantDriveParams(BASE.omega_d, BASE.delta, value)
        else:
            params = ConstantDriveParams(BASE.ratio * value, value, BASE.phi_l)
        geometric, dynamic = direct_constant_phases(
            params, np.linspace(0.0, params.period, samples)
        )
        assert row.geometric == pytest.approx(geometric, rel=1e-12, abs=1e-12)
        assert row.dynamic == pytest.approx(dynamic, rel=1e-12, abs=1e-12)


def test_time_scan_matches_direct_reference():
    samples = 30_001
    times = [0.3, 2.0, 4.5 * BASE.period, 10.0 * BASE.period]
    report = noncyclic_scan(BASE, times, samples=samples, analytic_tolerance=1e-4)
    for t, row in zip(times, report.rows):
        geometric, dynamic = direct_constant_phases(BASE, np.linspace(0.0, t, samples))
        assert row.geometric == pytest.approx(geometric, rel=1e-12, abs=1e-12)
        assert row.dynamic == pytest.approx(dynamic, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", sorted(MIXED_LOOPS))
def test_area_study_matches_direct_reference(name):
    drive = mixed_drive(name)
    samples = 30_001
    row = area_invariance_study([drive], samples=samples).rows[0]
    t = np.linspace(0.0, drive.total_duration, samples)
    f, alpha = direct_path(drive, t)
    geometric = -np.sum(np.imag(np.conj(alpha[:-1]) * alpha[1:]))
    dynamic = -np.trapezoid(2.0 * np.imag(f * np.conj(alpha)), t)
    assert row.geometric == pytest.approx(geometric, rel=1e-12, abs=1e-12)
    assert row.dynamic == pytest.approx(dynamic, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", sorted(MIXED_LOOPS))
@pytest.mark.parametrize("fraction", [1.0, 0.77])
def test_gamma0_and_path_match_direct_reference(name, fraction):
    drive = mixed_drive(name)
    tau = fraction * drive.total_duration
    samples = 20_001
    t = np.linspace(0.0, tau, samples)
    f, alpha = direct_path(drive, t)
    reference = -np.trapezoid(np.imag(np.conj(alpha) * f), t)
    assert gamma0(drive, tau, samples) == pytest.approx(reference, rel=1e-12, abs=1e-12)
    path = induced_trajectory(drive, tau, samples).points
    assert np.max(np.abs(path - alpha)) <= 1e-13


def test_gamma0_of_a_constant_drive_matches_direct_reference():
    drive = constant_drive(BASE, periods=3.5, conditioner=jz_conditioner())
    samples = 20_001
    t = np.linspace(0.0, drive.total_duration, samples)
    f, alpha = direct_path(drive, t)
    reference = -np.trapezoid(np.imag(np.conj(alpha) * f), t)
    assert gamma0(drive, samples=samples) == pytest.approx(reference, rel=1e-12, abs=1e-12)


def test_energy_scale_overflow_is_still_a_value_error():
    params = ConstantDriveParams(omega_d=1e155, delta=1.0)
    with pytest.raises(ValueError, match="omega_d\\^2 overflows"):
        constant_drive_h_expect(params)
    spec = SweepSpec(parameter="omega_over_delta", grid=(1e200,), base=BASE)
    with pytest.raises(ValueError, match="omega_d\\^2 overflows"):
        eta_invariance_sweep(spec, samples=1_001)
    with pytest.raises(ValueError, match="omega_d\\^2 overflows"):
        noncyclic_scan(params, [1.0], samples=1_001)


# ---------------------------------------------------------------------------
# trajectories own their arrays


def test_trajectory_arrays_are_independent_of_the_callers():
    times = np.array([0.0, 0.5, 1.0])
    points = np.array([0j, 1.0 + 0j, 0j])
    grid = np.linspace(0.0, TWO_PI, 11)
    built = [
        Trajectory(times, points),
        analytic_trajectory(0.5, 1.0, 0.0, grid),
    ]
    before = [(tr.times.copy(), tr.points.copy()) for tr in built]
    times[1] = 0.7
    points[1] = 5.0j
    grid[3] = -1.0
    for trajectory, (t0, z0) in zip(built, before):
        assert np.array_equal(trajectory.times, t0)
        assert np.array_equal(trajectory.points, z0)
    for trajectory in built + [induced_trajectory(mixed_drive("two-tones"), samples=101)]:
        assert not trajectory.times.flags.writeable
        assert not trajectory.points.flags.writeable
        with pytest.raises(ValueError):
            trajectory.points[0] = 1.0


def test_quadratures_on_the_package_grids_build_no_trajectory(monkeypatch):
    # The public constructor copies and checks every sample; the package's
    # own grids are integrated without it.
    built = []
    real_post_init = Trajectory.__post_init__

    def counting_post_init(self):
        built.append(self.times.size)
        real_post_init(self)

    monkeypatch.setattr(Trajectory, "__post_init__", counting_post_init)
    eta_invariance_sweep(SweepSpec(parameter="phi_l", grid=(0.0, 1.0), base=BASE), samples=1_001)
    noncyclic_scan(BASE, [0.0, 2.0, BASE.period], samples=1_001, analytic_tolerance=1e-4)
    for name in sorted(MIXED_LOOPS):
        area_invariance_study([mixed_drive(name)], samples=1_001)
        gamma0(mixed_drive(name), samples=1_001)
    assert built == []
    Trajectory(np.linspace(0.0, 1.0, 3), np.zeros(3))
    assert built == [3]


# ---------------------------------------------------------------------------
# structural guard: the number of exponentials, not a wall-clock time


@pytest.mark.parametrize("parameter, grid", ETA_GRIDS)
def test_eta_sweep_exponentiates_few_elements(monkeypatch, parameter, grid):
    exponentiated = []
    real_exp = np.exp

    def counting_exp(x, *args, **kwargs):
        exponentiated.append(np.size(x))
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    report = eta_invariance_sweep(
        SweepSpec(parameter=parameter, grid=grid, base=BASE), samples=ETA_SWEEP_SAMPLES
    )
    assert len(report.rows) == 3
    assert 0 < sum(exponentiated) < 10_000


# ---------------------------------------------------------------------------
# the streamed quadrature of the eta sweep and the time scan

BLOCK = robustness._BLOCK_SAMPLES
STREAM_SAMPLES = [
    2,
    3,
    BLOCK - 1,
    BLOCK,
    BLOCK + 1,
    2 * BLOCK - 1,
    2 * BLOCK + 1,
    3 * BLOCK - 1,
    3 * BLOCK + 1,
    # Blocks of 90 rows of 181 samples: two full ones, then two and one sample.
    32_580,
    32_581,
    ETA_SWEEP_SAMPLES,
]


def sweep_phases(params, samples, periods):
    """Geometric and dynamic phases of one eta-sweep point and one time-scan time."""
    spec = SweepSpec(parameter="phi_l", grid=(params.phi_l,), base=params)
    eta_row = eta_invariance_sweep(spec, samples=samples).rows[0]
    time = periods * params.period
    scan_row = noncyclic_scan(
        params, [time], samples=samples, analytic_tolerance=math.inf
    ).rows[0]
    return [eta_row.geometric, eta_row.dynamic, scan_row.geometric, scan_row.dynamic]


@pytest.mark.parametrize("samples", STREAM_SAMPLES)
@settings(max_examples=4, deadline=None, database=None, derandomize=True)
@given(
    ratio=st.floats(0.05, 3.0),
    delta=st.floats(0.2, 5.0),
    phi_l=st.floats(-math.pi, math.pi),
    periods=st.floats(0.05, 10.0),
)
def test_streamed_quadrature_matches_one_dense_block(samples, ratio, delta, phi_l, periods):
    params = ConstantDriveParams(omega_d=ratio * delta, delta=delta, phi_l=phi_l)
    streamed = sweep_phases(params, samples, periods)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(robustness, "_BLOCK_SAMPLES", MAX_SAMPLES)
        dense = sweep_phases(params, samples, periods)
    for value, reference in zip(streamed, dense):
        assert abs(value - reference) <= 1e-13 * max(1.0, abs(reference))


@pytest.mark.parametrize(
    "ratio, energy_scale, message",
    [
        # On half a period the energies E (1 - cos) overflow from about 0.26
        # periods on, in the second of four blocks; the path r (1 - cos) only
        # from about 0.40, in the third.
        (1e308, 1.7e308, "trajectory contains non-finite samples"),
        # A finite path whose chord products overflow.
        (1e160, 1.7e308, "geometric phase overflows"),
        (1.0, 1.7e308, "Hamiltonian expectation produced non-finite values"),
        # Finite energies (at most 1.6e308) whose integral, 8e307 * pi, is not.
        (1.0, 8e307, "dynamic phase overflows"),
    ],
)
def test_streamed_checks_keep_their_order_across_blocks(ratio, energy_scale, message):
    t = np.linspace(0.0, math.pi, 3 * BLOCK + 1)
    params = SimpleNamespace(ratio=ratio, phi_l=0.0, energy_scale=energy_scale)
    with pytest.raises(InvalidTrajectoryError, match=message):
        _constant_drive_phases(params, t, _exp_factors(1.0, t))


def test_streamed_quadrature_holds_no_sample_sized_arrays_but_the_grid():
    spec = SweepSpec(parameter="phi_l", grid=(0.4,), base=BASE)
    eta_invariance_sweep(spec, samples=1_001)
    tracemalloc.start()
    try:
        eta_invariance_sweep(spec, samples=ETA_SWEEP_SAMPLES)
        eta_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        noncyclic_scan(BASE, [2.0], samples=NONCYCLIC_SAMPLES)
        scan_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The time grids alone take 3.2 and 1.6 MB.
    assert eta_peak < 6e6
    assert scan_peak < 4e6
