"""The quadratures against direct np.exp references.

The package evaluates exp(-i w t) on its own np.linspace grids as an outer
product of about 2*sqrt(N) exponentials (phasespace._exp_factors and
phasespace._exp_rows).  These
tests pin that table against np.exp, and every quadrature that uses it (eta
sweep, time scan, area study, gamma0) against a reference written here with
one np.exp per sample; the eta sweep's reference is extrapolated from the
grid and its every other sample, as the sweep is.  Every quadrature streams
its grid in blocks: the eta sweep and the time scan in blocks of table
rows, gamma0 and the area study through the drive walk (drives._walk); each
is also pinned against one dense block, and the walk against np.linspace
and drives._locate, as are the oracle's runs of step midpoints.
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from loopgate import cli, drives, oracle, phasespace, robustness
from loopgate.drives import (
    MAX_SAMPLES,
    ConstantDriveParams,
    DriveProfile,
    DriveSegment,
    constant_drive,
    constant_drive_h_expect,
    four_pulse_sequence,
    gamma0,
    induced_trajectory,
)
from loopgate.errors import InvalidTrajectoryError
from loopgate.gates import jz_conditioner, odd_parity_projector
from loopgate.phasespace import (
    Trajectory,
    _chord_sum,
    _exp_factors,
    _exp_rows,
    _trapezoid_sum,
    analytic_trajectory,
    constant_drive_alpha,
)
from loopgate.robustness import (
    ETA_SWEEP_SAMPLES,
    NONCYCLIC_SAMPLES,
    SweepSpec,
    _scaled_phases,
    _unit_sums,
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


@pytest.fixture
def uncached_unit_loop():
    """Clears the eta sweep's once-per-process unit loop, so a spy on _unit_sums sees its walks.

    Yields the clearing function, for a property that runs many examples.
    """
    clear = robustness._extrapolated_unit_sums.cache_clear
    clear()
    yield clear
    clear()


# ---------------------------------------------------------------------------
# direct references: one np.exp per sample


def direct_constant_phases(params, t):
    """Geometric and dynamic phase of the constant-drive path on grid t."""
    alpha = 1j * params.ratio * (np.exp(-1j * params.delta * t) - 1.0) * np.exp(1j * params.phi_l)
    geometric = -np.sum(np.imag(np.conj(alpha[:-1]) * alpha[1:]))
    energy = 2.0 * params.omega_d**2 / params.delta * (1.0 - np.cos(params.delta * t))
    return geometric, -np.trapezoid(energy, t)


def extrapolated(fine, coarse):
    """Richardson's (4 S_N - S_half) / 3 of the sums on a grid and on its every other sample."""
    return [(4.0 * f - c) / 3.0 for f, c in zip(fine, coarse)]


def direct_path(drive, t):
    """f and alpha of a piecewise drive at the times t, segment by segment."""
    f = np.empty(t.shape, dtype=complex)
    alpha = np.empty(t.shape, dtype=complex)
    start, alpha_start = 0.0, 0j
    for segment in drive.segments:
        s = t - start
        # Later segments overwrite: a boundary time belongs to the later one.
        run = s >= 0.0
        if segment.frequency == 0.0:
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


# Closed multi-segment loops: tones, and a pulse out and back.
MIXED_LOOPS = {
    "two-tones": (tone(0.4, 1.1), tone(0.3, 2.0, phase=0.7)),
    "pulse-tone-pulse": (
        DriveSegment(duration=0.5, amplitude=0.6 - 0.2j),
        tone(0.5, 0.9, phase=-1.2),
        DriveSegment(duration=0.5, amplitude=-0.6 + 0.2j),
    ),
    "three-tones": (tone(0.3, 1.7), tone(0.4, 1.0, phase=0.3), tone(0.2, 0.6)),
}


def mixed_drive(name):
    return DriveProfile(segments=MIXED_LOOPS[name], conditioner=odd_parity_projector())


# ---------------------------------------------------------------------------
# the table exponential


def uniform_exp(rate, s):
    """The whole table of exp(-1j * rate * s) on the equally spaced times s."""
    out, tile = np.empty((2, s.size), dtype=complex)
    return _exp_rows(_exp_factors(rate, s.size, s.take), 0, s.size, s.size, out, tile)


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
        t = np.linspace(0.0, params.period, samples)
        geometric, dynamic = extrapolated(
            direct_constant_phases(params, t), direct_constant_phases(params, t[::2])
        )
        assert row.geometric == pytest.approx(geometric, rel=1e-12, abs=1e-12)
        assert row.dynamic == pytest.approx(dynamic, rel=1e-12, abs=1e-12)


def scan_grid(times, t, samples):
    """A time scan's samples up to t: the nodes of its one walk up to t, then t itself.

    The walk runs on np.linspace(0, max(times), samples); t is added
    unless it is a node.
    """
    nodes = np.linspace(0.0, max(times), samples)
    nodes = nodes[nodes <= t]
    return nodes if nodes[-1] == t else np.append(nodes, t)


def test_time_scan_matches_direct_reference():
    samples = 30_001
    times = [0.3, 2.0, 4.5 * BASE.period, 10.0 * BASE.period]
    report = noncyclic_scan(BASE, times, samples=samples, analytic_tolerance=1e-4)
    for t, row in zip(times, report.rows):
        geometric, dynamic = direct_constant_phases(BASE, scan_grid(times, t, samples))
        assert row.geometric == pytest.approx(geometric, rel=1e-12, abs=1e-12)
        assert row.dynamic == pytest.approx(dynamic, rel=1e-12, abs=1e-12)


def walk_reference(drive, tau, samples):
    """Chord sum and trapezoids of the drive, segment by segment, one np.exp per sample.

    Each segment up to tau is sampled at its two vertices and at the points
    of np.linspace(0, tau, samples) strictly inside it, f from the segment
    itself at both vertices.  Returns the chord sum of alpha, the trapezoid
    of Im(conj(alpha) f) and that of the energy 2 Im(f conj(alpha)).
    """
    grid = np.linspace(0.0, tau, samples)
    starts = drive.segment_starts
    chord = gamma = energy = 0.0
    for i, segment in enumerate(drive.segments):
        if starts[i] >= tau:
            break
        stop = min(starts[i + 1], tau) if i + 1 < len(starts) else tau
        t = np.concatenate([[starts[i]], grid[(grid > starts[i]) & (grid < stop)], [stop]])
        s = np.minimum(t, drive.total_duration) - starts[i]
        a, w = segment.amplitude, segment.frequency
        f = a * np.exp(-1j * w * s)
        step = -a * s if w == 0.0 else -a * (1.0 - np.exp(-1j * w * s)) / (1j * w)
        alpha = drive.segment_alpha_starts[i] + step
        chord += -np.sum(np.imag(np.conj(alpha[:-1]) * alpha[1:]))
        gamma += -np.trapezoid(np.imag(np.conj(alpha) * f), t)
        energy += -np.trapezoid(2.0 * np.imag(f * np.conj(alpha)), t)
    return chord, gamma, energy


@pytest.mark.parametrize("name", sorted(MIXED_LOOPS))
def test_area_study_matches_direct_reference(name):
    drive = mixed_drive(name)
    samples = 30_001
    row = area_invariance_study([drive], samples=samples).rows[0]
    geometric, _, dynamic = walk_reference(drive, drive.total_duration, samples)
    assert row.geometric == pytest.approx(geometric, rel=1e-12, abs=1e-12)
    assert row.dynamic == pytest.approx(dynamic, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", sorted(MIXED_LOOPS))
@pytest.mark.parametrize("fraction", [1.0, 0.77])
def test_gamma0_and_path_match_direct_reference(name, fraction):
    drive = mixed_drive(name)
    tau = fraction * drive.total_duration
    samples = 20_001
    _, reference, _ = walk_reference(drive, tau, samples)
    assert gamma0(drive, tau, samples) == pytest.approx(reference, rel=1e-12, abs=1e-12)
    # The induced trajectory is the path on the plain grid.
    t = np.linspace(0.0, tau, samples)
    _, alpha = direct_path(drive, t)
    trajectory = induced_trajectory(drive, tau, samples)
    assert trajectory.times.tobytes() == t.tobytes()
    assert np.max(np.abs(trajectory.points - alpha)) <= 1e-13


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
def test_eta_sweep_exponentiates_few_elements(monkeypatch, uncached_unit_loop, parameter, grid):
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

BLOCK = phasespace._BLOCK_SAMPLES
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
    400_001,
]


def sweep_phases(params, samples, periods):
    """Geometric and dynamic phases of one eta-sweep point and one time-scan time.

    The eta sweep takes an odd count, so it runs on 2 * samples - 1, whose
    every other sample makes a walk of ``samples``.
    """
    spec = SweepSpec(parameter="phi_l", grid=(params.phi_l,), base=params)
    eta_row = eta_invariance_sweep(spec, samples=2 * samples - 1).rows[0]
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
        patch.setattr(phasespace, "_BLOCK_SAMPLES", MAX_SAMPLES)
        dense = sweep_phases(params, samples, periods)
    for value, reference in zip(streamed, dense):
        assert abs(value - reference) <= 1e-13 * max(1.0, abs(reference))


@pytest.mark.parametrize("samples", [2, 3, BLOCK - 1, 2 * BLOCK + 1, 32_580])
def test_unit_sums_read_every_time_off_one_walk(samples):
    # Every node and the midpoint after it, near the start and across the
    # first block edge (a block is BLOCK samples less at most one table row),
    # then the grid's end.
    tau = 2.0 * math.pi
    grid = np.linspace(0.0, tau, samples)
    near = [*range(3), *range(BLOCK - 300, BLOCK + 2)]
    nodes = [k for k in near if 0 < k < samples - 1]
    midpoints = {(grid[k] + grid[k + 1]) / 2 for k in near if k < samples - 1}
    times = sorted({grid[k] for k in nodes} | midpoints) + [tau]
    sums = _unit_sums(1.0, times, samples)
    assert len(sums) == len(times)
    for time, (chord, trapezoid, peak) in zip(times, sums):
        t = scan_grid(times, time, samples)
        u = np.exp(-1j * t) - 1.0
        reference = -np.sum(np.imag(np.conj(u[:-1]) * u[1:])), np.trapezoid(u.real, t)
        for value, want in zip((chord, trapezoid), reference):
            assert abs(value - want) <= 1e-13 * max(1.0, abs(want))
        assert peak == pytest.approx(np.max(-u.real), abs=1e-15)


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
    samples = 3 * BLOCK + 1
    (unit,) = _unit_sums(1.0, [math.pi], samples)
    with pytest.raises(InvalidTrajectoryError, match=message):
        _scaled_phases(ratio, energy_scale, math.pi, samples, unit)


def test_streamed_quadrature_holds_no_sample_sized_arrays_but_the_grid():
    spec = SweepSpec(parameter="phi_l", grid=(0.4,), base=BASE)
    eta_invariance_sweep(spec, samples=ETA_SWEEP_SAMPLES)
    scans = [[2.0], [0.3, 2.0, 0.0, 1.1, 0.7]]
    for times in scans:
        noncyclic_scan(BASE, times, samples=NONCYCLIC_SAMPLES)
    tracemalloc.start()
    try:
        eta_invariance_sweep(spec, samples=ETA_SWEEP_SAMPLES)
        peaks = [tracemalloc.get_traced_memory()[1]]
        for times in scans:
            tracemalloc.reset_peak()
            noncyclic_scan(BASE, times, samples=NONCYCLIC_SAMPLES)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    # The first walks grow the workspace to about 1.07 MB, so each quadrature
    # is warmed up first.
    assert max(peaks) < 128 * 1024


def dense_constant_phases(params, t):
    """Chord sum and np.trapezoid of the path constant_drive_alpha on t, one sample at a time."""
    alpha = constant_drive_alpha(params.ratio, params.delta, params.phi_l, t)
    geometric = -np.sum(np.imag(np.conj(alpha[:-1]) * alpha[1:]))
    return geometric, -np.trapezoid(constant_drive_h_expect(params)(alpha, t), t)


# Odd sample counts, as the eta sweep takes them: 2 * intervals + 1.
odd_samples = st.one_of(st.integers(1, 100), st.integers(1, 3 * BLOCK // 2)).map(
    lambda half: 2 * half + 1
)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    ratios=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3),
    delta=st.floats(0.2, 5.0),
    phi_l=st.floats(-math.pi, math.pi),
    eta_samples=odd_samples,
    samples=st.one_of(st.integers(2, 200), st.integers(2, 3 * BLOCK + 1)),
    periods=st.lists(st.floats(0.05, 10.0), min_size=1, max_size=2),
)
def test_scaled_unit_loop_matches_a_dense_reference(
    ratios, delta, phi_l, eta_samples, samples, periods
):
    # Every point of an omega_over_delta sweep scales one extrapolated unit
    # loop; every time of a scan reads one unextrapolated walk to its latest.
    base = ConstantDriveParams(omega_d=ratios[0] * delta, delta=delta, phi_l=phi_l)
    sweep = eta_invariance_sweep(
        SweepSpec(parameter="omega_over_delta", grid=tuple(ratios), base=base),
        samples=eta_samples,
    )
    times = [p * base.period for p in periods]
    scan = noncyclic_scan(base, times, samples=samples, analytic_tolerance=math.inf)
    checks = []
    for ratio, row in zip(ratios, sweep.rows):
        params = ConstantDriveParams(omega_d=ratio * delta, delta=delta, phi_l=phi_l)
        t = np.linspace(0.0, params.period, eta_samples)
        reference = extrapolated(
            dense_constant_phases(params, t), dense_constant_phases(params, t[::2])
        )
        checks.append(((row.geometric, row.dynamic), reference))
    for time, row in zip(times, scan.rows):
        t = scan_grid(times, time, samples)
        checks.append(((row.geometric, row.dynamic), dense_constant_phases(base, t)))
    for values, references in checks:
        for value, reference in zip(values, references):
            assert abs(value - reference) <= 1e-13 * max(1.0, abs(reference))


@pytest.mark.parametrize(
    "parameter, grid",
    [
        ("omega_over_delta", (0.2, 0.5, 1.0, 1.4)),
        ("phi_l", (-2.0, 0.0, 1.5)),
        ("delta", (1.0, 1.0, 2.0, 0.5)),
    ],
)
def test_eta_sweep_walks_one_unit_loop_per_sweep(monkeypatch, uncached_unit_loop, parameter, grid):
    calls = []
    real_unit_sums = robustness._unit_sums

    def counting_unit_sums(delta, times, samples):
        calls.append(samples)
        return real_unit_sums(delta, times, samples)

    monkeypatch.setattr(robustness, "_unit_sums", counting_unit_sums)
    report = eta_invariance_sweep(SweepSpec(parameter=parameter, grid=grid, base=BASE))
    assert len(report.rows) == len(grid)
    # The whole grid, then every other sample, whatever the detunings.
    assert calls == [ETA_SWEEP_SAMPLES, (ETA_SWEEP_SAMPLES + 1) // 2]


def test_a_second_eta_sweep_walks_no_unit_loop(monkeypatch, capsys, uncached_unit_loop):
    # The unit loop depends on the sample count alone, so a process walks it once.
    calls = []
    real_unit_sums = robustness._unit_sums

    def counting_unit_sums(delta, times, samples):
        calls.append(samples)
        return real_unit_sums(delta, times, samples)

    monkeypatch.setattr(robustness, "_unit_sums", counting_unit_sums)
    outputs = []
    for parameter, grid in (("phi_l", "-0.5,0.5"), ("delta", "0.5,2"), ("phi_l", "-0.5,0.5")):
        assert cli.main(["sweep", "--parameter", parameter, "--grid", grid]) == 0
        outputs.append(capsys.readouterr())
        if len(outputs) == 1:
            assert calls == [ETA_SWEEP_SAMPLES, (ETA_SWEEP_SAMPLES + 1) // 2]
    assert len(calls) == 2
    assert outputs[2] == outputs[0]
    # A cleared cache walks the loop again and prints the same bytes.
    uncached_unit_loop()
    assert cli.main(["sweep", "--parameter", "phi_l", "--grid", "-0.5,0.5"]) == 0
    assert capsys.readouterr() == outputs[0]
    assert len(calls) == 4


@settings(
    max_examples=40,
    deadline=None,
    database=None,
    derandomize=True,
    # The fixture only hands over the cache's clearing function, called per example.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    radius=st.floats(-1.0, 2.0).map(lambda e: 10.0**e),
    delta=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    phi_l=st.floats(-math.pi, math.pi),
    samples=st.one_of(st.integers(1, 100), st.integers(100, 50_000)).map(lambda k: 2 * k + 1),
)
def test_extrapolated_eta_sweep_is_fourth_order(
    uncached_unit_loop, radius, delta, phi_l, samples
):
    # On M intervals of one period (x = 2 pi) the unit chord sum S_N is off
    # by M sin(x/M) - x, and the extrapolation S_N + (S_N - S_half) / 3 by
    # -x**5 / (30 M**4) to leading order, with alternating terms beyond.
    uncached_unit_loop()
    sums = []
    real_unit_sums = robustness._unit_sums

    def recording_unit_sums(delta, times, samples):
        (unit,) = real_unit_sums(delta, times, samples)
        sums.append(unit)
        return [unit]

    params = ConstantDriveParams(omega_d=radius * delta, delta=delta, phi_l=phi_l)
    spec = SweepSpec(parameter="phi_l", grid=(phi_l,), base=params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(robustness, "_unit_sums", recording_unit_sums)
        row = eta_invariance_sweep(spec, samples=samples).rows[0]
    intervals, x = samples - 1, TWO_PI
    area = TWO_PI * radius**2
    bound = radius**2 * x**5 / (30.0 * intervals**4) + 1e-13 * max(1.0, area)
    assert abs(row.total + area) <= bound
    assert abs(row.geometric - area) <= bound
    assert abs(row.dynamic + 2.0 * area) <= 2.0 * bound
    # (S_N - S_half) / 3 estimates the correction x - S_N of the plain sum,
    # up to a relative x**2 / (5 M**2) of it.
    (chord, _, _), (coarse_chord, _, _) = sums
    if intervals >= 200:
        correction = x - chord
        assert abs((chord - coarse_chord) / 3.0 - correction) <= 1e-3 * abs(correction)
    with pytest.raises(ValueError, match="an eta sweep needs an odd number of samples"):
        eta_invariance_sweep(spec, samples=samples + 1)


# ---------------------------------------------------------------------------
# the drive walk behind gamma0, the area study and induced_trajectory


def walked(drive, tau, samples):
    """The walk's samples by segment: times, f and alpha of each segment's blocks joined.

    A block whose first sample is the last of the block before, bit for bit,
    continues that block's segment, and its carried sample is dropped; the
    drives here differ in f at every vertex two segments share.
    """
    segments, last = [], None
    for t, f, alpha in drives._walk(drive, tau, samples, phasespace._workspace()):
        block = [t.copy(), f.copy(), alpha.copy()]
        if last == b"".join(x[:1].tobytes() for x in block):
            segments[-1] = [np.concatenate((a, b[1:])) for a, b in zip(segments[-1], block)]
        else:
            segments.append(block)
        last = b"".join(x[-1:].tobytes() for x in block)
    return segments


def tones(durations):
    """Tones of amplitude 1, 2, 3, ...: |f| names the segment of each sample."""
    segments = tuple(
        DriveSegment(duration=d, amplitude=float(k + 1), frequency=1.0)
        for k, d in enumerate(durations)
    )
    return DriveProfile(segments=segments, conditioner=jz_conditioner())


def check_walked_segments(drive, tau, samples):
    """Each segment up to tau: its vertices at its ends, its own f, and the grid inside it.

    The points inside are those of np.linspace strictly between the
    vertices, bit for bit, each where _locate puts it, and alpha is the
    closed form to rounding.
    """
    grid = np.linspace(0.0, tau, samples)
    starts = drive.segment_starts
    stops = [*np.minimum(starts[1:], tau), tau]
    segments = walked(drive, tau, samples)
    assert len(segments) == np.count_nonzero(starts < tau)
    for k, (t, f, alpha) in enumerate(segments):
        assert (t[0], t[-1]) == (starts[k], stops[k])
        assert np.array_equal(np.rint(np.abs(f)), np.full(t.size, k + 1.0))
        inside = t[1:-1]
        assert inside.tobytes() == grid[(grid > starts[k]) & (grid < stops[k])].tobytes()
        if inside.size:
            assert np.array_equal(drives._locate(drive, inside)[0], np.full(inside.size, k))
        want = np.concatenate([[drive.segment_alpha_starts[k]], drives.alpha_array(drive, t[1:])])
        assert np.max(np.abs(alpha - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


WALK_SAMPLES = [2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK + 1, 65_537]


@pytest.mark.parametrize("samples", WALK_SAMPLES)
@pytest.mark.parametrize("tau", [5e-324, 1e-3, 1.0, 1e300])
def test_walk_times_are_linspace_bit_for_bit(samples, tau):
    # One tone: its two vertices, and the grid strictly between them.
    ((t, _, _),) = walked(tones([tau]), tau, samples)
    grid = np.linspace(0.0, tau, samples)
    inside = grid[(grid > 0.0) & (grid < tau)]
    assert t.tobytes() == np.concatenate([[0.0], inside, [tau]]).tobytes()


def midpoint_runs(drive, tau, steps, monkeypatch):
    """The segment of each step midpoint, from the runs the oracle finds for them."""
    found = []

    def recording(*args):
        found.append(drives._segment_bounds(*args))
        return found[-1]

    monkeypatch.setattr(oracle, "_segment_bounds", recording)
    # jz propagates one sector and mirrors the other; leakage does not matter here.
    oracle.propagate(drive, tau, oracle.FockSpace(2), steps, with_operator=False, leakage_tol=2.0)
    (bounds,) = found
    return np.repeat(np.arange(len(drive.segments)), np.diff(bounds))


@pytest.mark.parametrize(
    "durations, samples",
    [
        # Grid steps of 1/8 put samples exactly on both segment starts.
        ((0.25, 0.5, 0.25), 9),
        ((0.25, 0.5, 0.25), 2 * BLOCK + 1),
        ((0.5, 1e-9, 0.25), BLOCK + 1),
        # Steps of 1/2 and 1/10 put midpoints exactly on both segment starts.
        ((0.25, 0.5, 0.25), 2),
        ((0.25, 0.5, 0.25), 10),
    ],
)
@pytest.mark.parametrize("stretch", [1.0, 1.0 + 1e-12, 1.0 + 1e-13])
def test_walk_runs_on_segment_starts_match_locate(durations, samples, stretch, monkeypatch):
    # The walk on samples grid times, and the oracle on as many step midpoints.
    drive = tones(durations)
    tau = drive.total_duration * stretch
    check_walked_segments(drive, tau, samples)
    index, _ = drives._locate(drive, (np.arange(samples) + 0.5) * (tau / samples))
    assert np.array_equal(midpoint_runs(drive, tau, samples, monkeypatch), index)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    durations=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=6),
    samples=st.integers(2, 3 * BLOCK + 1),
    fraction=st.one_of(st.floats(1e-3, 1.0), st.just(1.0), st.just(1.0 + 1e-12)),
)
def test_walk_runs_match_locate(durations, samples, fraction):
    drive = tones(durations)
    tau = drive.total_duration * fraction
    try:
        drives._locate(drive, np.linspace(0.0, tau, samples))
    except ValueError as exc:
        # Past a total of 1, total * (1 + 1e-12) can round one step beyond
        # the window's slack; the walk then refuses it as _locate does.
        with pytest.raises(ValueError, match="outside the drive window") as refused:
            walked(drive, tau, samples)
        assert str(refused.value) == str(exc)
        return
    check_walked_segments(drive, tau, samples)


# A closed polygon of pulses through the origin: with stretch 1 and a whole
# number of samples per unit of time its vertices lie on the grid.
polygon_corners = st.lists(
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=2, max_size=5
)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(
    corners=polygon_corners,
    units=st.lists(st.integers(1, 4), min_size=6, max_size=6),
    stretch=st.one_of(st.just(1.0), st.floats(0.01, 3.0)),
    per_unit=st.one_of(st.none(), st.integers(1, 2_000)),
    samples=st.one_of(st.integers(2, 100), st.integers(2, 70_000)),
)
def test_polygon_phases_are_its_shoelace_sum_at_any_sample_count(
    corners, units, stretch, per_unit, samples
):
    path = [0j, *(complex(x, y) for x, y in corners), 0j]
    durations = [stretch * u for u in units[: len(path) - 1]]
    if per_unit is not None:
        samples = min(per_unit * sum(units[: len(path) - 1]) + 1, 70_000)
    segments = tuple(
        DriveSegment(duration=d, amplitude=-(b - a) / d)
        for a, b, d in zip(path[:-1], path[1:], durations)
    )
    drive = DriveProfile(segments=segments, conditioner=odd_parity_projector())
    vertices = [*drive.segment_alpha_starts, 0j]
    edges = list(zip(vertices[:-1], vertices[1:]))
    shoelace = math.fsum(np.imag(np.conj(a) * b) for a, b in edges)
    # The size of the terms that round, so a line out and back has a scale.
    scale = math.fsum(abs(b - a) * (abs(a) + abs(b)) for a, b in edges)
    assert abs(gamma0(drive, samples=samples) - shoelace) <= 1e-12 * scale
    assume(abs(shoelace) > 1e-3 * scale)
    row = area_invariance_study([drive], samples=samples).rows[0]
    assert abs(row.geometric + shoelace) <= 1e-12 * scale
    assert abs(row.eta + 2.0) <= 1e-13 * scale / abs(shoelace)


def test_a_pulse_document_builds_no_table_and_walks_two_samples_per_pulse(monkeypatch):
    tables = []
    real_exp_factors = drives._exp_factors
    monkeypatch.setattr(
        drives, "_exp_factors", lambda *args: tables.append(args) or real_exp_factors(*args)
    )
    drive = four_pulse_sequence([1.0, 1.0j, -1.0, -1.0j], [1.0, 0.3, 1.0, 0.3])
    work = phasespace._workspace()
    for samples in (2, 3, 20_001, 65_537):
        # Cut inside the third pulse, the walk stops there.
        for tau, pulses in ((drive.total_duration, 4), (1.8, 3)):
            blocks = [t.size for t, _, _ in drives._walk(drive, tau, samples, work)]
            assert blocks == [2] * pulses
        gamma0(drive, samples=samples)
        area_invariance_study([drive], samples=samples)
    assert tables == []
    gamma0(mixed_drive("pulse-tone-pulse"), samples=101)
    assert len(tables) == 1


def loop_phases(drive, samples):
    """gamma0 and the area study's geometric and dynamic phase of one closed loop."""
    row = area_invariance_study([drive], samples=samples).rows[0]
    return [gamma0(drive, samples=samples), row.geometric, row.dynamic]


@pytest.mark.parametrize("samples", [2, 3, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1, 65_537])
@settings(max_examples=3, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(MIXED_LOOPS)))
def test_walked_quadratures_match_one_dense_block(samples, name):
    drive = mixed_drive(name)
    streamed = loop_phases(drive, samples)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phasespace, "_BLOCK_SAMPLES", MAX_SAMPLES)
        dense = loop_phases(drive, samples)
    for value, reference in zip(streamed, dense):
        assert abs(value - reference) <= 1e-13 * max(1.0, abs(reference))


def test_workspace_grows_to_the_largest_block_and_never_shrinks(monkeypatch):
    drive = mixed_drive("two-tones")
    gamma0(drive, samples=3 * BLOCK + 1)
    monkeypatch.setattr(phasespace, "_BLOCK_SAMPLES", 2 * BLOCK)
    gamma0(drive, samples=3 * BLOCK + 1)
    monkeypatch.undo()
    reference = gamma0(drive, samples=3 * BLOCK + 1)
    work = phasespace._workspace()
    assert work.block == BLOCK
    assert work.ramp.size >= 2 * BLOCK + 1
    assert np.array_equal(work.ramp[: 2 * BLOCK + 1], np.arange(2 * BLOCK + 1))
    assert gamma0(drive, samples=3 * BLOCK + 1) == reference


def test_threads_walk_in_their_own_workspaces():
    drive = mixed_drive("pulse-tone-pulse")
    reference = loop_phases(drive, 2 * BLOCK + 1)
    results = []

    def work():
        for _ in range(3):
            results.append(loop_phases(drive, 2 * BLOCK + 1))

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [reference] * 12


def test_walked_quadratures_allocate_no_block_arrays():
    polygon = four_pulse_sequence([1.0, 1.0j, -1.0, -1.0j], [1.0] * 4)
    loop = constant_drive(BASE, conditioner=jz_conditioner())
    peaks = []
    for run in (
        lambda: area_invariance_study([polygon], samples=65_537),
        lambda: gamma0(loop, samples=20_001),
    ):
        run()
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # One dense 100,001-sample loop of the area study took about 10 MB.
    assert max(peaks) < 128 * 1024


# ---------------------------------------------------------------------------
# the sums find every non-finite sample, so the scans run only on failure

NON_FINITE = [math.inf, -math.inf, math.nan]


def finite_samples(size, kind):
    rng = np.random.default_rng(size)
    if kind == "zeros":
        return np.zeros(size)
    scale = 1e300 if kind == "huge" else 1.0
    return scale * rng.standard_normal(size)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(
    size=st.one_of(st.integers(2, 40), st.integers(2, BLOCK + 1)),
    where=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    value=st.sampled_from(NON_FINITE),
    part=st.sampled_from(["real", "imag"]),
    kind=st.sampled_from(["normal", "zeros", "huge"]),
)
def test_a_non_finite_sample_makes_the_chord_sum_non_finite(size, where, value, part, kind):
    z = finite_samples(size, kind) + 1j * finite_samples(size + 1, kind)[1:]
    getattr(z, part)[round(where * (size - 1))] = value
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(_chord_sum(z, np.empty(size, dtype=complex)))


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(
    size=st.one_of(st.integers(2, 40), st.integers(2, BLOCK + 1)),
    where=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    value=st.sampled_from(NON_FINITE),
    kind=st.sampled_from(["normal", "zeros", "huge"]),
)
def test_a_non_finite_energy_makes_the_trapezoid_non_finite(size, where, value, kind):
    energy = finite_samples(size, kind)
    energy[round(where * (size - 1))] = value
    times = np.linspace(0.0, 3.0, size)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(_trapezoid_sum(energy, times, np.empty(2 * size)))


def test_area_study_checks_keep_their_order_across_blocks():
    # A tone of amplitude 1e308 closes within the rounding of its overflowing
    # peak.  Its energies overflow from the second sample on, its path only
    # from about a third of the way round, in a later block.
    loop = DriveProfile(
        (DriveSegment(duration=2.0 * math.pi, amplitude=1e308, frequency=1.0),),
        odd_parity_projector(),
    )
    samples = 4 * BLOCK + 1
    with np.errstate(all="ignore"):
        ((_, f, alpha),) = walked(loop, loop.total_duration, samples)
        energy = 2.0 * np.imag(f * np.conj(alpha))
        first_bad_energy = np.argmin(np.isfinite(energy))
        first_bad_path = np.argmin(np.isfinite(alpha))
        assert 0 < first_bad_energy < BLOCK < first_bad_path
        with pytest.raises(InvalidTrajectoryError, match="trajectory contains non-finite samples"):
            area_invariance_study([loop], samples=samples)
