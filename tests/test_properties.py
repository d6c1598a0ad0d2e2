"""Properties of the loop phase over generated tones and pulse polygons."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopgate.drives import (
    ConstantDriveParams,
    DriveProfile,
    DriveSegment,
    constant_drive,
    drive_from_dict,
    drive_to_dict,
    gamma0,
)
from loopgate.gates import jy_conditioner, jz_conditioner, odd_parity_projector
from loopgate.oracle import DEFAULT_LEAKAGE_TOL, FockSpace, propagate
from loopgate.robustness import area_invariance_study

PROPERTY = settings(max_examples=25, deadline=None, database=None, derandomize=True)

# A polygon's pulses last whole units of T/16 with T a power of two, and
# 2**16 + 1 samples put a grid point on every vertex, where the trapezoid
# rule is exact for a piecewise-constant drive.
UNITS = 16
POLYGON_SAMPLES = 2**16 + 1


@st.composite
def polygons(draw):
    """Closed polygon through the origin, its cut points and its duration."""
    coordinate = st.floats(-1.0, 1.0)
    corners = draw(st.integers(2, 5))
    vertices = [0j] + [complex(draw(coordinate), draw(coordinate)) for _ in range(corners)]
    cuts = sorted(
        draw(st.lists(st.integers(1, UNITS - 1), min_size=corners, max_size=corners, unique=True))
    )
    total = draw(st.sampled_from((1.0, 2.0, 4.0)))
    return vertices, cuts, total


def polygon_drive(vertices, cuts, total, turn=1.0 + 0j):
    """Pulses tracing ``vertices`` (rotated by ``turn``) and back to the origin."""
    closed = [v * turn for v in vertices] + [0j]
    counts = [b - a for a, b in zip([0] + cuts, cuts + [UNITS])]
    segments = []
    for i, count in enumerate(counts):
        duration = count * total / UNITS
        segments.append(
            DriveSegment(duration=duration, amplitude=-(closed[i + 1] - closed[i]) / duration)
        )
    return DriveProfile(segments=tuple(segments), conditioner=odd_parity_projector())


def shoelace_area(vertices):
    closed = list(vertices) + [vertices[0]]
    return 0.5 * sum((a.conjugate() * b).imag for a, b in zip(closed[:-1], closed[1:]))


@PROPERTY
@given(
    r=st.floats(0.05, 1.2),
    delta=st.floats(0.3, 3.0),
    phi_l=st.floats(-math.pi, math.pi),
    x=st.floats(0.01, 4.0 * math.pi),
)
def test_gamma0_of_a_tone_is_the_closed_form(r, delta, phi_l, x):
    # Open or closed, the tone's loop phase at delta*tau = x is r^2 (sin x - x);
    # 200,001 samples keep the trapezoid error under 5e-10 here.
    drive = constant_drive(ConstantDriveParams(omega_d=r * delta, delta=delta, phi_l=phi_l), 2.0)
    assert gamma0(drive, x / delta, 200_001) == pytest.approx(
        r * r * (math.sin(x) - x), abs=1e-9
    )


@PROPERTY
@given(polygons())
def test_gamma0_of_a_pulse_polygon_is_twice_its_area(polygon):
    vertices, cuts, total = polygon
    drive = polygon_drive(vertices, cuts, total)
    assert gamma0(drive, samples=POLYGON_SAMPLES) == pytest.approx(
        2.0 * shoelace_area(vertices), abs=1e-9
    )


@PROPERTY
@given(polygons(), st.floats(-math.pi, math.pi))
def test_area_study_is_invariant_under_rotation(polygon, angle):
    vertices, cuts, total = polygon
    loops = [polygon_drive(vertices, cuts, total, turn) for turn in (1.0, cmath.exp(1j * angle))]
    # The study itself raises when the two geometric phases differ by more.
    report = area_invariance_study(loops, samples=POLYGON_SAMPLES, agreement_tolerance=1e-9)
    for row in report.rows:
        assert row.geometric == pytest.approx(-2.0 * shoelace_area(vertices), abs=1e-9)


@PROPERTY
@given(polygons(), st.lists(st.floats(0.25, 4.0), min_size=6, max_size=6))
def test_area_study_is_invariant_under_time_reparametrisation(polygon, stretches):
    # Each pulse of the document lasts s times as long at 1/s of its
    # amplitude: the same polygon, traversed at a different rate per side.
    vertices, cuts, total = polygon
    document = drive_to_dict(polygon_drive(vertices, cuts, total))
    for segment, stretch in zip(document["segments"], stretches):
        segment["duration"] *= stretch
        segment["amplitude"] = [part / stretch for part in segment["amplitude"]]
    loops = [polygon_drive(vertices, cuts, total), drive_from_dict(document)]
    # The study itself raises when the two geometric phases differ by more
    # than its agreement tolerance.
    report = area_invariance_study(loops)
    tolerance = report.metadata["agreement_tolerance"]
    assert report.metadata["geometric_phase_spread"] <= tolerance
    for row in report.rows:
        assert row.geometric == pytest.approx(-2.0 * shoelace_area(vertices), abs=tolerance)


@st.composite
def sampled_tones(draw):
    """A tone of radius <= 0.4, its step count and step indices to sample it at."""
    frequency = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 2.0))
    radius = draw(st.floats(0.05, 0.4))
    amplitude = radius * abs(frequency) * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    duration = 2.0 * math.pi * draw(st.floats(0.2, 2.0)) / abs(frequency)
    steps = draw(st.integers(120, 1_500))
    index = draw(st.lists(st.integers(0, steps), max_size=6))
    return DriveSegment(duration=duration, amplitude=amplitude, frequency=frequency), steps, index


@PROPERTY
@given(sampled_tones())
def test_sampled_oracle_dynamic_phase_matches_the_stepped_twin(tone):
    # One run of 120 steps or more takes the closed form, whose dynamic phase
    # is the Dirichlet-kernel sum up to each sampled step; the same f(t) as a
    # callable segment is stepped one exponential at a time.
    segment, steps, index = tone
    twin = DriveSegment(
        duration=segment.duration,
        func=lambda t: segment.amplitude * np.exp(-1j * segment.frequency * t),
    )
    times = [k * segment.duration / steps for k in index]
    dynamic = [
        propagate(
            DriveProfile(segments=(s,), conditioner=odd_parity_projector()),
            space=FockSpace(12),
            steps=steps,
            sample_times=times,
            with_operator=False,
        ).samples["dynamic_phase"]
        for s in (segment, twin)
    ]
    assert dynamic[0].shape == (len(index), 4)
    assert np.max(np.abs(dynamic[0] - dynamic[1]), initial=0.0) < 1e-9


def _recombined_per_state(run):
    """Each basis state's series recombined on its own, from ``run.sectors``.

    Returns, per state, the unwrapped total phase at every grid point, the
    dynamic phase at the read indices, the leakage at every grid point and
    the final and smallest overlap moduli.
    """
    weights = np.zeros((4, len(run.sectors)))
    for k in range(4):
        weights[:, run.column_sector[k]] += np.abs(run.eigenvector_columns[:, k]) ** 2
    states = []
    for j in range(4):
        parts = [(weights[j, i], s) for i, s in enumerate(run.sectors) if weights[j, i]]
        overlap = sum(w * s.overlap_series for w, s in parts)
        increments = np.angle(overlap[1:] * np.conj(overlap[:-1]))
        states.append((
            np.concatenate([[0.0], np.cumsum(increments)]),
            sum(w * s.dynamic_series for w, s in parts),
            sum(w * s.leakage_series for w, s in parts),
            abs(overlap[-1]),
            np.min(np.abs(overlap)),
        ))
    return states


@PROPERTY
@given(sampled_tones())
def test_states_sharing_a_mix_of_series_keep_their_own_recombination(tone):
    # propagate recombines once per distinct mix of sector series and takes
    # the identity sector alone without an unwrap; every float must equal
    # the state-by-state recombination bit for bit.
    segment, steps, index = tone
    space = FockSpace(32)
    times = [k * segment.duration / steps for k in index]
    read = sorted({*index, steps})
    at = [read.index(k) for k in index]
    for conditioner, initial_fock, with_operator in itertools.product(
        (jy_conditioner, jz_conditioner, odd_parity_projector), (0, 2, space.n_max), (True, False)
    ):
        run = propagate(
            DriveProfile(segments=(segment,), conditioner=conditioner()),
            space=space,
            steps=steps,
            initial_fock=initial_fock,
            leakage_tol=2.0 if initial_fock == space.n_max else DEFAULT_LEAKAGE_TOL,
            sample_times=times,
            with_operator=with_operator,
        )
        states = _recombined_per_state(run)
        for j, (phases, dynamic, leakage, final, least) in enumerate(states):
            assert run.total_phase[j] == phases[steps]
            assert run.dynamic_phase[j] == dynamic[-1]
            assert run.overlap_modulus[j] == final
            assert run.min_overlap_modulus[j] == least
            assert np.array_equal(run.samples["total_phase"][:, j], phases[index])
            assert np.array_equal(run.samples["dynamic_phase"][:, j], dynamic[at])
        assert run.leakage == max(np.max(leakage) for _, _, leakage, _, _ in states)
        sampled = np.max([leakage[index] for _, _, leakage, _, _ in states], axis=0)
        assert np.array_equal(run.samples["leakage"], sampled)
