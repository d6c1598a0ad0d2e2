"""Tests for the truncated-Fock-space brute-force propagator.

The oracle is the package's independent referee, so these tests check it
against yet another layer of references: scipy dense exponentials for the
stepping itself, the per-step loop for the closed-form segment runs, closed
forms for the physics, and explicit bookkeeping for the per-state
recombination.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from loopgate import drives, oracle
from loopgate.drives import (
    ConstantDriveParams,
    DriveProfile,
    DriveSegment,
    constant_drive,
    four_pulse_sequence,
    gamma0,
)
from loopgate.errors import TruncationError, UndefinedPhaseError
from loopgate.gates import (
    SpinConditioner,
    collective_gate,
    jy_conditioner,
    jz_conditioner,
    odd_parity_projector,
)
from loopgate.oracle import (
    DEFAULT_N_MAX,
    FockSpace,
    default_space,
    displacement_matrix,
    extract_total_phase,
    peak_excursion,
    propagate,
    verify_magnus_form,
)

TWO_PI = 2.0 * math.pi

HEADLINE = ConstantDriveParams(omega_d=0.5, delta=1.0)
HEADLINE_PHASE = -math.pi / 2.0


def headline_drive(conditioner=None):
    return constant_drive(HEADLINE, conditioner=conditioner)


def lowering(space):
    """The annihilation operator a on ``space``, built densely."""
    return np.diag(np.sqrt(np.arange(1.0, space.dimension)), 1).astype(complex)


@pytest.fixture(scope="module")
def headline_run():
    """Moderate-accuracy propagation reused across checks (no operator)."""
    return propagate(
        headline_drive(), space=FockSpace(32), steps=4_000, with_operator=False
    )


@pytest.fixture(scope="module")
def operator_run():
    """Propagation with full operator tracking on a small space, sampled every 1/8 period."""
    return propagate(
        headline_drive(),
        space=FockSpace(24),
        steps=2_000,
        sample_times=np.linspace(0.0, TWO_PI, 9),
    )


# ---------------------------------------------------------------------------
# Fock space and operator builders


def test_fock_space_operators():
    space = FockSpace(12)
    assert space.dimension == 13
    a = lowering(space)
    a_dag = a.conj().T
    commutator = a @ a_dag - a_dag @ a
    # canonical commutator holds except in the truncation corner
    assert np.allclose(commutator[:-1, :-1], np.eye(12), atol=1e-14)
    assert commutator[-1, -1] == pytest.approx(-12.0)
    assert np.allclose(np.diag(a_dag @ a), np.arange(13), atol=1e-14)
    vacuum = space.basis_state(0)
    assert vacuum[0] == 1.0 and np.all(vacuum[1:] == 0.0)


def test_fock_space_validation():
    with pytest.raises(ValueError):
        FockSpace(1)
    with pytest.raises(ValueError):
        FockSpace(10.5)
    with pytest.raises(ValueError):
        FockSpace(8).basis_state(9)


def joint_hamiltonian(drive, t, space):
    """kron(C, -i (f(t) a_dag - conj(f(t)) a)), spin-major, for a one-segment drive."""
    f = complex(drive.segments[0].values(float(t)))
    a = lowering(space)
    return np.kron(drive.conditioner.matrix, -1j * (f * a.conj().T - np.conj(f) * a))


def vacuum_conditioned_map(run):
    """Two-qubit map <j', n0| U |j, n0>: the gate seen by the initial Fock level."""
    finals = np.array([sector.overlap_series[-1] for sector in run.sectors])
    vectors = run.eigenvector_columns
    return (vectors * finals[run.column_sector]) @ vectors.conj().T


def test_build_hamiltonian_structure():
    space = FockSpace(6)
    drive = headline_drive()
    h = joint_hamiltonian(drive, 0.3, space)
    assert np.max(np.abs(h - h.conj().T)) < 1e-14
    f = complex(drive.segments[0].values(0.3))
    a = lowering(space)
    block = -1j * (f * a.conj().T - np.conj(f) * a)
    expected = np.kron(np.diag([0.0, 1.0, 1.0, 0.0]), block)
    assert np.allclose(h, expected, atol=1e-14)


def test_displacement_matrix_is_unitary():
    space = FockSpace(30)
    d = displacement_matrix(0.7 + 0.2j, space)
    assert np.linalg.norm(d.conj().T @ d - np.eye(space.dimension), 2) < 1e-12


def test_displacement_matrix_coherent_amplitudes():
    # column 0 must hold the coherent state e^{-|a|^2/2} a^n / sqrt(n!)
    alpha = 0.7 + 0.2j
    space = FockSpace(40)
    column = displacement_matrix(alpha, space)[:, 0]
    n = np.arange(11)
    expected = (
        np.exp(-abs(alpha) ** 2 / 2.0)
        * alpha ** n
        / np.sqrt([math.factorial(int(k)) for k in n])
    )
    assert np.max(np.abs(column[:11] - expected)) < 1e-12


def _dense_displacement(alpha, space):
    a = lowering(space)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def _displacement_cases():
    rng = np.random.default_rng(23)
    for dim in (9, 17, 33, 65, 129):
        for _ in range(4):
            alpha = rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(0.0, TWO_PI))
            yield dim, complex(alpha)
    for dim in (9, 65):
        yield from ((dim, 1.3 + 0j), (dim, -0.8 + 0j), (dim, 1.7j), (dim, -0.45j))


@pytest.mark.parametrize("dim,alpha", list(_displacement_cases()))
def test_displacement_matrix_matches_dense_exponential(dim, alpha):
    space = FockSpace(dim - 1)
    closed = displacement_matrix(alpha, space)
    assert np.max(np.abs(closed - _dense_displacement(alpha, space))) <= 1e-12


def test_displacement_matrix_of_zero_is_the_identity():
    for n_max in (8, 64):
        assert np.array_equal(displacement_matrix(0.0, FockSpace(n_max)), np.eye(n_max + 1))


def test_position_eigenbasis_is_cached_read_only():
    sq, w, Q = oracle._position_eigenbasis(17)
    assert oracle._position_eigenbasis(17)[2] is Q
    x = np.diag(sq, 1) + np.diag(sq, -1)
    assert np.max(np.abs((Q * w) @ Q.T - x)) < 1e-12
    for array in (sq, w, Q):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_peak_excursion_accounts_for_eigenvalues():
    assert peak_excursion(headline_drive()) == pytest.approx(1.0, abs=1e-6)
    assert peak_excursion(headline_drive(jz_conditioner())) == pytest.approx(
        2.0, abs=1e-6
    )


def test_default_space_escalates_with_loop_size():
    assert default_space(headline_drive()).n_max == DEFAULT_N_MAX
    # excursion^2 = 16 sits exactly at the n_max / 4 boundary: no escalation
    wide = constant_drive(ConstantDriveParams(omega_d=2.0, delta=1.0))
    assert default_space(wide).n_max == DEFAULT_N_MAX
    wider = constant_drive(ConstantDriveParams(omega_d=2.1, delta=1.0))
    assert default_space(wider).n_max == 71


def test_default_space_escalation_is_capped():
    # |alpha| peaks at 2 * 16.5 = 33, so the escalation would ask for
    # n_max = 4356; the cap stops it before any matrix is built.
    drive = constant_drive(ConstantDriveParams(omega_d=16.5, delta=1.0))
    with pytest.raises(ValueError, match="beyond the cap n_max <= 1024"):
        default_space(drive)
    with pytest.raises(ValueError, match="beyond the cap"):
        propagate(drive, steps=10)


# ---------------------------------------------------------------------------
# the stepping is the exact exponential of the midpoint Hamiltonian


def test_single_step_matches_dense_exponential():
    space = FockSpace(12)
    drive = headline_drive()
    tau = 0.3
    run = propagate(drive, tau=tau, space=space, steps=1)
    f = complex(drive.segments[0].values(tau / 2.0))
    a = lowering(space)
    h = -1j * (f * a.conj().T - np.conj(f) * a)
    expected = expm(-1j * tau * h)
    # the odd-parity projector's sectors are its distinct eigenvalues 0 and 1
    assert [s.eigenvalue for s in run.sectors] == [0.0, 1.0]
    assert np.max(np.abs(run.sectors[1].evolution - expected)) < 1e-13


def test_joint_matrix_matches_dense_product():
    # Full joint evolution for a non-diagonal conditioner, against an
    # independently computed ordered product of scipy exponentials on the
    # same midpoint grid.  Agreement is at rounding level because each step
    # of the oracle is an exact exponential.
    space = FockSpace(7)
    drive = constant_drive(
        ConstantDriveParams(omega_d=0.15, delta=1.0), conditioner=jy_conditioner()
    )
    steps = 50
    run = propagate(drive, space=space, steps=steps, leakage_tol=1e-3)
    dt = drive.total_duration / steps
    reference = np.eye(4 * space.dimension, dtype=complex)
    for k in range(steps):
        h = joint_hamiltonian(drive, (k + 0.5) * dt, space)
        reference = expm(-1j * dt * h) @ reference
    assert np.max(np.abs(run.joint_matrix() - reference)) < 1e-12


def test_zero_sector_is_identity(operator_run):
    sector = operator_run.sectors[operator_run.column_sector[0]]
    assert sector.eigenvalue == 0.0
    assert np.array_equal(sector.evolution, np.eye(25))
    _assert_constant_identity_series(sector, leakage=0.0)
    # dd and uu sit in the zero sector: no phase at any sampled time.
    samples = operator_run.samples
    assert samples["times"].size == 9
    for name in ("total_phase", "dynamic_phase"):
        assert np.all(samples[name][:, [0, 3]] == 0.0), name


def test_unitarity_defect_small(operator_run):
    assert operator_run.unitarity_defect < 1e-10


# ---------------------------------------------------------------------------
# physics of the headline loop


def test_headline_phases_match_closed_forms(headline_run):
    assert extract_total_phase(headline_run, 1) == pytest.approx(
        HEADLINE_PHASE, abs=1e-5
    )
    assert float(headline_run.dynamic_phase[1]) == pytest.approx(
        2.0 * HEADLINE_PHASE, abs=1e-5
    )
    # even-parity states idle under the projector
    assert extract_total_phase(headline_run, 0) == 0.0
    assert extract_total_phase(headline_run, 3) == 0.0


def test_headline_decomposition(headline_run):
    dec = headline_run.decomposition(1)
    assert dec.total == pytest.approx(HEADLINE_PHASE, abs=1e-5)
    assert dec.geometric == pytest.approx(-HEADLINE_PHASE, abs=1e-5)
    assert dec.dynamic == pytest.approx(2.0 * HEADLINE_PHASE, abs=1e-5)
    assert dec.eta == pytest.approx(-2.0, abs=1e-4)


def test_headline_overlap_returns_to_one(headline_run):
    assert float(headline_run.overlap_modulus[1]) == pytest.approx(1.0, abs=1e-6)
    # mid-loop the coherent state is a diameter away from the vacuum
    assert float(headline_run.min_overlap_modulus[1]) == pytest.approx(
        math.exp(-0.5), abs=1e-4
    )
    assert headline_run.leakage < 1e-10


def test_convergence_is_second_order():
    drive = constant_drive(ConstantDriveParams(omega_d=0.3, delta=1.0))
    target = -2.0 * math.pi * 0.09
    errors = []
    for steps in (500, 1_000, 2_000):
        run = propagate(drive, space=FockSpace(16), steps=steps, with_operator=False)
        errors.append(abs(extract_total_phase(run, 1) - target))
    assert errors[0] / errors[1] > 3.5
    assert errors[1] / errors[2] > 3.5


@pytest.mark.parametrize("spin_state,weight", [(0, 4.0), (1, 0.0), (2, 0.0), (3, 4.0)])
def test_jz_phases_scale_with_squared_eigenvalue(spin_state, weight):
    run = propagate(
        headline_drive(jz_conditioner()),
        space=FockSpace(40),
        steps=4_000,
        with_operator=False,
    )
    assert extract_total_phase(run, spin_state) == pytest.approx(
        weight * HEADLINE_PHASE, abs=1e-4
    )


def test_vacuum_conditioned_map_matches_collective_gate(headline_run):
    gate, _ = collective_gate(headline_drive())
    assert np.max(np.abs(vacuum_conditioned_map(headline_run) - gate.matrix)) < 1e-5


def test_spin_populations_conserved_in_conditioner_eigenbasis():
    space = FockSpace(7)
    drive = constant_drive(
        ConstantDriveParams(omega_d=0.15, delta=1.0), conditioner=jy_conditioner()
    )
    run = propagate(drive, space=space, steps=200, leakage_tol=1e-3)
    joint = run.joint_matrix()
    _, vectors = jy_conditioner().eigensystem()
    rng = np.random.default_rng(7)
    state = rng.normal(size=4 * space.dimension) + 1j * rng.normal(
        size=4 * space.dimension
    )
    state /= np.linalg.norm(state)
    final = joint @ state

    def sector_populations(psi):
        blocks = (vectors.conj().T @ psi.reshape(4, space.dimension)).reshape(4, -1)
        return np.sum(np.abs(blocks) ** 2, axis=1)

    assert np.max(
        np.abs(sector_populations(final) - sector_populations(state))
    ) < 1e-10


def test_initial_fock_level_sees_the_same_loop_phase():
    # <n|D(a)_dag H D(a)|n> does not depend on n, so the dynamic phase and
    # (at closure) the total phase match the vacuum values for any start level.
    drive = constant_drive(ConstantDriveParams(omega_d=0.2, delta=1.0))
    target = -2.0 * math.pi * 0.04
    run = propagate(
        drive, space=FockSpace(32), steps=3_000, initial_fock=1, with_operator=False
    )
    assert extract_total_phase(run, 1) == pytest.approx(target, abs=1e-5)
    assert float(run.dynamic_phase[1]) == pytest.approx(2.0 * target, abs=1e-5)
    assert float(run.min_overlap_modulus[1]) > 0.5


# ---------------------------------------------------------------------------
# failure paths


def test_truncation_error_reports_recommendation():
    drive = constant_drive(ConstantDriveParams(omega_d=1.0, delta=1.0))
    with pytest.raises(TruncationError) as info:
        propagate(drive, space=FockSpace(4), steps=200, with_operator=False)
    assert info.value.leakage > 1e-6
    assert info.value.recommended_n_max == 16


def test_truncation_advice_is_the_default_space_rule():
    # Radius 2.5 peaks at |alpha| = 5, where the rule asks for 4 * 25 = 100 levels.
    drive = constant_drive(ConstantDriveParams(omega_d=2.5, delta=1.0))
    with pytest.raises(TruncationError) as info:
        propagate(drive, space=FockSpace(40), steps=2_000, with_operator=False)
    assert info.value.recommended_n_max == default_space(drive).n_max > 64


def test_undefined_phase_error_when_overlap_vanishes():
    # |alpha|^2 peaks at 29.16, so the vacuum overlap dips to ~4.7e-7 and the
    # accumulated argument stops being meaningful.
    drive = constant_drive(ConstantDriveParams(omega_d=2.7, delta=1.0))
    run = propagate(drive, steps=400, with_operator=False)
    assert run.space.n_max == 117
    assert float(run.min_overlap_modulus[1]) < 1e-6
    with pytest.raises(UndefinedPhaseError):
        extract_total_phase(run, 1)
    with pytest.raises(UndefinedPhaseError):
        run.decomposition(1)
    # the even-parity states never move, so their phase is still available
    assert extract_total_phase(run, 0) == 0.0


def test_propagate_validation():
    drive = headline_drive()
    space = FockSpace(8)
    with pytest.raises(ValueError):
        propagate(drive, tau=0.0, space=space)
    with pytest.raises(ValueError):
        propagate(drive, tau=drive.total_duration * 2.0, space=space)
    with pytest.raises(ValueError):
        propagate(drive, space=space, steps=0)
    with pytest.raises(ValueError):
        propagate(drive, space=space, steps=100, initial_fock=9)


def test_extract_total_phase_validates_state(headline_run):
    with pytest.raises(ValueError):
        extract_total_phase(headline_run, 4)
    # basis labels are a report vocabulary, not an index
    with pytest.raises(ValueError):
        headline_run.decomposition("du")


def test_joint_matrix_requires_operator_tracking(headline_run):
    with pytest.raises(ValueError):
        headline_run.joint_matrix()


# ---------------------------------------------------------------------------
# phase snapshots on the step grid


def test_sample_times_snapshots():
    drive = headline_drive()
    run = propagate(
        drive,
        space=FockSpace(24),
        steps=1_000,
        sample_times=[0.0, math.pi, TWO_PI],
        with_operator=False,
    )
    samples = run.samples
    assert samples["total_phase"].shape == (3, 4)
    assert np.allclose(samples["times"], [0.0, math.pi, TWO_PI], atol=1e-12)
    assert np.allclose(samples["total_phase"][0], 0.0, atol=0)
    assert np.allclose(samples["total_phase"][-1], run.total_phase, atol=0)
    assert np.allclose(samples["dynamic_phase"][-1], run.dynamic_phase, atol=0)
    # half way around: half the full-period phase accumulation
    assert samples["total_phase"][1][1] == pytest.approx(
        HEADLINE_PHASE / 2.0, abs=1e-4
    )


def test_sample_times_must_sit_on_grid(monkeypatch):
    # Checked before any sector is propagated.
    calls = []
    monkeypatch.setattr(oracle, "_propagate_sector", lambda *args: calls.append(args))
    for bad in (TWO_PI / 3.0, -TWO_PI / 1_000, 1.001 * TWO_PI, math.nan):
        with pytest.raises(ValueError, match="does not lie on the step grid"):
            propagate(
                headline_drive(jz_conditioner()),
                space=FockSpace(16),
                steps=1_000,
                sample_times=[0.0, math.pi, bad],
                with_operator=False,
            )
    assert calls == []


# ---------------------------------------------------------------------------
# displacement-form check


def test_magnus_form_residual_small():
    assert verify_magnus_form(headline_drive(), space=FockSpace(32), steps=8_000) < 1e-4


def test_magnus_form_converges_second_order():
    residuals = [
        verify_magnus_form(headline_drive(), space=FockSpace(48), steps=steps)
        for steps in (1_000, 2_000, 4_000)
    ]
    assert residuals[0] / residuals[1] > 3.0
    assert residuals[1] / residuals[2] > 3.0


def test_magnus_form_rejects_unsupported_drives():
    square = four_pulse_sequence(
        amplitudes=(-1.0, 1.0j, 1.0, -1.0j), durations=(1.0, 1.0, 1.0, 1.0)
    )
    with pytest.raises(ValueError):
        verify_magnus_form(square, space=FockSpace(8), steps=100)
    from loopgate.gates import odd_parity_projector

    resonant = DriveProfile(
        segments=(DriveSegment(duration=1.0, amplitude=0.1, frequency=0.0),),
        conditioner=odd_parity_projector(),
    )
    with pytest.raises(ValueError):
        verify_magnus_form(resonant, space=FockSpace(8), steps=100)


@pytest.mark.parametrize(
    "tau,steps,message",
    [
        (0.0, 100, "tau must lie in (0, "),
        (None, 0, "steps must be positive, got 0"),
        (None, -3, "steps must be positive, got -3"),
    ],
)
def test_magnus_form_checks_tau_and_steps_as_propagate_does(tau, steps, message):
    drive = headline_drive()
    for check in (propagate, verify_magnus_form):
        with pytest.raises(ValueError) as info:
            check(drive, tau, FockSpace(16), steps)
        assert str(info.value).startswith(message)


# ---------------------------------------------------------------------------
# what a propagation records


def test_propagation_fields(headline_run):
    assert headline_run.space.n_max == 32
    assert headline_run.steps == 4_000
    assert headline_run.conditioner_name == "odd-parity-projector"
    assert headline_run.unitarity_defect is None
    assert headline_run.total_phase.shape == (4,)
    decomposition = headline_run.decomposition(1)
    assert decomposition.eta == pytest.approx(-2.0, abs=1e-4)
    assert decomposition.geometric == pytest.approx(-HEADLINE_PHASE, abs=1e-5)


# ---------------------------------------------------------------------------
# closed-form segment runs reproduce the per-step midpoint product


def _stepped(drive, **kwargs):
    """``propagate(drive, **kwargs)`` with every run taken one exponential at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_MIN_RUN_STEPS", math.inf)
        patch.setattr(oracle, "_MIN_RUN_STEPS_WITH_OPERATOR", math.inf)
        return propagate(drive, **kwargs)


def _polygon(amplitudes, durations):
    return four_pulse_sequence(amplitudes, durations, conditioner=odd_parity_projector())


def _boundary_polygon(steps):
    # A power-of-two step dt and durations in multiples of dt / 2 make every
    # segment start an exact step midpoint of the grid with tau = steps * dt.
    dt = 2.0 ** -math.floor(math.log2(steps / 2.5))
    durations = (0.5 + dt / 2.0, 0.75, 0.75, steps * dt - 2.0 - dt / 2.0)
    chords = (0.5, 0.5j, -0.5, -0.5j)
    drive = _polygon([-c / d for c, d in zip(chords, durations)], durations)
    midpoints = (np.arange(steps) + 0.5) * (drive.total_duration / steps)
    assert np.all(np.isin(drive.segment_starts[1:], midpoints))
    return drive


def _pulse_then_tone(periods, conditioner):
    """A pulse moving alpha by 0.2, then ``periods`` turns of a radius-0.05 tone."""
    tone = 2.0 * math.pi * periods
    return DriveProfile(
        segments=(
            DriveSegment(duration=tone / 4.0, amplitude=0.8 / tone),
            DriveSegment(duration=tone, amplitude=-0.05j, frequency=1.0),
        ),
        conditioner=conditioner,
    )


# case: (drive builder taking the step count, propagate keyword arguments).
# The default space, n_max 16, holds |beta * alpha| up to 1; the headline
# loop reaches 2 under jz and jy.
EQUIVALENCE_CASES = {
    "headline-odd-parity": (lambda steps: headline_drive(), {"with_operator": True}),
    "headline-jz": (lambda steps: headline_drive(jz_conditioner()), {"space": FockSpace(24)}),
    "headline-jy": (lambda steps: headline_drive(jy_conditioner()), {"space": FockSpace(24)}),
    "boundary-polygon": (_boundary_polygon, {"with_operator": True}),
    # Two detuned tones cut short of a period: the frame turn L^K of the
    # first run carries into the second, and into the operator.
    "two-tones": (
        lambda steps: DriveProfile(
            segments=(
                DriveSegment(duration=1.7, amplitude=-0.4, frequency=1.0),
                DriveSegment(duration=2.1, amplitude=0.3j, frequency=-0.8),
            ),
            conditioner=odd_parity_projector(),
        ),
        {"with_operator": True},
    ),
    # n_max 8 leaves a top-level population of about 1e-11 for the zero
    # pulses to carry over.
    "zero-middle-pulse": (
        lambda steps: _polygon((-0.4, 0.0, 0.4j, 0.0), (1.0, 0.7, 1.0, 1.3)),
        {"space": FockSpace(8)},
    ),
    "tau-mid-segment": (lambda steps: headline_drive(), {"tau": 0.6 * TWO_PI}),
    # <1|D(alpha)|1> vanishes at |alpha| = 1, which the headline loop reaches;
    # radius 0.3 keeps the level-1 overlap, and so its phase, well defined.
    "initial-fock-1": (
        lambda steps: constant_drive(ConstantDriveParams(omega_d=0.3, delta=1.0)),
        {"initial_fock": 1},
    ),
    "sample-times": (
        lambda steps: headline_drive(),
        {"sample_times": [0.0, math.pi, TWO_PI]},
    ),
    # A pulse, then a tone whose eigenphase arc at n_max 64 passes
    # oracle._ARC_LIMIT at 20k steps (125 periods, 128 steps each), so it
    # takes the general eigendecomposition; jz mirrors both runs into the
    # -2 sector.  The dynamic phase grows with the periods, and so does its
    # rounding; radius 0.05 keeps it near 16 rad.
    "jz-pulse-fast-tone": (
        lambda steps: _pulse_then_tone(max(1, steps // 160), jz_conditioner()),
        {"space": FockSpace(64)},
    ),
    # At 20k steps the last pulse gets 20 steps: below both break-evens.
    "short-run": (
        lambda steps: _polygon((-0.4, -0.4j, 0.4, 0.4j), (1.0, 1.0, 1.0, 0.003)),
        {"with_operator": True},
    ),
}


def _run_edge_times(drive, steps, tau):
    """Grid times at 0, at tau, and at each midpoint run's edges, next to them and half way."""
    dt = tau / steps
    segment_index, _ = drives._locate(drive, (np.arange(steps) + 0.5) * dt)
    edges = np.concatenate([[0], np.flatnonzero(np.diff(segment_index)) + 1, [steps]])
    inside = np.concatenate([edges + 1, edges - 1, (edges[:-1] + edges[1:]) // 2])
    index = np.unique(np.concatenate([edges, np.clip(inside, 0, steps)]))
    return list(index * dt)


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
@pytest.mark.parametrize(
    "steps,tol,force_closed_form", [(20_000, 1e-9, False), (48, 1e-12, True)]
)
def test_closed_form_runs_match_per_step_product(
    case, steps, tol, force_closed_form, monkeypatch
):
    if force_closed_form:
        # 48 steps would never leave the per-step loop; send every run of
        # the closed-form drive through its closed form instead.
        monkeypatch.setattr(oracle, "_MIN_RUN_STEPS", 1)
        monkeypatch.setattr(oracle, "_MIN_RUN_STEPS_WITH_OPERATOR", 1)
    make_drive, kwargs = EQUIVALENCE_CASES[case]
    drive = make_drive(steps)
    tau = kwargs.get("tau", drive.total_duration)
    kwargs = {
        "with_operator": False,
        "space": FockSpace(16),
        **kwargs,
        # The dynamic phase is computed only where it is read: check it at
        # every run edge, next to each edge and inside each run.
        "sample_times": kwargs.get("sample_times", []) + _run_edge_times(drive, steps, tau),
    }
    closed = propagate(drive, steps=steps, **kwargs)
    stepped = _stepped(drive, steps=steps, **kwargs)

    for name in ("total_phase", "dynamic_phase", "overlap_modulus", "min_overlap_modulus"):
        assert np.max(np.abs(getattr(closed, name) - getattr(stepped, name))) < tol, name
    assert abs(closed.leakage - stepped.leakage) < tol
    for name in ("times", "total_phase", "dynamic_phase", "leakage"):
        assert np.max(np.abs(closed.samples[name] - stepped.samples[name])) < tol, name
    for a, b in zip(closed.sectors, stepped.sectors, strict=True):
        for name in ("overlap_series", "dynamic_series", "leakage_series"):
            assert np.max(np.abs(getattr(a, name) - getattr(b, name))) < tol, name
        if kwargs["with_operator"]:
            assert np.max(np.abs(a.evolution - b.evolution)) < 1e-10
    if kwargs["with_operator"]:
        assert np.max(np.abs(closed.joint_matrix() - stepped.joint_matrix())) < 1e-10


@pytest.mark.parametrize("steps", [2_000, 100])
@pytest.mark.parametrize("scale", [1e-305, 1e-300, 1e-150, 1e5])
def test_propagation_is_invariant_under_time_rescaling(scale, steps):
    # Scaling omega and delta by s stretches time by 1/s: each step turns the
    # state by the same |g| dt, however small g gets.  2,000 steps take the
    # closed form, 100 the per-step loop.
    def phases(s):
        drive = constant_drive(ConstantDriveParams(omega_d=0.5 * s, delta=s))
        run = propagate(drive, space=FockSpace(24), steps=steps, with_operator=False)
        return np.concatenate([run.total_phase, run.dynamic_phase])

    assert np.max(np.abs(phases(scale) - phases(1.0))) < 1e-12


def test_dynamic_phase_of_a_later_tone_matches_the_walk():
    # The second tone starts at 1.7 and reads its local time t - 1.7; gamma0
    # integrates the same drive through the quadrature walk, and the dynamic
    # phase is 2 beta^2 gamma0 whether or not the loop closes.  A midpoint
    # rule across the jump between the tones leaves about 1.2e-7.
    drive = EQUIVALENCE_CASES["two-tones"][0](20_000)
    run = propagate(drive, space=FockSpace(16), steps=20_000, with_operator=False)
    assert run.dynamic_phase[1] == pytest.approx(2.0 * gamma0(drive, samples=200_001), abs=1e-6)


def test_sample_times_keep_their_order_and_repeats():
    drive = headline_drive()
    steps, tau = 1_000, 0.6 * TWO_PI
    grid = np.linspace(0.0, tau, steps + 1)
    index = [700, 3, steps, 3, 0, 512]
    run = propagate(
        drive, tau=tau, space=FockSpace(16), steps=steps, sample_times=grid[index],
        with_operator=False,
    )
    assert run.samples["times"].tobytes() == grid[index].tobytes()
    assert np.array_equal(run.samples["total_phase"][1], run.samples["total_phase"][3])
    assert np.array_equal(run.samples["total_phase"][2], run.total_phase)


def test_zero_eigenvalues_of_jy_form_an_exact_identity_sector():
    # eigh gives the two zero eigenvalues of jy as rounding noise (about
    # -4e-16); they form one sector with eigenvalue exactly 0, which takes
    # the identity shortcut instead of a propagation with a 1e-16 drive.
    drive = constant_drive(
        ConstantDriveParams(omega_d=0.15, delta=1.0), conditioner=jy_conditioner()
    )
    run = propagate(drive, space=FockSpace(7), steps=50, leakage_tol=1e-3)
    zero = [sector for sector in run.sectors if sector.eigenvalue == 0.0]
    assert len(zero) == 1
    _assert_constant_identity_series(zero[0], leakage=0.0)
    assert np.array_equal(zero[0].evolution, np.eye(8))


def _assert_constant_identity_series(sector, leakage):
    """The identity sector's series: read-only, overlap 1, dynamic phase 0, constant leakage."""
    for name, value in (
        ("overlap_series", 1.0), ("dynamic_series", 0.0), ("leakage_series", leakage)
    ):
        series = getattr(sector, name)
        assert not series.flags.writeable, name
        assert np.all(series == value), name


@pytest.mark.parametrize(
    "conditioner, initial_fock",
    [(jz_conditioner, 0), (odd_parity_projector, 0), (jz_conditioner, 7)],
)
def test_states_are_recombined_once_per_distinct_mix(monkeypatch, conditioner, initial_fock):
    # jz: dd and uu share one series through the parity mirror, du and ud sit
    # in the identity sector.  The odd-parity projector: du and ud share the
    # unit sector, dd and uu sit in the identity sector.  One unwrap each.
    calls = []
    unwrapped = oracle._unwrapped_phases
    monkeypatch.setattr(
        oracle, "_unwrapped_phases", lambda *args: calls.append(1) or unwrapped(*args)
    )
    drive = headline_drive(conditioner())
    run = propagate(
        drive, space=FockSpace(7), steps=300, initial_fock=initial_fock, leakage_tol=2.0,
        sample_times=[0.0, drive.total_duration / 2],
    )
    assert len(calls) == 1
    idle = [1, 2] if conditioner is jz_conditioner else [0, 3]
    zero = run.sectors[run.column_sector[idle[0]]]
    assert zero.eigenvalue == 0.0
    _assert_constant_identity_series(zero, leakage=1.0 if initial_fock == 7 else 0.0)
    for name in ("total_phase", "dynamic_phase"):
        assert np.all(getattr(run, name)[idle] == 0.0), name
        assert np.all(run.samples[name][:, idle] == 0.0), name
    assert np.all(run.min_overlap_modulus[idle] == 1.0)


# ---------------------------------------------------------------------------
# identities the oracle uses in place of a propagation or a factorisation


# case: (drive builder, initial Fock level, propagator).
MIRROR_CASES = {
    "jz": (lambda: headline_drive(jz_conditioner()), 0, propagate),
    "jy": (lambda: headline_drive(jy_conditioner()), 0, propagate),
    "stepped-jz": (lambda: headline_drive(jz_conditioner()), 0, _stepped),
    "initial-fock-1": (
        lambda: constant_drive(
            ConstantDriveParams(omega_d=0.3, delta=1.0), conditioner=jz_conditioner()
        ),
        1,
        propagate,
    ),
}


def _single_sector(drive, eigenvalue):
    """``drive`` under a conditioner whose only nonzero eigenvalue, on |dd>, is ``eigenvalue``."""
    values = (eigenvalue, 0.0, 0.0, 0.0)
    conditioner = SpinConditioner(name="single", matrix=np.diag(values), basis_eigenvalues=values)
    return replace(drive, conditioner=conditioner)


@pytest.mark.parametrize("case", sorted(MIRROR_CASES))
def test_parity_mirrored_sector_matches_direct_propagation(case):
    make_drive, initial_fock, propagator = MIRROR_CASES[case]
    drive = make_drive()
    settings = {
        "space": FockSpace(24),
        "steps": 2_000,
        "initial_fock": initial_fock,
        "sample_times": np.linspace(0.0, drive.total_duration, 9),
    }
    run = propagator(drive, **settings)
    nonzero = [s for s in run.sectors if s.eigenvalue != 0.0]
    assert len(nonzero) == 2 and abs(nonzero[0].eigenvalue + nonzero[1].eigenvalue) < 1e-12
    for sector in nonzero:
        # Alone beside the zero sector, this eigenvalue is propagated, not mirrored.
        direct_run = propagator(_single_sector(drive, sector.eigenvalue), **settings)
        direct = direct_run.sectors[0]
        assert direct.eigenvalue == sector.eigenvalue
        for name in ("overlap_series", "dynamic_series", "leakage_series"):
            assert np.max(np.abs(getattr(sector, name) - getattr(direct, name))) < 1e-12, name
        assert np.max(np.abs(sector.evolution - direct.evolution)) < 1e-10
        assert abs(sector.unitarity_defect - direct.unitarity_defect) < 1e-12
        if drive.conditioner.is_diagonal:
            state = drive.conditioner.basis_eigenvalues.index(sector.eigenvalue)
            for name in ("total_phase", "dynamic_phase"):
                difference = run.samples[name][:, state] - direct_run.samples[name][:, 0]
                assert np.max(np.abs(difference)) < 1e-12, name


def _run_matrix(g0, frequency, dt, dim):
    """M = L^-1 exp(-i H_0 dt) with L = diag(exp(-i frequency dt n)), by dense exponential."""
    a = lowering(FockSpace(dim - 1))
    h0 = -1j * g0 * a.conj().T + 1j * np.conj(g0) * a
    return np.exp(1j * frequency * dt * np.arange(dim))[:, None] * expm(-1j * dt * h0)


def _position_eigensystem(dim):
    a = lowering(FockSpace(dim - 1)).real
    return np.linalg.eigh(a + a.T)


def test_tone_eigenbasis_matches_general_eigendecomposition(monkeypatch):
    eig_calls = []
    general_eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: eig_calls.append(1) or general_eig(m))
    rng = np.random.default_rng(11)
    runs = []
    for k in range(16):
        dim = int(rng.integers(8, 66))
        steps = int(rng.integers(1_000, 20_001))
        frequency = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        g0 = rng.uniform(0.1, 2.0) * np.exp(1j * rng.uniform(0.0, TWO_PI))
        if k < 10:
            dt = 2.0 * math.pi * int(rng.integers(1, 5)) / abs(frequency) / steps
        else:
            # Eigenphase arcs of 85-99% of the bound.
            w, _ = _position_eigensystem(dim)
            unit_arc = abs(g0) * np.max(np.abs(w)) + abs(frequency) * (dim - 1) / 2.0
            dt = rng.uniform(0.85, 0.99) * oracle._ARC_LIMIT / unit_arc
        runs.append((dim, g0, frequency, dt, steps, True))
    # A weak drive leaves M close to the frame turn, whose eigenphases
    # frequency dt n fill an arc of 2.65 rad.  With dt = pi / 76 the phases of
    # levels n and 76 - n have the same sine: only the centring of the arc
    # keeps their eigenvectors apart.
    for frequency in (1.0, -1.0):
        runs.append((65, 0.01j, frequency, math.pi / 76, 2_000, True))
    # 48 steps over one period of the headline tone at n_max 64: past the arc bound.
    runs.append((65, 0.5j, 1.0, TWO_PI / 48, 48, False))

    for dim, g0, frequency, dt, steps, inside in runs:
        w, Q = _position_eigensystem(dim)
        eig_calls.clear()
        Z, Zinv, theta = oracle._run_eigenbasis(g0, frequency, dt, w, Q)
        assert len(eig_calls) == (0 if inside else 1)
        M = _run_matrix(g0, frequency, dt, dim)
        assert np.max(np.abs((Z * np.exp(1j * theta)) @ Zinv - M)) < 1e-12
        assert np.max(np.abs(Zinv @ Z - np.eye(dim))) < 1e-12
        values, V = general_eig(M)
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        general = V @ (np.exp(1j * np.angle(values) * steps) * np.linalg.solve(V, psi))
        closed = Z @ (np.exp(1j * theta * steps) * (Zinv @ psi))
        # The general route's eigenphases carry more rounding, which K steps
        # multiply; repeated squaring of M is the tighter reference.
        assert np.max(np.abs(closed - general)) < 1e-10
        squared = np.linalg.matrix_power(M, steps) @ psi
        assert np.max(np.abs(closed - squared)) < 1e-11


def _direct_energy_sums(P, theta, counts):
    """Re sum_ab P_ab exp(i (theta_b - theta_a) j) summed over steps j < K, in long double."""
    th = theta.astype(np.longdouble)
    differences = (th[None, :] - th[:, None]).ravel()
    j = np.arange(max(counts), dtype=np.longdouble)
    per_step = np.real(P.astype(np.clongdouble).ravel() @ np.exp(1j * np.outer(differences, j)))
    return np.cumsum(per_step)[np.asarray(counts) - 1].astype(float)


def _theta_case(case, rng):
    if case == "pulse-degenerate":
        # A pulse's eigenphases, each taken twice: exactly degenerate pairs.
        w, Q = _position_eigensystem(6)
        _, _, theta = oracle._run_eigenbasis(0.3j, 0.0, 0.01, w, Q)
        return np.repeat(theta[:3], 2)
    theta = rng.uniform(-3.0, 3.0, 6)
    if case == "near-zero":
        theta[1:3] = theta[0] + np.array([1e-9, -3e-13])
    else:
        # Differences 1e-13 to 3e-9 short of +-2 pi.
        theta[:4] = (math.pi - 1e-9, -math.pi + 2e-9, -math.pi + 1e-13, math.pi)
    return theta


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="the reference sum needs an extended long double"
)
@pytest.mark.parametrize("case", ["near-zero", "near-two-pi", "pulse-degenerate"])
def test_dirichlet_energy_sum_matches_the_step_by_step_sum(case):
    rng = np.random.default_rng(sum(map(ord, case)))
    theta = _theta_case(case, rng)
    P = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    counts = [1, 2, 64, 20_000]
    closed = oracle._summed_energies(P, theta, counts)
    direct = _direct_energy_sums(P, theta, counts)
    assert np.all(np.abs(closed - direct) <= 1e-12 * np.abs(direct)), (closed, direct)


def test_runs_evaluate_the_drive_only_where_they_read_it(monkeypatch):
    # A closed-form run reads g at its first midpoint; a per-step run at each
    # of its own.  The short-run polygon's last pulse gets 20 of 20,000 steps.
    polygon = _polygon((-0.4, -0.4j, 0.4, 0.4j), (1.0, 1.0, 1.0, 1.0))
    short = EQUIVALENCE_CASES["short-run"][0](20_000)
    evaluated = []
    values = DriveSegment.values

    def counted(self, s):
        evaluated.append(np.size(s))
        return values(self, s)

    monkeypatch.setattr(DriveSegment, "values", counted)
    for drive, expected in ((polygon, 4), (short, 3 + 20)):
        evaluated.clear()
        propagate(drive, space=FockSpace(16), steps=20_000, with_operator=False)
        assert sum(evaluated) == expected


def test_state_only_propagation_allocates_a_few_series():
    # The peak is about 1.03 times the four-state overlap storage, reached
    # inside the closed-form run of the unit sector: its overlap and leakage
    # series (0.375) and one chunk group, whose (2, group, dim) coefficient
    # block is as large as one overlap series, with its phase factors.  Each
    # group's block is freed before the next is built; kept alive beside it,
    # the peak read 1.35.  The identity sector holds constant views, and the
    # recombination afterwards peaks at 1.0.  Full identity-sector series and
    # one recombination per state would read 2.0, a time and a drive value
    # per midpoint 0.35 more, and one product over every chunk start at once
    # (8 series at n_max 256) about 4.7.  The bound leaves 0.07 of margin.
    steps = 200_000
    drive = headline_drive()
    space = FockSpace(256)
    propagate(drive, space=space, steps=1_000, with_operator=False)  # caches the basis
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before, _ = tracemalloc.get_traced_memory()
        propagate(drive, space=space, steps=steps, with_operator=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    series = 4 * (steps + 1) * np.dtype(complex).itemsize
    assert peak - before < 1.1 * series


def test_magnus_form_reuses_the_unit_sector_of_a_propagation(monkeypatch):
    drive = headline_drive()
    space = FockSpace(24)
    plain = verify_magnus_form(drive, space=space, steps=2_000)
    run = propagate(drive, space=space, steps=2_000, initial_fock=1)
    # Fallbacks: no unit sector, no operator, or another step count.
    no_unit = propagate(headline_drive(jz_conditioner()), space=space, steps=2_000)
    state_only = propagate(drive, space=space, steps=2_000, with_operator=False)
    for other in (no_unit, state_only):
        assert verify_magnus_form(drive, space=space, steps=2_000, propagation=other) == plain
    coarse = propagate(drive, space=space, steps=1_000)
    assert verify_magnus_form(drive, space=space, steps=2_000, propagation=coarse) == plain

    def no_propagation(*args):
        raise AssertionError("the unit sector was propagated again")

    monkeypatch.setattr(oracle, "_propagate_sector", no_propagation)
    assert verify_magnus_form(drive, space=space, steps=2_000, propagation=run) == plain
