"""Tests for spin conditioners, gate construction, correction, and triviality."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from loopgate.drives import ConstantDriveParams, constant_drive, four_pulse_sequence
from loopgate.errors import (
    InternalConsistencyError,
    LoopNotClosedError,
    NonDiagonalGateError,
    NonUnitaryError,
)
from loopgate.gates import (
    BASIS_LABELS,
    SpinConditioner,
    TwoQubitGate,
    apply_local_phase_correction,
    collective_gate,
    cz_gate,
    diagonal_gate,
    gate_fidelity,
    is_nontrivial,
    jy_conditioner,
    jy_squared_gate,
    jz_conditioner,
    odd_parity_projector,
    phase_gate,
    standard_conditioner,
)

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
JY = np.kron(SIGMA_Y, np.eye(2)) + np.kron(np.eye(2), SIGMA_Y)

HEADLINE_DRIVE = ConstantDriveParams(omega_d=0.5, delta=1.0)


# ---------------------------------------------------------------------------
# conditioners


def test_basis_order():
    assert BASIS_LABELS == ("dd", "du", "ud", "uu")


def test_odd_parity_projector_matrix():
    cond = odd_parity_projector()
    assert np.array_equal(cond.matrix, np.diag([0.0, 1.0, 1.0, 0.0]))
    assert cond.basis_eigenvalues == (0.0, 1.0, 1.0, 0.0)
    assert cond.is_diagonal
    # a projector squares to itself
    assert np.array_equal(cond.matrix @ cond.matrix, cond.matrix)


def test_jz_conditioner_matrix():
    cond = jz_conditioner()
    assert np.array_equal(cond.matrix, np.diag([-2.0, 0.0, 0.0, 2.0]))
    assert cond.basis_eigenvalues == (-2.0, 0.0, 0.0, 2.0)


def test_jy_conditioner_matrix():
    cond = jy_conditioner()
    assert np.allclose(cond.matrix, JY, atol=0)
    assert cond.basis_eigenvalues is None
    assert not cond.is_diagonal
    values, vectors = cond.eigensystem()
    assert np.allclose(sorted(values), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)
    # orthonormal columns that diagonalize the matrix
    assert np.allclose(vectors.conj().T @ vectors, np.eye(4), atol=1e-12)
    assert np.allclose(
        vectors.conj().T @ cond.matrix @ vectors, np.diag(values), atol=1e-12
    )


@pytest.mark.parametrize(
    "name,expected",
    [("jz", "jz"), ("JZ", "jz"), ("Jy", "jy"), ("odd-parity-projector", "odd-parity-projector")],
)
def test_standard_conditioner_lookup(name, expected):
    assert standard_conditioner(name).name == expected


def test_standard_conditioner_unknown():
    with pytest.raises(ValueError):
        standard_conditioner("jx")


def test_conditioner_validation():
    with pytest.raises(ValueError):
        SpinConditioner(name="bad", matrix=np.eye(3))
    with pytest.raises(ValueError):
        SpinConditioner(name="bad", matrix=np.diag([1.0, 2.0, 3.0, 1j]))
    with pytest.raises(InternalConsistencyError):
        SpinConditioner(
            name="bad",
            matrix=np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex),
            basis_eigenvalues=(1.0, 1.0, 0.0, 1.0),
        )


def test_conditioner_matrix_frozen():
    cond = jz_conditioner()
    with pytest.raises(ValueError):
        cond.matrix[0, 0] = 5.0


# ---------------------------------------------------------------------------
# TwoQubitGate container


def test_gate_rejects_non_unitary():
    with pytest.raises(NonUnitaryError):
        TwoQubitGate(matrix=np.diag([1.0, 1.0, 1.0, 0.5]).astype(complex))


def _counting_norm(monkeypatch) -> list:
    """One entry per np.linalg.norm call: the SVD behind a non-diagonal unitarity check."""
    calls = []
    real_norm = np.linalg.norm

    def counting_norm(*args, **kwargs):
        calls.append(1)
        return real_norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    return calls


def test_diagonal_gate_defect_is_its_largest_squared_modulus_gap(monkeypatch):
    # |d|^2 - 1 on the diagonal is the spectral norm of M^H M - I, with the
    # SVD's bound and message; a diagonal gate takes it without an SVD.
    norms = _counting_norm(monkeypatch)
    matrix = np.diag([1.0, 1.0, 1.0, 1.0 + 1e-9]).astype(complex)
    svd_defect = np.linalg.svd(matrix.conj().T @ matrix - np.eye(4), compute_uv=False)[0]
    with pytest.raises(NonUnitaryError) as refused:
        TwoQubitGate(matrix=matrix)
    assert str(refused.value) == f"gate matrix is not unitary: defect {svd_defect:.3e}"
    assert str(refused.value) == "gate matrix is not unitary: defect 2.000e-09"
    phased = np.diag(np.exp(1j * np.array([0.1, -2.0, 3.0, 0.5]))) * (1.0 + 1e-9)
    with pytest.raises(NonUnitaryError, match="defect 2.000e-09"):
        TwoQubitGate(matrix=phased)
    # Within the bound, a diagonal gate builds, and not one of these calls an SVD.
    TwoQubitGate(matrix=np.diag([1.0, 1.0, 1.0, 1.0 + 1e-11]).astype(complex))
    diagonal_gate(jz_conditioner(), -1.3)
    apply_local_phase_correction(phase_gate(0.3), 0.2)
    assert norms == []


def test_non_diagonal_gate_defect_takes_the_svd(monkeypatch):
    norms = _counting_norm(monkeypatch)
    gate = jy_squared_gate(0.3)
    assert norms == [1]
    with pytest.raises(NonUnitaryError, match="^gate matrix is not unitary: defect 2.000e-09$"):
        TwoQubitGate(matrix=gate.matrix * (1.0 + 1e-9))
    assert norms == [1, 1]


def test_gate_rejects_inconsistent_phases():
    with pytest.raises(InternalConsistencyError):
        TwoQubitGate(matrix=np.eye(4, dtype=complex), phases=(0.0, 0.1, 0.0, 0.0))


def test_gate_to_dict():
    gate = phase_gate(-math.pi / 2.0)
    data = gate.to_dict()
    assert data["basis"] == ["dd", "du", "ud", "uu"]
    assert data["phases"] == [0.0, -math.pi / 2.0, -math.pi / 2.0, 0.0]
    assert data["matrix"][1][1] == pytest.approx([0.0, -1.0])
    assert jy_squared_gate(0.3).to_dict()["phases"] is None


def test_phase_gate_and_cz():
    assert np.allclose(
        phase_gate(math.pi).matrix, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-15
    )
    assert np.array_equal(cz_gate().matrix, np.diag([1.0, 1.0, 1.0, -1.0]))
    assert cz_gate().phases == (0.0, 0.0, 0.0, math.pi)


# ---------------------------------------------------------------------------
# gates from drive loops


def test_collective_gate_headline():
    # One period at ratio 1/2 under the odd-parity projector: the loop phase
    # is -pi/2 on |du> and |ud>, zero on the even-parity states.
    gate, decompositions = collective_gate(constant_drive(HEADLINE_DRIVE))
    assert gate.is_diagonal
    assert gate.phases[0] == 0.0
    assert gate.phases[3] == 0.0
    assert gate.phases[1] == pytest.approx(-math.pi / 2.0, abs=1e-12)
    assert gate.phases[2] == pytest.approx(-math.pi / 2.0, abs=1e-12)
    assert gate_fidelity(gate, phase_gate(-math.pi / 2.0)) == pytest.approx(
        1.0, abs=1e-12
    )
    du = decompositions[1]
    assert du.total == pytest.approx(-math.pi / 2.0, abs=1e-12)
    assert du.geometric == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert du.dynamic == pytest.approx(-math.pi, abs=1e-12)
    assert du.eta == pytest.approx(-2.0, abs=1e-12)
    assert decompositions[0].total == 0.0


def test_collective_gate_jz_phases():
    # Under Jz the eigenvalues are (-2, 0, 0, 2), so |dd> and |uu> pick up
    # 4 * gamma0 while the odd-parity states are untouched.
    gate, _ = collective_gate(constant_drive(HEADLINE_DRIVE), conditioner=jz_conditioner())
    g = -math.pi / 2.0
    assert gate.phases[0] == pytest.approx(4.0 * g, abs=1e-12)
    assert gate.phases[1] == 0.0
    assert gate.phases[2] == 0.0
    assert gate.phases[3] == pytest.approx(4.0 * g, abs=1e-12)


def test_collective_gate_square_loop():
    drive = four_pulse_sequence(
        amplitudes=(-1.0, 1.0j, 1.0, -1.0j),
        durations=(1.0, 1.0, 1.0, 1.0),
        conditioner=odd_parity_projector(),
    )
    gate, _ = collective_gate(drive)
    assert gate.phases[1] == pytest.approx(-2.0, abs=1e-12)


def test_collective_gate_open_loop_rejected():
    drive = constant_drive(HEADLINE_DRIVE, periods=0.5)
    with pytest.raises(LoopNotClosedError) as info:
        collective_gate(drive)
    assert info.value.residual == pytest.approx(1.0, abs=1e-12)


def test_collective_gate_rejects_non_diagonal_conditioner():
    with pytest.raises(NonDiagonalGateError):
        collective_gate(constant_drive(HEADLINE_DRIVE), conditioner=jy_conditioner())


def test_diagonal_gate_phases_and_decompositions():
    # beta**2 * gamma0 per basis state, split as -1 : +2 geometric : dynamic
    gate, decompositions = diagonal_gate(jz_conditioner(), 0.5)
    assert gate.phases == (2.0, 0.0, 0.0, 2.0)
    assert [d.geometric for d in decompositions] == [-2.0, 0.0, 0.0, -2.0]
    assert [d.dynamic for d in decompositions] == [4.0, 0.0, 0.0, 4.0]
    assert [d.total for d in decompositions] == list(gate.phases)
    with pytest.raises(NonDiagonalGateError):
        diagonal_gate(jy_conditioner(), 0.5)


# ---------------------------------------------------------------------------
# the Jy**2 gate


@pytest.mark.parametrize("gamma", [-math.pi / 2.0, -0.3, 0.7, math.pi / 8.0])
def test_jy_squared_gate_matches_expm(gamma):
    reference = expm(-1j * gamma * (JY @ JY))
    gate = jy_squared_gate(gamma)
    assert np.max(np.abs(gate.matrix - reference)) < 1e-12
    assert not gate.is_diagonal


def test_jy_squared_gate_zero_is_identity():
    assert np.allclose(jy_squared_gate(0.0).matrix, np.eye(4), atol=1e-15)


def test_jy_squared_gate_period():
    # Jy**2 has eigenvalues {0, 4}, so the gate is 2 pi / 4 periodic in gamma.
    a = jy_squared_gate(0.4).matrix
    b = jy_squared_gate(0.4 + math.pi / 2.0).matrix
    assert np.max(np.abs(a - b)) < 1e-12


# ---------------------------------------------------------------------------
# local phase correction


def test_correction_turns_headline_gate_into_cz():
    gate = phase_gate(-math.pi / 2.0)
    corrected = apply_local_phase_correction(gate, math.pi / 2.0)
    assert np.max(np.abs(corrected.matrix - cz_gate().matrix)) < 1e-15
    assert corrected.phases == (0.0, 0.0, 0.0, math.pi)


def test_correction_phase_bookkeeping():
    theta = 0.37
    corrected = apply_local_phase_correction(phase_gate(0.0), theta)
    assert corrected.phases == pytest.approx((0.0, theta, theta, 2.0 * theta))


def test_correction_preserves_entangling_power():
    gate = phase_gate(-math.pi / 2.0)
    for theta in (0.0, 0.5, math.pi / 2.0, 2.0):
        assert is_nontrivial(apply_local_phase_correction(gate, theta))


def test_correction_on_non_diagonal_gate():
    corrected = apply_local_phase_correction(jy_squared_gate(0.3), 0.2)
    assert corrected.phases is None
    local = np.diag([1.0, np.exp(0.2j)])
    expected = np.kron(local, local) @ jy_squared_gate(0.3).matrix
    assert np.allclose(corrected.matrix, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_global_phase_invariance():
    gate = phase_gate(-math.pi / 2.0)
    rotated = TwoQubitGate(matrix=np.exp(0.9j) * gate.matrix)
    assert gate_fidelity(gate, rotated) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a,b", [(0.0, math.pi), (-math.pi / 2.0, math.pi / 2.0), (0.3, 0.3)])
def test_fidelity_between_phase_gates(a, b):
    # |tr(U_dag V)| / 4 = |cos((a - b) / 2)| for this one-parameter family
    expected = abs(math.cos((a - b) / 2.0))
    assert gate_fidelity(phase_gate(a), phase_gate(b)) == pytest.approx(
        expected, abs=1e-12
    )


def test_fidelity_accepts_plain_arrays():
    assert gate_fidelity(np.eye(4), cz_gate()) == pytest.approx(0.5)


def test_fidelity_checks_unitarity_of_raw_arrays_only(monkeypatch):
    # A TwoQubitGate was checked when it was built; a raw array is checked here.
    u, v = phase_gate(0.3), cz_gate()
    norms = []
    real_norm = np.linalg.norm

    def counting_norm(*args, **kwargs):
        norms.append(1)
        return real_norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    gate_fidelity(u, v)
    assert norms == []
    gate_fidelity(np.eye(4), v)
    assert norms == [1]


def test_fidelity_rejects_non_unitary():
    with pytest.raises(NonUnitaryError):
        gate_fidelity(np.diag([1.0, 1.0, 1.0, 2.0]), cz_gate())
    with pytest.raises(ValueError):
        gate_fidelity(np.eye(3), cz_gate())


# ---------------------------------------------------------------------------
# triviality predicate


@pytest.mark.parametrize("k", [-3, -2, -1, 0, 1, 2, 3])
def test_multiples_of_pi_are_trivial(k):
    assert not is_nontrivial(phase_gate(k * math.pi))


@pytest.mark.parametrize("gamma", [0.1, -0.1, math.pi - 0.1, math.pi + 0.1, -math.pi / 2.0, math.pi / 2.0])
def test_other_phase_gates_entangle(gamma):
    assert is_nontrivial(phase_gate(gamma))


@pytest.mark.parametrize("j", [-2, -1, 0, 1, 2, 4])
def test_jz_gate_trivial_iff_quarter_pi_loop_phase(j):
    # Jz phases (4g, 0, 0, 4g) combine to 8g, so the gate is a product of
    # local rotations exactly when g is a multiple of pi / 4.
    g = j * math.pi / 4.0
    phases = (4.0 * g, 0.0, 0.0, 4.0 * g)
    gate = TwoQubitGate(matrix=np.diag(np.exp(1j * np.array(phases))), phases=phases)
    assert not is_nontrivial(gate)
    g_off = g + 0.05
    phases_off = (4.0 * g_off, 0.0, 0.0, 4.0 * g_off)
    gate_off = TwoQubitGate(
        matrix=np.diag(np.exp(1j * np.array(phases_off))), phases=phases_off
    )
    assert is_nontrivial(gate_off)


def test_nontrivial_from_matrix_angles():
    # without stored phases the predicate falls back to matrix angles
    gate = TwoQubitGate(matrix=np.diag([1.0, 1.0j, 1.0j, 1.0]).astype(complex))
    assert is_nontrivial(gate)
    with pytest.raises(NonDiagonalGateError):
        is_nontrivial(jy_squared_gate(0.3))
