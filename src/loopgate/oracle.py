"""Brute-force verifier: truncated-Fock-space propagation of the joint system.

Nothing here trusts the closed-form phases.  The Hamiltonian

    H(t) = -i * (f(t) a_dag - conj(f(t)) a) (x) C

is built as an explicit matrix on spin (x) oscillator, the evolution is the
ordered product of midpoint steps exp(-i H(t_mid) dt), and phases are read
off the propagated states: the total phase from the argument of the overlap
with the initial state (accumulated step by step so it never wraps), the
dynamic phase from the summed midpoint energies <H> dt.  Comparing these
against the analytic formulas is the package's independent check.

Each step matrix is evaluated exactly (to rounding) through the
eigendecomposition of the displacement generator: H(t) restricted to a
conditioner eigenvalue beta equals |g| times a rotated position quadrature
with g = beta * f(t), whose eigenbasis differs from that of X = a + a_dag
only by a number-operator phase twist.  One eigenbasis of X per dimension is
computed and cached; the displacement operator D(alpha) of
:func:`verify_magnus_form` comes from the same basis.  Unit tests pin the
step matrix and D(alpha) against scipy's dense ``expm``, which the package
itself does not use.

The same twist makes the product cheap on a closed-form segment: while the
midpoints stay in one segment of frequency delta, g_k = g_0 exp(-i delta dt k),
so the step matrices are S_k = L^k S_0 L^-k with L = diag(exp(-i delta dt n)).
The product over such a run is L^K M^K with M = L^-1 S_0, which one
eigendecomposition of M (:func:`_run_eigenbasis`) evaluates at every grid
point.  The overlap and top-level series keep every point, for the unwrap
and the leakage maximum; the dynamic phase is a Dirichlet-kernel sum over
the eigenphases, taken only where it is read (:func:`_closed_form_run`).
Runs shorter than a measured break-even (``_MIN_RUN_STEPS``, or
``_MIN_RUN_STEPS_WITH_OPERATOR`` when the operator is tracked) take the
per-step loop.  Either way the results equal the per-step product up to
rounding; unit tests hold the two paths together.

Two propagations are never repeated.  With P = (-1)^n, H(-g) = P H(g) P
exactly on the truncated space, so the sector of eigenvalue -beta (jz and
jy have +-2) is the parity mirror of the sector of +beta, and shares its
series arrays.  And :func:`verify_magnus_form` takes the unit-eigenvalue
operator from a propagation it is handed instead of propagating that sector
again.

Nor are the states recombined more often than their mixes differ.  The
zero-eigenvalue sector is the identity; its series are read-only constant
views.  :func:`propagate` recombines once per distinct mix of series, a
mirrored sector counting as its source, and states with the same mix share
every result.  A state that sits in the identity sector alone takes its
constant phases and leakage without an unwrap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .drives import (
    DriveProfile, _grid_times, _local_times, _require_tau, _segment_bounds, alpha_array, peak_alpha
)
from .errors import TruncationError, UndefinedPhaseError
from .phasespace import PhaseDecomposition, analytic_total_phase, decompose

DEFAULT_N_MAX = 64
DEFAULT_STEPS = 20_000

# Caps on the truncation and the step count.  At MAX_STEPS a state-only
# propagation peaks at about 64 MB (tracemalloc, n_max 64), the storage of
# four overlap series.  At MAX_N_MAX the dense (n_max+1)^2 blocks,
# 17 MB each, peak at about 120 MB, or 150 MB with the operator tracked.
MAX_N_MAX = 1024
MAX_STEPS = 1_000_000

# Overlap modulus below which the accumulated total phase stops being meaningful.
OVERLAP_FLOOR = 1e-6

# Default ceiling on the population reaching the top Fock level.
DEFAULT_LEAKAGE_TOL = 1e-6

# Eigenvalues closer than this are treated as one spin sector.
_EIGENVALUE_RESOLUTION = 1e-12

# Shortest run of closed-form steps evaluated through one eigendecomposition
# instead of step by step; shorter runs cost less in the per-step loop.  The
# break-evens were measured at n_max 64, one BLAS thread; smaller spaces break
# even sooner.
_MIN_RUN_STEPS = 120
_MIN_RUN_STEPS_WITH_OPERATOR = 40

# Series points per chunk in a closed-form run.
_CHUNK_ROWS = 64

# 2 pi minus its nearest float: the part of the period a float cannot hold.
_TWO_PI_LO = 2.4492935982947064e-16

# Bound, in radians, on the eigenphase arc |g0| dt max|w| + |frequency| dt (d-1)/2
# below which a tone run takes its real orthogonal eigenbasis (see
# _run_eigenbasis).  The arc must stay below pi/2; the margin keeps
# tan(arc), by which eigh's rounding enters the eigenphases, under 6.
_ARC_LIMIT = 1.4


@dataclass(frozen=True)
class FockSpace:
    """Oscillator Hilbert space truncated at occupation ``n_max``."""

    n_max: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 2:
            raise ValueError(f"n_max must be an integer >= 2, got {self.n_max}")
        object.__setattr__(self, "n_max", int(self.n_max))

    @property
    def dimension(self) -> int:
        return self.n_max + 1

    def basis_state(self, n: int) -> np.ndarray:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"Fock index {n} outside [0, {self.n_max}]")
        state = np.zeros(self.dimension, dtype=complex)
        state[n] = 1.0
        return state


def peak_excursion(drive: DriveProfile, tau: float | None = None) -> float:
    """Largest |beta * alpha(t)| over the evolution, across spin sectors."""
    values, _ = drive.conditioner.eigensystem()
    return float(np.max(np.abs(values))) * peak_alpha(drive, tau)


def _truncation_need(drive: DriveProfile, tau: float | None) -> float:
    """4 |beta alpha|^2 at the loop's peak: the n_max that the truncation rule asks for."""
    peak = peak_excursion(drive, tau)
    return 4.0 * peak * peak  # inf where it overflows, not OverflowError as with ** 2


def default_space(drive: DriveProfile, tau: float | None = None) -> FockSpace:
    """Truncation for this drive: n_max = 64, escalated to keep |alpha|^2 <= n_max/4.

    Raises ValueError when the escalation would pass ``MAX_N_MAX``.
    """
    need = _truncation_need(drive, tau)
    if need > MAX_N_MAX:
        raise ValueError(
            f"the loop reaches 4|beta alpha|^2 = {need:.4g}, beyond the cap n_max <= "
            f"{MAX_N_MAX}; keep |beta alpha| <= {math.sqrt(MAX_N_MAX / 4.0):g}"
        )
    return FockSpace(max(DEFAULT_N_MAX, int(math.ceil(need))))


# 64 dimensions cover a caller that mixes every n_max from 24 to 64 (41
# dimensions, under 1 MB).  An entry holds about 8 * dim**2 bytes, so the
# cache holds at most about 507 MB: 64 entries with n_max near MAX_N_MAX.
@functools.lru_cache(maxsize=64)
def _position_eigenbasis(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sq = sqrt(1..dim-1), and w, Q with X = a + a_dag = Q diag(w) Q^T on ``dim`` levels.

    Cached per dimension and shared by every caller, so the arrays are read-only.
    """
    sq = np.sqrt(np.arange(1.0, dim))
    w, Q = np.linalg.eigh(np.diag(sq, 1) + np.diag(sq, -1))
    for array in (sq, w, Q):
        array.flags.writeable = False
    return sq, w, Q


def displacement_matrix(alpha: complex, space: FockSpace) -> np.ndarray:
    """exp(alpha a_dag - conj(alpha) a) on the truncated space, in closed form.

    With R = diag(exp(i (arg alpha + pi/2) n)), the generator equals
    -i |alpha| R X R^H, so with X = Q diag(w) Q^T the exponential is
    Z diag(exp(-i |alpha| w)) Z^H with Z = R Q.
    """
    alpha = complex(alpha)
    dim = space.dimension
    if alpha == 0.0:
        return np.eye(dim, dtype=complex)
    _, w, Q = _position_eigenbasis(dim)
    Z = np.exp(1j * (np.angle(alpha) + 0.5 * np.pi) * np.arange(dim))[:, None] * Q
    return (Z * np.exp(-1j * abs(alpha) * w)) @ Z.conj().T


@dataclass(frozen=True)
class SectorEvolution:
    """Oscillator-block results for one conditioner eigenvalue.

    The overlap and leakage series hold every grid point; ``dynamic_series``
    holds the dynamic phase at the propagation's read indices only: the step
    index of each sample time and the final step, increasing, without repeats.
    A parity-mirrored sector holds the same series arrays as its source, and
    the zero-eigenvalue sector holds read-only constant views.
    """

    eigenvalue: float
    evolution: np.ndarray | None
    overlap_series: np.ndarray
    dynamic_series: np.ndarray
    leakage_series: np.ndarray
    unitarity_defect: float | None


@dataclass(frozen=True)
class FockPropagation:
    """Everything the brute-force propagation measured.

    Per spin basis state (fixed order dd, du, ud, uu): the unwrapped total
    phase of the overlap with the initial state, the accumulated dynamic
    phase, the final overlap modulus, and the smallest overlap modulus seen
    along the way.  ``sectors`` holds the oscillator evolution per distinct
    conditioner eigenvalue; ``joint_matrix()`` assembles the full operator.
    """

    space: FockSpace
    steps: int
    tau: float
    initial_fock: int
    conditioner_name: str
    sectors: tuple[SectorEvolution, ...]
    eigenvector_columns: np.ndarray
    column_sector: np.ndarray
    total_phase: np.ndarray
    dynamic_phase: np.ndarray
    overlap_modulus: np.ndarray
    min_overlap_modulus: np.ndarray
    leakage: float
    unitarity_defect: float | None
    samples: dict | None = field(default=None)

    def decomposition(self, spin_state: int) -> PhaseDecomposition:
        """Oracle phase decomposition for one basis state.

        The geometric part is defined as total minus dynamic, which is the
        form that remains valid when the loop has not closed.
        """
        total = extract_total_phase(self, spin_state)
        dynamic = float(self.dynamic_phase[spin_state])
        return decompose(total - dynamic, dynamic)

    def joint_matrix(self) -> np.ndarray:
        """Full evolution operator on spin (x) oscillator, spin-major."""
        if any(sector.evolution is None for sector in self.sectors):
            raise ValueError("propagation was run without operator tracking")
        dim = self.space.dimension
        joint = np.zeros((4 * dim, 4 * dim), dtype=complex)
        for k in range(4):
            column = self.eigenvector_columns[:, k]
            projector = np.outer(column, column.conj())
            sector = self.sectors[int(self.column_sector[k])]
            joint += np.kron(projector, sector.evolution)
        return joint


def extract_total_phase(propagation: FockPropagation, spin_state: int) -> float:
    """Unwrapped argument of <initial|psi(tau)> for one spin basis state.

    Raises :class:`UndefinedPhaseError` if the overlap modulus fell below
    ``OVERLAP_FLOOR`` at any step, since the accumulated argument is then
    numerically meaningless.
    """
    if not isinstance(spin_state, (int, np.integer)) or not 0 <= spin_state <= 3:
        raise ValueError(f"spin_state must be an index 0..3, got {spin_state!r}")
    if float(propagation.min_overlap_modulus[spin_state]) < OVERLAP_FLOOR:
        raise UndefinedPhaseError(
            f"overlap modulus dropped to {propagation.min_overlap_modulus[spin_state]:.3e}; "
            "total phase is undefined for this state"
        )
    return float(propagation.total_phase[spin_state])


def _summed_energies(P, theta, counts):
    """Re sum_ab P_ab D_K(theta_b - theta_a) for each K in ``counts``.

    D_K(x) = sum_{j<K} exp(i x j) = exp(i x (K-1)/2) sin(K x/2) / sin(x/2),
    and D_K = K where x vanishes.  D_K has period 2 pi, so the differences are
    first reduced into [-pi, pi], carrying the rounding of the subtraction (a
    two-sum) and of 2 pi: then K x/2 is small wherever sin(x/2) is, and the
    quotient keeps its relative precision, also for eigenphases near -pi and pi.
    """
    # In place where it can be: at the n_max cap each d x d array is 8-17 MB.
    half = theta[None, :] - theta[:, None]
    back = half - theta[None, :]
    rounding = theta[None, :] - (half - back)
    rounding -= back + theta[:, None]
    turns = np.rint(half / (2.0 * np.pi))
    half -= turns * (2.0 * np.pi)
    half += rounding - turns * _TWO_PI_LO
    half *= 0.5
    del back, rounding, turns
    # Below 1e-150, D_K = K to rounding, and sin(x/2) would lose bits to subnormals.
    flat = np.abs(half) < 1e-150
    inverse = 1.0 / np.sin(np.where(flat, 1.0, half))
    sums = np.empty(len(counts))
    for i, K in enumerate(counts):
        kernel = np.exp(1j * (K - 1) * half)
        kernel *= np.sin(K * half) * inverse
        kernel[flat] = K
        sums[i] = np.dot(P.ravel(), kernel.ravel()).real
    return sums


def _run_eigenbasis(g0, frequency, dt, w, Q):
    """Z, Z^-1 and theta with M = L^-1 S_0 = Z diag(exp(i theta)) Z^-1 for one run.

    S_0 = (D Q) E (D Q)^H with E = diag(exp(-i |g0| dt w)) and
    D = diag(exp(i (arg g0 - pi/2) n)).  A pulse (frequency 0) has M = S_0,
    whose eigenbasis is D Q itself.  For a tone, M = Y M' Y^-1 with
    T = diag(exp(i frequency dt n / 2)), Y = T D and M' = T Q E Q^T T.  M' is
    complex symmetric and unitary, so its real and imaginary parts are
    commuting real symmetric matrices with a common real orthogonal
    eigenbasis O, which ``eigh`` of Im(exp(-ic) M') finds as long as the
    eigenphases of exp(-ic) M' stay inside (-pi/2, pi/2), where sin is
    one-to-one.  With c = frequency dt (d - 1)/2 the product of the two
    unitaries T^2 and E bounds them by |g0| dt max|w| + |frequency| dt (d-1)/2;
    past ``_ARC_LIMIT`` the general eigendecomposition of M is used instead.
    """
    dim = w.size
    nvec = np.arange(dim)
    D = np.exp(1j * (np.angle(g0) - 0.5 * np.pi) * nvec)
    spin = -abs(g0) * dt * w
    if frequency == 0.0:
        Z = D[:, None] * Q
        return Z, Z.conj().T, spin
    if np.max(np.abs(spin)) + abs(frequency) * dt * (dim - 1) / 2.0 < _ARC_LIMIT:
        half_turn = np.exp(0.5j * frequency * dt * nvec)
        TQ = half_turn[:, None] * Q
        M_sym = (TQ * np.exp(1j * spin)) @ TQ.T
        centre = frequency * dt * (dim - 1) / 2.0
        _, O = np.linalg.eigh(np.imag(np.exp(-1j * centre) * M_sym))
        theta = np.angle(np.sum(O * (M_sym @ O), axis=0))
        Y = half_turn * D
        return Y[:, None] * O, O.T * np.conj(Y), theta
    step = (D[:, None] * Q * np.exp(1j * spin)) @ (Q.T * np.conj(D))
    eigenvalues, Z = np.linalg.eig(np.exp(1j * frequency * dt * nvec)[:, None] * step)
    return Z, np.linalg.inv(Z), np.angle(eigenvalues)


def _closed_form_run(
    psi, g0, frequency, dt, initial_fock, w, Q, sq, overlaps, leakages, counts, with_operator
):
    """Advance ``psi`` over ``overlaps.size`` midpoint steps of one closed-form segment.

    Inside the run g_j = g0 * exp(-i frequency dt j), so the step matrices are
    S_j = L^j S_0 L^-j with L = diag(exp(-i frequency dt n)), and the state
    after j steps is L^j M^j psi with M = L^-1 S_0.  M is unitary, so its
    eigendecomposition M = Z diag(exp(i theta)) Z^-1 (see
    :func:`_run_eigenbasis`) is well conditioned; with c = Z^-1 psi, point
    j0 + r + 1 of a series is sum_b Z_nb exp(i theta_b (j0 + r + 1)) c_b: one
    matrix product over chunk starts j0 and rows r < ``_CHUNK_ROWS``, taken in
    groups of chunk starts that keep temporaries within O(K + _CHUNK_ROWS d).

    The midpoint energy of step j is <phi_j|H_0|phi_j> with phi_j = M^j psi,
    because the half step commutes with H_j = L^j H_0 L^-j.  With
    G = Z^H H_0 Z and P_ab = conj(c_a) G_ab c_b, the first K' steps sum to
    Re sum_ab P_ab D_K'(theta_b - theta_a) (:func:`_summed_energies`), whether
    or not Z is unitary; on a pulse M commutes with H_0, so that is K' times
    the energy of psi.

    Fills ``overlaps`` and ``leakages`` with the points after steps 1..K.
    Returns the final state, the energies of the first K' steps summed for
    each K' in ``counts``, and, with ``with_operator``, the run's operator.
    """
    steps = overlaps.size
    dim = psi.size
    nvec = np.arange(dim)
    Z, Zinv, theta = _run_eigenbasis(g0, frequency, dt, w, Q)
    c = Zinv @ psi
    if frequency == 0.0:
        energy_sums = 2.0 * np.real(-1j * g0 * np.vdot(psi[1:], sq * psi[:-1])) * counts
    else:
        # H_0 = -i g0 a_dag + h.c., so G = A + A^H with A = Z^H (-i g0 a_dag) Z.
        P = -1j * g0 * (Z[1:].conj().T @ (sq[:, None] * Z[:-1]))
        P += P.conj().T
        P *= np.conj(c)[:, None]
        P *= c
        energy_sums = _summed_energies(P, theta, counts)

    # Row 0 reads the overlap element, row 1 the top Fock level.
    rows = np.stack([Z[initial_fock], Z[-1]]) * (np.exp(1j * theta) * c)
    base = np.exp(1j * np.outer(theta, np.arange(_CHUNK_ROWS)))
    starts = np.arange(0, steps, _CHUNK_ROWS)
    group = max(_CHUNK_ROWS, steps // (2 * dim))
    for first in range(0, starts.size, group):
        j0 = starts[first : first + group]
        coef = rows[:, None, :] * np.exp(1j * np.outer(j0, theta))
        block = (coef.reshape(-1, dim) @ base).reshape(2, -1)
        points = slice(j0[0], min(steps, j0[0] + block.shape[1]))
        overlaps[points] = block[0, : points.stop - points.start]
        leakages[points] = np.abs(block[1, : points.stop - points.start]) ** 2
        # Freed before the next group's factors and block are built.
        del coef, block
    if initial_fock and frequency != 0.0:
        # L^(j+1) turns the overlap element by -frequency dt initial_fock (j + 1).
        overlaps *= np.exp(-1j * frequency * dt * initial_fock * np.arange(1, steps + 1))

    spin = np.exp(1j * theta * steps)
    shift = np.exp(-1j * frequency * dt * steps * nvec)
    psi = shift * (Z @ (spin * c))
    run_operator = shift[:, None] * ((Z * spin) @ Zinv) if with_operator else None
    return psi, energy_sums, run_operator


def _propagate_sector(
    eigenvalue: float,
    drive: DriveProfile,
    tau: float,
    space: FockSpace,
    steps: int,
    initial_fock: int,
    with_operator: bool,
    read: np.ndarray,
) -> SectorEvolution:
    """Propagate one oscillator block with drive g(t) = eigenvalue * f(t).

    The dynamic phase is recorded at the increasing step indices ``read`` only.
    """
    dim = space.dimension
    n_points = steps + 1
    if eigenvalue == 0.0:
        return SectorEvolution(
            eigenvalue=0.0,
            evolution=np.eye(dim, dtype=complex) if with_operator else None,
            overlap_series=np.broadcast_to(1.0 + 0.0j, n_points),
            dynamic_series=np.broadcast_to(0.0, read.size),
            leakage_series=np.broadcast_to(1.0 if initial_fock == space.n_max else 0.0, n_points),
            unitarity_defect=0.0 if with_operator else None,
        )

    dt = tau / steps
    dynamic_series = np.zeros(read.size)
    # Segment i's run: the steps bounds[i] to bounds[i + 1] - 1, whose midpoints it holds.
    bounds = _segment_bounds(drive, lambda k: (k + 0.5) * dt, steps)
    starts, end = drive.segment_starts, drive.total_duration
    min_run = _MIN_RUN_STEPS_WITH_OPERATOR if with_operator else _MIN_RUN_STEPS

    sq, w, Q = _position_eigenbasis(dim)
    Qc = QcT = None  # complex copies of Q for the per-step loop, made on first use
    nvec = np.arange(dim)

    psi = space.basis_state(initial_fock)
    operator = np.eye(dim, dtype=complex) if with_operator else None

    overlap_series = np.empty(n_points, dtype=complex)
    leakage_series = np.empty(n_points)
    overlap_series[0] = 1.0
    leakage_series[0] = float(abs(psi[space.n_max]) ** 2)

    dynamic = 0.0
    # Midpoint energies that overflow come out non-finite, and propagate rejects them.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, segment in enumerate(drive.segments):
            k0, k1 = bounds[i], bounds[i + 1]
            if k0 == k1:
                continue
            run = slice(k0 + 1, k1 + 1)
            # The read indices inside the run, and how many of its steps precede each.
            slots = np.flatnonzero((read > k0) & (read <= k1))
            counts = read[slots] - k0
            # g at the midpoints the run reads: the first only, for a closed form.
            closed_form = k1 - k0 >= min_run
            t = (np.arange(k0, k0 + 1 if closed_form else k1) + 0.5) * dt
            g_run = eigenvalue * segment.values(_local_times(t, starts[i], end, out=t))
            # A step turns the state by |g| dt, the same on the whole run:
            # below 1e-300 it is the identity.
            if abs(g_run[0]) * dt < 1e-300:
                overlap_series[run] = overlap_series[k0]
                leakage_series[run] = leakage_series[k0]
                dynamic_series[slots] = dynamic
                continue
            if closed_form:
                psi, energy_sums, run_operator = _closed_form_run(
                    psi, g_run[0], segment.frequency, dt, initial_fock, w, Q, sq,
                    overlap_series[run], leakage_series[run], np.append(counts, k1 - k0),
                    with_operator,
                )
                dynamic_series[slots] = dynamic - dt * energy_sums[:-1]
                dynamic = float(dynamic - dt * energy_sums[-1])
                if with_operator:
                    operator = run_operator @ operator
                continue

            if Qc is None:
                Qc = Q.astype(complex)
                QcT = np.ascontiguousarray(Qc.T)
            running = np.empty(k1 - k0)
            for k in range(k0, k1):
                g = g_run[k - k0]
                mag = abs(g)
                ph = np.angle(g) - 0.5 * np.pi
                D = np.exp(1j * ph * nvec)
                Dc = np.conj(D)
                spin = np.exp(-1j * mag * dt * w)

                # <H> at the midpoint equals <H> before the half step to it: with
                # H = -i g a_dag + i conj(g) a, twice Re <psi|-i g a_dag|psi>.
                energy = 2.0 * float(np.real(-1j * g * np.vdot(psi[1:], sq * psi[:-1])))
                dynamic -= energy * dt
                psi = D * (Qc @ (spin * (QcT @ (Dc * psi))))

                if with_operator:
                    M = QcT @ (Dc[:, None] * operator)
                    operator = D[:, None] * (Qc @ (spin[:, None] * M))

                overlap_series[k + 1] = psi[initial_fock]
                leakage_series[k + 1] = float(abs(psi[space.n_max]) ** 2)
                running[k - k0] = dynamic
            dynamic_series[slots] = running[counts - 1]

    defect = None
    if with_operator:
        defect = float(np.linalg.norm(operator.conj().T @ operator - np.eye(dim), 2))
    return SectorEvolution(
        eigenvalue=float(eigenvalue),
        evolution=operator,
        overlap_series=overlap_series,
        dynamic_series=dynamic_series,
        leakage_series=leakage_series,
        unitarity_defect=defect,
    )


def _parity_mirror(sector: SectorEvolution, eigenvalue: float) -> SectorEvolution:
    """The sector of ``eigenvalue`` = -beta from the already propagated sector of beta.

    With P = (-1)^n, H(-g) = P H(g) P exactly on the truncated space, so the
    evolution is P U P (U with the sign of every element between Fock levels
    of opposite parity flipped) and the state started from |n0> is
    P U P|n0> = +-P U|n0>: the overlap, dynamic and leakage series and the
    unitarity defect are those of ``sector``.
    """
    evolution = sector.evolution
    if evolution is not None:
        parity = 1.0 - 2.0 * (np.arange(evolution.shape[0]) % 2)
        evolution = evolution * np.outer(parity, parity)
    return replace(sector, eigenvalue=float(eigenvalue), evolution=evolution)


def _unwrapped_phases(overlaps: np.ndarray, read: np.ndarray) -> tuple[np.ndarray, float]:
    """Accumulated argument of an overlap series at the indices ``read``, and its smallest modulus.

    The argument after k points is the sum of the first k step increments,
    so index 0 reads 0.0.
    """
    least = float(np.min(np.abs(overlaps)))
    accumulated = np.cumsum(np.angle(overlaps[1:] * np.conj(overlaps[:-1])))
    return np.where(read > 0, accumulated[read - 1], 0.0), least


def _checked_grid(
    drive: DriveProfile, tau: float | None, space: FockSpace | None, steps: int
) -> tuple[float, FockSpace]:
    """``tau`` checked against the drive window, ``steps`` >= 1, and ``space`` or its default."""
    tau = _require_tau(drive, tau)
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    return tau, default_space(drive, tau) if space is None else space


def propagate(
    drive: DriveProfile,
    tau: float | None = None,
    space: FockSpace | None = None,
    steps: int = DEFAULT_STEPS,
    *,
    initial_fock: int = 0,
    leakage_tol: float = DEFAULT_LEAKAGE_TOL,
    sample_times: Sequence[float] | None = None,
    with_operator: bool = True,
) -> FockPropagation:
    """Ordered-product evolution of the joint system over [0, tau].

    The conditioner is diagonalized once; each distinct eigenvalue beta gets
    its own oscillator block driven by beta * f(t), stepped with midpoint
    exponentials exp(-i H(t_mid) dt) evaluated exactly on the truncated
    space.  Per-basis-state phases are recombined through the conditioner
    eigenbasis, once per distinct mix of sector series, which reduces to
    plain per-state propagation for diagonal conditioners.

    Long runs inside one segment are evaluated in closed form, shorter runs
    one exponential at a time (see the module notes); both give the
    per-step product up to rounding.  A sector whose eigenvalue is minus
    that of one already propagated is its parity mirror
    (:func:`_parity_mirror`).

    ``space=None`` picks :func:`default_space` (n_max = 64, escalated when
    the loop grows, up to ``MAX_N_MAX``).  ``sample_times`` requests phase
    snapshots at grid times, checked against the grid before anything is
    propagated; the dynamic phase is computed at those times and at tau only.
    ``initial_fock`` starts every sector from that Fock level instead of the
    vacuum.  Population reaching the top level above ``leakage_tol`` raises
    :class:`TruncationError` with a recommended truncation.
    """
    tau, space = _checked_grid(drive, tau, space, steps)
    if not 0 <= initial_fock <= space.n_max:
        raise ValueError(f"initial_fock {initial_fock} outside [0, {space.n_max}]")

    # The sample times' step indices, checked before anything propagates.  The
    # dynamic phase is computed at these and at the final step only.
    sample_index = None
    read = np.array([steps])
    if sample_times is not None:
        requested = np.array(sample_times, dtype=float)
        dt = tau / steps
        index = np.rint(requested / dt)
        slack = np.abs(index * dt - requested)
        on_grid = (index >= 0) & (index <= steps) & (slack <= 1e-9 * max(tau, 1.0))
        if not np.all(on_grid):
            bad = requested[~on_grid][0]
            raise ValueError(f"sample time {bad} does not lie on the step grid")
        sample_index = index.astype(int)
        # Sorted without np.unique, whose first call imports numpy.ma (about 1 MB).
        read = np.array(sorted({*sample_index.tolist(), steps}))

    values, vectors = drive.conditioner.eigensystem()
    distinct: list[float] = []
    column_sector = np.empty(4, dtype=int)
    for k, value in enumerate(values):
        # eigh returns the zero eigenvalues of a non-diagonal conditioner
        # as rounding noise; exactly 0.0 lets the sector skip propagation.
        if abs(value) <= _EIGENVALUE_RESOLUTION:
            value = 0.0
        for i, existing in enumerate(distinct):
            if abs(value - existing) <= _EIGENVALUE_RESOLUTION:
                column_sector[k] = i
                break
        else:
            column_sector[k] = len(distinct)
            distinct.append(float(value))

    # source[i]: the propagated sector whose series sector i holds.
    sectors: list[SectorEvolution] = []
    source: list[int] = []
    for value in distinct:
        mirror = next(
            (i for i, s in enumerate(sectors)
             if s.eigenvalue != 0.0 and abs(s.eigenvalue + value) <= _EIGENVALUE_RESOLUTION),
            None,
        )
        if mirror is None:
            source.append(len(sectors))
            sectors.append(
                _propagate_sector(
                    value, drive, tau, space, steps, initial_fock, with_operator, read
                )
            )
        else:
            source.append(source[mirror])
            sectors.append(_parity_mirror(sectors[mirror], value))
    sectors = tuple(sectors)

    # weights[j, i]: probability that basis state j sits in sector i.
    weights = np.zeros((4, len(distinct)))
    for k in range(4):
        weights[:, column_sector[k]] += np.abs(vectors[:, k]) ** 2

    # Once per distinct mix of series: states with equal weights on the same
    # series share every result.  No temporary outgrows one series, and the
    # phases and the leakage are kept at the read indices only.
    mixes: dict[tuple, list[int]] = {}
    for j in range(4):
        key = tuple((source[i], w) for i, w in enumerate(weights[j]) if w)
        mixes.setdefault(key, []).append(j)
    total_by_state, dynamic_by_state, leakage_by_state = np.empty((3, 4, read.size))
    overlap_modulus, min_moduli, peak_leakage = np.empty((3, 4))
    for states in mixes.values():
        parts = [(w, sectors[i]) for i, w in enumerate(weights[states[0]]) if w]
        dynamic_by_state[states] = sum(w * s.dynamic_series for w, s in parts)
        if len(parts) == 1 and parts[0][0] == 1.0 and parts[0][1].eigenvalue == 0.0:
            # The identity sector alone: a constant overlap of 1 and constant leakage.
            state_leakage = parts[0][1].leakage_series
            total_by_state[states], min_moduli[states], overlap_modulus[states] = 0.0, 1.0, 1.0
        else:
            overlap = sum(w * s.overlap_series for w, s in parts)
            total_by_state[states], min_moduli[states] = _unwrapped_phases(overlap, read)
            overlap_modulus[states] = abs(overlap[-1])
            del overlap
            state_leakage = sum(w * s.leakage_series for w, s in parts)
        leakage_by_state[states], peak_leakage[states] = state_leakage[read], np.max(state_leakage)
    leakage = float(np.max(peak_leakage))
    if leakage > leakage_tol:
        need = _truncation_need(drive, tau)
        if need <= space.n_max:
            need = 2 * space.n_max
        recommended = int(math.ceil(need)) if need <= MAX_N_MAX else None
        advice = (
            f"the loop needs a truncation beyond the cap n_max <= {MAX_N_MAX}"
            if recommended is None
            else f"rerun with n_max >= {recommended}"
        )
        raise TruncationError(
            f"population {leakage:.3e} reached the top Fock level n_max={space.n_max}; {advice}",
            leakage=leakage,
            recommended_n_max=recommended,
        )
    if not np.all(np.isfinite(dynamic_by_state)):
        raise ValueError(
            "the dynamic phase is not finite: the midpoint energy <H> of the drive "
            "overflows the float range"
        )

    defects = [s.unitarity_defect for s in sectors if s.unitarity_defect is not None]
    unitarity_defect = max(defects) if with_operator and defects else None

    samples = None
    if sample_index is not None:
        at = np.searchsorted(read, sample_index)
        samples = {
            "times": _grid_times(read.astype(float), tau, steps + 1)[at],
            "total_phase": total_by_state[:, at].T.copy(),
            "dynamic_phase": dynamic_by_state[:, at].T.copy(),
            "leakage": np.max(leakage_by_state[:, at], axis=0),
        }

    return FockPropagation(
        space=space,
        steps=steps,
        tau=tau,
        initial_fock=initial_fock,
        conditioner_name=drive.conditioner.name,
        sectors=sectors,
        eigenvector_columns=vectors,
        column_sector=column_sector,
        total_phase=total_by_state[:, -1].copy(),
        dynamic_phase=dynamic_by_state[:, -1].copy(),
        overlap_modulus=overlap_modulus,
        min_overlap_modulus=min_moduli,
        leakage=leakage,
        unitarity_defect=unitarity_defect,
        samples=samples,
    )


def verify_magnus_form(
    drive: DriveProfile,
    tau: float | None = None,
    space: FockSpace | None = None,
    steps: int = DEFAULT_STEPS,
    *,
    propagation: FockPropagation | None = None,
) -> float:
    """Deviation of the stepped evolution from its displacement form.

    For a single-tone drive the unit-eigenvalue oscillator block must equal
    exp(i * Phi(tau)) * D(alpha(tau)) exactly, because the commutator of the
    Hamiltonian with itself at different times is a number.  Returns the
    spectral norm of the difference restricted to the low-occupation block
    (Fock levels up to n_max/2), where truncation effects are negligible.

    The left side is the ordered product of midpoint exponentials, Phi and
    alpha come from the closed forms, and the displacement operator is the
    closed form of :func:`displacement_matrix` from the eigenbasis of
    X = a + a_dag.  The steps use that basis too; tests pin both the steps
    and D(alpha) against scipy's ``expm``, so the check does not rest on it.

    ``propagation``, a :func:`propagate` result for this drive, supplies the
    left side when it tracked the operator of a unit-eigenvalue sector on the
    same ``space``, ``steps`` and ``tau``; the operator does not depend on the
    initial Fock level, so the residual is the one a fresh propagation gives.
    Otherwise the unit sector is propagated here.
    """
    if len(drive.segments) != 1:
        raise ValueError("the displacement-form check needs a single-tone drive")
    segment = drive.segments[0]
    if segment.frequency == 0.0:
        raise ValueError("the displacement-form check needs a nonzero detuning")
    tau, space = _checked_grid(drive, tau, space, steps)

    evolution = None
    if (
        propagation is not None
        and (propagation.space, propagation.steps, propagation.tau) == (space, steps, tau)
    ):
        evolution = next((s.evolution for s in propagation.sectors if s.eigenvalue == 1.0), None)
    if evolution is None:
        unit = _propagate_sector(1.0, drive, tau, space, steps, 0, True, np.array([steps]))
        evolution = unit.evolution
    omega = abs(segment.amplitude)
    ratio = omega / segment.frequency
    phi = analytic_total_phase(ratio, segment.frequency, tau)
    alpha = complex(alpha_array(drive, np.array([tau]))[0])
    target = np.exp(1j * phi) * displacement_matrix(alpha, space)

    block = space.n_max // 2 + 1
    difference = (evolution - target)[:block, :block]
    return float(np.linalg.norm(difference, 2))
