"""Command-line interface tying drives, gates, the oracle, and sweeps together.

Five subcommands:

``phase``
    Phase decomposition (total, geometric, dynamic, eta) of a drive loop,
    optionally cross-checked against the brute-force propagator.
``gate``
    Two-qubit gate construction from a designed drive, a drive file, or
    direct phase parameters, with an optional local correction to CZ.
``oracle-verify``
    Brute-force propagation of a drive under its conditioner, compared
    per basis state against the analytic phase predictions.
``sweep``
    The robustness studies: eta invariance, timing error response,
    noncyclic time scans, and equal-area loop comparisons.
``design``
    Inverse design of a constant drive for a target one-period phase.

Every command accepts ``--config FILE`` (a JSON object whose keys mirror the
long flags with underscores; explicit flags override config values; unknown
keys are rejected), ``--format json|csv``, and ``--out PATH``.  Without
``--out`` the report goes to stdout, byte-identical across runs with the
same inputs.  Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from typing import Sequence

import numpy as np

from . import drives
from ._serialize import csv_number, format_tree
from ._version import __version__
from .drives import ConstantDriveParams, DriveProfile
from .errors import (
    ConfigError,
    InternalConsistencyError,
    InvalidTrajectoryError,
    LoopNotClosedError,
    NonDiagonalGateError,
    NonUnitaryError,
    SingularDetuningError,
    TruncationError,
    UndefinedPhaseError,
    UnreachablePhaseError,
)
from .gates import (
    BASIS_LABELS,
    TwoQubitGate,
    apply_local_phase_correction,
    collective_gate,
    cz_gate,
    gate_fidelity,
    is_nontrivial,
    jy_squared_gate,
    odd_parity_projector,
    standard_conditioner,
)
from .oracle import (
    DEFAULT_LEAKAGE_TOL,
    DEFAULT_N_MAX,
    DEFAULT_STEPS,
    FockSpace,
    extract_total_phase,
    propagate,
    verify_magnus_form,
)
from .phasespace import (
    DEFAULT_CLOSURE_TOLERANCE,
    PhaseDecomposition,
    analytic_total_phase,
    decompose,
)
from .robustness import (
    AREA_STUDY_SAMPLES,
    ETA_SWEEP_SAMPLES,
    NONCYCLIC_ANALYTIC_TOL,
    NONCYCLIC_ORACLE_TOL,
    NONCYCLIC_SAMPLES,
    OracleSettings,
    SweepReport,
    SweepSpec,
    area_invariance_study,
    eta_invariance_sweep,
    noncyclic_scan,
    timing_error_sweep,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

DEFAULT_ORACLE_TOLERANCE = 1e-4

_VALIDATION_ERRORS = (
    ConfigError,
    ValueError,
    OSError,
    InvalidTrajectoryError,
    LoopNotClosedError,
    NonDiagonalGateError,
    SingularDetuningError,
    UnreachablePhaseError,
)
_NUMERICAL_ERRORS = (
    InternalConsistencyError,
    NonUnitaryError,
    TruncationError,
    UndefinedPhaseError,
)

_SHARED_CONFIG_KEYS = {"schema_version", "command", "format", "out"}
_COMMAND_CONFIG_KEYS = {
    "phase": {
        "drive",
        "omega_over_delta",
        "delta",
        "phi_l",
        "periods",
        "tau",
        "samples",
        "require_closed",
        "closure_tolerance",
        "oracle",
        "n_max",
        "steps",
    },
    "gate": {
        "drive",
        "target_phase",
        "gamma0",
        "gamma",
        "conditioner",
        "correct_to_cz",
        "omega_over_delta",
        "delta",
        "phi_l",
        "periods",
        "tau",
        "samples",
        "closure_tolerance",
    },
    "oracle-verify": {
        "drive",
        "omega_over_delta",
        "delta",
        "phi_l",
        "periods",
        "conditioner",
        "tau",
        "samples",
        "n_max",
        "steps",
        "initial_fock",
        "tolerance",
        "leakage_tolerance",
        "state_only",
    },
    "sweep": {
        "parameter",
        "grid",
        "drive",
        "omega_over_delta",
        "delta",
        "phi_l",
        "oracle",
        "n_max",
        "steps",
        "samples",
        "analytic_tolerance",
        "oracle_tolerance",
        "agreement_tolerance",
        "closure_tolerance",
    },
    "design": {"target_phase", "delta", "phi_l"},
}

_SWEEP_CHOICES = (
    "time",
    "timing_error",
    "omega_over_delta",
    "phi_l",
    "delta",
    "loop_shape",
)


def _load_config(path: str | None, command: str) -> dict:
    """Read and schema-check the JSON config for one command."""
    if path is None:
        return {}
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    allowed = _SHARED_CONFIG_KEYS | _COMMAND_CONFIG_KEYS[command]
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {unknown}")
    if "schema_version" in data and data["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version: {data['schema_version']!r}")
    if "command" in data and data["command"] != command:
        raise ConfigError(f"config is for command {data['command']!r}, not {command!r}")
    return data


class _Options:
    """Typed access to flag values layered over config-file values."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self._args = args
        self._config = config

    def raw(self, key):
        value = getattr(self._args, key, None)
        if value is None:
            value = self._config.get(key)
        return value

    def given(self, key) -> bool:
        return self.raw(key) is not None

    def number(self, key, default=None):
        value = self.raw(key)
        if value is None:
            return default
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        return float(value)

    def integer(self, key, default=None):
        value = self.raw(key)
        if value is None:
            return default
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return int(value)

    def flag(self, key) -> bool:
        value = self.raw(key)
        if value is None:
            return False
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be a boolean, got {value!r}")
        return value

    def text(self, key, default=None):
        value = self.raw(key)
        if value is None:
            return default
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        return value

    def drive_source(self):
        """The drive document source: ('paths', [...]), ('inline', dict), or (None, None)."""
        paths = getattr(self._args, "drive", None)
        if paths:
            return "paths", list(paths)
        raw = self._config.get("drive")
        if raw is None:
            return None, None
        if isinstance(raw, str):
            return "paths", [raw]
        if isinstance(raw, dict):
            return "inline", raw
        if isinstance(raw, list):
            if not raw or not all(isinstance(item, str) for item in raw):
                raise ConfigError("a drive list must hold one or more file paths")
            return "paths", raw
        raise ConfigError("drive must be an object, a file path, or a list of file paths")


def _load_drive_file(path: str) -> DriveProfile:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"drive file {path} is not valid JSON: {exc}") from exc
    return drives.drive_from_dict(data)


def _reject(opts: _Options, keys: Sequence[str], reason: str) -> None:
    for key in keys:
        if opts.given(key):
            flag = "--" + key.replace("_", "-")
            raise ConfigError(f"{flag} does not apply {reason}")


def _resolve_drive(opts: _Options, *, allow_conditioner: bool) -> tuple[DriveProfile, dict | None]:
    """Build the working drive from a file, an inline document, or constant params.

    Returns the profile and, for the constant family, an echo dict of the
    parameters used (None for document drives).
    """
    kind, payload = opts.drive_source()
    conditioner_name = opts.text("conditioner")
    if not allow_conditioner and conditioner_name is not None:
        raise ConfigError("--conditioner does not apply to this command")

    if kind is not None:
        _reject(opts, ("omega_over_delta", "delta", "phi_l", "periods"), "to document drives")
        if kind == "paths":
            if len(payload) != 1:
                raise ConfigError("this command takes exactly one drive file")
            drive = _load_drive_file(payload[0])
        else:
            drive = drives.drive_from_dict(payload)
        if conditioner_name is not None:
            drive = dataclasses.replace(drive, conditioner=standard_conditioner(conditioner_name))
        return drive, None

    ratio = opts.number("omega_over_delta")
    if ratio is None:
        raise ConfigError(
            "no drive given: use --omega-over-delta (with --delta/--phi-l/--periods) "
            "or --drive FILE"
        )
    delta = opts.number("delta", 1.0)
    phi_l = opts.number("phi_l", 0.0)
    periods = opts.number("periods", 1.0)
    params = ConstantDriveParams(omega_d=ratio * delta, delta=delta, phi_l=phi_l)
    conditioner = None
    if conditioner_name is not None:
        conditioner = standard_conditioner(conditioner_name)
    drive = drives.constant_drive(params, periods=periods, conditioner=conditioner)
    echo = {
        "omega_over_delta": ratio,
        "delta": delta,
        "phi_l": phi_l,
        "periods": periods,
    }
    return drive, echo


def _base_params(opts: _Options) -> ConstantDriveParams:
    ratio = opts.number("omega_over_delta", 0.5)
    delta = opts.number("delta", 1.0)
    phi_l = opts.number("phi_l", 0.0)
    return ConstantDriveParams(omega_d=ratio * delta, delta=delta, phi_l=phi_l)


def _decomposition_dict(decomposition: PhaseDecomposition) -> dict:
    return {
        "total": decomposition.total,
        "geometric": decomposition.geometric,
        "dynamic": decomposition.dynamic,
        "eta": decomposition.eta,
        "classification": decomposition.classification,
    }


def _oracle_settings(opts: _Options) -> OracleSettings | None:
    if not opts.flag("oracle"):
        if opts.given("n_max") or opts.given("steps"):
            raise ConfigError("--n-max/--steps require --oracle")
        return None
    return OracleSettings(
        n_max=opts.integer("n_max", DEFAULT_N_MAX),
        steps=opts.integer("steps", DEFAULT_STEPS),
    )


def _parse_grid(opts: _Options) -> list[float]:
    raw = opts.raw("grid")
    if raw is None:
        raise ConfigError("sweep needs a grid: --grid v1,v2,... or a config 'grid' list")
    if isinstance(raw, str):
        parts = [part.strip() for part in raw.split(",") if part.strip()]
        try:
            return [float(part) for part in parts]
        except ValueError as exc:
            raise ConfigError(f"grid entries must be numbers: {exc}") from exc
    if isinstance(raw, list):
        values = []
        for item in raw:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ConfigError(f"grid entries must be numbers, got {item!r}")
            values.append(float(item))
        return values
    raise ConfigError("grid must be a comma-separated string or a list of numbers")


# ---------------------------------------------------------------------------
# commands


def _cmd_phase(opts: _Options) -> tuple[dict, int]:
    drive, constant = _resolve_drive(opts, allow_conditioner=False)
    tau = opts.number("tau", drive.total_duration)
    samples = opts.integer("samples", drives.DEFAULT_DRIVE_SAMPLES)
    closure_tolerance = opts.number("closure_tolerance", DEFAULT_CLOSURE_TOLERANCE)

    residual = drives.closure_residual(drive, tau)
    closed = residual <= closure_tolerance
    if opts.flag("require_closed") and not closed:
        raise LoopNotClosedError(
            f"loop is open at tau={tau:.12g}: closure residual {residual:.6e} "
            f"exceeds {closure_tolerance:.3e}",
            residual,
        )

    if constant is not None:
        phi = analytic_total_phase(
            constant["omega_over_delta"], constant["delta"], tau
        )
        method = "closed-form"
    else:
        phi = drives.gamma0(drive, tau, samples)
        method = "quadrature"
    decomposition = decompose(-phi, 2.0 * phi)

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "phase",
        "drive": drives.drive_to_dict(drive),
        "constant": constant,
        "tau": tau,
        "samples": None if constant is not None else samples,
        "method": method,
        "closure_residual": residual,
        "closed": closed,
        "analytic": _decomposition_dict(decomposition),
        "oracle": None,
    }

    settings = _oracle_settings(opts)
    if settings is not None:
        # The path phase is a one-oscillator quantity; pin the comparison to
        # the unit-eigenvalue sector by propagating under the parity projector.
        work = dataclasses.replace(drive, conditioner=odd_parity_projector())
        propagation = propagate(
            work, tau, space=settings.space, steps=settings.steps, with_operator=False
        )
        total = extract_total_phase(propagation, 1)
        dynamic = float(propagation.dynamic_phase[1])
        geometric = total - dynamic
        report["oracle"] = {
            "n_max": settings.n_max,
            "steps": settings.steps,
            "conditioner": "odd-parity-projector",
            "spin_state": BASIS_LABELS[1],
            "total": total,
            "geometric": geometric,
            "dynamic": dynamic,
            "eta": propagation.decomposition(1).eta,
            "leakage": float(propagation.leakage),
            "min_overlap_modulus": float(propagation.min_overlap_modulus[1]),
            "deviation": {
                "total": abs(total - decomposition.total),
                "geometric": abs(geometric - decomposition.geometric),
                "dynamic": abs(dynamic - decomposition.dynamic),
            },
        }
    return report, EXIT_OK


def _gate_from_phases(gamma0_value: float, conditioner_name: str) -> tuple[
    TwoQubitGate, tuple[PhaseDecomposition, ...]
]:
    conditioner = standard_conditioner(conditioner_name)
    if not conditioner.is_diagonal:
        raise ConfigError(
            f"conditioner {conditioner_name!r} is not diagonal; use --gamma for the "
            "squared-collective-y gate"
        )
    betas = conditioner.basis_eigenvalues
    phases = tuple(float(b * b * gamma0_value) for b in betas)
    gate = TwoQubitGate(matrix=np.diag(np.exp(1j * np.array(phases))), phases=phases)
    decompositions = tuple(
        decompose(-float(b * b * gamma0_value), 2.0 * float(b * b * gamma0_value))
        for b in betas
    )
    return gate, decompositions


def _cmd_gate(opts: _Options) -> tuple[dict, int]:
    target = opts.number("target_phase")
    gamma0_value = opts.number("gamma0")
    gamma_value = opts.number("gamma")
    source_kind, _ = opts.drive_source()
    has_drive = source_kind is not None or opts.given("omega_over_delta")
    chosen = [target is not None, gamma0_value is not None, gamma_value is not None, has_drive]
    if sum(chosen) != 1:
        raise ConfigError(
            "choose exactly one construction: --target-phase, --gamma0, --gamma, "
            "or a drive (--drive FILE / --omega-over-delta)"
        )

    samples = opts.integer("samples", drives.DEFAULT_DRIVE_SAMPLES)
    closure_tolerance = opts.number("closure_tolerance", DEFAULT_CLOSURE_TOLERANCE)
    correct = opts.flag("correct_to_cz")

    design_echo = None
    drive_echo = None
    drive_doc = None
    quadrature_gamma0 = None

    if target is not None:
        _reject(opts, ("tau", "conditioner", "periods", "omega_over_delta"),
                "to the designed construction")
        params = drives.design_constant_drive(
            target, opts.number("delta", 1.0), opts.number("phi_l", 0.0)
        )
        drive = drives.constant_drive(params, periods=1.0)
        gate, decompositions = collective_gate(
            drive, samples=samples, closure_tolerance=closure_tolerance
        )
        construction = "designed-drive"
        design_echo = {
            "target_phase": target,
            "omega_d": params.omega_d,
            "omega_over_delta": params.ratio,
            "delta": params.delta,
            "phi_l": params.phi_l,
            "period": params.period,
        }
        drive_doc = drives.drive_to_dict(drive)
        quadrature_gamma0 = float(gate.phases[1])
        conditioner_name = drive.conditioner.name
    elif gamma0_value is not None:
        _reject(
            opts,
            ("delta", "phi_l", "periods", "tau", "samples", "closure_tolerance"),
            "to the direct-phase construction",
        )
        conditioner_name = opts.text("conditioner", "odd-parity-projector")
        gate, decompositions = _gate_from_phases(gamma0_value, conditioner_name)
        construction = "direct-phases"
    elif gamma_value is not None:
        _reject(
            opts,
            ("delta", "phi_l", "periods", "tau", "samples", "closure_tolerance"),
            "to the squared-collective-y construction",
        )
        conditioner_name = opts.text("conditioner", "jy")
        if conditioner_name != "jy":
            raise ConfigError("--gamma builds the squared-collective-y gate; use --conditioner jy")
        gate = jy_squared_gate(gamma_value)
        decompositions = None
        construction = "jy-exponential"
        if correct:
            raise ConfigError("--correct-to-cz needs a diagonal gate")
    else:
        drive, constant = _resolve_drive(opts, allow_conditioner=True)
        tau = opts.number("tau", drive.total_duration)
        gate, decompositions = collective_gate(
            drive, tau, samples=samples, closure_tolerance=closure_tolerance
        )
        construction = "constant-drive" if constant is not None else "drive-document"
        drive_echo = constant
        drive_doc = drives.drive_to_dict(drive)
        quadrature_gamma0 = drives.gamma0(drive, tau, samples)
        conditioner_name = drive.conditioner.name

    correction_theta = None
    fidelity_vs_cz = None
    if correct:
        # Cancel the odd-parity loop phase with one local z rotation per
        # qubit; lands exactly on CZ when the loop phase is -pi/2 (mod 2 pi).
        correction_theta = -float(gate.phases[1])
        gate = apply_local_phase_correction(gate, correction_theta)
        fidelity_vs_cz = gate_fidelity(gate, cz_gate())

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "gate",
        "construction": construction,
        "conditioner": conditioner_name,
        "design": design_echo,
        "constant": drive_echo,
        "drive": drive_doc,
        "gamma0": quadrature_gamma0 if gamma0_value is None else gamma0_value,
        "gamma": gamma_value,
        "corrected_to_cz": correct,
        "correction_theta": correction_theta,
        "fidelity_vs_cz": fidelity_vs_cz,
        "gate": gate.to_dict(),
        "nontrivial": is_nontrivial(gate) if gate.is_diagonal else None,
        "decompositions": (
            None
            if decompositions is None
            else [
                dict(state=label, **_decomposition_dict(d))
                for label, d in zip(BASIS_LABELS, decompositions)
            ]
        ),
    }
    return report, EXIT_OK


def _cmd_oracle_verify(opts: _Options) -> tuple[dict, int]:
    drive, constant = _resolve_drive(opts, allow_conditioner=True)
    conditioner = drive.conditioner
    if not conditioner.is_diagonal:
        raise ConfigError(
            "oracle-verify needs a diagonal conditioner (odd-parity-projector or jz); "
            "the squared-collective-y gate is checked via its dense exponential instead"
        )
    tau = opts.number("tau", drive.total_duration)
    samples = opts.integer("samples", drives.DEFAULT_DRIVE_SAMPLES)
    n_max = opts.integer("n_max", DEFAULT_N_MAX)
    steps = opts.integer("steps", DEFAULT_STEPS)
    initial_fock = opts.integer("initial_fock", 0)
    tolerance = opts.number("tolerance", DEFAULT_ORACLE_TOLERANCE)
    leakage_tolerance = opts.number("leakage_tolerance", DEFAULT_LEAKAGE_TOL)
    state_only = opts.flag("state_only")

    reference = drives.gamma0(drive, tau, samples)
    propagation = propagate(
        drive,
        tau,
        space=FockSpace(n_max),
        steps=steps,
        initial_fock=initial_fock,
        leakage_tol=leakage_tolerance,
        with_operator=not state_only,
    )

    betas = conditioner.basis_eigenvalues
    per_state = []
    max_deviation = 0.0
    for k, label in enumerate(BASIS_LABELS):
        weight = float(betas[k]) ** 2
        analytic_total = weight * reference
        analytic_dynamic = 2.0 * weight * reference
        oracle_total = extract_total_phase(propagation, k)
        oracle_dynamic = float(propagation.dynamic_phase[k])
        deviation_total = abs(oracle_total - analytic_total)
        deviation_dynamic = abs(oracle_dynamic - analytic_dynamic)
        max_deviation = max(max_deviation, deviation_total, deviation_dynamic)
        per_state.append(
            {
                "state": label,
                "eigenvalue": float(betas[k]),
                "analytic": {
                    "total": analytic_total,
                    "geometric": -weight * reference,
                    "dynamic": analytic_dynamic,
                },
                "oracle": {
                    "total": oracle_total,
                    "geometric": oracle_total - oracle_dynamic,
                    "dynamic": oracle_dynamic,
                    "overlap_modulus": float(propagation.overlap_modulus[k]),
                },
                "deviation": {"total": deviation_total, "dynamic": deviation_dynamic},
            }
        )

    displacement_residual = None
    segment = drive.segments[0]
    if (
        not state_only
        and len(drive.segments) == 1
        and segment.func is None
        and segment.frequency != 0.0
    ):
        displacement_residual = verify_magnus_form(drive, tau, FockSpace(n_max), steps)

    passed = max_deviation <= tolerance and (
        displacement_residual is None or displacement_residual <= tolerance
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "oracle-verify",
        "drive": drives.drive_to_dict(drive),
        "constant": constant,
        "tau": tau,
        "gamma0": reference,
        "oracle": {
            "n_max": n_max,
            "steps": steps,
            "initial_fock": initial_fock,
            "conditioner": conditioner.name,
            "leakage": float(propagation.leakage),
            "unitarity_defect": (
                None
                if propagation.unitarity_defect is None
                else float(propagation.unitarity_defect)
            ),
        },
        "tolerance": tolerance,
        "per_state": per_state,
        "max_deviation": max_deviation,
        "displacement_form_residual": displacement_residual,
        "pass": passed,
    }
    return report, EXIT_OK if passed else EXIT_NUMERICAL


def _cmd_sweep(opts: _Options) -> tuple[SweepReport, int]:
    parameter = opts.text("parameter")
    if parameter is None:
        raise ConfigError(f"sweep needs --parameter, one of {_SWEEP_CHOICES}")
    if parameter not in _SWEEP_CHOICES:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; expected one of {_SWEEP_CHOICES}")

    if parameter == "loop_shape":
        if opts.raw("grid") is not None:
            raise ConfigError("loop_shape sweeps take --drive files, not a grid")
        if opts.flag("oracle") or opts.given("n_max") or opts.given("steps"):
            raise ConfigError("the equal-area study is analytic-only; drop --oracle")
        _reject(opts, ("omega_over_delta", "delta", "phi_l"), "to loop_shape sweeps")
        kind, payload = opts.drive_source()
        if kind is None:
            raise ConfigError("loop_shape sweeps need at least one --drive FILE")
        if kind == "inline":
            loops = [drives.drive_from_dict(payload)]
        else:
            loops = [_load_drive_file(path) for path in payload]
        return (
            area_invariance_study(
                loops,
                samples=opts.integer("samples", AREA_STUDY_SAMPLES),
                agreement_tolerance=opts.number("agreement_tolerance", 1e-6),
                closure_tolerance=opts.number(
                    "closure_tolerance", DEFAULT_CLOSURE_TOLERANCE
                ),
            ),
            EXIT_OK,
        )

    if opts.drive_source()[0] is not None:
        raise ConfigError("parameter sweeps use the constant-drive base, not drive files")
    grid = _parse_grid(opts)
    base = _base_params(opts)
    settings = _oracle_settings(opts)

    if parameter == "time":
        report = noncyclic_scan(
            base,
            grid,
            samples=opts.integer("samples", NONCYCLIC_SAMPLES),
            oracle_settings=settings,
            analytic_tolerance=opts.number("analytic_tolerance", NONCYCLIC_ANALYTIC_TOL),
            oracle_tolerance=opts.number("oracle_tolerance", NONCYCLIC_ORACLE_TOL),
        )
    elif parameter == "timing_error":
        _reject(opts, ("samples", "analytic_tolerance", "oracle_tolerance"),
                "to timing_error sweeps")
        report = timing_error_sweep(base, grid, oracle_settings=settings)
    else:
        _reject(opts, ("analytic_tolerance", "oracle_tolerance"), "to eta sweeps")
        spec = SweepSpec(parameter=parameter, grid=tuple(grid), base=base,
                         oracle_settings=settings)
        report = eta_invariance_sweep(
            spec, samples=opts.integer("samples", ETA_SWEEP_SAMPLES)
        )
    return report, EXIT_OK


def _cmd_design(opts: _Options) -> tuple[dict, int]:
    target = opts.number("target_phase")
    if target is None:
        raise ConfigError("design needs --target-phase")
    delta = opts.number("delta", 1.0)
    phi_l = opts.number("phi_l", 0.0)
    params = drives.design_constant_drive(target, delta, phi_l)
    phi = analytic_total_phase(params.ratio, params.delta, params.period)
    decomposition = decompose(-phi, 2.0 * phi)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "design",
        "target_phase": target,
        "omega_d": params.omega_d,
        "omega_over_delta": params.ratio,
        "delta": params.delta,
        "phi_l": params.phi_l,
        "period": params.period,
        "round_trip_error": abs(phi - target),
        "predicted": _decomposition_dict(decomposition),
    }
    return report, EXIT_OK


_HANDLERS = {
    "phase": _cmd_phase,
    "gate": _cmd_gate,
    "oracle-verify": _cmd_oracle_verify,
    "sweep": _cmd_sweep,
    "design": _cmd_design,
}


# ---------------------------------------------------------------------------
# rendering


def _flatten(prefix: str, value) -> list[tuple[str, object]]:
    if isinstance(value, dict):
        pairs = []
        for key in sorted(value):
            sub = f"{prefix}.{key}" if prefix else str(key)
            pairs.extend(_flatten(sub, value[key]))
        return pairs
    if isinstance(value, (list, tuple)):
        pairs = []
        for index, item in enumerate(value):
            sub = f"{prefix}.{index}" if prefix else str(index)
            pairs.extend(_flatten(sub, item))
        return pairs
    return [(prefix, value)]


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    return csv_number(value)


def _render(report: dict, fmt: str) -> str:
    formatted = format_tree(report)
    if fmt == "json":
        return json.dumps(formatted, indent=2, sort_keys=True) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _flatten("", formatted):
        writer.writerow([key, _csv_cell(value)])
    return buffer.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON config; explicit flags override its values")
    parser.add_argument("--format", choices=("json", "csv"),
                        help="output encoding (default json)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report to this file instead of stdout")


def _add_constant_drive(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--omega-over-delta", type=float, dest="omega_over_delta",
                        metavar="R", help="drive strength over detuning (loop radius)")
    parser.add_argument("--delta", type=float, metavar="D",
                        help="detuning (default 1.0)")
    parser.add_argument("--phi-l", type=float, dest="phi_l", metavar="P",
                        help="drive phase (default 0.0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopgate",
        description="Phase-space loop gates: phases, gates, brute-force checks, sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")

    phase = subparsers.add_parser(
        "phase", help="phase decomposition of a drive loop",
        description="Total, geometric, and dynamic phase of a drive loop, with "
        "the dynamic-to-geometric ratio eta.",
    )
    _add_constant_drive(phase)
    phase.add_argument("--periods", type=float, metavar="N",
                       help="loop periods for the constant drive (default 1.0)")
    phase.add_argument("--drive", action="append", metavar="FILE",
                       help="drive profile document instead of inline parameters")
    phase.add_argument("--tau", type=float, metavar="T",
                       help="evaluation time (default: full drive duration)")
    phase.add_argument("--samples", type=int, metavar="N",
                       help="quadrature samples for document drives")
    phase.add_argument("--require-closed", action="store_true", default=None,
                       dest="require_closed",
                       help="fail (exit 2) when the loop is open at tau")
    phase.add_argument("--closure-tolerance", type=float, dest="closure_tolerance",
                       metavar="TOL", help="closure residual threshold (default 1e-9)")
    phase.add_argument("--oracle", action="store_true", default=None,
                       help="also run the brute-force propagator and report deviations")
    phase.add_argument("--n-max", type=int, dest="n_max", metavar="N",
                       help="oracle truncation (default 64)")
    phase.add_argument("--steps", type=int, metavar="N",
                       help="oracle time steps (default 20000)")
    _add_common(phase)

    gate = subparsers.add_parser(
        "gate", help="two-qubit gate construction",
        description="Build the two-qubit gate from a designed drive, a drive "
        "document, or direct phase parameters.",
    )
    gate.add_argument("--target-phase", type=float, dest="target_phase", metavar="G",
                      help="design a one-period constant drive for this total phase")
    gate.add_argument("--gamma0", type=float, metavar="G",
                      help="loop phase functional value for a direct diagonal gate")
    gate.add_argument("--gamma", type=float, metavar="G",
                      help="angle of the squared-collective-y gate (conditioner jy)")
    gate.add_argument("--conditioner", choices=("odd-parity-projector", "jz", "jy"),
                      help="spin operator conditioning the displacement")
    gate.add_argument("--correct-to-cz", action="store_true", default=None,
                      dest="correct_to_cz",
                      help="apply the local phase correction that lands on CZ")
    _add_constant_drive(gate)
    gate.add_argument("--periods", type=float, metavar="N",
                      help="loop periods for the constant drive (default 1.0)")
    gate.add_argument("--drive", action="append", metavar="FILE",
                      help="drive profile document")
    gate.add_argument("--tau", type=float, metavar="T",
                      help="evaluation time (default: full drive duration)")
    gate.add_argument("--samples", type=int, metavar="N",
                      help="quadrature samples for the loop phase")
    gate.add_argument("--closure-tolerance", type=float, dest="closure_tolerance",
                      metavar="TOL", help="closure residual threshold (default 1e-9)")
    _add_common(gate)

    verify = subparsers.add_parser(
        "oracle-verify", help="brute-force check of the analytic phases",
        description="Propagate the drive in a truncated number basis and compare "
        "per-state phases against the analytic predictions.",
    )
    _add_constant_drive(verify)
    verify.add_argument("--periods", type=float, metavar="N",
                        help="loop periods for the constant drive (default 1.0)")
    verify.add_argument("--drive", action="append", metavar="FILE",
                        help="drive profile document")
    verify.add_argument("--conditioner", choices=("odd-parity-projector", "jz"),
                        help="override the drive's conditioner (diagonal only)")
    verify.add_argument("--tau", type=float, metavar="T",
                        help="evaluation time (default: full drive duration)")
    verify.add_argument("--samples", type=int, metavar="N",
                        help="quadrature samples for the analytic reference")
    verify.add_argument("--n-max", type=int, dest="n_max", metavar="N",
                        help="truncation (default 64)")
    verify.add_argument("--steps", type=int, metavar="N",
                        help="time steps (default 20000)")
    verify.add_argument("--initial-fock", type=int, dest="initial_fock", metavar="N",
                        help="starting oscillator level (default 0)")
    verify.add_argument("--tolerance", type=float, metavar="TOL",
                        help="pass/fail threshold on phase deviations (default 1e-4)")
    verify.add_argument("--leakage-tolerance", type=float, dest="leakage_tolerance",
                        metavar="TOL", help="truncation leakage threshold (default 1e-6)")
    verify.add_argument("--state-only", action="store_true", default=None,
                        dest="state_only",
                        help="skip operator tracking and the displacement-form check")
    _add_common(verify)

    sweep = subparsers.add_parser(
        "sweep", help="robustness sweeps and scans",
        description="Parameter sweeps: eta invariance (omega_over_delta, phi_l, "
        "delta), timing_error response, noncyclic time scans, and the equal-area "
        "loop_shape study.",
    )
    sweep.add_argument("--parameter", choices=_SWEEP_CHOICES,
                       help="what to sweep")
    sweep.add_argument("--grid", metavar="V1,V2,...",
                       help="comma-separated grid values")
    _add_constant_drive(sweep)
    sweep.add_argument("--drive", action="append", metavar="FILE",
                       help="loop documents for the loop_shape study (repeatable)")
    sweep.add_argument("--oracle", action="store_true", default=None,
                       help="also run the brute-force propagator per grid point")
    sweep.add_argument("--n-max", type=int, dest="n_max", metavar="N",
                       help="oracle truncation (default 64)")
    sweep.add_argument("--steps", type=int, metavar="N",
                       help="oracle time steps (default 20000)")
    sweep.add_argument("--samples", type=int, metavar="N",
                       help="quadrature samples per point")
    sweep.add_argument("--analytic-tolerance", type=float, dest="analytic_tolerance",
                       metavar="TOL", help="time scans: analytic relation threshold")
    sweep.add_argument("--oracle-tolerance", type=float, dest="oracle_tolerance",
                       metavar="TOL", help="time scans: oracle relation threshold")
    sweep.add_argument("--agreement-tolerance", type=float, dest="agreement_tolerance",
                       metavar="TOL", help="loop_shape: allowed geometric-phase spread")
    sweep.add_argument("--closure-tolerance", type=float, dest="closure_tolerance",
                       metavar="TOL", help="loop_shape: closure residual threshold")
    _add_common(sweep)

    design = subparsers.add_parser(
        "design", help="inverse design of a constant drive",
        description="Constant-drive parameters whose one-period loop accumulates "
        "a requested total phase.",
    )
    design.add_argument("--target-phase", type=float, dest="target_phase", metavar="G",
                        help="requested one-period total phase (negative)")
    design.add_argument("--delta", type=float, metavar="D",
                        help="detuning (default 1.0)")
    design.add_argument("--phi-l", type=float, dest="phi_l", metavar="P",
                        help="drive phase (default 0.0)")
    _add_common(design)

    return parser


# Built on the first call and reused: a parser is a web of reference cycles
# that only a full garbage collection frees, so a parser per call would grow
# an in-process caller's memory with every call.
_PARSER: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        config = _load_config(args.config, args.command)
        opts = _Options(args, config)
        fmt = opts.text("format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError(f"format must be 'json' or 'csv', got {fmt!r}")
        out = opts.text("out")
        report, code = _HANDLERS[args.command](opts)
        if isinstance(report, SweepReport):
            text = report.to_json_text() if fmt == "json" else report.to_csv_text()
        else:
            text = _render(report, fmt)
        _emit(text, out)
        return code
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
