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

Each flag is defined once, in ``_FLAGS``; ``_COMMANDS`` lists the flags each
subcommand takes, and both the argument parser and the config-file schema
are built from those two tables.  Every command accepts ``--config FILE`` (a
JSON object whose keys are the command's flag names with underscores;
explicit flags override config values; unknown keys are rejected),
``--format json|csv``, and ``--out PATH``.  Numbers must be finite.  Without
``--out`` the report goes to stdout, byte-identical across runs with the
same inputs.  Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Callable, NamedTuple, Sequence

from . import drives
from ._serialize import SCHEMA_VERSION, json_text, key_value_csv, read_json, sweep_csv
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
    apply_local_phase_correction,
    closed_loop_gamma0,
    cz_gate,
    diagonal_gate,
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
    MAX_N_MAX,
    MAX_STEPS,
    FockSpace,
    extract_total_phase,
    propagate,
    verify_magnus_form,
)
from .phasespace import (
    DEFAULT_CLOSURE_TOLERANCE,
    analytic_total_phase,
    decompose,
    loop_closes,
)
from .robustness import (
    AREA_STUDY_SAMPLES,
    ETA_SWEEP_PARAMETERS,
    ETA_SWEEP_SAMPLES,
    NONCYCLIC_ANALYTIC_TOL,
    NONCYCLIC_ORACLE_TOL,
    OracleSettings,
    SweepSpec,
    area_invariance_study,
    eta_invariance_sweep,
    noncyclic_scan,
    timing_error_sweep,
)

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


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _finite(value, what: str) -> float:
    """``value`` as a float; NaN, infinities and integers past the float range are invalid."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return number


def _load_config(path: str | None, command: str) -> dict:
    """Read and schema-check the JSON config for one command."""
    if path is None:
        return {}
    data = read_json(path, "config")
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    allowed = {"schema_version", "command", *_COMMANDS[command].flags, *_COMMON_FLAGS} - {"config"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {unknown}")
    if "schema_version" in data and data["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version: {data['schema_version']!r}")
    if "command" in data and data["command"] != command:
        raise ConfigError(f"config is for command {data['command']!r}, not {command!r}")
    return data


_KIND_NAMES = {float: "a number", int: "an integer", bool: "a boolean", str: "a string"}


def _options(args: argparse.Namespace, config: dict) -> dict:
    """The given flag values layered over config-file values, checked against their specs.

    Drive and grid values stay raw: each comes in several forms, which
    :func:`_drive_source` and :func:`_parse_grid` read.
    """
    opts = {}
    for key in (*_COMMANDS[args.command].flags, *_COMMON_FLAGS):
        value = getattr(args, key)
        if value is None:
            value = config.get(key)
        if value is None:
            continue
        spec = _FLAGS[key]
        kind = bool if spec.get("action") == "store_true" else spec.get("type", str)
        if key not in ("drive", "grid"):
            # bool is a subclass of int, so booleans are told apart first.
            if isinstance(value, bool) != (kind is bool) or not isinstance(
                value, (int, float) if kind is float else kind
            ):
                raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
            if kind is float:
                value = _finite(value, _flag(key))
            if key in _CAPS and value > _CAPS[key]:
                raise ConfigError(
                    f"{_flag(key)} {value} exceeds the cap {_CAPS[key]}; "
                    f"use {_flag(key)} {_CAPS[key]} or less"
                )
        opts[key] = value
    return opts


def _drive_source(opts: dict):
    """The drive document source: ('paths', [...]), ('inline', dict), or (None, None)."""
    raw = opts.get("drive")
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
    return drives.drive_from_dict(read_json(path, "drive file"))


def _reject(opts: dict, keys: Sequence[str], reason: str) -> None:
    for key in keys:
        if key in opts:
            raise ConfigError(f"{_flag(key)} does not apply {reason}")


def _constant_params(opts: dict, default_ratio: float | None = None) -> tuple[
    dict, ConstantDriveParams
]:
    """The constant-drive flags as given (with defaults) and the parameters they make."""
    ratio = opts.get("omega_over_delta", default_ratio)
    if ratio is None:
        raise ConfigError(
            "no drive given: use --omega-over-delta (with --delta/--phi-l/--periods) "
            "or --drive FILE"
        )
    echo = {
        "omega_over_delta": ratio,
        "delta": opts.get("delta", 1.0),
        "phi_l": opts.get("phi_l", 0.0),
    }
    params = ConstantDriveParams(
        omega_d=ratio * echo["delta"], delta=echo["delta"], phi_l=echo["phi_l"]
    )
    return echo, params


def _resolve_drive(opts: dict, *, allow_conditioner: bool) -> tuple[DriveProfile, dict | None]:
    """Build the working drive from a file, an inline document, or constant params.

    Returns the profile and, for the constant family, an echo dict of the
    parameters used (None for document drives).
    """
    kind, payload = _drive_source(opts)
    conditioner_name = opts.get("conditioner")
    if not allow_conditioner and conditioner_name is not None:
        raise ConfigError("--conditioner does not apply to this command")

    if kind is not None:
        _reject(opts, (*_CONSTANT_DRIVE_FLAGS, "periods"), "to document drives")
        if kind == "paths":
            if len(payload) != 1:
                raise ConfigError("this command takes exactly one drive file")
            drive = _load_drive_file(payload[0])
        else:
            drive = drives.drive_from_dict(payload)
        if conditioner_name is not None:
            drive = dataclasses.replace(drive, conditioner=standard_conditioner(conditioner_name))
        return drive, None

    echo, params = _constant_params(opts)
    echo["periods"] = opts.get("periods", 1.0)
    conditioner = None
    if conditioner_name is not None:
        conditioner = standard_conditioner(conditioner_name)
    drive = drives.constant_drive(params, periods=echo["periods"], conditioner=conditioner)
    return drive, echo


def _oracle_settings(opts: dict) -> OracleSettings | None:
    if not opts.get("oracle", False):
        if "n_max" in opts or "steps" in opts:
            raise ConfigError("--n-max/--steps require --oracle")
        return None
    return OracleSettings(
        n_max=opts.get("n_max", DEFAULT_N_MAX),
        steps=opts.get("steps", DEFAULT_STEPS),
    )


def _parse_grid(opts: dict) -> list[float]:
    raw = opts.get("grid")
    if raw is None:
        raise ConfigError("sweep needs a grid: --grid v1,v2,... or a config 'grid' list")
    if isinstance(raw, str):
        parts = [part.strip() for part in raw.split(",") if part.strip()]
        try:
            values = [float(part) for part in parts]
        except ValueError as exc:
            raise ConfigError(f"grid entries must be numbers: {exc}") from exc
    elif isinstance(raw, list):
        for item in raw:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ConfigError(f"grid entries must be numbers, got {item!r}")
        values = raw
    else:
        raise ConfigError("grid must be a comma-separated string or a list of numbers")
    return [_finite(value, "--grid entries") for value in values]


# ---------------------------------------------------------------------------
# commands


def _cmd_phase(opts: dict) -> tuple[dict, str | None]:
    drive, constant = _resolve_drive(opts, allow_conditioner=False)
    tau = opts.get("tau", drive.total_duration)
    samples = opts.get("samples", drives.DEFAULT_DRIVE_SAMPLES)
    closure_tolerance = opts.get("closure_tolerance", DEFAULT_CLOSURE_TOLERANCE)

    residual = drives.closure_residual(drive, tau)
    closed = loop_closes(residual, closure_tolerance, lambda: drives.peak_alpha(drive, tau))
    if opts.get("require_closed", False) and not closed:
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
        "command": "phase",
        "drive": drives.drive_to_dict(drive),
        "constant": constant,
        "tau": tau,
        "samples": None if constant is not None else samples,
        "method": method,
        "closure_residual": residual,
        "closed": closed,
        "analytic": dataclasses.asdict(decomposition),
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
        dynamic = propagation.dynamic_phase[1]
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
            "leakage": propagation.leakage,
            "min_overlap_modulus": propagation.min_overlap_modulus[1],
            "deviation": {
                "total": abs(total - decomposition.total),
                "geometric": abs(geometric - decomposition.geometric),
                "dynamic": abs(dynamic - decomposition.dynamic),
            },
        }
    return report, None


def _cmd_gate(opts: dict) -> tuple[dict, str | None]:
    target = opts.get("target_phase")
    gamma0_value = opts.get("gamma0")
    gamma_value = opts.get("gamma")
    source_kind, _ = _drive_source(opts)
    has_drive = source_kind is not None or "omega_over_delta" in opts
    chosen = [target is not None, gamma0_value is not None, gamma_value is not None, has_drive]
    if sum(chosen) != 1:
        raise ConfigError(
            "choose exactly one construction: --target-phase, --gamma0, --gamma, "
            "or a drive (--drive FILE / --omega-over-delta)"
        )

    samples = opts.get("samples", drives.DEFAULT_DRIVE_SAMPLES)
    closure_tolerance = opts.get("closure_tolerance", DEFAULT_CLOSURE_TOLERANCE)
    correct = opts.get("correct_to_cz", False)

    design_echo = None
    drive_echo = None
    drive_doc = None
    quadrature_gamma0 = None
    # The direct constructions take no drive, so no drive or quadrature flag.
    direct_rejects = ("delta", "phi_l", "periods", "tau", "samples", "closure_tolerance")

    if gamma0_value is not None:
        _reject(opts, direct_rejects, "to the direct-phase construction")
        conditioner_name = opts.get("conditioner", "odd-parity-projector")
        gate, decompositions = diagonal_gate(standard_conditioner(conditioner_name), gamma0_value)
        construction = "direct-phases"
    elif gamma_value is not None:
        _reject(opts, direct_rejects, "to the squared-collective-y construction")
        conditioner_name = opts.get("conditioner", "jy")
        if conditioner_name != "jy":
            raise ConfigError("--gamma builds the squared-collective-y gate; use --conditioner jy")
        gate = jy_squared_gate(gamma_value)
        decompositions = None
        construction = "jy-exponential"
        if correct:
            raise ConfigError("--correct-to-cz needs a diagonal gate")
    else:
        if target is not None:
            _reject(opts, ("tau", "conditioner", "periods"), "to the designed construction")
            params = drives.design_constant_drive(
                target, opts.get("delta", 1.0), opts.get("phi_l", 0.0)
            )
            drive = drives.constant_drive(params, periods=1.0)
            construction = "designed-drive"
            design_echo = {"target_phase": target, **_design_echo(params)}
        else:
            drive, drive_echo = _resolve_drive(opts, allow_conditioner=True)
            construction = "constant-drive" if drive_echo is not None else "drive-document"
        quadrature_gamma0 = closed_loop_gamma0(
            drive,
            opts.get("tau", drive.total_duration),
            samples=samples,
            closure_tolerance=closure_tolerance,
        )
        gate, decompositions = diagonal_gate(drive.conditioner, quadrature_gamma0)
        drive_doc = drives.drive_to_dict(drive)
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
                dict(state=label, **dataclasses.asdict(d))
                for label, d in zip(BASIS_LABELS, decompositions)
            ]
        ),
    }
    return report, None


def _cmd_oracle_verify(opts: dict) -> tuple[dict, str | None]:
    drive, constant = _resolve_drive(opts, allow_conditioner=True)
    conditioner = drive.conditioner
    tau = opts.get("tau", drive.total_duration)
    samples = opts.get("samples", drives.DEFAULT_DRIVE_SAMPLES)
    n_max = opts.get("n_max", DEFAULT_N_MAX)
    steps = opts.get("steps", DEFAULT_STEPS)
    initial_fock = opts.get("initial_fock", 0)
    tolerance = opts.get("tolerance", DEFAULT_ORACLE_TOLERANCE)
    leakage_tolerance = opts.get("leakage_tolerance", DEFAULT_LEAKAGE_TOL)
    state_only = opts.get("state_only", False)

    if constant is not None:
        reference = analytic_total_phase(constant["omega_over_delta"], constant["delta"], tau)
    else:
        reference = drives.gamma0(drive, tau, samples)
    # The squared-collective-y gate is checked via its dense exponential
    # instead; diagonal_gate rejects it before the propagation runs.
    _, analytic = diagonal_gate(conditioner, reference)
    propagation = propagate(
        drive,
        tau,
        space=FockSpace(n_max),
        steps=steps,
        initial_fock=initial_fock,
        leakage_tol=leakage_tolerance,
        with_operator=not state_only,
    )

    per_state = []
    max_deviation = 0.0
    for k, (label, expected) in enumerate(zip(BASIS_LABELS, analytic)):
        oracle_total = extract_total_phase(propagation, k)
        oracle_dynamic = propagation.dynamic_phase[k]
        deviation_total = abs(oracle_total - expected.total)
        deviation_dynamic = abs(oracle_dynamic - expected.dynamic)
        max_deviation = max(max_deviation, deviation_total, deviation_dynamic)
        per_state.append(
            {
                "state": label,
                "eigenvalue": conditioner.basis_eigenvalues[k],
                "analytic": {
                    "total": expected.total,
                    "geometric": expected.geometric,
                    "dynamic": expected.dynamic,
                },
                "oracle": {
                    "total": oracle_total,
                    "geometric": oracle_total - oracle_dynamic,
                    "dynamic": oracle_dynamic,
                    "overlap_modulus": propagation.overlap_modulus[k],
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
        displacement_residual = verify_magnus_form(
            drive, tau, FockSpace(n_max), steps, propagation=propagation
        )

    failures = []
    if not max_deviation <= tolerance:
        failures.append(
            f"phase deviation {max_deviation:.3e} exceeds the tolerance {tolerance:g}"
        )
    if displacement_residual is not None and not displacement_residual <= tolerance:
        failures.append(
            f"displacement-form residual {displacement_residual:.3e} exceeds the tolerance "
            f"{tolerance:g}; it compares Fock levels up to {n_max // 2}, where the truncation "
            f"at n_max = {n_max} limits it: rerun with a larger --n-max (or more --steps)"
        )
    passed = not failures
    report = {
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
            "leakage": propagation.leakage,
            "unitarity_defect": propagation.unitarity_defect,
        },
        "tolerance": tolerance,
        "per_state": per_state,
        "max_deviation": max_deviation,
        "displacement_form_residual": displacement_residual,
        "pass": passed,
    }
    return report, "; ".join(failures) or None


def _cmd_sweep(opts: dict) -> tuple[dict, str | None]:
    parameter = opts.get("parameter")
    choices = _FLAGS["parameter"]["choices"]
    if parameter is None:
        raise ConfigError(f"sweep needs --parameter, one of {choices}")
    if parameter not in choices:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; expected one of {choices}")

    if parameter == "loop_shape":
        if "grid" in opts:
            raise ConfigError("loop_shape sweeps take --drive files, not a grid")
        if opts.get("oracle", False) or "n_max" in opts or "steps" in opts:
            raise ConfigError("the equal-area study is analytic-only; drop --oracle")
        _reject(opts, _CONSTANT_DRIVE_FLAGS, "to loop_shape sweeps")
        kind, payload = _drive_source(opts)
        if kind is None:
            raise ConfigError("loop_shape sweeps need at least one --drive FILE")
        if kind == "inline":
            loops = [drives.drive_from_dict(payload)]
        else:
            loops = [_load_drive_file(path) for path in payload]
        report = area_invariance_study(
            loops,
            samples=opts.get("samples", AREA_STUDY_SAMPLES),
            agreement_tolerance=opts.get("agreement_tolerance", 1e-6),
            closure_tolerance=opts.get("closure_tolerance", DEFAULT_CLOSURE_TOLERANCE),
        )
        return dataclasses.asdict(report), None

    if _drive_source(opts)[0] is not None:
        raise ConfigError("parameter sweeps use the constant-drive base, not drive files")
    grid = _parse_grid(opts)
    _, base = _constant_params(opts, default_ratio=0.5)
    settings = _oracle_settings(opts)

    if parameter == "time":
        report = noncyclic_scan(
            base,
            grid,
            samples=opts.get("samples"),
            oracle_settings=settings,
            analytic_tolerance=opts.get("analytic_tolerance", NONCYCLIC_ANALYTIC_TOL),
            oracle_tolerance=opts.get("oracle_tolerance", NONCYCLIC_ORACLE_TOL),
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
            spec, samples=opts.get("samples", ETA_SWEEP_SAMPLES)
        )
    return dataclasses.asdict(report), None


def _design_echo(params: ConstantDriveParams) -> dict:
    """The parameters of a designed constant drive, as ``design`` and ``gate`` report them."""
    return {
        "omega_d": params.omega_d,
        "omega_over_delta": params.ratio,
        "delta": params.delta,
        "phi_l": params.phi_l,
        "period": params.period,
    }


def _cmd_design(opts: dict) -> tuple[dict, str | None]:
    target = opts.get("target_phase")
    if target is None:
        raise ConfigError("design needs --target-phase")
    delta = opts.get("delta", 1.0)
    phi_l = opts.get("phi_l", 0.0)
    params = drives.design_constant_drive(target, delta, phi_l)
    phi = analytic_total_phase(params.ratio, params.delta, params.period)
    decomposition = decompose(-phi, 2.0 * phi)
    report = {
        "command": "design",
        "target_phase": target,
        **_design_echo(params),
        "round_trip_error": abs(phi - target),
        "predicted": dataclasses.asdict(decomposition),
    }
    return report, None


# ---------------------------------------------------------------------------
# flags

# One spec per flag: its add_argument keywords, keyed by dest.  The flag is
# the dest with dashes ("phi_l" is --phi-l), and the dest is its config key.
_FLAGS = {
    "omega_over_delta": {"type": float, "metavar": "R",
                         "help": "drive strength over detuning (loop radius)"},
    "delta": {"type": float, "metavar": "D", "help": "detuning (default 1.0)"},
    "phi_l": {"type": float, "metavar": "P", "help": "drive phase (default 0.0)"},
    "periods": {"type": float, "metavar": "N",
                "help": "loop periods for the constant drive (default 1.0)"},
    "drive": {"action": "append", "metavar": "FILE",
              "help": "drive profile document (repeatable for the loop_shape study)"},
    "tau": {"type": float, "metavar": "T",
            "help": "evaluation time (default: full drive duration)"},
    "samples": {"type": int, "metavar": "N",
                "help": "quadrature samples (per point in sweeps)"},
    "require_closed": {"action": "store_true",
                       "help": "fail (exit 2) when the loop is open at tau"},
    "closure_tolerance": {"type": float, "metavar": "TOL",
                          "help": "closure residual threshold (default 1e-9)"},
    "oracle": {"action": "store_true",
               "help": "also run the brute-force propagator and report deviations"},
    "n_max": {"type": int, "metavar": "N", "help": "oracle truncation (default 64)"},
    "steps": {"type": int, "metavar": "N", "help": "oracle time steps (default 20000)"},
    "target_phase": {"type": float, "metavar": "G",
                     "help": "one-period total phase (negative) of a designed constant drive"},
    "gamma0": {"type": float, "metavar": "G",
               "help": "loop phase functional value for a direct diagonal gate"},
    "gamma": {"type": float, "metavar": "G",
              "help": "angle of the squared-collective-y gate (conditioner jy)"},
    "conditioner": {"choices": ("odd-parity-projector", "jz", "jy"),
                    "help": "spin operator conditioning the displacement"},
    "correct_to_cz": {"action": "store_true",
                      "help": "apply the local phase correction that lands on CZ"},
    "initial_fock": {"type": int, "metavar": "N",
                     "help": "starting oscillator level (default 0)"},
    "tolerance": {"type": float, "metavar": "TOL",
                  "help": "pass/fail threshold on phase deviations (default 1e-4)"},
    "leakage_tolerance": {"type": float, "metavar": "TOL",
                          "help": "truncation leakage threshold (default 1e-6)"},
    "state_only": {"action": "store_true",
                   "help": "skip operator tracking and the displacement-form check"},
    "parameter": {"choices": ("time", "timing_error", *ETA_SWEEP_PARAMETERS, "loop_shape"),
                  "help": "what to sweep"},
    "grid": {"metavar": "V1,V2,...", "help": "comma-separated grid values"},
    "analytic_tolerance": {"type": float, "metavar": "TOL",
                           "help": "time scans: analytic relation threshold"},
    "oracle_tolerance": {"type": float, "metavar": "TOL",
                         "help": "time scans: oracle relation threshold"},
    "agreement_tolerance": {"type": float, "metavar": "TOL",
                            "help": "loop_shape: allowed geometric-phase spread"},
    "config": {"metavar": "FILE", "help": "JSON config; explicit flags override its values"},
    "format": {"choices": ("json", "csv"), "help": "output encoding (default json)"},
    "out": {"metavar": "PATH", "help": "write the report to this file instead of stdout"},
}

_COMMON_FLAGS = ("config", "format", "out")
_CONSTANT_DRIVE_FLAGS = ("omega_over_delta", "delta", "phi_l")

# The largest value of each flag that sizes an array.
_CAPS = {"n_max": MAX_N_MAX, "steps": MAX_STEPS, "samples": drives.MAX_SAMPLES}


class _Command(NamedTuple):
    # Returns the report and, for a report whose checks failed, the message
    # that goes with exit 3.
    handler: Callable[[dict], tuple[dict, str | None]]
    help: str
    description: str
    flags: tuple[str, ...]
    # Keywords that replace a flag's spec for this subcommand only.
    overrides: dict = {}


_COMMANDS = {
    "phase": _Command(
        _cmd_phase,
        "phase decomposition of a drive loop",
        "Total, geometric, and dynamic phase of a drive loop, with the "
        "dynamic-to-geometric ratio eta.",
        (*_CONSTANT_DRIVE_FLAGS, "periods", "drive", "tau", "samples", "require_closed",
         "closure_tolerance", "oracle", "n_max", "steps"),
    ),
    "gate": _Command(
        _cmd_gate,
        "two-qubit gate construction",
        "Build the two-qubit gate from a designed drive, a drive document, or "
        "direct phase parameters.",
        ("target_phase", "gamma0", "gamma", "conditioner", "correct_to_cz",
         *_CONSTANT_DRIVE_FLAGS, "periods", "drive", "tau", "samples", "closure_tolerance"),
    ),
    "oracle-verify": _Command(
        _cmd_oracle_verify,
        "brute-force check of the analytic phases",
        "Propagate the drive in a truncated number basis and compare per-state "
        "phases against the analytic predictions.",
        (*_CONSTANT_DRIVE_FLAGS, "periods", "drive", "conditioner", "tau", "samples",
         "n_max", "steps", "initial_fock", "tolerance", "leakage_tolerance", "state_only"),
        {"conditioner": {"choices": ("odd-parity-projector", "jz")}},
    ),
    "sweep": _Command(
        _cmd_sweep,
        "robustness sweeps and scans",
        "Parameter sweeps: eta invariance (omega_over_delta, phi_l, delta), "
        "timing_error response, noncyclic time scans, and the equal-area "
        "loop_shape study.",
        ("parameter", "grid", *_CONSTANT_DRIVE_FLAGS, "drive", "oracle", "n_max", "steps",
         "samples", "analytic_tolerance", "oracle_tolerance", "agreement_tolerance",
         "closure_tolerance"),
    ),
    "design": _Command(
        _cmd_design,
        "inverse design of a constant drive",
        "Constant-drive parameters whose one-period loop accumulates a requested "
        "total phase.",
        ("target_phase", "delta", "phi_l"),
    ),
}


# ---------------------------------------------------------------------------
# output


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopgate",
        description="Phase-space loop gates: phases, gates, brute-force checks, sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help, description=command.description)
        for dest in command.flags + _COMMON_FLAGS:
            spec = {**_FLAGS[dest], **command.overrides.get(dest, {})}
            sub.add_argument(_flag(dest), dest=dest, default=None, **spec)
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
        opts = _options(args, config)
        fmt = opts.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError(f"format must be 'json' or 'csv', got {fmt!r}")
        out = opts.get("out")
        report, failure = _COMMANDS[args.command].handler(opts)
        report = {"schema_version": SCHEMA_VERSION, **report}
        if fmt == "json":
            text = json_text(report)
        elif args.command == "sweep":
            # The sweep CSV is a table of rows, not key/value pairs.
            text = sweep_csv(report)
        else:
            text = key_value_csv(report)
        _emit(text, out)
        if failure is not None:
            print(f"error: {failure}", file=sys.stderr)
            return EXIT_NUMERICAL
        return EXIT_OK
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
