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

Each flag is defined once, in ``_FLAGS``.  ``_COMMANDS`` declares each
subcommand's modes (such as a constant or a document drive, or one kind of
sweep), the flags each mode reads, and how the given options pick the mode.
The argument parser and the config-file schema take the union of the modes'
flags; a run refuses every given flag that its mode does not read, with one
message that names the mode.  Every command accepts ``--config FILE`` (a
JSON object whose keys are the command's flag names with underscores;
explicit flags override config values; unknown keys are rejected),
``--format json|csv``, and ``--out PATH``.  Numbers must be finite.  Without
``--out`` the report goes to stdout, byte-identical across runs with the
same inputs.  Exit codes: 0 success, 2 invalid input, 3 numerical failure;
an error's base class in :mod:`loopgate.errors` picks between 2 and 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Callable, NamedTuple, Sequence

from . import drives
from ._serialize import (SCHEMA_VERSION, json_text, key_value_csv, of_kind, read_json,
                         require_schema_version, sweep_csv)
from ._version import __version__
from .drives import ConstantDriveParams, DriveProfile
from .errors import ConfigError, InvalidInputError, LoopNotClosedError, NumericalFailureError
from .gates import (
    BASIS_LABELS,
    apply_local_phase_correction,
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
    MAX_N_MAX,
    MAX_STEPS,
    extract_total_phase,
    propagate,
    verify_magnus_form,
)
from .phasespace import DEFAULT_CLOSURE_TOLERANCE, analytic_total_phase, decompose
from .robustness import (
    ETA_SWEEP_PARAMETERS,
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
    require_schema_version(data.get("schema_version", SCHEMA_VERSION), "config")
    if "command" in data and data["command"] != command:
        raise ConfigError(f"config is for command {data['command']!r}, not {command!r}")
    return data


_KIND_NAMES = {float: "a number", int: "an integer", bool: "a boolean", str: "a string"}


def _options(args: argparse.Namespace, config: dict) -> dict:
    """The given flag values layered over config-file values, checked against their specs.

    Drive and grid values stay raw: each comes in several forms, which
    :func:`_drive_source` and :func:`_parse_grid` read.  A store_true flag
    that a config sets false is not given.  Then every given flag must be
    one that the command's mode reads, and where the mode takes
    ``--oracle``, the oracle's settings need it.
    """
    command = _COMMANDS[args.command]
    opts = {}
    for key in (*command.flags, *_COMMON_FLAGS):
        value = getattr(args, key)
        if value is None:
            value = config.get(key)
        if value is None:
            continue
        spec = _spec(args.command, key)
        kind = bool if spec.get("action") == "store_true" else spec.get("type", str)
        if key not in ("drive", "grid"):
            if not of_kind(value, kind):
                raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
            if value is False:  # only a store_true flag passes its check as False
                continue
            if "choices" in spec and value not in spec["choices"]:
                raise ConfigError(
                    f"{key} must be one of {', '.join(spec['choices'])}, got {value!r}"
                )
            if kind is float:
                value = _finite(value, _flag(key))
            if key in _CAPS and value > _CAPS[key]:
                raise ConfigError(
                    f"{_flag(key)} {value} exceeds the cap {_CAPS[key]}; "
                    f"use {_flag(key)} {_CAPS[key]} or less"
                )
            # Every tolerance bounds a nonnegative residual or deviation.
            if key.endswith("tolerance") and value < 0:
                raise ConfigError(f"{_flag(key)} must be nonnegative, got {value}")
        opts[key] = value

    mode = command.mode(opts)
    flags = command.modes[mode]
    for key in opts:
        if key not in flags and key not in _COMMON_FLAGS:
            raise ConfigError(f"{_flag(key)} does not apply to {mode}")
    if "oracle" in flags and "oracle" not in opts:
        for key in (*_ORACLE_FLAGS[1:], "oracle_tolerance"):
            if key in opts:
                raise ConfigError(f"{_flag(key)} does not apply without --oracle")
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


def _resolve_drive(opts: dict) -> tuple[DriveProfile, dict | None]:
    """Build the working drive from a file, an inline document, or constant params.

    Returns the profile and, for the constant family, an echo dict of the
    parameters used (None for document drives).
    """
    kind, payload = _drive_source(opts)
    name = opts.get("conditioner")
    conditioner = None if name is None else standard_conditioner(name)
    if kind is not None:
        if kind == "paths":
            if len(payload) != 1:
                raise ConfigError("this command takes exactly one drive file")
            drive = _load_drive_file(payload[0])
        else:
            drive = drives.drive_from_dict(payload)
        if conditioner is not None:
            drive = dataclasses.replace(drive, conditioner=conditioner)
        return drive, None

    echo, params = _constant_params(opts)
    echo["periods"] = opts.get("periods", 1.0)
    drive = drives.constant_drive(params, periods=echo["periods"], conditioner=conditioner)
    return drive, echo


def _fields(result) -> dict:
    """A result dataclass, and a sweep's rows, as report dicts: shallow copies in field order."""
    tree = dict(vars(result))
    if "rows" in tree:
        tree["rows"] = [dict(vars(row)) for row in tree["rows"]]
    return tree


def _given(opts: dict, *keys: str) -> dict:
    """The given options among ``keys``; the library takes its own defaults for the rest."""
    return {key: opts[key] for key in keys if key in opts}


def _oracle_settings(opts: dict) -> OracleSettings | None:
    return OracleSettings(**_given(opts, "n_max", "steps")) if "oracle" in opts else None


def _loop_phase(drive: DriveProfile, constant: dict | None, tau: float, samples: int) -> float:
    """Phi(tau) at a tau that ``drives._require_tau`` accepted: the closed form, or ``gamma0``.

    The closed form reads a ``constant`` drive's ``omega_over_delta`` and
    ``delta``; a document takes ``gamma0``.  Each command checks tau before
    any other use of it, so a tau outside (0, duration] gets one message.
    """
    if constant is not None:
        return analytic_total_phase(constant["omega_over_delta"], constant["delta"], tau)
    return drives.gamma0(drive, tau, samples)


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
            if not of_kind(item, float):
                raise ConfigError(f"grid entries must be numbers, got {item!r}")
        values = raw
    else:
        raise ConfigError("grid must be a comma-separated string or a list of numbers")
    return [_finite(value, "--grid entries") for value in values]


# ---------------------------------------------------------------------------
# commands


def _cmd_phase(opts: dict) -> tuple[dict, str | None]:
    drive, constant = _resolve_drive(opts)
    tau = drives._require_tau(drive, opts.get("tau"))
    samples = opts.get("samples", drives.DEFAULT_DRIVE_SAMPLES)
    closure_tolerance = opts.get("closure_tolerance", DEFAULT_CLOSURE_TOLERANCE)

    try:
        residual, closed = drives.require_closed(drive, tau, closure_tolerance), True
    except LoopNotClosedError as exc:
        if opts.get("require_closed", False):
            raise
        residual, closed = exc.residual, False

    phi = _loop_phase(drive, constant, tau, samples)
    decomposition = decompose(-phi, 2.0 * phi)

    report = {
        "command": "phase",
        "drive": drives.drive_to_dict(drive),
        "constant": constant,
        "tau": tau,
        "samples": None if constant is not None else samples,
        "method": "closed-form" if constant is not None else "quadrature",
        "closure_residual": residual,
        "closed": closed,
        "analytic": _fields(decomposition),
        "oracle": None,
    }

    settings = _oracle_settings(opts)
    if settings is not None:
        # The path phase is a one-oscillator quantity; pin the comparison to
        # the unit-eigenvalue sector by propagating under the parity projector.
        work = dataclasses.replace(drive, conditioner=odd_parity_projector())
        propagation = settings.propagate(work, tau)
        # The unwrapped phase itself; oracle.total re-adds the parts split from it.
        total = extract_total_phase(propagation, 1)
        oracle = propagation.decomposition(1)
        report["oracle"] = {
            "n_max": settings.n_max,
            "steps": settings.steps,
            "conditioner": "odd-parity-projector",
            "spin_state": BASIS_LABELS[1],
            "total": total,
            "geometric": oracle.geometric,
            "dynamic": oracle.dynamic,
            "eta": oracle.eta,
            "leakage": propagation.leakage,
            "min_overlap_modulus": propagation.min_overlap_modulus[1],
            "deviation": {
                "total": abs(total - decomposition.total),
                "geometric": abs(oracle.geometric - decomposition.geometric),
                "dynamic": abs(oracle.dynamic - decomposition.dynamic),
            },
        }
    return report, None


def _cmd_gate(opts: dict) -> tuple[dict, str | None]:
    target = opts.get("target_phase")
    gamma0_value = opts.get("gamma0")
    gamma_value = opts.get("gamma")
    correct = opts.get("correct_to_cz", False)

    design_echo = drive_echo = drive_doc = None

    if gamma0_value is not None:
        conditioner_name = opts.get("conditioner", "odd-parity-projector")
        gate, decompositions = diagonal_gate(standard_conditioner(conditioner_name), gamma0_value)
        construction = "direct-phases"
    elif gamma_value is not None:
        conditioner_name = opts.get("conditioner", "jy")
        if conditioner_name != "jy":
            raise ConfigError("--gamma builds the squared-collective-y gate; use --conditioner jy")
        gate = jy_squared_gate(gamma_value)
        decompositions = None
        construction = "jy-exponential"
    else:
        if target is not None:
            params = drives.design_constant_drive(
                target, opts.get("delta", 1.0), opts.get("phi_l", 0.0)
            )
            drive = drives.constant_drive(params, periods=1.0)
            construction = "designed-drive"
            constant = design_echo = {"target_phase": target, **_design_echo(params)}
        else:
            drive, drive_echo = _resolve_drive(opts)
            construction = "constant-drive" if drive_echo is not None else "drive-document"
            constant = drive_echo
        tau = drives._require_tau(drive, opts.get("tau"))
        drives.require_closed(drive, tau, opts.get("closure_tolerance", DEFAULT_CLOSURE_TOLERANCE))
        samples = opts.get("samples", drives.DEFAULT_DRIVE_SAMPLES)
        gamma0_value = _loop_phase(drive, constant, tau, samples)
        gate, decompositions = diagonal_gate(drive.conditioner, gamma0_value)
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
        "gamma0": gamma0_value,
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
                {"state": label, **_fields(d)}
                for label, d in zip(BASIS_LABELS, decompositions)
            ]
        ),
    }
    return report, None


def _cmd_oracle_verify(opts: dict) -> tuple[dict, str | None]:
    drive, constant = _resolve_drive(opts)
    conditioner = drive.conditioner
    tau = drives._require_tau(drive, opts.get("tau"))
    samples = opts.get("samples", drives.DEFAULT_DRIVE_SAMPLES)
    initial_fock = opts.get("initial_fock", 0)
    tolerance = opts.get("tolerance", DEFAULT_ORACLE_TOLERANCE)
    leakage_tolerance = opts.get("leakage_tolerance", DEFAULT_LEAKAGE_TOL)
    state_only = opts.get("state_only", False)

    reference = _loop_phase(drive, constant, tau, samples)
    # The squared-collective-y gate is checked via its dense exponential
    # instead; diagonal_gate rejects it before the propagation runs.
    _, analytic = diagonal_gate(conditioner, reference)
    settings = OracleSettings(**_given(opts, "n_max", "steps"))
    propagation = propagate(
        drive,
        tau,
        space=settings.space,
        steps=settings.steps,
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
    if not state_only and len(drive.segments) == 1 and drive.segments[0].frequency != 0.0:
        displacement_residual = verify_magnus_form(
            drive, tau, settings.space, settings.steps, propagation=propagation
        )

    failures = []
    if not max_deviation <= tolerance:
        failures.append(
            f"phase deviation {max_deviation:.3e} exceeds the tolerance {tolerance:g}"
        )
    if displacement_residual is not None and not displacement_residual <= tolerance:
        failures.append(
            f"displacement-form residual {displacement_residual:.3e} exceeds the tolerance "
            f"{tolerance:g}; it compares Fock levels up to {settings.n_max // 2}, where the "
            f"truncation at n_max = {settings.n_max} limits it: rerun with a larger --n-max "
            "(or more --steps)"
        )
    passed = not failures
    report = {
        "command": "oracle-verify",
        "drive": drives.drive_to_dict(drive),
        "constant": constant,
        "tau": tau,
        "gamma0": reference,
        "oracle": {
            "n_max": settings.n_max,
            "steps": settings.steps,
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
    parameter = opts["parameter"]
    if parameter == "loop_shape":
        kind, payload = _drive_source(opts)
        if kind is None:
            raise ConfigError("loop_shape sweeps need at least one --drive FILE")
        if kind == "inline":
            loops = [drives.drive_from_dict(payload)]
        else:
            loops = [_load_drive_file(path) for path in payload]
        report = area_invariance_study(
            loops, **_given(opts, "samples", "agreement_tolerance", "closure_tolerance")
        )
        return _fields(report), None

    grid = _parse_grid(opts)
    _, base = _constant_params(opts, default_ratio=0.5)
    settings = _oracle_settings(opts)

    if parameter == "time":
        report = noncyclic_scan(
            base,
            grid,
            oracle_settings=settings,
            **_given(opts, "samples", "analytic_tolerance", "oracle_tolerance"),
        )
    elif parameter == "timing_error":
        report = timing_error_sweep(base, grid, oracle_settings=settings)
    else:
        spec = SweepSpec(parameter=parameter, grid=tuple(grid), base=base,
                         oracle_settings=settings)
        report = eta_invariance_sweep(spec, **_given(opts, "samples"))
    return _fields(report), None


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
        "predicted": _fields(decomposition),
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
                "help": "quadrature samples of a drive document or a sweep point (a constant or "
                        "designed drive takes the closed form instead; a document samples its "
                        "tones only, as its pulses are exact from their vertices; an eta sweep "
                        "takes an odd count per sweep and extrapolates to fourth order)"},
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
_ORACLE_FLAGS = ("oracle", "n_max", "steps")
_GRID_SWEEP_FLAGS = ("parameter", "grid", *_CONSTANT_DRIVE_FLAGS, *_ORACLE_FLAGS)
# What gate's constant and document drives read besides the drive itself.
_GATE_DRIVE_FLAGS = ("conditioner", "tau", "closure_tolerance", "correct_to_cz")

# The largest value of each flag that sizes an array.
_CAPS = {"n_max": MAX_N_MAX, "steps": MAX_STEPS, "samples": drives.MAX_SAMPLES}


class _Command(NamedTuple):
    # Returns the report and, for a report whose checks failed, the message
    # that goes with exit 3.
    handler: Callable[[dict], tuple[dict, str | None]]
    help: str
    description: str
    # Names the mode of the checked options, or raises ConfigError.
    mode: Callable[[dict], str]
    # Each mode's name and the flags it reads; _options refuses every other flag.
    modes: dict[str, tuple[str, ...]]
    # The union of the modes' flags: the parser's flags and the config keys.
    flags: tuple[str, ...]
    # Keywords that replace a flag's spec for this subcommand only.
    overrides: dict = {}


def _command(handler, help, description, mode, modes, overrides={}) -> _Command:
    flags = tuple(dict.fromkeys(key for keys in modes.values() for key in keys))
    return _Command(handler, help, description, mode, modes, flags, overrides)


def _drive_mode(opts: dict) -> str:
    # Reading the source refuses a malformed drive value with its own message.
    return "constant drives" if _drive_source(opts)[0] is None else "document drives"


def _gate_mode(opts: dict) -> str:
    drive = _drive_mode(opts)
    # --drive beside --omega-over-delta is a document drive, which refuses the ratio.
    given = ("target_phase" in opts, "gamma0" in opts, "gamma" in opts,
             "drive" in opts or "omega_over_delta" in opts)
    if sum(given) != 1:
        raise ConfigError(
            "choose exactly one construction: --target-phase, --gamma0, --gamma, "
            "or a drive (--drive FILE / --omega-over-delta)"
        )
    return ("the designed construction", "the direct-phase construction",
            "the squared-collective-y construction", drive)[given.index(True)]


def _sweep_mode(opts: dict) -> str:
    parameter = opts.get("parameter")
    if parameter is None:
        raise ConfigError(f"sweep needs --parameter, one of {_FLAGS['parameter']['choices']}")
    return "eta sweeps" if parameter in ETA_SWEEP_PARAMETERS else f"{parameter} sweeps"


_COMMANDS = {
    "phase": _command(
        _cmd_phase,
        "phase decomposition of a drive loop",
        "Total, geometric, and dynamic phase of a drive loop, with the "
        "dynamic-to-geometric ratio eta.",
        _drive_mode,
        {"constant drives": (*_CONSTANT_DRIVE_FLAGS, "periods", "tau", "require_closed",
                             "closure_tolerance", *_ORACLE_FLAGS),
         "document drives": ("drive", "tau", "samples", "require_closed", "closure_tolerance",
                             *_ORACLE_FLAGS)},
    ),
    "gate": _command(
        _cmd_gate,
        "two-qubit gate construction",
        "Build the two-qubit gate from a designed drive, a drive document, or "
        "direct phase parameters.",
        _gate_mode,
        {"the designed construction": ("target_phase", "delta", "phi_l", "closure_tolerance",
                                       "correct_to_cz"),
         "the direct-phase construction": ("gamma0", "conditioner", "correct_to_cz"),
         "the squared-collective-y construction": ("gamma", "conditioner"),
         "constant drives": (*_CONSTANT_DRIVE_FLAGS, "periods", *_GATE_DRIVE_FLAGS),
         "document drives": ("drive", "samples", *_GATE_DRIVE_FLAGS)},
    ),
    "oracle-verify": _command(
        _cmd_oracle_verify,
        "brute-force check of the analytic phases",
        "Propagate the drive in a truncated number basis and compare per-state "
        "phases against the analytic predictions.",
        _drive_mode,
        {"constant drives": (*_CONSTANT_DRIVE_FLAGS, "periods", "conditioner", "tau", "n_max",
                             "steps", "initial_fock", "tolerance", "leakage_tolerance",
                             "state_only"),
         "document drives": ("drive", "conditioner", "tau", "samples", "n_max", "steps",
                             "initial_fock", "tolerance", "leakage_tolerance", "state_only")},
        {"conditioner": {"choices": ("odd-parity-projector", "jz")}},
    ),
    "sweep": _command(
        _cmd_sweep,
        "robustness sweeps and scans",
        "Parameter sweeps: eta invariance (omega_over_delta, phi_l, delta), "
        "timing_error response, noncyclic time scans, and the equal-area "
        "loop_shape study.",
        _sweep_mode,
        {"time sweeps": (*_GRID_SWEEP_FLAGS, "samples", "analytic_tolerance", "oracle_tolerance"),
         "timing_error sweeps": _GRID_SWEEP_FLAGS,
         "eta sweeps": (*_GRID_SWEEP_FLAGS, "samples"),
         "loop_shape sweeps": ("parameter", "drive", "samples", "agreement_tolerance",
                               "closure_tolerance")},
    ),
    "design": _command(
        _cmd_design,
        "inverse design of a constant drive",
        "Constant-drive parameters whose one-period loop accumulates a requested "
        "total phase.",
        lambda opts: "design",
        {"design": ("target_phase", "delta", "phi_l")},
    ),
}


def _spec(command: str, key: str) -> dict:
    """The add_argument keywords of flag ``key`` as ``command`` takes it."""
    return {**_FLAGS[key], **_COMMANDS[command].overrides.get(key, {})}


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


class _Numbers:
    """Matches an argument that is a number or a comma list of numbers."""

    @staticmethod
    def match(arg: str) -> bool:
        try:
            for part in arg.split(","):
                float(part)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ConfigError (exit 2) for an argv it refuses.

    Its sub-parsers are of this class too.  ``--help`` and ``--version``
    still print and raise SystemExit(0).  An argument with a leading minus
    that reads as a number or a comma list of numbers, such as ``-1e-3`` or
    ``-0.5,0.5``, is a flag's value; argparse's own rule takes only a plain
    ``-1`` or ``-0.5``.  No flag looks like a number, so none is shadowed.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _Numbers

    def error(self, message: str):
        # An unrecognized argument is echoed as given; keep the message one line.
        raise ConfigError(" ".join(message.splitlines()))

    def parse_known_args(self, args=None, namespace=None):
        # Python 3.13 reads "-h5" as -h; refuse it, as 3.10-3.12 do, with their message.
        args = sys.argv[1:] if args is None else list(args)
        for arg in args[: args.index("--")] if "--" in args else args:
            if arg.startswith("-h") and arg[1:].strip("h"):
                explicit = arg[3:] if arg[2] == "=" else arg[2:].lstrip("h")
                self.error(f"argument -h/--help: ignored explicit argument {explicit!r}")
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loopgate",
        description="Phase-space loop gates: phases, gates, brute-force checks, sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help, description=command.description)
        for dest in command.flags + _COMMON_FLAGS:
            sub.add_argument(_flag(dest), dest=dest, default=None, **_spec(name, dest))
    return parser


# Built on the first call and reused: a parser is a web of reference cycles
# that only a full garbage collection frees, so a parser per call would grow
# an in-process caller's memory with every call.
_PARSER: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        config = _load_config(args.config, args.command)
        opts = _options(args, config)
        fmt = opts.get("format", "json")
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
    except (NumericalFailureError, InvalidInputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NumericalFailureError) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
