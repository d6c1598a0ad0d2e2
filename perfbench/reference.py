"""Reference checker: judges each job's output against phases computed here.

Nothing in this module imports loopgate or reads the program's ``pass``
flag.  Phases come from the two closed forms of the source paper's loops:

* a detuned tone of radius r = |omega/delta| accumulates, per unit squared
  conditioner eigenvalue, the total phase r^2 (sin(delta t) - delta t);
* a closed polygon of chords accumulates 2 * (signed shoelace area).

Each spin state with conditioner eigenvalue beta gets beta^2 times that
total, split as geometric = -total and dynamic = 2 * total.  Values the
program computes analytically or by quadrature must match within 1e-9;
values from the brute-force oracle within 1e-4.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

TOL_ANALYTIC = 1e-9
TOL_ORACLE = 1e-4

# Highest leakage and unitarity defect an oracle report may carry.
_LEAKAGE_CEILING = 1e-6
_UNITARITY_CEILING = 1e-8

BETAS = {
    "odd-parity-projector": (0.0, 1.0, 1.0, 0.0),
    "jz": (-2.0, 0.0, 0.0, 2.0),
}
_CZ_PHASES = (0.0, 0.0, 0.0, math.pi)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_JY = np.kron(_SIGMA_Y, np.eye(2)) + np.kron(np.eye(2), _SIGMA_Y)


class CheckFailed(Exception):
    """A job's output disagrees with the reference."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of one job: ``reason`` is None when the job passed."""

    reason: str | None
    oracle_dev: float | None = None


def tone_phase(r: float, delta: float, t: float) -> float:
    x = delta * t
    return r * r * (math.sin(x) - x)


def polygon_phase(vertices: list[list[float]]) -> float:
    points = [complex(x, y) for x, y in vertices]
    closed = points + [points[0]]
    return sum((a.conjugate() * b).imag for a, b in zip(closed[:-1], closed[1:]))


def path_phase(path: dict, tau: float | None) -> float:
    """Total phase per unit squared eigenvalue of a tone (up to ``tau``) or polygon."""
    if "tone" in path:
        return tone_phase(path["tone"]["r"], path["tone"]["delta"], tau)
    return polygon_phase(path["polygon"])


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in output")


def parse_report(text: str) -> dict:
    """Parse strict JSON: NaN and Infinity are errors, as is a non-object."""
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckFailed(f"output is not strict JSON: {exc}") from exc
    if not isinstance(report, dict):
        raise CheckFailed("output is not a JSON object")
    return report


class _Compare:
    def __init__(self) -> None:
        self.oracle_dev: float | None = None

    def analytic(self, label: str, got, want: float) -> None:
        if not isinstance(got, (int, float)) or isinstance(got, bool) or abs(got - want) > TOL_ANALYTIC:
            raise CheckFailed(f"{label}: got {got!r}, reference {want!r}")

    def oracle(self, label: str, got, want: float) -> None:
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            raise CheckFailed(f"{label}: got {got!r}, expected a number")
        self.deviation(label, abs(got - want))

    def deviation(self, label: str, dev) -> None:
        if not isinstance(dev, (int, float)) or isinstance(dev, bool):
            raise CheckFailed(f"{label}: got {dev!r}, expected a number")
        self.oracle_dev = dev if self.oracle_dev is None else max(self.oracle_dev, dev)
        if dev > TOL_ORACLE:
            raise CheckFailed(f"{label}: oracle off the reference by {dev:.3e}")

    def eta(self, label: str, got, geometric: float) -> None:
        """eta = dynamic/geometric is -2; its tolerance grows as |geometric| shrinks."""
        if abs(geometric) > 1e-8:
            if got is None:
                raise CheckFailed(f"{label}: eta missing for geometric phase {geometric!r}")
            self.analytic_scaled(label, got, -2.0, 3.0 / abs(geometric))
        elif abs(geometric) < 1e-10 and got is not None:
            raise CheckFailed(f"{label}: eta {got!r} reported for a vanishing geometric phase")

    def analytic_scaled(self, label: str, got, want: float, scale: float) -> None:
        if not isinstance(got, (int, float)) or abs(got - want) > TOL_ANALYTIC * max(1.0, scale):
            raise CheckFailed(f"{label}: got {got!r}, reference {want!r}")

    def triple(self, label: str, block: dict, total: float, oracle: bool = False) -> None:
        """total / geometric / dynamic of one phase block against total."""
        compare = self.oracle if oracle else self.analytic
        compare(f"{label}.total", block.get("total"), total)
        compare(f"{label}.geometric", block.get("geometric"), -total)
        compare(f"{label}.dynamic", block.get("dynamic"), 2.0 * total)


def _check_phase(job, report: dict, c: _Compare) -> None:
    e = job.expect
    tau = e["tau"] if e["tau"] is not None else report.get("tau")
    total = path_phase(e["path"], tau)
    c.triple("analytic", report["analytic"], total)
    c.eta("analytic.eta", report["analytic"].get("eta"), -total)
    if "polygon" in e["path"] and not report.get("closed"):
        raise CheckFailed("closed polygon reported open")
    if e["oracle"]:
        c.triple("oracle", report["oracle"], total, oracle=True)
    elif report.get("oracle") is not None:
        raise CheckFailed("oracle block present without --oracle")


def _diagonal(phases) -> np.ndarray:
    return np.diag(np.exp(1j * np.asarray(phases, dtype=float)))


def _check_matrix(report: dict, want: np.ndarray, c: _Compare) -> None:
    rows = report["gate"]["matrix"]
    got = np.array([[complex(re, im) for re, im in row] for row in rows])
    if got.shape != (4, 4):
        raise CheckFailed(f"gate matrix has shape {got.shape}")
    c.analytic("gate.matrix (max entry error)", float(np.max(np.abs(got - want))), 0.0)


def _check_gate(job, report: dict, c: _Compare) -> None:
    e = job.expect
    if report.get("construction") != e["construction"]:
        raise CheckFailed(f"construction {report.get('construction')!r}, expected {e['construction']!r}")
    if e["construction"] == "jy-exponential":
        want = np.eye(4) + (cmath.exp(-4j * e["gamma"]) - 1.0) * (_JY @ _JY) / 4.0
        _check_matrix(report, want, c)
        if report["gate"]["phases"] is not None or report.get("decompositions") is not None:
            raise CheckFailed("the jy gate is not diagonal but phases were reported")
        return
    if e["construction"] in ("designed-drive", "direct-phases"):
        gamma0 = e["gamma"]
    else:
        gamma0 = path_phase(e["path"], e.get("tau"))
    c.analytic("gamma0", report.get("gamma0"), gamma0)
    betas = BETAS[e["conditioner"]]
    phases = [b * b * gamma0 for b in betas]
    for k, (b, block) in enumerate(zip(betas, report["decompositions"])):
        c.triple(f"decompositions.{k}", block, b * b * gamma0)
    if e["correct"]:
        theta = -phases[1]
        phases = [phases[0], phases[1] + theta, phases[2] + theta, phases[3] + 2.0 * theta]
        fidelity = abs(sum(cmath.exp(1j * (p - q)) for p, q in zip(phases, _CZ_PHASES))) / 4.0
        c.analytic("fidelity_vs_cz", report.get("fidelity_vs_cz"), fidelity)
    for k, (got, want) in enumerate(zip(report["gate"]["phases"], phases)):
        c.analytic(f"gate.phases.{k}", got, want)
    _check_matrix(report, _diagonal(phases), c)
    combination = math.remainder(phases[0] + phases[3] - phases[1] - phases[2], 2.0 * math.pi)
    if abs(abs(combination) - 1e-9) > 1e-12 and report.get("nontrivial") != (abs(combination) > 1e-9):
        raise CheckFailed(f"nontrivial is {report.get('nontrivial')!r} for combination {combination!r}")


def _check_design(job, report: dict, c: _Compare) -> None:
    e = job.expect
    ratio = math.sqrt(-e["target"] / (2.0 * math.pi))
    c.analytic("omega_over_delta", report.get("omega_over_delta"), ratio)
    c.analytic("omega_d", report.get("omega_d"), ratio * e["delta"])
    c.analytic("period", report.get("period"), 2.0 * math.pi / e["delta"])
    c.triple("predicted", report["predicted"], e["target"])


def _rows(report: dict, grid: list[float]) -> list[dict]:
    rows = report.get("rows")
    if not isinstance(rows, list) or len(rows) != len(grid):
        raise CheckFailed(f"expected {len(grid)} rows, got {rows if rows is None else len(rows)}")
    return rows


def _check_sweep_eta(job, report: dict, c: _Compare) -> None:
    e = job.expect
    base = e["base"]
    for i, (row, value) in enumerate(zip(_rows(report, e["grid"]), e["grid"])):
        c.analytic(f"rows.{i}.value", row["value"], value)
        r = value if e["parameter"] == "omega_over_delta" else base["r"]
        total = -2.0 * math.pi * r * r
        c.triple(f"rows.{i}", row, total)
        c.eta(f"rows.{i}.eta", row["eta"], -total)
        if e["oracle"]:
            c.deviation(f"rows.{i}.oracle_deviation", row["oracle_deviation"])


def _check_sweep_time(job, report: dict, c: _Compare) -> None:
    e = job.expect
    base = e["base"]
    for i, (row, t) in enumerate(zip(_rows(report, e["grid"]), e["grid"])):
        c.triple(f"rows.{i}", row, tone_phase(base["r"], base["delta"], t))
        if e["oracle"]:
            c.deviation(f"rows.{i}.oracle_deviation", row["oracle_deviation"])


def _check_sweep_timing(job, report: dict, c: _Compare) -> None:
    e = job.expect
    base = e["base"]
    period = 2.0 * math.pi / base["delta"]
    nominal = tone_phase(base["r"], base["delta"], period)
    for i, (row, eps) in enumerate(zip(_rows(report, e["grid"]), e["grid"])):
        total = tone_phase(base["r"], base["delta"], period * (1.0 + eps))
        c.triple(f"rows.{i}", row, total)
        c.analytic(f"rows.{i}.fidelity", row["fidelity"], abs(math.cos((total - nominal) / 2.0)))
        if e["oracle"]:
            c.deviation(f"rows.{i}.oracle_deviation", row["oracle_deviation"])


def _check_sweep_shape(job, report: dict, c: _Compare) -> None:
    polygons = job.expect["polygons"]
    for i, (row, vertices) in enumerate(zip(_rows(report, polygons), polygons)):
        total = polygon_phase(vertices)
        c.triple(f"rows.{i}", row, total)
        c.eta(f"rows.{i}.eta", row["eta"], -total)


def _check_verify(job, report: dict, c: _Compare) -> None:
    e = job.expect
    gamma0 = path_phase(e["path"], report.get("tau"))
    if "tone" in e["path"]:
        c.analytic("tau", report.get("tau"), 2.0 * math.pi / e["path"]["tone"]["delta"])
    c.analytic("gamma0", report.get("gamma0"), gamma0)
    states = report.get("per_state")
    betas = BETAS[e["conditioner"]]
    if not isinstance(states, list) or len(states) != 4:
        raise CheckFailed("per_state must list four basis states")
    for k, (b, state) in enumerate(zip(betas, states)):
        c.analytic(f"per_state.{k}.eigenvalue", state["eigenvalue"], b)
        c.triple(f"per_state.{k}.analytic", state["analytic"], b * b * gamma0)
        c.triple(f"per_state.{k}.oracle", state["oracle"], b * b * gamma0, oracle=True)
    oracle = report["oracle"]
    if not (isinstance(oracle.get("leakage"), float) and oracle["leakage"] <= _LEAKAGE_CEILING):
        raise CheckFailed(f"leakage {oracle.get('leakage')!r}")
    defect = oracle.get("unitarity_defect")
    residual = report.get("displacement_form_residual")
    if e["operator"]:
        if not (isinstance(defect, float) and defect <= _UNITARITY_CEILING):
            raise CheckFailed(f"unitarity defect {defect!r}")
        if e["single_tone"]:
            c.deviation("displacement_form_residual", residual)
        elif residual is not None:
            raise CheckFailed("displacement-form residual reported for a multi-segment drive")
    elif defect is not None or residual is not None:
        raise CheckFailed("operator results reported for a state-only run")


_CHECKS = {
    "phase": _check_phase,
    "gate": _check_gate,
    "design": _check_design,
    "sweep-eta": _check_sweep_eta,
    "sweep-time": _check_sweep_time,
    "sweep-timing": _check_sweep_timing,
    "sweep-shape": _check_sweep_shape,
    "verify": _check_verify,
}


def check(job, code: int, stdout: str) -> Verdict:
    """Judge one job: exit code 0, strict JSON, and every phase on the reference."""
    compare = _Compare()
    try:
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        _CHECKS[job.kind](job, parse_report(stdout), compare)
    except CheckFailed as exc:
        return Verdict(str(exc), compare.oracle_dev)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return Verdict(f"malformed report: {type(exc).__name__}: {exc}", compare.oracle_dev)
    return Verdict(None, compare.oracle_dev)
