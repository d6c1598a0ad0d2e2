"""Per-layer tracing from outside the program.

The tracer replaces each traced public function with a wrapper at every
module attribute that holds it (``propagate`` is reached through
``loopgate.cli``, ``loopgate.robustness``, ``loopgate.oracle`` and the
package itself), so every caller goes through the wrapper.  A wrapper
records one span (name, start, end, parent span, job id) and, for the layers
whose work can be counted from the call, the counts: oracle sector steps and
computed flops, quadrature samples, sweep points.  Spans stay in memory and
are written out when the run ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

# (layer, module, function) for every traced public function.
TRACED = (
    ("cli", "cli", "main"),
    ("oracle", "oracle", "propagate"),
    ("oracle", "oracle", "verify_magnus_form"),
    ("drives", "drives", "gamma0"),
    ("drives", "drives", "closure_residual"),
    ("drives", "drives", "induced_trajectory"),
    ("drives", "drives", "drive_from_dict"),
    ("phasespace", "phasespace", "geometric_phase"),
    ("phasespace", "phasespace", "dynamic_phase"),
    ("phasespace", "phasespace", "analytic_trajectory"),
    ("gates", "gates", "collective_gate"),
    ("gates", "gates", "gate_fidelity"),
    ("gates", "gates", "phase_gate"),
    ("gates", "gates", "jy_squared_gate"),
    ("gates", "gates", "apply_local_phase_correction"),
    ("gates", "gates", "is_nontrivial"),
    ("robustness", "robustness", "eta_invariance_sweep"),
    ("robustness", "robustness", "noncyclic_scan"),
    ("robustness", "robustness", "timing_error_sweep"),
    ("robustness", "robustness", "area_invariance_study"),
)
SWEEPS = ("eta_invariance_sweep", "noncyclic_scan", "timing_error_sweep", "area_invariance_study")
_MODULES = ("cli", "oracle", "drives", "phasespace", "gates", "robustness")

# Flops of one sector step, counted from the dense products the midpoint
# stepper performs on a d-dimensional block: two half-step applications of
# two complex d x d matrix-vector products (8 d^2 flops each), and with the
# operator two complex d x d x d products (8 d^3 each).


def _state_step_flops(d: int) -> int:
    return 32 * d * d


def _operator_step_flops(d: int) -> int:
    return 16 * d ** 3


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Disjoint sorted intervals covering the same points, so no sample counts twice."""
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self, package) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.job = -1
        self.count: dict[str, float] = defaultdict(float)
        self._sectors: list[tuple] = []
        self._paths: dict[int, tuple] = {}
        self._covered: dict[tuple, list[tuple[float, float]]] = defaultdict(list)
        self._default_space = importlib.import_module(f"{package.__name__}.oracle").default_space
        self._truncation = importlib.import_module(f"{package.__name__}.errors").TruncationError
        self._patches = self._bindings(package)

    def _bindings(self, package) -> list[tuple]:
        """(module, attribute, original, wrapper) for every binding of a traced function."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in _MODULES]
        patches = []
        for layer, module_name, name in TRACED:
            original = getattr(importlib.import_module(f"{package.__name__}.{module_name}"), name)
            wrapper = self._wrap(f"{layer}.{name}", original, getattr(self, f"_on_{name}", None))
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        patches.append((module, attr, original, wrapper))
        return patches

    def attach(self) -> None:
        """Route every caller through the wrappers."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def detach(self) -> None:
        """Restore the original functions."""
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def start_job(self, job_id: int) -> None:
        """Close the previous job's bookkeeping and start a new one."""
        self.finish_job()
        self.job = job_id

    def finish_job(self) -> None:
        """Fold the current job's sector propagations into the counts and reset per-job state."""
        if self._sectors:
            self.count["oracle.sectors_attempted"] += len(self._sectors)
            self.count["oracle.sectors_unique"] += len(set(self._sectors))
        self._sectors.clear()
        self._paths.clear()
        self._covered.clear()

    def _wrap(self, name, fn, hook):
        signature = inspect.signature(fn) if hook else None
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span] = (name, start, end, parent, self.job)
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(bound.arguments, None if error else result, error, end - start)
            return result

        return wrapper

    # -- hooks: counts taken from the call arguments --------------------------

    @staticmethod
    def _drive_key(drive) -> tuple:
        return tuple((s.duration, s.amplitude, s.frequency, id(s.func)) for s in drive.segments)

    def _n_max(self, drive, tau, space) -> int:
        if space is None:
            space = self._default_space(drive, tau)
        return space.n_max

    def _on_propagate(self, a, result, error, busy) -> None:
        drive, steps, operator = a["drive"], a["steps"], a["with_operator"]
        tau = drive.total_duration if a["tau"] is None else float(a["tau"])
        n_max = self._n_max(drive, tau, a["space"])
        values = drive.conditioner.eigensystem()[0]
        sectors: list[float] = []
        for value in values:
            if abs(value) > 1e-12 and all(abs(value - s) > 1e-12 for s in sectors):
                sectors.append(float(value))
        key = self._drive_key(drive)
        for value in sectors:
            self._sectors.append((value, key, tau, n_max, steps, operator))
        mode = "operator" if operator else "state"
        d = n_max + 1
        c = self.count
        c["oracle.propagate.calls"] += 1
        c[f"oracle.propagate.{mode}_busy"] += busy
        c[f"oracle.{mode}_sector_steps"] += steps * len(sectors)
        flops = _state_step_flops(d) + (_operator_step_flops(d) if operator else 0)
        c["oracle.flops"] += flops * steps * len(sectors)
        c["oracle.points_recorded"] += steps + 1
        samples = a["sample_times"]
        c["oracle.points_read"] += 1 if samples is None else len(samples)
        if isinstance(error, self._truncation):
            c["oracle.truncation_errors"] += 1

    def _on_verify_magnus_form(self, a, result, error, busy) -> None:
        drive, steps = a["drive"], a["steps"]
        tau = drive.total_duration if a["tau"] is None else float(a["tau"])
        n_max = self._n_max(drive, tau, a["space"])
        self._sectors.append((1.0, self._drive_key(drive), tau, n_max, steps, True))
        d = n_max + 1
        self.count["oracle.verify_magnus_form.calls"] += 1
        self.count["oracle.verify_sector_steps"] += steps
        self.count["oracle.flops"] += (_state_step_flops(d) + _operator_step_flops(d)) * steps
        self.count["oracle.points_recorded"] += steps + 1
        self.count["oracle.points_read"] += 1

    def _on_gamma0(self, a, result, error, busy) -> None:
        self.count["drives.samples"] += a["samples"]

    def _on_analytic_trajectory(self, a, result, error, busy) -> None:
        if result is not None:
            key = ("analytic", a["omega_over_delta"], a["delta"], a["phi_l"])
            self._paths[id(result)] = key

    def _on_induced_trajectory(self, a, result, error, busy) -> None:
        if result is not None:
            self._paths[id(result)] = ("drive", self._drive_key(a["drive"]))

    def _integrated(self, functional: str, trajectory) -> None:
        """Count samples, and those on an interval this job already integrated."""
        times = trajectory.times
        self.count["phasespace.samples"] += times.size
        key = self._paths.get(id(trajectory))
        if key is None:
            return
        covered = self._covered[(functional, key)]
        for lo, hi in covered:
            self.count["phasespace.reused_samples"] += int(
                times.searchsorted(hi, side="right") - times.searchsorted(lo, side="left"))
        self._covered[(functional, key)] = _union(covered + [(float(times[0]), float(times[-1]))])

    def _on_geometric_phase(self, a, result, error, busy) -> None:
        self._integrated("geometric", a["trajectory"])

    def _on_dynamic_phase(self, a, result, error, busy) -> None:
        self._integrated("dynamic", a["trajectory"])

    def _sweep_points(self, points: int) -> None:
        self.count["robustness.points"] += points

    def _on_eta_invariance_sweep(self, a, result, error, busy) -> None:
        self._sweep_points(len(a["spec"].grid))

    def _on_noncyclic_scan(self, a, result, error, busy) -> None:
        self._sweep_points(len(a["times"]))

    def _on_timing_error_sweep(self, a, result, error, busy) -> None:
        self._sweep_points(len(a["epsilons"]))

    def _on_area_invariance_study(self, a, result, error, busy) -> None:
        self._sweep_points(len(a["loops"]))

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                         "parent": parent, "job": job}) + "\n")

    def metrics(self, jobs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; busy times and counts are per traced job."""
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), self_time in zip(self.spans, self.self_times()):
            busy[name] += end - start
            own[name] += self_time
            calls[name] += 1
        c = self.count
        per_job = 1.0 / max(jobs, 1)

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return num * scale / den if den else 0.0

        state_busy = c["oracle.propagate.state_busy"]
        operator_busy = c["oracle.propagate.operator_busy"]
        oracle_busy = state_busy + operator_busy + busy["oracle.verify_magnus_form"]
        sweep_busy = sum(busy[f"robustness.{s}"] for s in SWEEPS)
        sweep_self = sum(own[f"robustness.{s}"] for s in SWEEPS)
        quadrature = busy["phasespace.geometric_phase"] + busy["phasespace.dynamic_phase"]
        sector_steps = c["oracle.state_sector_steps"] + c["oracle.operator_sector_steps"]
        out = {
            "cli.self_s": (own["cli.main"] * per_job, "s/job"),
            "cli.jobs": (float(calls["cli.main"]), "count"),
            "oracle.propagate.state_s": (state_busy * per_job, "s/job"),
            "oracle.propagate.operator_s": (operator_busy * per_job, "s/job"),
            "oracle.propagate.calls": (c["oracle.propagate.calls"] * per_job, "count/job"),
            "oracle.sector_steps": (
                (sector_steps + c["oracle.verify_sector_steps"]) * per_job, "count/job"),
            "oracle.state_step_us": (
                ratio(state_busy, c["oracle.state_sector_steps"], 1e6), "us"),
            "oracle.operator_step_us": (
                ratio(operator_busy, c["oracle.operator_sector_steps"], 1e6), "us"),
            "oracle.verify_magnus_form.s": (busy["oracle.verify_magnus_form"] * per_job, "s/job"),
            "oracle.verify_magnus_form.calls": (
                c["oracle.verify_magnus_form.calls"] * per_job, "count/job"),
            "oracle.flops": (c["oracle.flops"] * per_job, "flop/job"),
            "oracle.gflops": (ratio(c["oracle.flops"], oracle_busy, 1e-9), "GFLOP/s"),
            "oracle.unique_sector_frac": (
                ratio(c["oracle.sectors_unique"], c["oracle.sectors_attempted"]), "fraction"),
            "oracle.sampled_frac": (
                ratio(c["oracle.points_read"], c["oracle.points_recorded"]), "fraction"),
            "oracle.truncation_errors": (c["oracle.truncation_errors"], "count"),
            "drives.gamma0.s": (busy["drives.gamma0"] * per_job, "s/job"),
            "drives.gamma0.calls": (calls["drives.gamma0"] * per_job, "count/job"),
            "drives.samples": (c["drives.samples"] * per_job, "count/job"),
            "drives.ns_per_sample": (ratio(busy["drives.gamma0"], c["drives.samples"], 1e9), "ns"),
            "drives.closure_residual.s": (busy["drives.closure_residual"] * per_job, "s/job"),
            "drives.induced_trajectory.s": (busy["drives.induced_trajectory"] * per_job, "s/job"),
            "drives.drive_from_dict.s": (busy["drives.drive_from_dict"] * per_job, "s/job"),
            "phasespace.geometric_phase.s": (busy["phasespace.geometric_phase"] * per_job, "s/job"),
            "phasespace.dynamic_phase.s": (busy["phasespace.dynamic_phase"] * per_job, "s/job"),
            "phasespace.analytic_trajectory.s": (
                busy["phasespace.analytic_trajectory"] * per_job, "s/job"),
            "phasespace.samples": (c["phasespace.samples"] * per_job, "count/job"),
            "phasespace.ns_per_sample": (ratio(quadrature, c["phasespace.samples"], 1e9), "ns"),
            "phasespace.reuse_frac": (
                ratio(c["phasespace.reused_samples"], c["phasespace.samples"]), "fraction"),
            "gates.collective_gate.s": (busy["gates.collective_gate"] * per_job, "s/job"),
            "gates.gate_fidelity.s": (busy["gates.gate_fidelity"] * per_job, "s/job"),
            "gates.calls": (
                sum(n for name, n in calls.items() if name.startswith("gates.")) * per_job,
                "count/job"),
        }
        for sweep in SWEEPS:
            out[f"robustness.{sweep}.s"] = (busy[f"robustness.{sweep}"] * per_job, "s/job")
        out["robustness.self_s"] = (sweep_self * per_job, "s/job")
        out["robustness.points"] = (c["robustness.points"] * per_job, "count/job")
        out["robustness.s_per_point"] = (ratio(sweep_busy, c["robustness.points"]), "s")
        return out
