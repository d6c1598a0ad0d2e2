"""Deterministic job decks for the three benchmark workloads.

A job is one ``loopgate`` command line plus the path description the
reference checker needs (see :mod:`reference`).  The same seed always gives
the same deck.  Decks are built block by block: every block holds the same
job kinds and size strata in a fixed order, and the seed draws each job's
parameters inside its stratum.  Two seeds therefore run the same mix of
work, which keeps run-to-run spread small, while no two jobs share inputs.

Every job stays inside the input domain where the program's stated
tolerances hold, so a failed check is the program's fault, never the
generator's.  The rules are listed in README.md under "Input domain" and
enforced by the ``_max_radius_*`` helpers and ``_STEP_COEF`` below.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Blocks per deck.  A run cycles through the deck when it outlasts it.
DECK_BLOCKS = {"analytic": 24, "oracle-state": 16, "oracle-operator": 16}

# The program's truncation rule is n_max >= 4 |beta alpha|^2 at the path's
# peak; the generator keeps a further 10% margin.
_LEAK_FACTOR = 4.4

# Midpoint-stepper phase error over one period is about 41 (beta r)^2 / steps^2
# (measured on tones); steps >= 2025 beta r keeps it below 1e-5, a tenth of
# the 1e-4 oracle tolerance.  The displacement-form residual of the unit
# sector is about half of that, at beta = 1.
_STEP_COEF = 2025.0

# verify_magnus_form compares Fock levels up to n_max/2.  A level-n state
# displaced by |alpha| <= 2r stays clear of the truncation edge when
# sqrt(n_max/2) + 2r + 0.75 <= sqrt(n_max); beyond that the residual jumps
# from ~1e-5 to ~1e-3 and more (measured on a grid of r and n_max).
_BLOCK_CLEARANCE = 0.75

# The open-path quadrature of a time scan (200,001 samples) misses the
# circular segments cut by its chords: error ~ r^2 (delta t)^3 / (6 (S-1)^2).
# Keeping r^2 (delta t)^3 <= 24 holds that error under 1e-10.
_SCAN_BUDGET = 24.0

# Polygon documents: durations are whole units of T/16 with T a power of two,
# so every vertex falls exactly on the quadrature grid of the sample counts
# below; the trapezoid rule is then exact for piecewise-constant drives.
_POLY_UNITS = 16
_POLY_DURATIONS = (1.0, 2.0, 4.0)
_DEFAULT_SAMPLES = 20_001
_SHAPE_SAMPLES = 65_537

_CONDITIONER_BETA = {"odd-parity-projector": 1.0, "jz": 2.0}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what the checker needs to judge its output."""

    kind: str
    argv: tuple[str, ...]
    expect: dict


def _num(value: float) -> str:
    return repr(float(value))


def _max_radius_leak(n_max: int, beta: float) -> float:
    """Largest tone radius r whose peak |beta alpha| = 2 beta r fits n_max."""
    return math.sqrt(n_max / _LEAK_FACTOR) / (2.0 * beta)


def _max_radius_block(n_max: int) -> float:
    """Largest tone radius the displacement-form block comparison tolerates."""
    return (math.sqrt(n_max) - math.sqrt(n_max / 2.0) - _BLOCK_CLEARANCE) / 2.0


def _stratum(lo: float, hi: float, index: int, count: int, fraction: float, log: bool = False) -> float:
    """The point ``fraction`` of the way through stratum ``index`` of ``count`` on [lo, hi]."""
    u = (index + fraction) / count
    if log:
        return lo * (hi / lo) ** u
    return lo + (hi - lo) * u


def _shoelace(vertices: list[complex]) -> float:
    closed = list(vertices) + [vertices[0]]
    return 0.5 * sum((a.conjugate() * b).imag for a, b in zip(closed[:-1], closed[1:]))


@functools.lru_cache(maxsize=None)
def _grid(total: float, samples: int) -> np.ndarray:
    """The sample times the program's quadrature uses (``np.linspace``)."""
    return np.linspace(0.0, total, samples)


def _assert_vertices_on_grid(total: float, counts: list[int]) -> None:
    """Fail generation, not the program, if a vertex misses a quadrature sample."""
    breakpoints = np.cumsum([0] + counts) * (total / _POLY_UNITS)
    for samples in (_DEFAULT_SAMPLES, _SHAPE_SAMPLES):
        index = np.cumsum([0] + counts) * ((samples - 1) // _POLY_UNITS)
        if not np.array_equal(_grid(total, samples)[index], breakpoints):
            raise RuntimeError(f"polygon vertices miss the {samples}-sample grid")


def _path_tone(r: float, delta: float) -> dict:
    return {"tone": {"r": r, "delta": delta}}


def _path_polygon(vertices: list[complex]) -> dict:
    return {"polygon": [[v.real, v.imag] for v in vertices]}


class _Deck:
    """Random source plus the directory the drive documents go to."""

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.documents = 0

    def _write(self, doc: dict) -> str:
        path = self.workdir / f"drive-{self.documents:05d}.json"
        self.documents += 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def _angle(self) -> complex:
        t = self.rng.uniform(0.0, 2.0 * math.pi)
        return complex(math.cos(t), math.sin(t))

    def polygon(self, radius: float, area: float | None = None) -> list[complex]:
        """Vertices of a closed polygon through the origin inside |alpha| <= radius.

        With ``area`` the polygon is rescaled (and reversed if needed) to that
        signed area and rotated; a shape that would leave the disk is redrawn.
        """
        rng = self.rng
        while True:
            vertices = [0j] + [radius * math.sqrt(rng.random()) * self._angle()
                               for _ in range(rng.randint(2, 5))]
            signed = _shoelace(vertices)
            if abs(signed) < 0.05 * radius * radius:
                continue
            if area is None:
                return vertices
            if (signed > 0) != (area > 0):
                vertices = [vertices[0]] + vertices[1:][::-1]
                signed = -signed
            scale = math.sqrt(area / signed) * self._angle()
            scaled = [v * scale for v in vertices]
            if max(abs(v) for v in scaled) <= radius:
                return scaled

    def polygon_document(self, vertices: list[complex], conditioner: str) -> str:
        """Write a chord document tracing ``vertices`` back to the origin."""
        rng = self.rng
        m = len(vertices)
        total = rng.choice(_POLY_DURATIONS)
        cuts = sorted(rng.sample(range(1, _POLY_UNITS), m - 1))
        counts = [b - a for a, b in zip([0] + cuts, cuts + [_POLY_UNITS])]
        _assert_vertices_on_grid(total, counts)
        closed = vertices + [0j]
        segments = []
        for i in range(m):
            duration = counts[i] * total / _POLY_UNITS
            amplitude = -(closed[i + 1] - closed[i]) / duration
            segments.append(
                {"duration": duration, "amplitude": [amplitude.real, amplitude.imag], "frequency": 0.0}
            )
        return self._write({"schema_version": 1, "conditioner": conditioner, "segments": segments})

    def tone_document(self, r: float, delta: float, periods: int, conditioner: str) -> str:
        amplitude = -r * delta * self._angle()
        segment = {
            "duration": periods * 2.0 * math.pi / delta,
            "amplitude": [amplitude.real, amplitude.imag],
            "frequency": delta,
        }
        return self._write({"schema_version": 1, "conditioner": conditioner, "segments": [segment]})

    def tone(self, r: float) -> tuple[dict, list[str]]:
        """A constant-drive tone of radius r with random detuning and phase, as CLI flags."""
        rng = self.rng
        delta = rng.uniform(0.5, 2.0)
        phi_l = rng.uniform(-math.pi, math.pi)
        flags = ["--omega-over-delta", _num(r), "--delta", _num(delta), "--phi-l", _num(phi_l)]
        return {"r": r, "delta": delta, "phi_l": phi_l}, flags


# ---------------------------------------------------------------------------
# analytic: no oracle call; 12 small jobs and 8 sweeps per block


def _analytic_block(deck: _Deck, fractions: list[tuple[float, float]]) -> list[Job]:
    """One analytic block; its sample counts are fixed, so it has no size strata."""
    rng = deck.rng
    jobs: list[Job] = []

    for periods in (1, 2):
        r = rng.uniform(0.1, 1.5)
        base, flags = deck.tone(r)
        jobs.append(Job("phase", ("phase", *flags, "--periods", str(periods)),
                        {"path": _path_tone(r, base["delta"]),
                         "tau": periods * 2.0 * math.pi / base["delta"], "oracle": False}))
    r = rng.uniform(0.1, 1.5)
    base, flags = deck.tone(r)
    tau = rng.uniform(0.05, 2.0) * 2.0 * math.pi / base["delta"]
    jobs.append(Job("phase", ("phase", *flags, "--periods", "2", "--tau", _num(tau)),
                    {"path": _path_tone(r, base["delta"]), "tau": tau, "oracle": False}))
    for _ in range(2):
        vertices = deck.polygon(rng.uniform(0.3, 1.5))
        path = deck.polygon_document(vertices, "odd-parity-projector")
        jobs.append(Job("phase", ("phase", "--drive", path, "--require-closed"),
                        {"path": _path_polygon(vertices), "tau": None, "oracle": False}))
    r = rng.uniform(0.1, 1.5)
    delta = rng.uniform(0.5, 2.0)
    periods = rng.choice((1, 2))
    path = deck.tone_document(r, delta, periods, "odd-parity-projector")
    jobs.append(Job("phase", ("phase", "--drive", path),
                    {"path": _path_tone(r, delta), "tau": periods * 2.0 * math.pi / delta,
                     "oracle": False}))

    target = -rng.uniform(0.05, 0.99 * 8.0 * math.pi)
    correct = rng.random() < 0.5
    jobs.append(Job("gate", ("gate", "--target-phase", _num(target),
                             "--delta", _num(rng.uniform(0.5, 2.0)))
                    + (("--correct-to-cz",) if correct else ()),
                    {"construction": "designed-drive", "gamma": target,
                     "conditioner": "odd-parity-projector", "correct": correct}))
    for conditioner in ("odd-parity-projector", "jz"):
        value = rng.uniform(-6.0, -0.05)
        correct = rng.random() < 0.5
        jobs.append(Job("gate", ("gate", "--gamma0", _num(value), "--conditioner", conditioner)
                        + (("--correct-to-cz",) if correct else ()),
                        {"construction": "direct-phases", "gamma": value,
                         "conditioner": conditioner, "correct": correct}))
    angle = rng.uniform(-math.pi, math.pi)
    jobs.append(Job("gate", ("gate", "--gamma", _num(angle)),
                    {"construction": "jy-exponential", "gamma": angle, "conditioner": "jy",
                     "correct": False}))
    r = rng.uniform(0.1, 1.5)
    base, flags = deck.tone(r)
    conditioner = rng.choice(("odd-parity-projector", "jz"))
    periods = rng.choice((1, 2))
    jobs.append(Job("gate", ("gate", *flags, "--periods", str(periods), "--conditioner", conditioner),
                    {"construction": "constant-drive", "path": _path_tone(r, base["delta"]),
                     "tau": periods * 2.0 * math.pi / base["delta"],
                     "conditioner": conditioner, "correct": False}))
    vertices = deck.polygon(rng.uniform(0.3, 1.5))
    path = deck.polygon_document(vertices, "odd-parity-projector")
    correct = rng.random() < 0.5
    jobs.append(Job("gate", ("gate", "--drive", path, "--conditioner", "jz")
                    + (("--correct-to-cz",) if correct else ()),
                    {"construction": "drive-document", "path": _path_polygon(vertices),
                     "tau": None, "conditioner": "jz", "correct": correct}))
    target = -rng.uniform(0.05, 0.99 * 8.0 * math.pi)
    delta = rng.uniform(0.5, 2.0)
    jobs.append(Job("design", ("design", "--target-phase", _num(target), "--delta", _num(delta)),
                    {"target": target, "delta": delta}))

    # Sweeps have fixed grid sizes so that every block costs about the same.
    for parameter, size in (("omega_over_delta", 4), ("phi_l", 3), ("delta", 2)):
        r = rng.uniform(0.1, 1.0)
        base, flags = deck.tone(r)
        if parameter == "omega_over_delta":
            grid = [rng.uniform(0.1, 1.0) for _ in range(size)]
            flags = flags[2:]
        elif parameter == "phi_l":
            grid = [rng.uniform(-math.pi, math.pi) for _ in range(size)]
            flags = flags[:4]
        else:
            grid = [rng.uniform(0.3, 3.0) for _ in range(size)]
            flags = flags[:2] + flags[4:]
        jobs.append(Job("sweep-eta", ("sweep", "--parameter", parameter,
                                      "--grid=" + ",".join(_num(v) for v in grid), *flags),
                        {"parameter": parameter, "grid": grid, "base": base, "oracle": False}))
    for points in (3, 5):
        jobs.append(_time_scan(deck, points))
    jobs.append(_timing_sweep(deck, 4))
    for count in (2, 4):
        area = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0)
        paths, polygons = [], []
        for _ in range(count):
            vertices = deck.polygon(1.5, area)
            paths += ["--drive", deck.polygon_document(vertices, "odd-parity-projector")]
            polygons.append(_path_polygon(vertices)["polygon"])
        jobs.append(Job("sweep-shape", ("sweep", "--parameter", "loop_shape", *paths,
                                        "--samples", str(_SHAPE_SAMPLES)),
                        {"polygons": polygons}))
    return jobs


def _time_scan(deck: _Deck, count: int, oracle: tuple[int, int] | None = None) -> Job:
    """Noncyclic time scan; with ``oracle=(n_max, steps)`` every time is on the step grid."""
    rng = deck.rng
    if oracle is None:
        r = rng.uniform(0.2, 0.8)
    else:
        n_max, steps = oracle
        r = rng.uniform(0.2, min(0.8, _max_radius_leak(n_max, 1.0), steps / _STEP_COEF))
    base, flags = deck.tone(r)
    reach = min(2.0 * math.pi, (_SCAN_BUDGET / (r * r)) ** (1.0 / 3.0))
    window = rng.uniform(0.5, 1.0) * reach / base["delta"]
    if oracle is None:
        times = sorted(rng.uniform(0.0, window) for _ in range(count - 1)) + [window]
        extra: tuple[str, ...] = ()
    else:
        steps -= steps % count
        times = [window * j / count for j in range(1, count + 1)]
        extra = ("--oracle", "--n-max", str(n_max), "--steps", str(steps))
    return Job("sweep-time", ("sweep", "--parameter", "time",
                              "--grid=" + ",".join(_num(t) for t in times), *flags, *extra),
               {"grid": times, "base": base, "oracle": oracle is not None})


def _timing_sweep(deck: _Deck, count: int, oracle: tuple[int, int] | None = None) -> Job:
    """Timing-error sweep with |epsilon| log-spread over [1e-3, reach]."""
    rng = deck.rng
    if oracle is None:
        reach = 0.3
        r = rng.uniform(0.1, 1.5)
        extra: tuple[str, ...] = ()
    else:
        n_max, steps = oracle
        reach = 0.2
        r = rng.uniform(0.2, min(1.2, _max_radius_leak(n_max, 1.0),
                                 steps / (_STEP_COEF * (1.0 + reach) ** 1.5)))
        extra = ("--oracle", "--n-max", str(n_max), "--steps", str(steps))
    base, flags = deck.tone(r)
    grid = [rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-3.0, math.log10(reach))
            for _ in range(count)]
    return Job("sweep-timing", ("sweep", "--parameter", "timing_error",
                                "--grid=" + ",".join(_num(e) for e in grid), *flags, *extra),
               {"grid": grid, "base": base, "oracle": oracle is not None})


def _verify(deck: _Deck, kind: str, n_max: int, steps: int, operator: bool) -> Job:
    """oracle-verify of a tone or polygon under odd-parity or jz conditioning."""
    rng = deck.rng
    conditioner = "jz" if kind.endswith("jz") else "odd-parity-projector"
    beta = _CONDITIONER_BETA[conditioner]
    extra = ("--n-max", str(n_max)) + (() if operator else ("--state-only",))
    if "poly" in kind:
        radius = math.sqrt(n_max / _LEAK_FACTOR) / beta
        vertices = deck.polygon(min(1.5, radius * rng.uniform(0.5, 1.0)))
        path = deck.polygon_document(vertices, conditioner)
        steps -= steps % _POLY_UNITS
        return Job("verify", ("oracle-verify", "--drive", path, "--steps", str(steps), *extra),
                   {"path": _path_polygon(vertices), "conditioner": conditioner,
                    "operator": operator, "single_tone": False})
    top = min(1.2, _max_radius_leak(n_max, beta), steps / (_STEP_COEF * beta))
    if operator:
        top = min(top, _max_radius_block(n_max))
    r = rng.uniform(min(0.1, top), top)
    base, flags = deck.tone(r)
    return Job("verify", ("oracle-verify", *flags, "--conditioner", conditioner,
                          "--steps", str(steps), *extra),
               {"path": _path_tone(r, base["delta"]), "conditioner": conditioner,
                "operator": operator, "single_tone": True})


# ---------------------------------------------------------------------------
# oracle-state: state-only brute force, n_max 32-64, steps 2k-20k

# One block: (kind, steps stratum, n_max stratum).  Each stratum is used once
# (a Latin hypercube), and kinds that propagate two sectors or two grid points
# sit in the lower step strata so that jobs cost about the same.  The pairing
# is fixed; the seed draws the values inside each stratum.
_STATE_SLOTS = (
    ("verify-tone-jz", 1, 9),
    ("verify-poly-jz", 3, 6),
    ("timing", 0, 4),
    ("eta", 2, 1),
    ("verify-tone-odd", 9, 2),
    ("verify-poly-odd", 7, 8),
    ("phase-closed", 8, 5),
    ("phase-open", 6, 0),
    ("scan", 5, 7),
    ("verify-tone-odd", 4, 3),
)


def _oracle_state_block(deck: _Deck, fractions: list[tuple[float, float]]) -> list[Job]:
    rng = deck.rng
    count = len(_STATE_SLOTS)
    jobs = []
    for (kind, s_index, n_index), (s_frac, n_frac) in zip(_STATE_SLOTS, fractions):
        steps = int(_stratum(2000, 20000, s_index, count, s_frac, log=True))
        n_max = int(round(_stratum(32, 64, n_index, count, n_frac)))
        if kind.startswith("verify"):
            jobs.append(_verify(deck, kind, n_max, steps, operator=False))
        elif kind.startswith("phase"):
            r = rng.uniform(0.2, min(1.2, _max_radius_leak(n_max, 1.0), steps / _STEP_COEF))
            base, flags = deck.tone(r)
            period = 2.0 * math.pi / base["delta"]
            tau = period if kind == "phase-closed" else rng.uniform(0.3, 1.0) * period
            jobs.append(Job("phase", ("phase", *flags, "--tau", _num(tau), "--oracle",
                                      "--n-max", str(n_max), "--steps", str(steps)),
                            {"path": _path_tone(r, base["delta"]), "tau": tau, "oracle": True}))
        elif kind == "scan":
            jobs.append(_time_scan(deck, 3, (n_max, steps)))
        elif kind == "timing":
            jobs.append(_timing_sweep(deck, 2, (n_max, steps)))
        else:
            top = min(1.0, _max_radius_leak(n_max, 1.0), steps / _STEP_COEF)
            grid = [rng.uniform(0.2, top) for _ in range(2)]
            base, flags = deck.tone(grid[0])
            jobs.append(Job("sweep-eta", ("sweep", "--parameter", "omega_over_delta",
                                          "--grid=" + ",".join(_num(v) for v in grid),
                                          *flags[2:], "--oracle",
                                          "--n-max", str(n_max), "--steps", str(steps)),
                            {"parameter": "omega_over_delta", "grid": grid, "base": base,
                             "oracle": True}))
    return jobs


# ---------------------------------------------------------------------------
# oracle-operator: operator tracking plus the displacement-form check,
# n_max 24-64, steps 1k-10k; same construction as _STATE_SLOTS with 8 strata

_OPERATOR_SLOTS = (
    ("verify-tone-odd", 7, 0),
    ("verify-tone-jz", 0, 7),
    ("verify-tone-odd", 3, 5),
    ("verify-poly-jz", 5, 2),
    ("verify-tone-odd", 1, 3),
    ("verify-poly-odd", 6, 6),
    ("verify-tone-jz", 4, 1),
    ("verify-tone-odd", 2, 4),
)


def _oracle_operator_block(deck: _Deck, fractions: list[tuple[float, float]]) -> list[Job]:
    count = len(_OPERATOR_SLOTS)
    jobs = []
    for (kind, s_index, n_index), (s_frac, n_frac) in zip(_OPERATOR_SLOTS, fractions):
        steps = int(_stratum(1000, 10000, s_index, count, s_frac, log=True))
        n_max = int(round(_stratum(24, 64, n_index, count, n_frac)))
        jobs.append(_verify(deck, kind, n_max, steps, operator=True))
    return jobs


_BLOCKS = {
    "analytic": _analytic_block,
    "oracle-state": _oracle_state_block,
    "oracle-operator": _oracle_operator_block,
}
_SLOTS = {"analytic": (), "oracle-state": _STATE_SLOTS, "oracle-operator": _OPERATOR_SLOTS}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The full deck for ``workload`` under ``seed``; drive documents go to ``workdir``."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {tuple(_BLOCKS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    deck = _Deck(random.Random(f"{workload}:{seed}"), workdir)
    jobs: list[Job] = []
    for _ in range(DECK_BLOCKS[workload] // 2):
        # Antithetic pairs: the second block of a pair sits where the first
        # did, mirrored inside each stratum, so every pair of blocks costs
        # about the same whatever the seed.
        fractions = [(deck.rng.random(), deck.rng.random()) for _ in _SLOTS[workload]]
        jobs.extend(_BLOCKS[workload](deck, fractions))
        jobs.extend(_BLOCKS[workload](deck, [(1.0 - a, 1.0 - b) for a, b in fractions]))
    return jobs
