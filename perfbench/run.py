"""Benchmark of the loopgate command line.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 30 --trace 0

Run from the repository root.  One workload (see README.md) runs as a closed
loop with one client: each job calls ``loopgate.cli.main(argv)`` in-process
with stdout captured, and the next job starts when the previous one returns.
Every output is checked against references the benchmark computes itself.
The run prints each metric by name with its unit, writes the full result and
the machine it ran on to ``.perfbench/results/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a traced
run instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("analytic", "oracle-state", "oracle-operator")

# Fixed tail percentile per workload, chosen so that a run leaves at least
# ten samples beyond it even when the machine runs at half its usual speed;
# a fixed choice keeps runs and commits comparable.  A run with too few jobs
# falls back down the ladder.
TAIL_PERCENTILE = {"analytic": 95, "oracle-state": 80, "oracle-operator": 67}
_TAIL_LADDER = (99, 95, 90, 80, 75, 67, 50)
_TAIL_MIN_BEYOND = 10

# Fresh interpreters timed from spawn to ready; setup_s is their median.
SETUP_PROBES = 5
_PROBE_TIMEOUT_S = 60

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS stays single-threaded: the oracle's 25-65 dimensional blocks ran
# faster on one thread than on two on a 2-CPU machine, and one thread keeps
# the run from competing with itself.
BLAS_THREADS = 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up once in this fresh interpreter and report")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _import_cli(src: Path):
    """Import loopgate.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(src))
    import loopgate.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "loopgate").resolve():
        raise RuntimeError(f"imported loopgate from {cli.__file__}, not from {src}")
    return cli


def _probe(args, root: Path) -> int:
    """Child side of a setup probe: import, generate, write, then say ready."""
    start = time.perf_counter()
    _import_cli(root / "src")
    import_s = time.perf_counter() - start
    import jobs

    workdir = root / ".perfbench" / "work" / f"probe-{os.getpid()}"
    try:
        deck = jobs.build(args.workload, args.seed, workdir)
        print(f"ready {import_s!r} {len(deck)}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _setup_probes(args, here: Path) -> tuple[list[float], list[float]]:
    """Time SETUP_PROBES fresh interpreters from spawn to ready."""
    setups, imports = [], []
    command = [sys.executable, str(here / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - start
            try:
                rest, errors = child.communicate(timeout=_PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise RuntimeError("setup probe did not exit") from None
        if child.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError(f"setup probe failed ({child.returncode}): {line}{rest}{errors}")
        setups.append(ready)
        imports.append(float(line.split()[1]))
    return setups, imports


@dataclass(frozen=True)
class _Outcome:
    """One job's wall time, exit code and verdict; ``failure`` is None when it passed."""

    seconds: float
    code: int
    failure: str | None
    oracle_dev: float | None


def _call(cli, job) -> tuple[int, str, str, float]:
    """``main(argv)`` with stdout and stderr captured: (code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught traceback is exit 1 for a CLI user
            print(f"traceback: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def _judge(job, call, reference) -> _Outcome:
    """Check one call against the reference; only the verdict is kept."""
    code, out, err, seconds = call
    verdict = reference.check(job, code, out)
    failure = None
    if verdict.reason is not None:
        failure = f"{job.kind}: {verdict.reason} | loopgate {' '.join(job.argv)}"
        if err.strip():
            failure += f" | stderr: {err.strip()}"
    return _Outcome(seconds, code, failure, verdict.oracle_dev)


def _run(cli, deck, seconds: float, reference) -> list[_Outcome]:
    """Closed loop over the deck until its jobs have run for ``seconds``.

    Each output is checked between jobs, outside the measured time, and then
    dropped, so memory does not grow with the number of jobs.
    """
    outcomes: list[_Outcome] = []
    busy = 0.0
    while busy < seconds:
        job = deck[len(outcomes) % len(deck)]
        outcomes.append(_judge(job, _call(cli, job), reference))
        busy += outcomes[-1].seconds
    return outcomes


def _run_paired(cli, deck, seconds: float, reference, tracer):
    """Each job once untraced and once traced, alternating which runs first.

    Pairing the same inputs makes the tracing overhead a like-for-like
    ratio, and alternating the order spreads warm-cache effects evenly.
    """
    plain: list[_Outcome] = []
    traced: list[_Outcome] = []
    busy = 0.0
    while busy < seconds:
        i = len(plain)
        job = deck[i % len(deck)]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.start_job(i)
                tracer.attach()
                try:
                    call = _call(cli, job)
                finally:
                    tracer.detach()
                traced.append(_judge(job, call, reference))
            else:
                plain.append(_judge(job, _call(cli, job), reference))
        busy += plain[-1].seconds + traced[-1].seconds
    tracer.finish_job()
    return plain, traced


def _tail(times: list[float], percentile: int) -> tuple[float, int]:
    """Nearest-rank percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    for p in (percentile,) + tuple(q for q in _TAIL_LADDER if q < percentile):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= _TAIL_MIN_BEYOND:
            return ordered[rank - 1], p
    return statistics.median(ordered), 50


def _blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, read from the library itself."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _machine(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _end_to_end(args, outcomes, setups) -> tuple[dict, dict]:
    times = [o.seconds for o in outcomes]
    tail, percentile = _tail(times, TAIL_PERCENTILE[args.workload])
    passed = sum(1 for o in outcomes if o.failure is None)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (tail, "s"),
        "jobs_per_s": (passed / sum(times), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }, {"job_s.tail_percentile": percentile, "jobs": len(outcomes), "job_seconds": sum(times)}


def _per_layer(tracer, plain, traced, imports) -> tuple[dict, dict]:
    plain_s = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in traced)
    deviations = [o.oracle_dev for o in traced if o.oracle_dev is not None]
    metrics = tracer.metrics(len(traced))
    metrics.update({
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.exit_nonzero": (float(sum(1 for o in traced if o.code != 0)), "count"),
        "oracle.max_dev": (max(deviations, default=0.0), "rad"),
        "trace.jobs_per_s": (len(traced) / traced_s, "1/s"),
        "trace.untraced_jobs_per_s": (len(plain) / plain_s, "1/s"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "fraction"),
    })
    return metrics, {"jobs": len(plain), "traced_jobs": len(traced)}


def main(argv=None) -> int:
    args = _parse(argv)
    here = Path(__file__).resolve().parent
    root = here.parent
    src = root / "src"
    if not (src / "loopgate" / "cli.py").is_file():
        print(f"error: no loopgate sources at {src}; run from a loopgate checkout",
              file=sys.stderr)
        return 2
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.setup_probe:
        return _probe(args, root)

    setups, imports = _setup_probes(args, here)
    cli = _import_cli(src)
    import jobs
    import reference

    workdir = root / ".perfbench" / "work" / f"run-{os.getpid()}"
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        deck = jobs.build(args.workload, args.seed, workdir)
        if args.trace:
            import loopgate
            from tracer import Tracer

            tracer = Tracer(loopgate)
            plain, traced = _run_paired(cli, deck, args.seconds, reference, tracer)
            tracer.write_spans(results / f"{stem}-spans.jsonl")
            reported, notes = _per_layer(tracer, plain, traced, imports)
            outcomes = plain + traced
        else:
            outcomes = _run(cli, deck, args.seconds, reference)
            reported, notes = _end_to_end(args, outcomes, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [o.failure for o in outcomes if o.failure is not None]
    attempted = len(outcomes)

    machine = _machine(args)
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    for name, (value, unit) in reported.items():
        print(f"{name} = {value:.6g} {unit}")
    if "job_s.tail_percentile" in notes:
        print(f"job_s.tail is p{notes['job_s.tail_percentile']} of {notes['jobs']} jobs")
    print(f"fail_frac = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} jobs failed)")
    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}
    (results / f"{stem}.json").write_text(json.dumps({
        "machine": machine,
        "metrics": metrics,
        "notes": notes,
        "setup_probes_s": setups,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
    }, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
