"""The CLI's output shape: key paths of every report, pinned in a data file.

``tests/data/cli_shape.json`` holds, for one invocation of each subcommand
mode (each gate construction, each sweep kind, constant and document
drives), the sorted key paths of the JSON report and the key column of the
CSV report.  Values are not pinned here; the other CLI tests
check them.  Regenerate the file with ``PYTHONPATH=src python
tests/test_cli_shape.py`` only when a report field is added or removed on
purpose.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from loopgate import gates
from loopgate.cli import EXIT_OK, main

SHAPE_FILE = Path(__file__).parent / "data" / "cli_shape.json"
COMMANDS = ("phase", "gate", "oracle-verify", "sweep", "design")

CIRCLE_DOC = {
    "schema_version": 1,
    "conditioner": "odd-parity-projector",
    "segments": [{"duration": 2.0 * math.pi, "amplitude": [-0.5, 0.0], "frequency": 1.0}],
}

# "{circle}" stands for the path of a drive file holding CIRCLE_DOC.
INVOCATIONS = {
    "phase": ["phase", "--omega-over-delta", "0.5", "--oracle", "--n-max", "16",
              "--steps", "500"],
    "phase-document": ["phase", "--drive", "{circle}"],
    "gate": ["gate", "--target-phase", str(-math.pi / 2.0), "--correct-to-cz"],
    "gate-direct": ["gate", "--gamma0", "0.5"],
    "gate-jy": ["gate", "--gamma", "-0.3"],
    "gate-constant": ["gate", "--omega-over-delta", "0.5"],
    "gate-document": ["gate", "--drive", "{circle}"],
    "oracle-verify": ["oracle-verify", "--omega-over-delta", "0.5", "--n-max", "32",
                      "--steps", "2000"],
    "oracle-verify-document": ["oracle-verify", "--drive", "{circle}", "--n-max", "32",
                               "--steps", "2000"],
    "sweep-eta": ["sweep", "--parameter", "omega_over_delta", "--grid", "0.3,0.5",
                  "--samples", "10001", "--oracle", "--n-max", "16", "--steps", "500"],
    "sweep-timing": ["sweep", "--parameter", "timing_error", "--grid", "0.001,0.01"],
    "sweep-time": ["sweep", "--parameter", "time", "--grid", f"0,{math.pi}"],
    "sweep-shape": ["sweep", "--parameter", "loop_shape", "--drive", "{circle}",
                    "--drive", "{circle}"],
    "design": ["design", "--target-phase", "-1.0"],
}


def _key_paths(value, prefix=""):
    if isinstance(value, dict):
        if not value:
            return [prefix]
        return [p for key in value for p in _key_paths(value[key], f"{prefix}.{key}" if prefix else key)]
    if isinstance(value, list) and value:
        return [p for i, item in enumerate(value) for p in _key_paths(item, f"{prefix}.{i}")]
    return [prefix]


def _csv_keys(text):
    lines = text.splitlines()
    # Key/value reports have one key column; sweep reports lead with kind
    # and parameter (or summary key).
    width = 1 if lines[0] == "key,value" else 2
    return [",".join(line.split(",")[:width]) for line in lines]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == EXIT_OK, argv
    return out.getvalue()


def shape(name, circle_path):
    argv = [arg.replace("{circle}", circle_path) for arg in INVOCATIONS[name]]
    return {
        "json": sorted(_key_paths(json.loads(_run(argv + ["--format", "json"])))),
        "csv": _csv_keys(_run(argv + ["--format", "csv"])),
    }


@pytest.fixture(scope="module")
def circle_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("shape") / "circle.json"
    path.write_text(json.dumps(CIRCLE_DOC))
    return str(path)


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_output_shape_is_pinned(name, circle_path):
    pinned = json.loads(SHAPE_FILE.read_text())
    assert shape(name, circle_path) == pinned[name]


def test_each_invocation_prints_the_same_bytes_once_or_twice_in_either_order(circle_path):
    # What a run builds once per process (the shared conditioners and CZ)
    # must not change what a later run prints.
    for factory in (gates.odd_parity_projector, gates.jz_conditioner, gates.jy_conditioner,
                    gates.cz_gate):
        factory.cache_clear()
    runs = [(name, fmt) for name in sorted(INVOCATIONS) for fmt in ("json", "csv")]

    def texts(order):
        return {
            (name, fmt): _run([arg.replace("{circle}", circle_path) for arg in INVOCATIONS[name]]
                              + ["--format", fmt])
            for name, fmt in order
        }

    first = texts(runs)
    assert texts(runs[::-1]) == first
    assert texts(runs) == first


@pytest.mark.parametrize("command", COMMANDS)
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert command in capsys.readouterr().out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "circle.json"
        path.write_text(json.dumps(CIRCLE_DOC))
        shapes = {name: shape(name, str(path)) for name in sorted(INVOCATIONS)}
    SHAPE_FILE.write_text(json.dumps(shapes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {SHAPE_FILE}", file=sys.stderr)
