"""A fuzz that holds every subcommand to the exit contract.

Every argv drawn here ends in exit 0, 2 or 3.  Exit 2 or 3 prints exactly one
stderr line, ``error: <message>``; exit 0 prints nothing on stderr and a
report that strict JSON or ``csv`` reads back.  Arguments come from the
modes in ``cli._COMMANDS`` and the flag table (``cli._spec``), each in the
form ``--flag=value`` or ``--flag value``; the parser takes a value with a
leading minus, such as ``-1e+308`` or ``-0.5,1.0``, after a separate flag
too, so no drawn argv is refused with "expected one argument".  A run that
adds a flag from outside its mode must print exactly ``error: --FLAG does
not apply to <mode>``.  Config files and drive documents come from a small
grammar with unknown keys, wrong types and odd spellings.  The strategy
bounds the cost of a run: n_max at most 64, steps at most 5,000, samples at
most 20,001 and at most three grid values.

Argv the parser refuses (an unknown flag, a value that is not a number, a
value outside a flag's choices, no command) is drawn too: each returns 2
with one ``error: `` line, and prints no report.

numpy RuntimeWarnings are errors under pytest (pyproject.toml), so a run
that warns fails here as an uncaught exception.
"""

import contextlib
import csv
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from loopgate import cli
from loopgate.errors import ConfigError

FUZZ = settings(
    max_examples=600,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# The largest value drawn for each flag that sizes the work.
INT_BOUNDS = {"n_max": 64, "steps": 5_000, "samples": 20_001, "initial_fock": 70}

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 4e153, -4e153, 1e308, -1e308)

# Values a run is likely to accept, then any value, with every sign, zero
# and overflow edge.  A run draws either from these or mostly from the edges.
moderate = st.one_of(st.sampled_from((0.25, 0.5, 1.0, 2.0)), st.floats(0.01, 3.0))
any_float = st.one_of(
    moderate,
    moderate.map(lambda value: -value),
    st.sampled_from(EDGE_FLOATS),
    st.floats(-1e3, 1e3),
)
edges = st.one_of(st.sampled_from(EDGE_FLOATS), st.sampled_from(EDGE_FLOATS), any_float)

# A value of the wrong type for any config key.
wrong_types = st.sampled_from(("x", [], {}, None, True, 10**400, [1.0]))

TWO_PI = 6.283185307179586


@st.composite
def drive_documents(draw, setting, anything):
    """A closed loop (whole periods of a tone, or a rectangle of pulses), or any document.

    The second kind has unknown keys, wrong types, odd spellings and any
    number in any field.
    """
    if draw(st.booleans()):
        segment = st.fixed_dictionaries(
            {
                "duration": st.one_of(anything, wrong_types),
                "amplitude": st.one_of(st.lists(anything, min_size=2, max_size=2), wrong_types),
            },
            optional={"frequency": st.one_of(anything, wrong_types), "phase": anything},
        )
        return draw(
            st.fixed_dictionaries(
                {
                    "schema_version": st.sampled_from((1, 1, 1, 2, "1")),
                    "conditioner": st.sampled_from(
                        ("odd-parity-projector", "jz", "jy", "JZ", "bogus", 5)
                    ),
                    "segments": st.one_of(st.lists(segment, min_size=1, max_size=4), wrong_types),
                },
                optional={"extra": st.just(1)},
            )
        )
    a, b = draw(setting), draw(setting)
    if draw(st.booleans()):
        frequency = draw(st.one_of(moderate, st.sampled_from((1e-300, 4e153, 1e308))))
        periods = draw(st.integers(1, 2))
        segments = [
            {"duration": periods * TWO_PI / frequency, "amplitude": [a, -b],
             "frequency": frequency}
        ]
    else:
        segments = [
            {"duration": 1.0, "amplitude": [a, 0.0]},
            {"duration": 1.0, "amplitude": [0.0, b]},
            {"duration": 1.0, "amplitude": [-a, 0.0]},
            {"duration": 1.0, "amplitude": [0.0, -b], "frequency": 0.0},
        ]
    conditioner = draw(st.sampled_from(("odd-parity-projector", "jz", "jy", "JZ")))
    return {"schema_version": 1, "conditioner": conditioner, "segments": segments}


@st.composite
def runs(draw):
    """An argv, the files it names as {relative path: JSON document}, and a refusal.

    Each run starts from one construction its command accepts, which picks
    a mode in ``cli._COMMANDS``.  Most runs then add up to three of that
    mode's flags with any value the parser takes, and maybe a config with
    any of the command's keys; the refusal is None.  One run in five that can, instead adds one flag from
    outside the mode, with a value that passes the flag's own checks, and
    the refusal is the stderr line the run must print.
    """
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    table = cli._COMMANDS[command]
    files = {}
    setting, anything = (edges, edges) if draw(st.booleans()) else (moderate, any_float)
    documents = drive_documents(setting, anything)

    def drive_path():
        name = f"drive{len(files)}.json"
        files[name] = draw(documents)
        return name

    def value(key):
        """A value the parser accepts for ``key``, as the flag table declares it."""
        spec = cli._spec(command, key)
        if "choices" in spec:
            return draw(st.sampled_from(spec["choices"]))
        if key == "drive":
            return [drive_path() for _ in range(draw(st.integers(1, 2)))]
        if key == "grid":
            return ",".join(map(repr, draw(st.lists(anything, max_size=3))))
        if spec.get("type") is float:
            return draw(anything)
        bound = INT_BOUNDS[key]
        return draw(st.one_of(st.integers(max(bound - 40, 0), bound), st.integers(-2, bound)))

    # One construction the command accepts.
    given_flags = {}
    if command == "sweep":
        parameter = draw(st.sampled_from(cli._spec(command, "parameter")["choices"]))
        given_flags["parameter"] = parameter
        if parameter == "loop_shape":
            given_flags["drive"] = [drive_path() for _ in range(draw(st.integers(1, 2)))]
        else:
            grid = draw(st.lists(moderate, min_size=1, max_size=3, unique=True))
            given_flags["grid"] = ",".join(map(repr, sorted(grid)))
    else:
        constructions = {
            "design": ("target_phase",),
            "gate": ("target_phase", "gamma0", "gamma", "omega_over_delta", "drive"),
        }.get(command, ("omega_over_delta", "drive"))
        key = draw(st.sampled_from(constructions))
        if key == "drive":
            given_flags["drive"] = [drive_path()]
        elif key == "target_phase":
            given_flags[key] = -draw(setting)
        else:
            given_flags[key] = draw(setting)
        if key == "gamma":
            given_flags["conditioner"] = "jy"

    mode = table.mode(given_flags)
    flags = table.modes[mode]

    def keeps_mode(key):
        # A selector reads which flags are given; a path stands in for any value.
        try:
            return table.mode({**given_flags, key: "given.json"}) == mode
        except ConfigError:
            return False

    def flag_item(key):
        return True if cli._spec(command, key).get("action") == "store_true" else None

    # Flags outside the mode that leave the construction as it is.
    outside = [key for key in table.flags if key not in flags and keeps_mode(key)]
    refusal = None
    if outside and draw(st.integers(0, 4)) == 0:
        key = draw(st.sampled_from(outside))
        checked = cli._spec(command, key).get("type") is float
        given_flags[key] = draw(moderate) if checked else flag_item(key)
        refusal = f"error: {cli._flag(key)} does not apply to {mode}\n"
    else:
        # Up to three flags with any value; the oracle's default size is past the bound.
        for key in draw(st.lists(st.sampled_from(flags), unique=True, max_size=3)):
            given_flags[key] = flag_item(key)
    if refusal is None and (command == "oracle-verify" or given_flags.get("oracle")):
        given_flags.setdefault("n_max", None)
        given_flags.setdefault("steps", None)
    argv = [command]
    for key, item in given_flags.items():
        item = value(key) if item is None else item
        flag = cli._flag(key)
        if item is True:
            argv.append(flag)
            continue
        for entry in item if key == "drive" else [item]:
            argv += [f"{flag}={entry}"] if draw(st.booleans()) else [flag, str(entry)]
    if draw(st.booleans()):
        argv.append(f"--format={draw(st.sampled_from(('json', 'csv')))}")

    if refusal is None and draw(st.integers(0, 3)) == 3:
        config = draw(
            st.fixed_dictionaries(
                {},
                optional={
                    "schema_version": st.sampled_from((1, 1, 2)),
                    "command": st.sampled_from((command, command, "phase")),
                },
            )
        )
        # Any of the command's keys, so a config may switch or leave the mode.
        keys = [key for key in (*table.flags, "format") if key not in INT_BOUNDS]
        for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=3)):
            spec = cli._spec(command, key)
            if draw(st.integers(0, 3)) == 3:
                config[key] = draw(wrong_types)
            elif spec.get("action") == "store_true":
                config[key] = draw(st.booleans())
            elif key == "drive":
                form = draw(st.sampled_from(("path", "list", "inline")))
                if form == "inline":
                    config[key] = draw(documents)
                else:
                    config[key] = drive_path() if form == "path" else value(key)
            elif "choices" in spec:
                config[key] = draw(st.sampled_from((*spec["choices"], "JZ", "jy", "bogus")))
            elif key == "grid":
                config[key] = draw(st.lists(anything, max_size=3))
            else:
                config[key] = value(key)
        if draw(st.integers(0, 5)) == 5:
            config["unknown_key"] = 1
        files["config.json"] = config
        argv.append("--config=config.json")
    return argv, files, refusal


# Words that no flag takes as a number or as a choice.
junk_words = st.sampled_from(("x", "1,2", "--", "JZ", "0x1p", "", "one two"))


@st.composite
def refused_argv(draw):
    """An argv the parser refuses, maybe with a valid ``--format`` beside it.

    It has an unknown flag, a value that is not a number or not a choice, or
    no command.
    """
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    keys = cli._COMMANDS[command].flags + cli._COMMON_FLAGS
    specs = {key: cli._spec(command, key) for key in keys}
    kind = draw(st.sampled_from(("unknown flag", "not a number", "not a choice", "no command")))
    if kind == "no command":
        return draw(st.sampled_from(([], ["--format=json"], ["--bogus"])))
    if kind == "unknown flag":
        words = ("--bogus", "--n_max", "--conditioner", "-x", "extra")
        taken = {cli._flag(key) for key in keys}
        refused = draw(st.sampled_from([word for word in words if word not in taken]))
    else:
        wanted = "choices" if kind == "not a choice" else "type"
        key = draw(st.sampled_from(sorted(key for key, spec in specs.items() if wanted in spec)))
        refused = f"{cli._flag(key)}={draw(junk_words)}"
    argv = [command, refused]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(1, 2)), "--format=csv")
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@FUZZ
@given(runs())
def test_every_argv_meets_the_exit_contract(run):
    argv, files, refusal = run
    with tempfile.TemporaryDirectory() as directory:
        for name, document in files.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
                json.dump(document, handle)
        here = os.getcwd()
        os.chdir(directory)
        try:
            code, out, err = _run(argv)
        finally:
            os.chdir(here)

    assert code in (cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_NUMERICAL), (argv, code)
    assert "expected one argument" not in err, (argv, err)
    if refusal is not None:
        assert (code, out, err) == (cli.EXIT_INVALID, "", refusal), argv
        return
    if code != cli.EXIT_OK:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert err.endswith("\n"), (argv, err)
        return
    assert err == "", (argv, err)
    flag_format = [item.split("=", 1)[1] for item in argv if item.startswith("--format=")]
    if (flag_format or [files.get("config.json", {}).get("format")])[0] == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and all(len(row) == len(rows[0]) for row in rows), (argv, out)
    else:
        json.loads(out, parse_constant=_reject_constant)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(refused_argv())
def test_refused_argv_returns_two_with_one_line(argv):
    code, out, err = _run(argv)
    assert code == cli.EXIT_INVALID, (argv, code, err)
    assert out == "", (argv, out)
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
