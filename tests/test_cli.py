"""End-to-end CLI tests: argument handling, config layering, outputs, exits."""

import gc
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loopgate import cli, drives, errors, robustness
from loopgate._serialize import json_text, key_value_csv, sweep_csv
from loopgate.cli import EXIT_INVALID, EXIT_NUMERICAL, EXIT_OK, main
from loopgate.oracle import default_space
from loopgate.phasespace import analytic_total_phase

HALF_PI = math.pi / 2.0
SQUARE_SIDE = math.sqrt(math.pi) / 2.0

CIRCLE_DOC = {
    "schema_version": 1,
    "conditioner": "odd-parity-projector",
    "segments": [
        {"duration": 2.0 * math.pi, "amplitude": [-0.5, 0.0], "frequency": 1.0}
    ],
}

SQUARE_DOC = {
    "schema_version": 1,
    "conditioner": "odd-parity-projector",
    "segments": [
        {"duration": 1.0, "amplitude": [-SQUARE_SIDE, 0.0]},
        {"duration": 1.0, "amplitude": [0.0, SQUARE_SIDE]},
        {"duration": 1.0, "amplitude": [SQUARE_SIDE, 0.0]},
        {"duration": 1.0, "amplitude": [0.0, -SQUARE_SIDE]},
    ],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_with_circle(capsys, tmp_path, argv, config=None):
    """Run argv, where "{circle}" stands for the path of a file holding CIRCLE_DOC."""
    circle = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    argv = [circle if arg == "{circle}" else arg for arg in argv]
    if config is not None:
        argv.append(f"--config={write_doc(tmp_path, 'config.json', config)}")
    return run_cli(capsys, *argv)


# ---------------------------------------------------------------------------
# phase


def test_phase_headline(capsys):
    report = run_json(capsys, "phase", "--omega-over-delta", "0.5", "--periods", "1")
    analytic = report["analytic"]
    assert analytic["total"] == pytest.approx(-HALF_PI, abs=1e-9)
    assert analytic["geometric"] == pytest.approx(HALF_PI, abs=1e-9)
    assert analytic["dynamic"] == pytest.approx(-math.pi, abs=1e-9)
    assert analytic["eta"] == pytest.approx(-2.0, abs=1e-9)
    assert analytic["classification"] == "unconventional"
    assert report["closed"] is True
    assert report["method"] == "closed-form"
    assert report["oracle"] is None
    assert report["schema_version"] == 1


def test_phase_zero_drive_is_all_zero(capsys):
    report = run_json(capsys, "phase", "--omega-over-delta", "0")
    analytic = report["analytic"]
    assert analytic["total"] == 0.0
    assert analytic["geometric"] == 0.0
    assert analytic["dynamic"] == 0.0
    assert analytic["eta"] is None


def test_phase_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "phase", "--omega-over-delta", "0.5", "--format", "csv"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "key,value"
    cells = dict(line.split(",", 1) for line in lines[1:])
    assert float(cells["analytic.total"]) == pytest.approx(-HALF_PI, abs=1e-9)
    assert cells["closed"] == "true"


def test_phase_open_loop_reporting(capsys):
    report = run_json(
        capsys, "phase", "--omega-over-delta", "0.5", "--periods", "0.5"
    )
    assert report["closed"] is False
    assert report["closure_residual"] == pytest.approx(1.0, abs=1e-9)
    assert report["analytic"]["total"] == pytest.approx(-math.pi / 4.0, abs=1e-9)


def test_phase_require_closed_rejects_open_loop(capsys):
    code, out, err = run_cli(
        capsys,
        "phase",
        "--omega-over-delta",
        "0.5",
        "--periods",
        "0.5",
        "--require-closed",
    )
    assert code == EXIT_INVALID
    assert out == ""
    assert "residual" in err


def test_phase_with_oracle(capsys):
    report = run_json(
        capsys,
        "phase",
        "--omega-over-delta",
        "0.5",
        "--oracle",
        "--n-max",
        "16",
        "--steps",
        "2000",
    )
    oracle = report["oracle"]
    assert oracle["spin_state"] == "du"
    assert oracle["total"] == pytest.approx(-HALF_PI, abs=1e-4)
    assert oracle["deviation"]["total"] < 1e-4
    assert oracle["leakage"] < 1e-10


def test_phase_oracle_truncation_exit(capsys):
    code, out, err = run_cli(
        capsys,
        "phase",
        "--omega-over-delta",
        "1.0",
        "--oracle",
        "--n-max",
        "8",
        "--steps",
        "500",
    )
    assert code == EXIT_NUMERICAL
    assert "n_max" in err


def test_phase_drive_document(capsys, tmp_path):
    path = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    report = run_json(capsys, "phase", "--drive", path)
    assert (report["method"], report["samples"]) == ("closed-form", None)
    assert report["analytic"]["total"] == pytest.approx(-HALF_PI, abs=1e-11)
    assert report["analytic"]["eta"] == pytest.approx(-2.0, abs=1e-11)


def test_phase_document_rejects_inline_parameters(capsys, tmp_path):
    path = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    code, _, err = run_cli(
        capsys, "phase", "--drive", path, "--omega-over-delta", "0.5"
    )
    assert code == EXIT_INVALID
    assert err == "error: --omega-over-delta does not apply to document drives\n"


def test_phase_oracle_settings_require_oracle_flag(capsys):
    code, _, err = run_cli(
        capsys, "phase", "--omega-over-delta", "0.5", "--n-max", "16"
    )
    assert code == EXIT_INVALID
    assert err == "error: --n-max does not apply without --oracle\n"


# ---------------------------------------------------------------------------
# gate


def test_gate_designed_cz(capsys):
    report = run_json(
        capsys,
        "gate",
        "--target-phase",
        str(-HALF_PI),
        "--correct-to-cz",
    )
    assert report["construction"] == "designed-drive"
    assert report["corrected_to_cz"] is True
    assert report["correction_theta"] == pytest.approx(HALF_PI, abs=1e-9)
    assert report["fidelity_vs_cz"] == pytest.approx(1.0, abs=1e-10)
    assert report["gate"]["phases"] == pytest.approx(
        [0.0, 0.0, 0.0, math.pi], abs=1e-9
    )
    assert report["nontrivial"] is True
    assert report["design"]["omega_over_delta"] == pytest.approx(0.5, abs=1e-12)
    du = report["decompositions"][1]
    assert du["state"] == "du"
    assert du["eta"] == pytest.approx(-2.0, abs=1e-9)


def test_gate_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "gate")
    assert code == EXIT_INVALID
    assert "exactly one" in err
    code, _, err = run_cli(
        capsys, "gate", "--target-phase", "-1.0", "--gamma0", "-1.0"
    )
    assert code == EXIT_INVALID


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("gate", "--omega-over-delta", "0.5", "--gamma", "-0.3"),
            "choose exactly one construction: --target-phase, --gamma0, --gamma, "
            "or a drive (--drive FILE / --omega-over-delta)",
        ),
        (
            ("gate", "--target-phase", "-1.0", "--tau", "3.0"),
            "--tau does not apply to the designed construction",
        ),
        (
            ("gate", "--target-phase", "-1.0", "--conditioner", "jz"),
            "--conditioner does not apply to the designed construction",
        ),
        (
            ("gate", "--gamma0", "0.5", "--delta", "2.0"),
            "--delta does not apply to the direct-phase construction",
        ),
        (
            ("gate", "--gamma0", "0.5", "--samples", "101"),
            "--samples does not apply to the direct-phase construction",
        ),
        (
            ("gate", "--gamma", "-0.3", "--phi-l", "0.1"),
            "--phi-l does not apply to the squared-collective-y construction",
        ),
        (
            ("gate", "--gamma", "-0.3", "--closure-tolerance", "1e-6"),
            "--closure-tolerance does not apply to the squared-collective-y construction",
        ),
        (
            ("gate", "--gamma", "-0.3", "--correct-to-cz"),
            "--correct-to-cz does not apply to the squared-collective-y construction",
        ),
        (
            ("gate", "--drive", "{circle}", "--omega-over-delta", "0.5"),
            "--omega-over-delta does not apply to document drives",
        ),
    ],
)
def test_gate_rejection_messages(capsys, tmp_path, argv, message):
    code, out, err = run_with_circle(capsys, tmp_path, argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"error: {message}\n"


def test_gate_direct_gamma0_jz(capsys):
    report = run_json(
        capsys, "gate", "--conditioner", "jz", "--gamma0", "0.5"
    )
    assert report["construction"] == "direct-phases"
    assert report["gate"]["phases"] == pytest.approx([2.0, 0.0, 0.0, 2.0], abs=1e-12)
    assert report["nontrivial"] is True


def test_gate_zero_gamma0_is_trivial(capsys):
    report = run_json(capsys, "gate", "--conditioner", "jz", "--gamma0", "0")
    assert report["nontrivial"] is False
    assert report["gate"]["phases"] == [0.0, 0.0, 0.0, 0.0]


def test_gate_jy_squared(capsys):
    report = run_json(capsys, "gate", "--conditioner", "jy", "--gamma", "-0.3")
    assert report["construction"] == "jy-exponential"
    assert report["gate"]["phases"] is None
    assert report["nontrivial"] is None
    assert report["decompositions"] is None


def test_gate_gamma_needs_jy_conditioner(capsys):
    code, _, err = run_cli(capsys, "gate", "--conditioner", "jz", "--gamma", "-0.3")
    assert code == EXIT_INVALID
    code, _, err = run_cli(
        capsys, "gate", "--conditioner", "jy", "--gamma", "-0.3", "--correct-to-cz"
    )
    assert code == EXIT_INVALID


def test_gate_from_drive_document(capsys, tmp_path):
    path = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    report = run_json(capsys, "gate", "--drive", path)
    assert report["construction"] == "drive-document"
    assert report["gate"]["phases"][1] == pytest.approx(-HALF_PI, abs=1e-9)


def _count_gamma0_calls(monkeypatch) -> list:
    """The argument tuples of the gamma0 quadratures that runs make, through any binding."""
    calls = []
    quadrature = drives.gamma0

    def counted(*args, **kwargs):
        calls.append(args)
        return quadrature(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "loopgate" or name.startswith("loopgate."):
            for attribute, value in list(vars(module).items()):
                if value is quadrature:
                    monkeypatch.setattr(module, attribute, counted)
    return calls


@pytest.fixture
def gate_calls(monkeypatch):
    """The gamma0 quadratures a run makes, and the loop phases its diagonal gates take."""
    calls = {"gamma0": _count_gamma0_calls(monkeypatch), "loop_phase": []}
    real_diagonal_gate = cli.diagonal_gate

    def recording_diagonal_gate(conditioner, gamma0_value):
        calls["loop_phase"].append(gamma0_value)
        return real_diagonal_gate(conditioner, gamma0_value)

    monkeypatch.setattr(cli, "diagonal_gate", recording_diagonal_gate)
    return calls


def test_gate_takes_a_document_loop_phase_in_closed_form(capsys, tmp_path, gate_calls):
    # A drive document's loop phase is the segment sum of drives.loop_phase;
    # no command runs the gamma0 quadrature.
    path = write_doc(tmp_path, "square.json", SQUARE_DOC)
    report = run_json(capsys, "gate", "--drive", path)
    assert gate_calls["gamma0"] == []
    assert gate_calls["loop_phase"] == [drives.loop_phase(cli._load_drive_file(path))]
    assert report["gamma0"] == json.loads(json_text({"g": gate_calls["loop_phase"][0]}))["g"]


@pytest.mark.parametrize(
    "argv, ratio, delta, periods",
    [
        (("gate", "--omega-over-delta", "0.5", "--conditioner", "jz"), 0.5, 1.0, 1.0),
        (("gate", "--omega-over-delta=-0.7", "--delta=2", "--periods=2"), -0.7, 2.0, 2.0),
    ],
)
def test_constant_gate_takes_the_closed_form(capsys, gate_calls, argv, ratio, delta, periods):
    report = run_json(capsys, *argv)
    closed_form = analytic_total_phase(ratio, delta, periods * (2.0 * math.pi / delta))
    assert gate_calls["gamma0"] == []
    assert gate_calls["loop_phase"] == [closed_form]
    assert report["gamma0"] == json.loads(json_text({"gamma0": closed_form}))["gamma0"]


@pytest.mark.parametrize("target", ["-1.0", "-1.5707963267948966", "-20"])
def test_designed_gate_takes_the_phase_its_design_predicts(capsys, gate_calls, target):
    report = run_json(capsys, "gate", "--target-phase", target, "--delta", "1.5")
    design = run_json(capsys, "design", "--target-phase", target, "--delta", "1.5")
    params = drives.design_constant_drive(float(target), 1.5)
    assert gate_calls["gamma0"] == []
    assert gate_calls["loop_phase"] == [
        analytic_total_phase(params.ratio, params.delta, params.period)
    ]
    assert report["gamma0"] == design["predicted"]["total"]


def test_gate_positive_target_phase_rejected(capsys):
    code, _, err = run_cli(capsys, "gate", "--target-phase", "0.5")
    assert code == EXIT_INVALID


# ---------------------------------------------------------------------------
# oracle-verify


def test_oracle_verify_state_only(capsys):
    report = run_json(
        capsys,
        "oracle-verify",
        "--omega-over-delta",
        "0.5",
        "--n-max",
        "24",
        "--steps",
        "4000",
        "--state-only",
    )
    assert report["pass"] is True
    assert report["max_deviation"] < 1e-4
    assert report["displacement_form_residual"] is None
    du = report["per_state"][1]
    assert du["state"] == "du"
    assert du["analytic"]["total"] == pytest.approx(-HALF_PI, abs=1e-9)
    assert du["oracle"]["total"] == pytest.approx(-HALF_PI, abs=1e-4)


def test_oracle_verify_with_displacement_form(capsys):
    report = run_json(
        capsys,
        "oracle-verify",
        "--omega-over-delta",
        "0.5",
        "--n-max",
        "32",
        "--steps",
        "8000",
    )
    assert report["pass"] is True
    assert report["displacement_form_residual"] < 1e-4
    assert report["oracle"]["unitarity_defect"] < 1e-9


def test_oracle_steps_a_tiny_detuning_as_it_steps_a_unit_one(capsys):
    # At delta 1e-300 the drive is 5e-301 but each step turns the state by
    # |g| dt = 1.6e-3, as at delta 1: the oracle must not read it as zero.
    tone = ("--omega-over-delta", "0.5", "--steps", "2000")

    def oracle_phases(delta):
        verify = run_json(capsys, "oracle-verify", *tone, "--delta", delta, "--n-max", "40")
        assert verify["pass"] is True
        phase = run_json(capsys, "phase", *tone, "--delta", delta, "--oracle", "--n-max", "16")
        return phase["oracle"]

    tiny, unit = oracle_phases("1e-300"), oracle_phases("1")
    for name in ("total", "dynamic"):
        assert tiny[name] == pytest.approx(unit[name], abs=1e-11)


def test_oracle_verify_tight_tolerance_fails(capsys):
    code, out, err = run_cli(
        capsys,
        "oracle-verify",
        "--omega-over-delta",
        "0.5",
        "--n-max",
        "16",
        "--steps",
        "1000",
        "--state-only",
        "--tolerance",
        "1e-9",
    )
    assert code == EXIT_NUMERICAL
    report = json.loads(out)
    assert report["pass"] is False
    assert err == (
        f"error: phase deviation {report['max_deviation']:.3e} exceeds the tolerance 1e-09\n"
    )


def test_oracle_verify_truncation_limited_residual_says_so(capsys):
    # At |alpha| up to 1.2 the displacement form of levels up to n_max/2 = 16
    # is spoilt by the truncation at 32; the same run at n_max 64 passes.
    argv = ("oracle-verify", "--omega-over-delta", "0.6", "--n-max", "32", "--steps", "1000")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_NUMERICAL
    report = json.loads(out)
    assert report["pass"] is False
    assert report["max_deviation"] <= report["tolerance"]
    residual = report["displacement_form_residual"]
    assert residual > 1e-4
    assert err.count("\n") == 1 and err.startswith("error: displacement-form residual ")
    assert f"{residual:.3e} exceeds the tolerance 0.0001" in err
    assert "truncation at n_max = 32" in err and "larger --n-max" in err
    assert "phase deviation" not in err
    code, out, err = run_cli(capsys, *argv[:4], "64", *argv[5:])
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["displacement_form_residual"] < 1e-4


def test_import_leaves_scipy_out():
    # scipy is a test-only reference; the package must not load it.
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import sys, loopgate.cli; "
        "print(loopgate.cli.__file__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    where, loaded = result.stdout.splitlines()
    assert Path(where).resolve() == Path(cli.__file__).resolve()
    assert loaded == "[]"


def test_oracle_verify_initial_fock(capsys):
    report = run_json(
        capsys,
        "oracle-verify",
        "--omega-over-delta",
        "0.2",
        "--n-max",
        "32",
        "--steps",
        "3000",
        "--initial-fock",
        "1",
        "--state-only",
    )
    assert report["pass"] is True
    assert report["oracle"]["initial_fock"] == 1


def test_oracle_verify_rejects_jy(capsys):
    code, out, err = run_cli(
        capsys, "oracle-verify", "--omega-over-delta", "0.5", "--conditioner", "jy"
    )
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error: argument --conditioner: invalid choice: 'jy'")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_oracle_verify_integrates_no_gamma0(capsys, monkeypatch, tmp_path):
    # Constant-drive flags name a single tone, and a drive document is a sum
    # of tones and pulses: both loop phases have a closed form.
    calls = _count_gamma0_calls(monkeypatch)
    common = ("--n-max", "16", "--steps", "1000", "--state-only")
    constant = run_json(capsys, "oracle-verify", "--omega-over-delta", "0.5", *common)
    # The report prints 12 significant digits.
    exact = analytic_total_phase(0.5, 1.0, 2.0 * math.pi)
    assert constant["gamma0"] == pytest.approx(exact, abs=1e-11)
    path = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    document = run_json(capsys, "oracle-verify", "--drive", path, *common)
    assert calls == []
    assert document["gamma0"] == constant["gamma0"]


def test_non_diagonal_conditioner_rejected_for_diagonal_constructions(capsys, tmp_path):
    path = write_doc(tmp_path, "jy.json", dict(CIRCLE_DOC, conditioner="jy"))
    for argv in (["oracle-verify", "--drive", path], ["gate", "--conditioner", "jy", "--gamma0", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INVALID
        assert out == ""
        assert "'jy' is not diagonal" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_eta_invariance_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--parameter",
        "omega_over_delta",
        "--grid",
        "0.3,0.5",
        "--samples",
        "100001",
        "--format",
        "csv",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    rows = [line for line in lines if line.startswith("row,")]
    assert len(rows) == 2
    summary = {
        line.split(",")[1]: line.split(",")[2]
        for line in lines
        if line.startswith("summary,")
    }
    assert float(summary["max_abs_eta_plus_2"]) < 1e-6


def test_sweep_timing_error_slope(capsys):
    report = run_json(
        capsys,
        "sweep",
        "--parameter",
        "timing_error",
        "--grid",
        "0.001,0.00215,0.00464,0.01",
    )
    assert report["metadata"]["loglog_slope"] > 2.5
    assert all(row["eta"] == pytest.approx(-2.0, abs=1e-9) for row in report["rows"])


def test_sweep_time_scan(capsys):
    period = 2.0 * math.pi
    report = run_json(
        capsys,
        "sweep",
        "--parameter",
        "time",
        "--grid",
        f"0,{period / 2.0},{period}",
    )
    assert report["parameter"] == "time"
    totals = [row["total"] for row in report["rows"]]
    assert totals[0] == 0.0
    assert totals[1] == pytest.approx(-math.pi / 4.0, abs=1e-8)
    assert totals[2] == pytest.approx(-HALF_PI, abs=1e-8)


def test_sweep_time_scan_samples_enough_for_its_tolerance(capsys):
    # At r = 1 over one period, 200,001 samples miss the geometric phase by
    # 1.03e-9, past the 1e-9 tolerance: the scan used to exit 3.
    argv = ("sweep", "--parameter", "time", "--grid", "6.283185307179586",
            "--omega-over-delta", "1.0")
    report = run_json(capsys, *argv)
    assert report["metadata"]["samples"] > 200_001
    assert report["metadata"]["max_analytic_relation_residual"] < 1e-9
    assert report["rows"][0]["total"] == pytest.approx(-2.0 * math.pi, abs=1e-9)
    # An explicit --samples is used as given.
    code, _, err = run_cli(capsys, *argv, "--samples", "200001")
    assert code == EXIT_NUMERICAL
    assert "geometric residual 1.034e-09" in err


@pytest.mark.parametrize(
    "argv, note",
    [
        (("--samples", "1001"),
         "geometric residual 4.167e-08, dynamic residual 3.506e-08; 1001 samples bound the "
         "chord error by 4.2e-08, --samples 200001 or more holds 1e-09"),
        (("--samples", "200001", "--analytic-tolerance", "1e-15"),
         "geometric residual 1.042e-12, dynamic residual 8.765e-13; 200001 samples bound the "
         "chord error by 1e-12, --samples 12909946 or more holds 1e-15, above the cap 1000001"),
    ],
)
def test_sweep_time_scan_names_the_samples_its_tolerance_needs(capsys, argv, note):
    # Quadrature error, not the phase relations, fails these rows: the note
    # gives the chord bound at the given count and the count that holds it.
    code, out, err = run_cli(capsys, "sweep", "--parameter", "time", "--grid", "1", *argv)
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert err == f"error: analytic phase relations violated at t=1.0: {note}\n"


def test_sweep_time_scan_past_the_sample_cap_is_invalid(capsys):
    code, out, err = run_cli(capsys, "sweep", "--parameter", "time",
                             "--grid", "62.83185307179586", "--omega-over-delta", "3.0")
    assert code == EXIT_INVALID
    assert out == ""
    assert "--samples" in err and "t = 62.8319" in err
    needed = float(err.split(" needs ")[1].split()[0])
    assert needed > 1_000_001


def test_sweep_time_beyond_window_rejected(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--parameter", "time", "--grid", "100.0"
    )
    assert code == EXIT_INVALID


@pytest.mark.parametrize("t, ratio", [("0.002", "100000"), ("1e-5", "1e6")])
def test_sweep_time_scan_of_a_large_loop_at_a_small_time(capsys, t, ratio):
    # r**2 = 1e10 or more scales the cancellation of sin(x) - x at x = delta t
    # past the 1e-9 tolerance unless the closed form keeps its digits.
    report = run_json(capsys, "sweep", "--parameter", "time", "--grid", t,
                      "--omega-over-delta", ratio)
    assert report["metadata"]["max_analytic_relation_residual"] < 1e-9


def test_cli_sweeps_report_the_library_defaults(capsys, tmp_path):
    # Flags left out are not passed, so each sweep runs at its own defaults.
    circle = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    study = run_json(capsys, "sweep", "--parameter", "loop_shape", "--drive", circle)
    agreement = inspect.signature(robustness.area_invariance_study).parameters
    assert study["metadata"]["samples"] == robustness.AREA_STUDY_SAMPLES
    assert study["metadata"]["agreement_tolerance"] == agreement["agreement_tolerance"].default
    eta = run_json(capsys, "sweep", "--parameter", "phi_l", "--grid", "0")
    assert eta["metadata"]["samples"] == robustness.ETA_SWEEP_SAMPLES
    scan = run_json(capsys, "sweep", "--parameter", "time", "--grid", "1", "--oracle",
                    "--n-max", "24", "--steps", "2000")
    assert scan["metadata"]["tolerances"] == {
        "analytic": robustness.NONCYCLIC_ANALYTIC_TOL,
        "oracle": robustness.NONCYCLIC_ORACLE_TOL,
    }
    timing = run_json(capsys, "sweep", "--parameter", "timing_error", "--grid", "0", "--oracle")
    assert timing["metadata"]["oracle"] == {
        "n_max": robustness.DEFAULT_N_MAX, "steps": robustness.DEFAULT_STEPS
    }


# A one-pulse loop of duration 1e-320 closes within the default tolerance.
TINY_LOOP_DOC = {
    "schema_version": 1,
    "conditioner": "odd-parity-projector",
    "segments": [{"duration": 1e-320, "amplitude": [1.0, 0.0]}],
}


@pytest.mark.parametrize(
    "argv",
    [
        # The grid step t / 200000 underflows to 0.
        ("sweep", "--parameter", "time", "--grid", "1e-320"),
        # Exactly half a subnormal unit per step: the step underflows, but the
        # first sample rounds up to one unit, so only later samples repeat.
        ("sweep", "--parameter", "time", "--grid", "4.94066e-319"),
        # The step rounds up to two units, which puts the last but one sample past t.
        ("sweep", "--parameter", "time", "--grid", "1.5e-318"),
        ("sweep", "--parameter", "loop_shape", "--drive", "TINY"),
    ],
)
def test_sweep_grid_that_cannot_increase_is_invalid(capsys, tmp_path, argv):
    argv = [write_doc(tmp_path, "tiny.json", TINY_LOOP_DOC) if a == "TINY" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "error: times must be strictly increasing\n"


@pytest.mark.parametrize("t", ["3e-318", "1e-315", "1e-310"])
def test_sweep_time_scan_of_a_subnormal_window_that_increases(capsys, t):
    report = run_json(capsys, "sweep", "--parameter", "time", "--grid", t)
    assert report["rows"][0]["total"] == 0.0


def test_sweep_loop_shape_study(capsys, tmp_path):
    circle = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    square = write_doc(tmp_path, "square.json", SQUARE_DOC)
    report = run_json(capsys, "sweep", "--parameter", "loop_shape",
                      "--drive", circle, "--drive", square)
    assert report["metadata"]["geometric_phase_spread"] < 1e-6
    assert report["rows"][0]["geometric"] == pytest.approx(HALF_PI, abs=1e-6)
    assert report["rows"][1]["geometric"] == pytest.approx(HALF_PI, abs=1e-6)


def test_sweep_loop_shape_rejects_open_loop(capsys, tmp_path):
    doc = {
        "schema_version": 1,
        "conditioner": "odd-parity-projector",
        "segments": [{"duration": 1.0, "amplitude": [-1.0, 0.0]}],
    }
    path = write_doc(tmp_path, "open.json", doc)
    code, _, err = run_cli(capsys, "sweep", "--parameter", "loop_shape", "--drive", path)
    assert code == EXIT_INVALID
    assert "open" in err


def test_sweep_unknown_parameter_rejected_by_parser(capsys):
    code, out, err = run_cli(capsys, "sweep", "--parameter", "voltage", "--grid", "1")
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error: argument --parameter: invalid choice: 'voltage'")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_sweep_empty_grid_rejected(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--parameter", "omega_over_delta", "--grid", ""
    )
    assert code == EXIT_INVALID


def test_sweep_oracle_settings_require_flag(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep",
        "--parameter",
        "omega_over_delta",
        "--grid",
        "0.5",
        "--steps",
        "500",
    )
    assert code == EXIT_INVALID
    assert "oracle" in err


@pytest.mark.parametrize("given", ["flag", "config"])
def test_time_scan_oracle_tolerance_requires_oracle(capsys, tmp_path, given):
    argv = ["sweep", "--parameter=time", "--grid=1,2"]
    if given == "flag":
        argv.append("--oracle-tolerance=0.1")
    else:
        config = write_doc(tmp_path, "config.json", {"oracle_tolerance": 0.1})
        argv.append(f"--config={config}")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "error: --oracle-tolerance does not apply without --oracle\n"


# ---------------------------------------------------------------------------
# flags by mode: each mode reads the flags cli._COMMANDS lists for it

TIME = ("sweep", "--parameter", "time", "--grid", "1")
TIMING = ("sweep", "--parameter", "timing_error", "--grid", "0.01")
ETA = ("sweep", "--parameter", "phi_l", "--grid", "0.1")
SHAPE = ("sweep", "--parameter", "loop_shape", "--drive", "{circle}")


@pytest.mark.parametrize(
    "argv, flag, mode",
    [
        (("phase", "--omega-over-delta", "0.5"), "--samples=101", "constant drives"),
        (("gate", "--omega-over-delta", "0.5"), "--samples=101", "constant drives"),
        (("gate", "--target-phase", "-1"), "--samples=101", "the designed construction"),
        (("oracle-verify", "--omega-over-delta", "0.5"), "--samples=101", "constant drives"),
        # A document's loop phase is in closed form too.
        (("phase", "--drive", "{circle}"), "--samples=101", "document drives"),
        (("gate", "--drive", "{circle}"), "--samples=101", "document drives"),
        (("oracle-verify", "--drive", "{circle}"), "--samples=101", "document drives"),
        (TIME, "--agreement-tolerance=0.1", "time sweeps"),
        (TIME, "--closure-tolerance=0.1", "time sweeps"),
        (TIMING, "--agreement-tolerance=0.1", "timing_error sweeps"),
        (TIMING, "--closure-tolerance=0.1", "timing_error sweeps"),
        (ETA, "--agreement-tolerance=0.1", "eta sweeps"),
        (ETA, "--closure-tolerance=0.1", "eta sweeps"),
        (SHAPE, "--analytic-tolerance=0.1", "loop_shape sweeps"),
        (SHAPE, "--oracle-tolerance=0.1", "loop_shape sweeps"),
    ],
)
def test_flag_outside_its_mode_is_refused(capsys, tmp_path, argv, flag, mode):
    code, out, err = run_with_circle(capsys, tmp_path, [*argv, flag])
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"error: {flag.split('=')[0]} does not apply to {mode}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("phase", "--drive", "{circle}", "--steps=500"),
         "--steps does not apply without --oracle"),
        ((*TIME, "--n-max=16"), "--n-max does not apply without --oracle"),
        ((*TIMING, "--steps=500"), "--steps does not apply without --oracle"),
        ((*ETA, "--n-max=16"), "--n-max does not apply without --oracle"),
        ((*SHAPE, "--grid=1"), "--grid does not apply to loop_shape sweeps"),
        ((*SHAPE, "--oracle"), "--oracle does not apply to loop_shape sweeps"),
        ((*SHAPE, "--n-max=16"), "--n-max does not apply to loop_shape sweeps"),
        ((*SHAPE, "--steps=500"), "--steps does not apply to loop_shape sweeps"),
        ((*TIME, "--drive", "{circle}"), "--drive does not apply to time sweeps"),
        ((*TIMING, "--drive", "{circle}"), "--drive does not apply to timing_error sweeps"),
        ((*ETA, "--drive", "{circle}"), "--drive does not apply to eta sweeps"),
    ],
)
def test_mode_refusal_messages(capsys, tmp_path, argv, message):
    code, out, err = run_with_circle(capsys, tmp_path, list(argv))
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, config",
    [(SHAPE, {"oracle": False}), (("gate", "--gamma", "-0.3"), {"correct_to_cz": False})],
)
def test_store_true_flag_set_false_in_config_is_not_given(capsys, tmp_path, argv, config):
    code, out, err = run_with_circle(capsys, tmp_path, list(argv), config)
    assert code == EXIT_OK
    assert err == ""
    assert json.loads(out)["schema_version"] == 1


@pytest.mark.parametrize(
    "argv",
    [("phase",), ("phase", "--omega-over-delta", "0.5"), ("gate",), ("gate", "--gamma0", "0.5"),
     ("oracle-verify", "--omega-over-delta", "0.5"), ("sweep", "--parameter", "loop_shape")],
)
@pytest.mark.parametrize(
    "drive, message",
    [([], "a drive list must hold one or more file paths"),
     ([1.0], "a drive list must hold one or more file paths"),
     (5, "drive must be an object, a file path, or a list of file paths")],
)
def test_malformed_config_drive_is_refused_before_the_mode_rules(
    capsys, tmp_path, argv, drive, message
):
    code, out, err = run_with_circle(capsys, tmp_path, list(argv), {"drive": drive})
    assert (code, out, err) == (EXIT_INVALID, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [TIME, TIMING, ETA])
def test_config_drive_on_a_grid_sweep_is_refused_by_mode(capsys, tmp_path, argv):
    code, out, err = run_with_circle(capsys, tmp_path, list(argv), {"drive": []})
    mode = "eta" if argv is ETA else argv[2]
    assert (code, out, err) == (
        EXIT_INVALID, "", f"error: --drive does not apply to {mode} sweeps\n"
    )


def test_false_for_a_number_flag_is_a_type_error(capsys, tmp_path):
    code, out, err = run_with_circle(
        capsys, tmp_path, ["phase", "--omega-over-delta", "0.5"], {"n_max": False}
    )
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "error: n_max must be an integer, got False\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["phase", "--conditioner", "jz"], "unrecognized arguments: --conditioner jz"),
        (["phase", "--delta", "one"], "argument --delta: invalid float value: 'one'"),
        (["phase", "--x\ny"], "unrecognized arguments: --x y"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ],
)
def test_parser_refusals_return_two_with_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("flag, explicit", [("-h5", "5"), ("-hx", "x"), ("-h=5", "5")])
def test_a_value_after_short_help_is_refused_on_every_python(capsys, flag, explicit):
    # Python 3.13's argparse alone reads "-h5" as -h and prints the help.
    code, out, err = run_cli(capsys, "sweep", flag)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"error: argument -h/--help: ignored explicit argument '{explicit}'\n"


@pytest.mark.parametrize("flag", ["-h", "-hh"])
def test_short_help_still_prints_the_help(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


# Argv that start with a command name, which cli._parse_args hands to that
# command's sub-parser alone: every command with its flags, --config and --,
# negative values, values after -h, and refusals.
ONE_PASS_ARGV = [
    ["phase", "--omega-over-delta", "0.5", "--delta", "2", "--phi-l", "0.1", "--periods", "2",
     "--tau", "1", "--require-closed", "--closure-tolerance", "1e-9", "--oracle", "--n-max", "24",
     "--steps", "1000", "--format", "csv", "--out", "report.csv"],
    ["phase", "--drive", "loop.json", "--samples", "101", "--config", "config.json"],
    ["gate", "--target-phase", "-1", "--delta", "2", "--correct-to-cz"],
    ["gate", "--gamma0", "-2.5", "--conditioner", "jz"],
    ["gate", "--gamma", "0.3", "--conditioner", "jy", "--format=json"],
    ["gate", "--drive", "a.json", "--drive", "b.json", "--tau", "2", "--samples=11"],
    ["oracle-verify", "--omega-over-delta", "0.5", "--conditioner", "jz", "--initial-fock", "1",
     "--tolerance", "1e-3", "--leakage-tolerance", "1e-5", "--state-only", "--n-max", "40"],
    ["oracle-verify", "--conditioner", "jy"],
    ["sweep", "--parameter", "time", "--grid", "1,2", "--analytic-tolerance", "1e-9",
     "--oracle-tolerance", "1e-4", "--samples", "1001"],
    ["sweep", "--parameter", "loop_shape", "--drive", "a.json", "--agreement-tolerance", "0.1"],
    ["sweep", "--parameter", "voltage"],
    ["design", "--target-phase", "-1", "--phi-l", "0.25"],
    ["design"],
    ["phase", "--config=config.json", "--omega-over-delta=0.5"],
    ["phase", "--config"],
    ["phase", "--omega-over-delta", "0.5", "--"],
    ["phase", "--", "--omega-over-delta", "0.5"],
    ["sweep", "--parameter", "phi_l", "--grid", "--", "-0.5,0.5"],
    ["sweep", "--parameter", "phi_l", "--grid", "-0.5,0.5"],
    ["sweep", "--grid", "-1e-3", "--parameter", "time"],
    ["phase", "--tau", "-1"],
    ["phase", "--tau", "-1", "--omega-over-delta", "-0.5"],
    ["gate", "--gamma0", "-2.5e-3"],
    ["sweep", "-h5"],
    ["sweep", "-hx"],
    ["sweep", "-h=5"],
    ["phase", "--omega-over-delta", "0.5", "-hh5"],
    ["sweep", "--", "-h5"],
    ["phase", "--omega-over-delta", "0.5", "--bogus"],
    ["phase", "--omega-over-delta"],
    ["phase", "--tau", "--oracle"],
    ["phase", "--omega-over-delta", "0.5", "--version"],
    ["gate", "--version"],
    ["phase", "--omega", "0.5", "--ora"],
    ["phase", "--o", "0.5"],
    ["phase", "--delta", "one"],
    ["phase", "--x\ny"],
    ["phase", "stray"],
    ["design", "--format", "xml"],
    ["phase", "-h"],
    ["design", "--help"],
]


def _parsed(parse, argv, capsys):
    """The namespace, the ConfigError or the SystemExit of one parse, with what it printed."""
    try:
        outcome = vars(parse(list(argv)))
    except errors.ConfigError as exc:
        outcome = f"ConfigError: {exc}"
    except SystemExit as exc:
        outcome = f"SystemExit: {exc.code}"
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("argv", ONE_PASS_ARGV, ids=" ".join)
def test_a_command_argv_parses_in_one_pass_as_the_full_parser_parses_it(capsys, argv):
    direct = _parsed(cli._parse_args, argv, capsys)
    assert direct == _parsed(cli._PARSER.parse_args, argv, capsys)
    if isinstance(direct[0], dict):
        assert direct[0]["command"] == argv[0]


def test_only_an_argv_that_names_a_command_skips_the_full_parser(capsys, monkeypatch):
    main(["design", "--target-phase", "-1"])
    capsys.readouterr()
    full = []
    real_parse_args = cli._PARSER.parse_args

    def counting_parse_args(argv):
        full.append(argv)
        return real_parse_args(argv)

    monkeypatch.setattr(cli._PARSER, "parse_args", counting_parse_args)
    assert main(["design", "--target-phase", "-1"]) == EXIT_OK
    assert full == []
    for argv, code in (([], EXIT_INVALID), (["bogus"], EXIT_INVALID), (["--version"], 0),
                       (["-h"], 0), (["--", "phase"], EXIT_INVALID)):
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        assert full[-1] == argv


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["time", "--grid", "5e-324"], EXIT_INVALID, "times must be strictly increasing"),
        (["time", "--grid", "5e-324", "--samples", "2"], EXIT_OK, None),
        (
            ["time", "--grid", "1e-300", "--omega-over-delta", "1e154"],
            EXIT_INVALID,
            "Hamiltonian expectation produced non-finite values",
        ),
        (
            ["phi_l", "--grid", "0", "--omega-over-delta", "1e300", "--delta", "1e-300"],
            EXIT_INVALID,
            "geometric phase overflows: the chord sum of the path is not finite",
        ),
        (
            ["omega_over_delta", "--grid", "1.7e308", "--delta", "1e-300"],
            EXIT_INVALID,
            "trajectory contains non-finite samples",
        ),
        (
            ["omega_over_delta", "--grid", "1e300", "--samples", "4096"],
            EXIT_INVALID,
            "omega_d^2 overflows at omega_d = 1e+300",
        ),
        (
            ["omega_over_delta", "--grid", "1e154,1e155", "--samples", "4096"],
            EXIT_INVALID,
            "an eta sweep needs an odd number of samples, got 4096",
        ),
        (["delta", "--grid", "1e-300,1e300", "--omega-over-delta", "1e-150"], EXIT_OK, None),
        (["delta", "--grid", "1e-10,1,1e10"], EXIT_OK, None),
        (
            ["delta", "--grid", "5e-324"],
            EXIT_INVALID,
            "detuning 4.94066e-324 is too small: its loop period 2*pi/delta overflows",
        ),
    ],
)
def test_float_edge_sweeps_keep_their_exit_and_message(capsys, argv, code, message):
    result, out, err = run_cli(capsys, "sweep", "--parameter", *argv)
    assert result == code
    if message is None:
        assert err == "" and json.loads(out)["rows"]
    else:
        assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--parameter", "phi_l", "--grid", "-0.5,0.5"],
        ["sweep", "--parameter", "omega_over_delta", "--grid", "-1e-3,2E+0"],
        ["phase", "--omega-over-delta", "-1e-3"],
        ["phase", "--omega-over-delta", "0.5", "--phi-l", "-1"],
        ["gate", "--gamma0", "-.25"],
        ["sweep", "--parameter", "time", "--grid", "-1e-3"],
    ],
)
def test_a_negative_value_after_a_separate_flag_is_its_value(capsys, argv):
    # argparse alone reads "-0.5,0.5" or "-1e-3" as a flag and refuses the
    # argv with "expected one argument"; the value must act as "--flag=value".
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    expected = run_cli(capsys, *joined)
    assert run_cli(capsys, *argv) == expected
    assert "expected one argument" not in expected[2]


@pytest.mark.parametrize("argv", [["--grid", "-x"], ["--grid", "--samples"], ["--grid", "-1,x"]])
def test_a_flag_like_value_after_a_separate_flag_is_still_refused(capsys, argv):
    code, out, err = run_cli(capsys, "sweep", "--parameter", "phi_l", *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "error: argument --grid: expected one argument\n"


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("parameter", ["omega_over_delta", "phi_l", "delta"])
def test_eta_sweep_refuses_an_even_sample_count(capsys, tmp_path, given, parameter):
    argv = ["sweep", f"--parameter={parameter}", "--grid=0.5,1"]
    if given == "flag":
        argv += ["--samples", "1000"]
    else:
        argv.append(f"--config={write_doc(tmp_path, 'config.json', {'samples': 1000})}")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "error: an eta sweep needs an odd number of samples, got 1000\n"
    # One more sample runs.
    assert run_cli(capsys, *argv[:3], "--samples=1001")[0] == EXIT_OK


# ---------------------------------------------------------------------------
# design


def test_design_round_trip(capsys):
    report = run_json(capsys, "design", "--target-phase", str(-HALF_PI))
    assert report["omega_over_delta"] == pytest.approx(0.5, abs=1e-12)
    assert report["round_trip_error"] < 1e-12
    assert report["predicted"]["eta"] == pytest.approx(-2.0, abs=1e-12)


def test_design_rejects_positive_target(capsys):
    code, _, err = run_cli(capsys, "design", "--target-phase", "1.0")
    assert code == EXIT_INVALID


def test_design_requires_target(capsys):
    code, _, err = run_cli(capsys, "design")
    assert code == EXIT_INVALID


# ---------------------------------------------------------------------------
# config files and output handling


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = {
        "schema_version": 1,
        "command": "phase",
        "omega_over_delta": 0.5,
        "periods": 1.0,
    }
    path = write_doc(tmp_path, "cfg.json", cfg)
    report = run_json(capsys, "phase", "--config", path)
    assert report["analytic"]["total"] == pytest.approx(-HALF_PI, abs=1e-9)


def test_cli_flag_overrides_config(capsys, tmp_path):
    cfg = {"schema_version": 1, "command": "phase", "omega_over_delta": 0.5}
    path = write_doc(tmp_path, "cfg.json", cfg)
    report = run_json(
        capsys, "phase", "--config", path, "--omega-over-delta", "0.25"
    )
    assert report["analytic"]["total"] == pytest.approx(
        -2.0 * math.pi * 0.0625, abs=1e-9
    )


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = {"schema_version": 1, "command": "phase", "volume": 11}
    path = write_doc(tmp_path, "cfg.json", cfg)
    code, _, err = run_cli(capsys, "phase", "--config", path)
    assert code == EXIT_INVALID
    assert "volume" in err


def test_config_command_mismatch_rejected(capsys, tmp_path):
    cfg = {"schema_version": 1, "command": "gate", "gamma0": 0.0}
    path = write_doc(tmp_path, "cfg.json", cfg)
    code, _, err = run_cli(capsys, "phase", "--config", path)
    assert code == EXIT_INVALID


def test_config_inline_drive(capsys, tmp_path):
    cfg = {"schema_version": 1, "command": "phase", "drive": CIRCLE_DOC}
    path = write_doc(tmp_path, "cfg.json", cfg)
    report = run_json(capsys, "phase", "--config", path)
    assert (report["method"], report["samples"]) == ("closed-form", None)
    assert report["analytic"]["total"] == pytest.approx(-HALF_PI, abs=1e-11)


def test_out_writes_file_and_silences_stdout(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "phase",
        "--omega-over-delta",
        "0.5",
        "--out",
        str(out_path),
    )
    assert code == EXIT_OK
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["analytic"]["total"] == pytest.approx(-HALF_PI, abs=1e-9)


def test_repeated_runs_are_byte_identical(capsys, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    for path in (first, second):
        argv = [
            "oracle-verify",
            "--omega-over-delta",
            "0.5",
            "--n-max",
            "16",
            "--steps",
            "1000",
            "--state-only",
            "--out",
            str(path),
        ]
        assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_repeated_calls_leave_little_cyclic_garbage(capsys):
    # main reuses one argument parser; building one per call left some 500
    # objects in reference cycles behind on every call.
    argv = ["phase", "--omega-over-delta", "0.5"]
    run_json(capsys, *argv)
    gc.collect()
    run_json(capsys, *argv)
    assert gc.collect() < 100


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "loopgate" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# invalid numbers: exit 2 with a message that names the cause

ENERGY_OVERFLOW = "the midpoint energy <H> of the drive overflows"


@pytest.mark.parametrize(
    "argv,cause",
    [
        (["phase", "--omega-over-delta", "0.5", "--tau", "nan"], "--tau must be finite"),
        (["gate", "--gamma0", "nan"], "--gamma0 must be finite"),
        (["gate", "--gamma", "inf"], "--gamma must be finite"),
        (["sweep", "--parameter", "time", "--grid", "nan"], "--grid entries must be finite"),
        (["phase", "--omega-over-delta", "1e155"], "(omega/delta)^2"),
        (["sweep", "--parameter", "omega_over_delta", "--grid=1e200"], "omega_d^2 overflows"),
        (["oracle-verify", "--omega-over-delta", "1e155"], "(omega/delta)^2"),
        # The one-period grid of a 6e-308 period has subnormal steps, and the
        # midpoint energies of a drive of strength 5e307 overflow.
        (["oracle-verify", "--omega-over-delta", "0.5", "--delta", "1e308"], ENERGY_OVERFLOW),
        (["oracle-verify", "--omega-over-delta", "0.5", "--delta", "1e307", "--state-only"],
         ENERGY_OVERFLOW),
        (["phase", "--omega-over-delta", "0.5", "--delta", "1e308", "--oracle"], ENERGY_OVERFLOW),
        (["sweep", "--parameter", "omega_over_delta", "--grid", "1e154", "--delta", "1e-10"],
         "geometric phase overflows"),
        # Sample counts that make no grid, for the eta sweep and the time scan.
        *[
            (["sweep", "--parameter", parameter, "--grid", grid, "--samples", count],
             f"need at least 2 samples, got {count}")
            for parameter, grid in (("phi_l", "0,1"), ("time", "1"))
            for count in ("1", "0", "-2")
        ],
    ],
)
def test_non_finite_and_overflowing_input_is_invalid(capsys, argv, cause):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1
    assert cause in err


@pytest.mark.parametrize(
    "argv",
    [
        ("design", "--target-phase", "-1", "--delta", "1e-310"),
        ("sweep", "--parameter", "timing_error", "--grid", "0.01", "--delta", "1e-310"),
        ("sweep", "--parameter", "delta", "--grid", "1e-310"),
        ("sweep", "--parameter", "time", "--grid", "0.5", "--delta", "1e-310"),
    ],
)
def test_detuning_whose_period_overflows_is_invalid(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1
    assert "detuning 1e-310" in err and "period 2*pi/delta overflows" in err


def test_overflowing_products_stay_silent(capsys, tmp_path):
    # Each chord product conj(alpha_k) alpha_(k+1) of this real loop has an
    # overflowing real part, but the imaginary part the phases use is 0.
    doc = {
        "schema_version": 1,
        "conditioner": "odd-parity-projector",
        "segments": [
            {"duration": 1.0, "amplitude": [1e308, 0.0]},
            {"duration": 1.0, "amplitude": [-1e308, 0.0]},
        ],
    }
    path = write_doc(tmp_path, "huge.json", doc)
    code, out, err = run_cli(capsys, "sweep", "--parameter", "loop_shape", "--drive", path)
    assert code == EXIT_OK
    assert err == ""
    row = json.loads(out)["rows"][0]
    assert (row["total"], row["geometric"], row["dynamic"]) == (0.0, 0.0, 0.0)

    code, out, err = run_cli(capsys, "sweep", "--parameter", "phi_l", "--grid", "0",
                             "--omega-over-delta", "1e308", "--delta", "1e-300")
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "error: trajectory contains non-finite samples\n"


def _one_segment(**segment):
    """CIRCLE_DOC with ``segment`` as its only segment."""
    return dict(CIRCLE_DOC, segments=[segment])


def test_each_vertex_takes_its_own_segment_on_every_command(capsys):
    # Each vertex takes f from its own segment, in the closed form and in the
    # loop_shape quadrature.  With the next segment's f at a grid vertex the
    # quadrature's values move, and a half-disk reference taken from it
    # misses its oracle by 6.3e-4.
    data = Path(__file__).parent / "data"
    half_disk, square = str(data / "half_disk.json"), str(data / "unit_square.json")
    assert run_json(capsys, "phase", "--drive", half_disk)["analytic"]["total"] == -0.785398163397
    for argv, total in (([], 2.0), (["--tau", "2"], 1.0)):
        assert run_json(capsys, "phase", "--drive", square, *argv)["analytic"]["total"] == total
    row = run_json(capsys, "sweep", "--parameter", "loop_shape", "--drive", square)["rows"][0]
    assert (row["geometric"], row["eta"]) == (-2.0, -2.0)
    code, _, err = run_cli(
        capsys, "oracle-verify", "--drive", half_disk, "--steps", "20000", "--n-max", "40"
    )
    assert (code, err) == (EXIT_OK, "")


def test_a_line_out_and_back_has_phase_zero_on_every_command(capsys, tmp_path):
    # conj(alpha) f overflows in its real part only; every phase reads the
    # imaginary part, which is 0 on a loop that encloses no area.
    doc = {
        "schema_version": 1,
        "conditioner": "jz",
        "segments": [
            {"duration": 1, "amplitude": [1e200, 0]},
            {"duration": 1, "amplitude": [-1e200, 0]},
        ],
    }
    path = write_doc(tmp_path, "line.json", doc)
    phase = run_json(capsys, "phase", "--drive", path)["analytic"]
    gate = run_json(capsys, "gate", "--drive", path)
    row = run_json(capsys, "sweep", "--parameter", "loop_shape", "--drive", path)["rows"][0]
    assert capsys.readouterr().err == ""
    assert (phase["total"], phase["geometric"], phase["dynamic"]) == (0.0, 0.0, 0.0)
    assert gate["gamma0"] == 0.0 and gate["gate"]["phases"] == [0.0] * 4
    assert (row["total"], row["geometric"], row["dynamic"]) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "cfg,cause",
    [
        ({"command": "phase", "omega_over_delta": math.nan}, "--omega-over-delta must be finite"),
        ({"command": "phase", "omega_over_delta": 10**400}, "--omega-over-delta must be finite"),
        ({"command": "sweep", "parameter": "phi_l", "grid": [0.1, math.inf]},
         "--grid entries must be finite"),
        # A drive document takes JSON numbers only, and none past the float range.
        ({"command": "phase", "drive": _one_segment(duration="1", amplitude=[1, 0])},
         "error: segment 0 duration must be a number, got '1'\n"),
        ({"command": "gate", "drive": _one_segment(duration=1, amplitude=[True, 0])},
         "error: segment 0 amplitude must be a number, got True\n"),
        ({"command": "phase", "drive": _one_segment(duration=10**400, amplitude=[1, 0])},
         "error: segment 0 is invalid: int too large to convert to float\n"),
        # Only the JSON integer 1 is a schema version, not true or 1.0.
        ({"command": "phase", "drive": dict(CIRCLE_DOC, schema_version=True)},
         "error: unsupported drive schema_version: True\n"),
    ],
)
def test_non_finite_config_number_is_invalid(capsys, tmp_path, cfg, cause):
    path = write_doc(tmp_path, "cfg.json", dict(schema_version=1, **cfg))
    code, _, err = run_cli(capsys, cfg["command"], "--config", path)
    assert code == EXIT_INVALID
    assert cause in err


def test_json_renderer_refuses_non_finite_values():
    # Backstop behind the input checks: a NaN never reaches the JSON output.
    with pytest.raises(ValueError):
        json_text({"total": math.nan})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_csv_renderers_refuse_non_finite_values(value):
    # The same backstop for both CSV encoders, in a row and in the summary.
    with pytest.raises(ValueError, match="not CSV compliant"):
        key_value_csv({"analytic": {"dynamic": value}})
    with pytest.raises(ValueError, match="not CSV compliant"):
        sweep_csv({"parameter": "phi_l", "rows": [{"value": 0.0, "total": value}], "metadata": {}})
    with pytest.raises(ValueError, match="not CSV compliant"):
        sweep_csv({"parameter": "phi_l", "rows": [{"value": 0.0}], "metadata": {"max": value}})


@pytest.mark.parametrize(
    "argv,cause",
    [
        # r^2 = 1.6e307: phi = r^2 (sin x - x) is finite, dynamic = 2 phi is not.
        (["phase", "--omega-over-delta", "4e153"], "dynamic phase is not finite (-inf)"),
        # Every energy and the chord sum are finite; the trapezoid overflows.
        (["sweep", "--parameter", "omega_over_delta", "--grid", "4e153"],
         "dynamic phase overflows: the integral of the Hamiltonian expectation is not finite"),
    ],
)
def test_overflowing_dynamic_phase_is_invalid_in_both_formats(capsys, argv, cause):
    errors = []
    for fmt in ("json", "csv"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == EXIT_INVALID
        assert out == ""
        assert err.count("\n") == 1
        assert cause in err
        errors.append(err)
    assert errors[0] == errors[1]


# ---------------------------------------------------------------------------
# closure of large loops: rounding of order eps * |alpha| is not an opening


def test_large_closed_loop_counts_as_closed(capsys):
    # exp(-2 pi i) - 1 rounds to 2.4e-16 i, so at radius 1e8 the one-period
    # endpoints lie 2.4e-8 apart, above the default 1e-9 tolerance.
    report = run_json(capsys, "gate", "--omega-over-delta", "1e8")
    assert report["constant"]["omega_over_delta"] == 1e8
    report = run_json(capsys, "phase", "--omega-over-delta", "1e8", "--require-closed")
    assert report["closed"] is True
    assert report["closure_residual"] > 1e-9


@pytest.mark.parametrize("command", [("gate",), ("phase", "--require-closed")])
def test_large_open_loop_is_still_rejected(capsys, command):
    # A millionth of a period past closure leaves the radius-1e8 loop open by
    # about 6e2, far beyond the rounding floor of about 7e-7.
    code, out, err = run_cli(
        capsys, *command, "--omega-over-delta", "1e8", "--periods", "1.000001"
    )
    assert code == EXIT_INVALID
    assert out == ""
    assert "is open at tau=" in err


# Two unit pulses at right angles: the loop ends sqrt(2) from where it began.
OPEN_DOC = {
    "schema_version": 1,
    "conditioner": "odd-parity-projector",
    "segments": [
        {"duration": 1.0, "amplitude": [1.0, 0.0]},
        {"duration": 1.0, "amplitude": [0.0, 1.0]},
    ],
}


@pytest.mark.parametrize(
    "argv, name",
    [
        (("phase", "--drive", "{open}", "--require-closed"), "loop"),
        (("gate", "--drive", "{open}"), "loop"),
        (("sweep", "--parameter", "loop_shape", "--drive", "{open}"), "loop 0"),
    ],
)
def test_open_loop_is_refused_with_one_message(capsys, tmp_path, argv, name):
    # drives.require_closed is the one closed-loop check behind every command.
    path = write_doc(tmp_path, "open.json", OPEN_DOC)
    code, out, err = run_cli(capsys, *(path if arg == "{open}" else arg for arg in argv))
    assert (code, out, err) == (
        EXIT_INVALID,
        "",
        f"error: {name} is open at tau=2: closure residual 1.414214e+00 exceeds 1.000e-09\n",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("phase", "--omega-over-delta", "0.5", "--oracle"),
        ("sweep", "--parameter", "time", "--grid", "1", "--oracle"),
        ("oracle-verify", "--omega-over-delta", "0.5"),
    ],
)
def test_n_max_below_two_is_refused_with_one_message(capsys, argv):
    # OracleSettings checks n_max through FockSpace, as oracle-verify does.
    code, out, err = run_cli(capsys, *argv, "--n-max", "1")
    assert (code, out, err) == (EXIT_INVALID, "", "error: n_max must be an integer >= 2, got 1\n")


def test_timing_sweep_over_one_abs_epsilon_reports_no_slope(capsys):
    # -0.01 and 0.01 share one |epsilon|, through which no line can be fitted.
    code, out, err = run_cli(
        capsys, "sweep", "--parameter", "timing_error", "--grid", "-0.01,0.01"
    )
    assert (code, err) == (EXIT_OK, "")
    assert '"loglog_slope": null' in out


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--parameter", "time", "--grid", "3.14159", "--omega-over-delta", "2.7"),
        ("phase", "--omega-over-delta", "2.7", "--tau", "3.14159"),
    ],
)
def test_oracle_phase_below_the_overlap_floor_exits_3(capsys, argv):
    # Near half a period the radius-2.7 loop takes the vacuum overlap to
    # 4.7e-7, below the floor under which the unwrapped phase means nothing.
    code, out, err = run_cli(capsys, *argv, "--oracle", "--n-max", "200", "--steps", "20000")
    assert (code, out, err) == (
        EXIT_NUMERICAL,
        "",
        "error: overlap modulus dropped to 4.656e-07; total phase is undefined for this state\n",
    )


# ---------------------------------------------------------------------------
# caps on the flags that size arrays: checked before anything is allocated


@pytest.mark.parametrize(
    "argv,cause",
    [
        (["phase", "--omega-over-delta", "0.5", "--oracle", "--n-max", "1025"],
         "--n-max 1025 exceeds the cap 1024; use --n-max 1024 or less"),
        (["oracle-verify", "--omega-over-delta", "0.5", "--steps", "1000001"],
         "--steps 1000001 exceeds the cap 1000000; use --steps 1000000 or less"),
        (["sweep", "--parameter", "phi_l", "--grid", "0", "--oracle", "--n-max", "1025"],
         "--n-max 1025 exceeds the cap 1024"),
        (["gate", "--omega-over-delta", "0.5", "--samples", "1000002"],
         "--samples 1000002 exceeds the cap 1000001; use --samples 1000001 or less"),
    ],
)
def test_array_sizing_flags_are_capped(capsys, argv, cause):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert cause in err


def test_config_values_are_capped(capsys, tmp_path):
    path = write_doc(tmp_path, "cfg.json", {"omega_over_delta": 0.5, "steps": 10**7})
    code, _, err = run_cli(capsys, "oracle-verify", "--config", path)
    assert code == EXIT_INVALID
    assert "--steps 10000000 exceeds the cap 1000000" in err


def test_truncation_beyond_the_cap_says_so(capsys):
    # A loop of radius 100 needs n_max near 4e4: no rerun advice can help.
    code, out, err = run_cli(
        capsys, "phase", "--omega-over-delta", "100", "--oracle", "--steps", "200"
    )
    assert code == EXIT_NUMERICAL
    assert "beyond the cap n_max <= 1024" in err


# ---------------------------------------------------------------------------
# exit codes come from the error taxonomy

# Each error class and the exit code main returns for it.
EXIT_BY_ERROR = {
    "ConfigError": EXIT_INVALID,
    "InvalidTrajectoryError": EXIT_INVALID,
    "LoopNotClosedError": EXIT_INVALID,
    "NonDiagonalGateError": EXIT_INVALID,
    "SingularDetuningError": EXIT_INVALID,
    "UnreachablePhaseError": EXIT_INVALID,
    "InternalConsistencyError": EXIT_NUMERICAL,
    "NonUnitaryError": EXIT_NUMERICAL,
    "TruncationError": EXIT_NUMERICAL,
    "UndefinedPhaseError": EXIT_NUMERICAL,
}
EXTRA_ARGUMENTS = {
    "LoopNotClosedError": {"residual": 0.5},
    "TruncationError": {"leakage": 0.5, "recommended_n_max": None},
}


def _concrete_errors():
    bases = {errors.LoopGateError, errors.InvalidInputError, errors.NumericalFailureError}
    return [
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.LoopGateError) and cls not in bases
    ]


def test_every_error_class_has_one_base_and_its_exit_code(capsys, monkeypatch):
    concrete = _concrete_errors()
    assert sorted(cls.__name__ for cls in concrete) == sorted(EXIT_BY_ERROR)
    for cls in concrete:
        bases = [
            base
            for base in (errors.InvalidInputError, errors.NumericalFailureError)
            if issubclass(cls, base)
        ]
        assert len(bases) == 1, cls
        message = f"planted {cls.__name__}"
        exc = cls(message, **EXTRA_ARGUMENTS.get(cls.__name__, {}))

        def handler(opts, exc=exc):
            raise exc

        command = cli._COMMANDS["design"]._replace(handler=handler)
        monkeypatch.setitem(cli._COMMANDS, "design", command)
        code, out, err = run_cli(capsys, "design")
        assert code == EXIT_BY_ERROR[cls.__name__], cls
        assert out == ""
        assert err == f"error: {message}\n"


def test_cli_imports_only_the_error_classes_it_raises_or_catches():
    imported = {
        name
        for name, value in vars(cli).items()
        if inspect.isclass(value) and issubclass(value, errors.LoopGateError)
    }
    assert imported == {
        "ConfigError",
        "InvalidInputError",
        "LoopNotClosedError",
        "NumericalFailureError",
    }


# ---------------------------------------------------------------------------
# every value from a config meets the flag's spec, as a flag value does


@pytest.mark.parametrize(
    "command,cfg,message",
    [
        ("gate", {"omega_over_delta": 0.5, "conditioner": "JZ"},
         "conditioner must be one of odd-parity-projector, jz, jy, got 'JZ'"),
        ("oracle-verify", {"omega_over_delta": 0.5, "conditioner": "jy"},
         "conditioner must be one of odd-parity-projector, jz, got 'jy'"),
        ("sweep", {"parameter": "bogus", "grid": [1.0]},
         "parameter must be one of time, timing_error, omega_over_delta, phi_l, delta, "
         "loop_shape, got 'bogus'"),
        ("design", {"target_phase": -1.0, "format": "xml"},
         "format must be one of json, csv, got 'xml'"),
        # Only the JSON integer 1 is a schema version, not true or 1.0.
        ("phase", {"schema_version": 1.0, "omega_over_delta": 0.5},
         "unsupported config schema_version: 1.0"),
        ("phase", {"schema_version": True, "omega_over_delta": 0.5},
         "unsupported config schema_version: True"),
    ],
)
def test_config_values_meet_the_flag_choices(capsys, tmp_path, command, cfg, message):
    path = write_doc(tmp_path, "cfg.json", cfg)
    code, out, err = run_cli(capsys, command, "--config", path)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"error: {message}\n"


def test_sweep_without_parameter_names_the_choices(capsys):
    code, _, err = run_cli(capsys, "sweep", "--grid", "1")
    assert code == EXIT_INVALID
    assert err.startswith("error: sweep needs --parameter, one of ('time',")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["oracle-verify", "--omega-over-delta=0.5", "--n-max=16", "--steps=500",
          "--state-only", "--tolerance=-1"], "--tolerance"),
        (["oracle-verify", "--omega-over-delta=0.5", "--n-max=16", "--steps=500",
          "--state-only", "--leakage-tolerance=-1"], "--leakage-tolerance"),
        (["sweep", "--parameter=time", "--grid=1,2", "--analytic-tolerance=-1"],
         "--analytic-tolerance"),
        (["sweep", "--parameter=time", "--grid=1,2", "--oracle-tolerance=-1"],
         "--oracle-tolerance"),
        (["sweep", "--parameter=loop_shape", "--drive=CIRCLE", "--agreement-tolerance=-1"],
         "--agreement-tolerance"),
        (["phase", "--omega-over-delta=0.5", "--closure-tolerance=-1e+308"],
         "--closure-tolerance"),
    ],
)
def test_negative_tolerances_are_invalid(capsys, tmp_path, argv, flag):
    circle = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    argv = [item.replace("CIRCLE", circle) for item in argv]
    value = argv[-1].split("=", 1)[1]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"error: {flag} must be nonnegative, got {float(value)}\n"


def test_negative_config_tolerance_is_invalid(capsys, tmp_path):
    path = write_doc(tmp_path, "cfg.json", {"omega_over_delta": 0.5, "tolerance": -1})
    code, _, err = run_cli(capsys, "oracle-verify", "--config", path)
    assert code == EXIT_INVALID
    assert err == "error: --tolerance must be nonnegative, got -1.0\n"


# ---------------------------------------------------------------------------
# overflowing inputs end in one line that names the cause

# One jz tone segment whose path overflows.
OVERFLOWING_TONE = {
    "schema_version": 1,
    "conditioner": "jz",
    "segments": [{"duration": 2.0 * math.pi, "amplitude": [1e308, 0.0], "frequency": 1.0}],
}


# Documents that float arithmetic cannot lay out: two kicks that 1 + 1e-17
# rounds away, a total duration past the float range, and a path whose
# vertex alpha overflows.
def _pulses(*pulses):
    return {
        "schema_version": 1,
        "conditioner": "odd-parity-projector",
        "segments": [{"duration": d, "amplitude": list(a)} for d, a in pulses],
    }


SWALLOWED_KICKS = _pulses(
    (1.0, (0, 0)), (1e-17, (1e17, 0)), (1.0, (0, 1)), (1e-17, (-1e17, 0)), (1.0, (0, -1))
)
OVERFLOWING_DURATION = _pulses((1e308, (0, 0)), (1e308, (0, 0)))
OVERFLOWING_VERTEX = _pulses((1.0, (1e308, 0)), (1.0, (1e308, 0)))
# A closed tone whose loop phase, about -6.3e320, passes the float range.
HUGE_TONE = dict(OVERFLOWING_TONE, segments=[
    {"duration": 2.0 * math.pi, "amplitude": [1e160, 0.0], "frequency": 1.0}
])
OVERFLOWING_DOCS = {
    "TONE": OVERFLOWING_TONE,
    "BIG": HUGE_TONE,
    "KICKS": SWALLOWED_KICKS,
    "LONG": OVERFLOWING_DURATION,
    "HUGE": OVERFLOWING_VERTEX,
}


@pytest.mark.parametrize(
    "argv,cause",
    [
        (["phase", "--drive", "TONE"],
         "loop phase is not finite: the drive or its path overflows"),
        (["phase", "--drive", "BIG"], "loop phase is not finite: the drive or its path overflows"),
        (["gate", "--drive", "BIG"], "loop phase is not finite: the drive or its path overflows"),
        (["oracle-verify", "--drive", "BIG"],
         "loop phase is not finite: the drive or its path overflows"),
        (["sweep", "--parameter", "loop_shape", "--drive", "TONE"],
         "trajectory contains non-finite samples"),
        (["phase", "--omega-over-delta=-1e+308", "--delta=1e-300"],
         "total phase (omega/delta)^2 * (sin(delta t) - delta t) is not finite"),
        (["phase", "--omega-over-delta", "0.5", "--delta", "1e+308", "--periods", "1e+308"],
         "segment phase frequency * duration overflows: 1e+308 * 6.28319"),
        (["gate", "--gamma=1e+308", "--conditioner=jy"], "gate matrix has non-finite entries"),
        (["oracle-verify", "--omega-over-delta=-1", "--conditioner=jz", "--tau=1e+308",
          "--state-only"], "tau must lie in (0, 6.283185307179586], got 1e+308"),
        (["gate", "--omega-over-delta", "1e160"],
         "total phase (omega/delta)^2 * (sin(delta t) - delta t) is not finite"),
        (["phase", "--drive", "KICKS"],
         "segment 1 must end after its start, at a finite time: 1 + 1e-17 rounds to 1"),
        (["sweep", "--parameter", "loop_shape", "--drive", "KICKS"],
         "segment 1 must end after its start, at a finite time: 1 + 1e-17 rounds to 1"),
        (["gate", "--drive", "LONG"],
         "segment 1 must end after its start, at a finite time: 1e+308 + 1e+308 rounds to inf"),
        (["phase", "--drive", "LONG"],
         "segment 1 must end after its start, at a finite time: 1e+308 + 1e+308 rounds to inf"),
        (["gate", "--drive", "HUGE"], "segment 1 ends at a non-finite alpha: the path overflows"),
        (["phase", "--drive", "HUGE"], "segment 1 ends at a non-finite alpha: the path overflows"),
    ],
)
def test_overflowing_inputs_print_one_line(capsys, tmp_path, argv, cause):
    paths = {name: write_doc(tmp_path, f"{name}.json", doc)
             for name, doc in OVERFLOWING_DOCS.items()}
    code, out, err = run_cli(capsys, *[paths.get(item, item) for item in argv])
    assert code == EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and cause in err


@pytest.mark.parametrize(
    "command", [("phase",), ("phase", "--oracle"), ("gate",), ("oracle-verify",)]
)
@pytest.mark.parametrize("drive", [("--omega-over-delta", "0.5"), ("--drive", "{circle}")])
def test_tau_zero_is_refused_with_one_message(capsys, tmp_path, command, drive):
    # Every command checks tau with drives._require_tau before any other use of it.
    code, out, err = run_with_circle(capsys, tmp_path, [*command, *drive, "--tau", "0"])
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "error: tau must lie in (0, 6.283185307179586], got 0.0\n"


@pytest.mark.parametrize(
    "command", [("phase",), ("phase", "--oracle"), ("gate",), ("oracle-verify",)]
)
@pytest.mark.parametrize("drive", [("--omega-over-delta", "0.5"), ("--drive", "{circle}")])
def test_tau_past_the_drive_window_is_refused_with_one_message(capsys, tmp_path, command, drive):
    # The tau rule runs before the closed-loop check, which would name the window instead.
    code, out, err = run_with_circle(capsys, tmp_path, [*command, *drive, "--tau", "100"])
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "error: tau must lie in (0, 6.283185307179586], got 100.0\n"


def test_truncation_advice_for_an_overflowing_excursion(capsys, tmp_path):
    # 4 |beta alpha|^2 overflows: the advice is the cap, not an OverflowError.
    doc = {
        "schema_version": 1,
        "conditioner": "jz",
        "segments": [{"duration": 2.0, "amplitude": [0.0, 4e153]}],
    }
    path = write_doc(tmp_path, "pulse.json", doc)
    code, _, err = run_cli(
        capsys, "oracle-verify", "--drive", path, "--n-max=24", "--steps=4960"
    )
    assert code == EXIT_NUMERICAL
    assert err.count("\n") == 1
    assert "the loop needs a truncation beyond the cap n_max <= 1024" in err
    with pytest.raises(ValueError, match="beyond the cap"):
        default_space(drives.drive_from_dict(doc))


# ---------------------------------------------------------------------------
# one drive-window rule for tau and for sample times

# Segments whose total 3.000000001 rounds the two old end-of-window rules apart.
UNEVEN_DOC = {
    "schema_version": 1,
    "conditioner": "odd-parity-projector",
    "segments": [
        {"duration": 1.0, "amplitude": [0.5, 0.0]},
        {"duration": 1e-9, "amplitude": [0.0, 0.5]},
        {"duration": 2.0, "amplitude": [-0.25, 0.0]},
    ],
}


def test_tau_and_the_drive_window_share_one_end(capsys, tmp_path):
    drive = drives.drive_from_dict(UNEVEN_DOC)
    total = drive.total_duration
    tau = total * (1.0 + 1e-12)
    assert (total, tau) == (3.000000001, 3.0000000010030003)
    message = r"tau must lie in \(0, 3.000000001\], got 3.0000000010030003"
    with pytest.raises(ValueError, match=message):
        drives.gamma0(drive, tau)
    path = write_doc(tmp_path, "uneven.json", UNEVEN_DOC)
    code, out, err = run_cli(capsys, "phase", "--drive", path, "--tau", repr(tau))
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "error: tau must lie in (0, 3.000000001], got 3.0000000010030003\n"
    # The last time the window admits passes both checks.
    end = total + 1e-12 * total
    assert math.isfinite(drives.gamma0(drive, end))
    assert drives.closure_residual(drive, end) < 1.0
