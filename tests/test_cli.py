"""End-to-end CLI tests: argument handling, config layering, outputs, exits."""

import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loopgate import cli, drives
from loopgate._serialize import json_text
from loopgate.cli import EXIT_INVALID, EXIT_NUMERICAL, EXIT_OK, main
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
    assert report["method"] == "quadrature"
    assert report["analytic"]["total"] == pytest.approx(-HALF_PI, abs=1e-9)
    assert report["analytic"]["eta"] == pytest.approx(-2.0, abs=1e-7)


def test_phase_document_rejects_inline_parameters(capsys, tmp_path):
    path = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    code, _, err = run_cli(
        capsys, "phase", "--drive", path, "--omega-over-delta", "0.5"
    )
    assert code == EXIT_INVALID
    assert "omega-over-delta" in err


def test_phase_oracle_settings_require_oracle_flag(capsys):
    code, _, err = run_cli(
        capsys, "phase", "--omega-over-delta", "0.5", "--n-max", "16"
    )
    assert code == EXIT_INVALID
    assert "n-max" in err


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
    ],
)
def test_gate_rejection_messages(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
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


@pytest.mark.parametrize(
    "argv",
    [
        ("gate", "--omega-over-delta", "0.5", "--conditioner", "jz"),
        ("gate", "--target-phase", "-1.0"),
        ("gate", "--drive", "SQUARE"),
    ],
)
def test_gate_runs_one_gamma0_quadrature(capsys, monkeypatch, tmp_path, argv):
    from loopgate import drives, gates

    calls = []
    real_gamma0 = drives.gamma0

    def counting_gamma0(*args, **kwargs):
        calls.append(args)
        return real_gamma0(*args, **kwargs)

    monkeypatch.setattr(drives, "gamma0", counting_gamma0)
    monkeypatch.setattr(gates, "gamma0", counting_gamma0)
    argv = [write_doc(tmp_path, "square.json", SQUARE_DOC) if a == "SQUARE" else a for a in argv]
    report = run_json(capsys, *argv)
    assert len(calls) == 1
    assert report["gamma0"] == pytest.approx(real_gamma0(*calls[0]), rel=1e-11)


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
    with pytest.raises(SystemExit) as info:
        main(["oracle-verify", "--omega-over-delta", "0.5", "--conditioner", "jy"])
    assert info.value.code == 2
    capsys.readouterr()


def test_oracle_verify_integrates_gamma0_only_for_drive_documents(capsys, monkeypatch, tmp_path):
    # Constant-drive flags name a single tone, whose loop phase has a closed
    # form; only a drive document needs the quadrature.
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
    common = ("--n-max", "16", "--steps", "1000", "--state-only")
    constant = run_json(capsys, "oracle-verify", "--omega-over-delta", "0.5", *common)
    assert calls == []
    # The report prints 12 significant digits.
    exact = analytic_total_phase(0.5, 1.0, 2.0 * math.pi)
    assert constant["gamma0"] == pytest.approx(exact, abs=1e-11)
    path = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    document = run_json(capsys, "oracle-verify", "--drive", path, *common)
    assert len(calls) == 1
    assert document["gamma0"] == pytest.approx(constant["gamma0"], abs=1e-11)


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
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--parameter", "voltage", "--grid", "1"])
    assert info.value.code == 2
    capsys.readouterr()


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
    assert report["method"] == "quadrature"
    assert report["analytic"]["total"] == pytest.approx(-HALF_PI, abs=1e-9)


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


@pytest.mark.parametrize(
    "cfg,cause",
    [
        ({"command": "phase", "omega_over_delta": math.nan}, "--omega-over-delta must be finite"),
        ({"command": "phase", "omega_over_delta": 10**400}, "--omega-over-delta must be finite"),
        ({"command": "sweep", "parameter": "phi_l", "grid": [0.1, math.inf]},
         "--grid entries must be finite"),
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
    assert "not closed" in err or "open" in err


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
