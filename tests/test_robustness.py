"""Tests for sweeps: open-path scans, timing errors, eta invariance, areas."""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from loopgate import cli
from loopgate._serialize import SCHEMA_VERSION, json_text, sweep_csv
from loopgate.drives import ConstantDriveParams, constant_drive, four_pulse_sequence
from loopgate.errors import InternalConsistencyError, LoopNotClosedError
from loopgate.robustness import (
    OracleSettings,
    SweepReport,
    SweepRow,
    SweepSpec,
    area_invariance_study,
    eta_invariance_sweep,
    noncyclic_scan,
    timing_error_sweep,
)

TWO_PI = 2.0 * math.pi
BASE = ConstantDriveParams(omega_d=0.5, delta=1.0)
FAST_ORACLE = OracleSettings(n_max=16, steps=2_000)

SQUARE_SIDE = math.sqrt(math.pi) / 2.0  # matches the circle's pi/4 area


def square_loop(side=SQUARE_SIDE):
    return four_pulse_sequence(
        amplitudes=(-side, 1j * side, side, -1j * side),
        durations=(1.0, 1.0, 1.0, 1.0),
    )


# ---------------------------------------------------------------------------
# sweep descriptions


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(parameter="voltage", grid=(0.1,), base=BASE)
    with pytest.raises(ValueError):
        SweepSpec(parameter="phi_l", grid=(), base=BASE)
    with pytest.raises(ValueError):
        SweepSpec(parameter="phi_l", grid=(0.1, math.nan), base=BASE)


def test_oracle_settings_validation():
    assert OracleSettings().space.n_max == 64
    with pytest.raises(ValueError):
        OracleSettings(n_max=1)
    with pytest.raises(ValueError):
        OracleSettings(steps=0)


# ---------------------------------------------------------------------------
# open-path scan


def test_noncyclic_scan_landmark_times():
    period = BASE.period
    report = noncyclic_scan(BASE, [0.0, period / 2.0, period])
    assert report.parameter == "time"
    at_zero, at_half, at_full = report.rows

    assert at_zero.total == 0.0
    assert at_zero.geometric == 0.0
    assert at_zero.dynamic == 0.0

    assert at_half.total == pytest.approx(-math.pi / 4.0, abs=5e-9)
    assert at_half.geometric == pytest.approx(math.pi / 4.0, abs=5e-9)
    assert at_half.dynamic == pytest.approx(-math.pi / 2.0, abs=5e-9)
    assert at_half.eta == pytest.approx(-2.0, abs=1e-7)

    assert at_full.total == pytest.approx(-math.pi / 2.0, abs=5e-9)
    assert at_full.geometric == pytest.approx(math.pi / 2.0, abs=5e-9)
    assert at_full.dynamic == pytest.approx(-math.pi, abs=5e-9)

    assert report.metadata["max_analytic_relation_residual"] < 1e-9
    assert report.metadata["max_oracle_relation_residual"] is None


def test_noncyclic_scan_with_oracle():
    period = BASE.period
    report = noncyclic_scan(
        BASE, [period / 2.0, period], oracle_settings=FAST_ORACLE
    )
    for row in report.rows:
        assert row.oracle_deviation is not None
        assert row.oracle_deviation < 1e-4
    assert report.metadata["max_oracle_relation_residual"] < 1e-4
    assert report.metadata["oracle"] == {"n_max": 16, "steps": 2_000}


def test_noncyclic_scan_rejects_bad_times():
    with pytest.raises(ValueError):
        noncyclic_scan(BASE, [])
    with pytest.raises(ValueError):
        noncyclic_scan(BASE, [-1.0])
    with pytest.raises(ValueError):
        noncyclic_scan(BASE, [11.0 * BASE.period])


def test_noncyclic_scan_guards_against_undersampling():
    # 5001 samples leave ~2e-7 quadrature error, far above the 1e-9 guard;
    # the scan must refuse rather than return silently degraded rows.
    with pytest.raises(InternalConsistencyError):
        noncyclic_scan(BASE, [BASE.period], samples=5_001)


def test_noncyclic_scan_takes_the_samples_its_tolerance_needs():
    # The chord sum misses r^2 (delta t)^3 / (6 (S-1)^2); the default count is
    # the smallest S >= 200,001 that holds this at tolerance / 4.
    def bound(params, t, samples):
        return params.ratio**2 * (params.delta * t) ** 3 / (6.0 * (samples - 1) ** 2)

    assert noncyclic_scan(BASE, [1.0, 2.0]).metadata["samples"] == 200_001
    unit = ConstantDriveParams(omega_d=1.0, delta=1.0)
    report = noncyclic_scan(unit, [1.0, unit.period])
    samples = report.metadata["samples"]
    assert bound(unit, unit.period, samples) <= 0.25e-9 < bound(unit, unit.period, samples - 1)
    assert report.metadata["max_analytic_relation_residual"] < 1e-9
    # An explicit count is used as given, and still guarded.
    with pytest.raises(InternalConsistencyError):
        noncyclic_scan(unit, [unit.period], samples=200_001)
    with pytest.raises(ValueError, match="needs [0-9.e+]+ quadrature samples"):
        noncyclic_scan(ConstantDriveParams(omega_d=3.0, delta=1.0), [10.0 * unit.period])


# ---------------------------------------------------------------------------
# timing errors


def test_timing_sweep_nominal_point():
    report = timing_error_sweep(BASE, [0.0])
    row = report.rows[0]
    assert row.fidelity == pytest.approx(1.0, abs=1e-15)
    assert row.total == pytest.approx(-math.pi / 2.0, abs=1e-15)
    assert report.metadata["max_abs_phase_error"] == 0.0
    assert report.metadata["loglog_slope"] is None
    assert report.metadata["nominal_total_phase"] == pytest.approx(-math.pi / 2.0)


def test_timing_sweep_cubic_suppression():
    # phase error vanishes to third order in the timing error
    epsilons = list(np.logspace(-3, -2, 7))
    report = timing_error_sweep(BASE, epsilons)
    slope = report.metadata["loglog_slope"]
    assert slope is not None
    assert slope > 2.5
    assert slope < 3.5


def test_timing_sweep_fidelity_column():
    report = timing_error_sweep(BASE, [0.25])
    row = report.rows[0]
    nominal = report.metadata["nominal_total_phase"]
    expected = abs(math.cos((row.total - nominal) / 2.0))
    assert row.fidelity == pytest.approx(expected, abs=1e-12)
    assert row.fidelity < 1.0
    # open path still satisfies the ratio relations
    assert row.eta == pytest.approx(-2.0, abs=1e-12)


def test_timing_sweep_with_oracle():
    report = timing_error_sweep(BASE, [0.01], oracle_settings=FAST_ORACLE)
    assert report.rows[0].oracle_deviation < 1e-5


def test_timing_sweep_validation():
    with pytest.raises(ValueError):
        timing_error_sweep(BASE, [])
    with pytest.raises(ValueError):
        timing_error_sweep(BASE, [0.5])
    with pytest.raises(ValueError):
        timing_error_sweep(BASE, [-0.7])


# ---------------------------------------------------------------------------
# eta invariance


@pytest.mark.parametrize(
    "parameter,grid",
    [
        ("omega_over_delta", (0.3, 0.5, 0.8)),
        ("phi_l", (0.0, 1.0, 2.5)),
        ("delta", (0.5, 1.0, 2.0)),
    ],
)
def test_eta_invariance_across_families(parameter, grid):
    report = eta_invariance_sweep(SweepSpec(parameter=parameter, grid=grid, base=BASE))
    assert report.parameter == parameter
    assert len(report.rows) == len(grid)
    assert report.metadata["max_abs_eta_plus_2"] < 1e-6
    for row in report.rows:
        assert row.eta == pytest.approx(-2.0, abs=1e-6)
    assert report.metadata["max_abs_eta_plus_2_oracle"] is None


def test_eta_invariance_with_oracle():
    spec = SweepSpec(
        parameter="omega_over_delta",
        grid=(0.5,),
        base=BASE,
        oracle_settings=FAST_ORACLE,
    )
    report = eta_invariance_sweep(spec)
    assert report.metadata["max_abs_eta_plus_2_oracle"] < 1e-4
    assert report.rows[0].oracle_deviation < 1e-4


def test_eta_invariance_rejects_other_parameters():
    with pytest.raises(ValueError):
        eta_invariance_sweep(
            SweepSpec(parameter="timing_error", grid=(0.01,), base=BASE)
        )


def test_eta_sweep_delta_changes_speed_not_shape():
    # sweeping the detuning at fixed ratio rescales time only, so the
    # geometric phase is untouched while the loop duration changes
    report = eta_invariance_sweep(
        SweepSpec(parameter="delta", grid=(1.0, 2.0), base=BASE), samples=50_001
    )
    assert report.rows[0].geometric == report.rows[1].geometric


# ---------------------------------------------------------------------------
# equal-area loops


def test_area_study_circle_square_reparametrized():
    circle = constant_drive(BASE)
    slow_circle = constant_drive(ConstantDriveParams(omega_d=0.25, delta=0.5))
    report = area_invariance_study([circle, square_loop(), slow_circle])
    assert report.parameter == "loop_shape"
    values = [row.value for row in report.rows]
    assert values == [0.0, 1.0, 2.0]
    for row in report.rows:
        assert row.geometric == pytest.approx(math.pi / 2.0, abs=1e-6)
    assert report.metadata["geometric_phase_spread"] < 1e-6
    # halving the traversal speed relabels the samples without moving them
    assert abs(report.rows[0].geometric - report.rows[2].geometric) < 1e-12


def test_area_study_zero_area_loop():
    line = four_pulse_sequence(
        amplitudes=(-0.7, 0.7, -0.7, 0.7), durations=(1.0, 1.0, 1.0, 1.0)
    )
    report = area_invariance_study([line])
    assert report.rows[0].geometric == 0.0
    assert report.metadata["geometric_phase_spread"] == 0.0


def test_area_study_rejects_open_loop():
    open_loop = four_pulse_sequence(
        amplitudes=(-1.0, 1.0j, 1.0, -2.0j), durations=(1.0, 1.0, 1.0, 1.0)
    )
    with pytest.raises(LoopNotClosedError):
        area_invariance_study([open_loop])


def test_area_study_rejects_unequal_areas():
    with pytest.raises(InternalConsistencyError):
        area_invariance_study([constant_drive(BASE), square_loop(side=1.0)])


def test_area_study_rejects_empty_input():
    with pytest.raises(ValueError):
        area_invariance_study([])


# ---------------------------------------------------------------------------
# report serialization


SAMPLE_SWEEP = ["sweep", "--parameter", "omega_over_delta", "--grid", "0.3,0.5",
                "--samples", "50001"]


def sweep_stdout(*argv):
    """What ``loopgate sweep`` prints for the sample sweep with ``argv`` added."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(SAMPLE_SWEEP + list(argv)) == cli.EXIT_OK
    return out.getvalue()


@pytest.fixture(scope="module")
def sample_report():
    return eta_invariance_sweep(
        SweepSpec(parameter="omega_over_delta", grid=(0.3, 0.5), base=BASE),
        samples=50_001,
    )


def test_report_json_structure():
    data = json.loads(sweep_stdout())
    assert data["schema_version"] == 1
    assert data["parameter"] == "omega_over_delta"
    assert len(data["rows"]) == 2
    row = data["rows"][1]
    assert row["value"] == 0.5
    assert row["eta"] == pytest.approx(-2.0, abs=1e-6)
    assert row["fidelity"] is None
    assert "seed" not in data["metadata"]


def test_report_csv_structure():
    lines = sweep_stdout("--format", "csv").splitlines()
    assert lines[0] == (
        "kind,parameter,value,total,geometric,dynamic,eta,fidelity,oracle_deviation"
    )
    rows = [line for line in lines if line.startswith("row,")]
    assert len(rows) == 2
    first = rows[0].split(",")
    assert first[1] == "omega_over_delta"
    assert first[2] == "0.3"
    assert first[7] == ""  # fidelity column empty when absent
    summaries = {line.split(",")[1] for line in lines if line.startswith("summary,")}
    assert "max_abs_eta_plus_2" in summaries
    assert "samples" in summaries


def test_report_write_round_trip(sample_report, tmp_path, capsys):
    # Reports are written by the command line: the same sweep through
    # `loopgate sweep --out` gives the library report's tree and CSV table.
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    assert cli.main(SAMPLE_SWEEP + ["--out", str(json_path)]) == cli.EXIT_OK
    assert cli.main(SAMPLE_SWEEP + ["--format", "csv", "--out", str(csv_path)]) == cli.EXIT_OK
    text = json_path.read_text()
    assert text.endswith("\n")
    tree = {"schema_version": SCHEMA_VERSION, **dataclasses.asdict(sample_report)}
    assert json.loads(text) == json.loads(json_text(tree))
    assert csv_path.read_text() == sweep_csv(tree)
    with pytest.raises(SystemExit):
        cli.main(SAMPLE_SWEEP + ["--format", "xml"])
    capsys.readouterr()


def test_report_rows_are_frozen(sample_report):
    with pytest.raises(AttributeError):
        sample_report.rows[0].value = 9.0
    assert isinstance(sample_report.rows[0], SweepRow)
    assert isinstance(sample_report, SweepReport)
