"""Command line surface: exit codes, output formats, config handling."""

import json
import subprocess
import sys

import pytest

from brpqkd.cli import format_number, main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_module(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "brpqkd", *argv],
        capture_output=True,
        cwd=cwd,
    )


def test_format_number():
    assert format_number(0.0) == "0"
    assert format_number(1.0) == "1"
    assert format_number(0.5) == "0.5"
    assert format_number(146.2578125) == "146.257812"
    assert format_number(3.344946485685963e-08) == "3.34494649e-08"
    assert format_number(float("nan")) == "nan"
    assert len(format_number(0.123456789123).replace("0.", "")) == 9


def test_evaluate_secure_point(capsys):
    code, out, err = _run(capsys, "evaluate", "--length-km", "100")
    assert code == 0
    record = json.loads(out)
    assert record["secure"] is True
    assert record["r_s"] > 0.0
    for key in ("mu_s", "length_km", "y_exp", "d_bob", "i_ab", "i_ae", "r_bob", "r_eve"):
        assert key in record


def test_evaluate_insecure_point_exit_code(capsys):
    code, out, err = _run(capsys, "evaluate", "--length-km", "160")
    assert code == 3
    record = json.loads(out)
    assert record["secure"] is False
    assert record["r_s"] < 0.0


def test_evaluate_past_the_exp_overflow_is_insecure():
    proc = _run_module("evaluate", "--mu-s", "800")
    assert proc.returncode == 3
    assert b"Traceback" not in proc.stderr
    record = json.loads(proc.stdout)
    assert record["secure"] is False
    assert record["d_eve"] == 0.5


def test_evaluate_rejects_negative_length(capsys):
    code, out, err = _run(capsys, "evaluate", "--length-km", "-5")
    assert code == 2
    assert "length" in err.lower()


def test_evaluate_csv_format(capsys):
    code, out, err = _run(capsys, "evaluate", "--length-km", "100", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("mu_s,mu_b,length_km")
    assert len(lines) == 2


def test_output_files_are_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        proc = _run_module("evaluate", "--length-km", "120", "--out", str(path))
        assert proc.returncode == 0
    assert first.read_bytes() == second.read_bytes()


def test_optimize_defaults(capsys):
    code, out, err = _run(capsys, "optimize")
    assert code == 0
    record = json.loads(out)
    assert 0.45 <= record["mu_s_star"] <= 0.55
    assert record["distance_km"] == pytest.approx(146.3, abs=0.2)
    assert record["plateau"] is False
    assert record["unbounded"] is False
    assert record["mu_b_min"] > 1e5
    assert record["suppression_budget"] == 0.001


def test_optimize_ideal_preset(capsys):
    code, out, err = _run(capsys, "optimize", "--preset", "ideal")
    assert code == 0
    record = json.loads(out)
    assert record["unbounded"] is True
    assert record["distance_km"] == 1000.0


def test_sweep_distance_csv(capsys):
    code, out, err = _run(capsys, "sweep", "distance", "--mu-s", "0.5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu_s,length_km,r_bob,r_eve,r_s"
    secure_lengths = []
    for line in lines[1:]:
        mu_s, length_km, r_bob, r_eve, r_s = line.split(",")
        if float(r_s) > 0.0:
            secure_lengths.append(float(length_km))
    assert 143.0 <= max(secure_lengths) <= 149.0


def test_sweep_disturbance_csv(capsys):
    code, out, err = _run(capsys, "sweep", "disturbance", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu_s,d,i_ab,i_ae"
    ideal_rows = [line for line in lines[1:] if line.startswith("ideal,")]
    assert lines[1].startswith("ideal,")
    assert ideal_rows[0] == "ideal,0,1,0"
    # the ideal advantage changes sign near d = 0.1464
    crossings = []
    prev = None
    for line in ideal_rows:
        _, d, i_ab, i_ae = line.split(",")
        margin = float(i_ab) - float(i_ae)
        if prev is not None and prev[1] > 0.0 >= margin:
            crossings.append((prev[0], float(d)))
        prev = (float(d), margin)
    assert len(crossings) == 1
    low, high = crossings[0]
    assert low <= 0.14644661 <= high


def test_sweep_rejects_unknown_axis(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "angle"])
    assert excinfo.value.code == 2


def test_csv_values_round_trip(capsys, tmp_path):
    """Nine significant digits reproduce the binary values to half an ulp."""
    code, out, err = _run(
        capsys, "evaluate", "--length-km", "146", "--format", "csv"
    )
    assert code == 0
    header, row = out.splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    code2, out2, err2 = _run(
        capsys,
        "evaluate",
        "--mu-s",
        record["mu_s"],
        "--length-km",
        record["length_km"],
    )
    fresh = json.loads(out2)
    for key in ("y_exp", "d_bob", "i_ab", "i_ae", "r_bob", "r_eve", "r_s"):
        reparsed = float(record[key])
        assert reparsed == pytest.approx(fresh[key], rel=5e-9), key


def test_mc_validate_requires_enough_pulses(capsys):
    code, out, err = _run(capsys, "mc-validate", "--n-pulses", "10")
    assert code == 2
    assert "n-pulses" in err or "n_pulses" in err


def test_mc_validate_baseline(capsys):
    code, out, err = _run(
        capsys, "mc-validate", "--n-pulses", "200000", "--length-km", "100", "--seed", "8"
    )
    assert code == 0
    rows = json.loads(out)
    quantities = [row["quantity"] for row in rows]
    assert quantities == ["y_exp", "y_1", "d_bob", "g_b0"]
    for row in rows:
        assert row["ok"] is True
        assert abs(row["z"]) <= 4.0


def test_mc_validate_attack_rows(capsys):
    code, out, err = _run(
        capsys,
        "mc-validate",
        "--eve-mode",
        "pns",
        "--suppress-fraction",
        "1.0",
        "--n-pulses",
        "200000",
        "--length-km",
        "0",
        "--eta-d",
        "1.0",
        "--y0",
        "0",
        "--e-detector",
        "0",
        "--mu-b",
        "2000",
    )
    assert code == 0
    rows = {row["quantity"]: row for row in json.loads(out)}
    assert "attack_interference_error_rate" in rows
    attack = rows["attack_interference_error_rate"]
    assert attack["target"] == 0.5
    assert attack["estimate"] == pytest.approx(0.5, abs=0.01)


def test_budget_defaults(capsys):
    code, out, err = _run(capsys, "budget")
    assert code == 0
    record = json.loads(out)
    assert record["brp_at_alice"] == 200000.0
    assert record["brp_at_bob"] == pytest.approx(171.8, rel=0.01)
    assert record["afterpulse_error"] == 0.004
    assert record["dim_at_bob"] == pytest.approx(1.084e-9, rel=1e-3)


def test_config_file_sets_parameters(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("source_intensity = 0\nlength_km = 50\n")
    code, out, err = _run(capsys, "budget", "--config", str(config))
    assert code == 0
    record = json.loads(out)
    assert record["length_km"] == 50.0
    assert record["brp_at_alice"] == 0.0
    assert record["signal_at_bob"] == 0.0


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("mu_x = 0.5\n")
    code, out, err = _run(capsys, "evaluate", "--config", str(config))
    assert code == 2
    assert "mu_x" in err


def test_flags_override_config_file(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("mu_s = 0.1\nlength_km = 100\n")
    code, out, err = _run(
        capsys, "evaluate", "--config", str(config), "--mu-s", "0.9"
    )
    assert code in (0, 3)
    record = json.loads(out)
    assert record["mu_s"] == 0.9
    assert record["length_km"] == 100.0


def test_missing_config_file(capsys, tmp_path):
    code, out, err = _run(
        capsys, "evaluate", "--config", str(tmp_path / "absent.cfg")
    )
    assert code == 2
