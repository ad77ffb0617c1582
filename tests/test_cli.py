"""Command line surface: exit codes, output formats, config handling."""

import contextlib
import dataclasses
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brpqkd import cli, linkbudget, security
from brpqkd.cli import format_number, main
from brpqkd.linkbudget import OpticalChain
from brpqkd.montecarlo import EvePolicy, McComparison
from brpqkd.optimize import IDEAL_SOURCE, SweepGrid, disturbance_tradeoff, sweep
from brpqkd.params import GYS_DETECTOR, IDEAL_DETECTOR, DetectorParams


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


def _format_rule(value):
    # the documented rule: 9 significant digits, scientific below 1e-3
    if value != value:
        return "nan"
    if value == 0:
        return "0"
    if abs(value) < 1e-3:
        return f"{value:.8e}"
    return f"{value:.9g}"


@given(st.floats(allow_nan=True, allow_infinity=True))
@example(-0.0)
@example(1e-3)
@example(-1e-3)
@example(5e-324)
def test_format_number_follows_its_rule(value):
    assert format_number(value) == _format_rule(value)
    assert format_number(np.float64(value)) == _format_rule(value)


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
    assert list(rows[0]) == [*McComparison._fields, "ok"]
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


@pytest.mark.parametrize("key", ["alice_split_long", "bob_split_long"])
def test_a_nan_split_exits_2_naming_the_split(capsys, tmp_path, key):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = nan\n")
    code, out, err = _run(capsys, "budget", "--config", str(config))
    assert (code, out) == (2, "")
    assert err == f"error: {key} must be finite, got nan\n"


def test_a_loss_that_overflows_the_scan_exits_2_with_only_the_error(capsys):
    # the scan's overflow warning would print before the error line without
    # the errstate; a subprocess does not inherit pyproject's warning filter
    done = _run_module("optimize", "--loss-db-km", "1e306")
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr == b"error: no expected clicks at mu_s=0.1, eta_total=0.0\n"


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


def test_config_file_skips_comments_and_rejects_a_line_without_a_pair(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# a comment-only line\nlength_km = 50\nlength_km 60\n")
    code, out, err = _run(capsys, "evaluate", "--config", str(config))
    assert (code, out) == (2, "")
    assert err == f"error: {config}:3: expected 'key = value', got 'length_km 60'\n"


def test_single_point_commands_reject_an_intensity_list(capsys):
    code, out, err = _run(capsys, "evaluate", "--mu-s", "0.1,0.2")
    assert (code, out, err) == (2, "", "error: evaluate takes a single --mu-s value, got 2\n")


def test_missing_config_file(capsys, tmp_path):
    code, out, err = _run(
        capsys, "evaluate", "--config", str(tmp_path / "absent.cfg")
    )
    assert code == 2


def _seed_cell(value):
    # one CSV cell as the per-record renderer spelled it
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_number(value)
    return str(value)


def _seed_csv(records):
    # the per-record CSV renderer the column-wise one replaced; the reference
    columns = list(records[0].keys())
    lines = [",".join(columns)]
    lines.extend(",".join(_seed_cell(record[name]) for name in columns) for record in records)
    return "\n".join(lines) + "\n"


def _seed_json(records):
    # the per-record JSON renderer, the reference for the column-wise one
    payload = [
        {key: float(format_number(value)) if isinstance(value, float) else value
         for key, value in record.items()}
        for record in records
    ]
    return json.dumps(payload[0] if len(payload) == 1 else payload,
                      indent=2, allow_nan=False) + "\n"


_EDGE_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-3, -1e-3, math.nextafter(1e-3, 0.0), math.nextafter(1e-3, 1.0),
    math.nextafter(-1e-3, 0.0), math.nextafter(-1e-3, -1.0), 1.0, 146.2578125,
]
_CELLS = st.one_of(
    st.floats(), st.floats().map(np.float64), st.sampled_from(_EDGE_FLOATS), st.booleans(),
    st.integers(),
    st.text(alphabet="ideal01", max_size=3),
)


@given(st.lists(st.tuples(_CELLS, st.integers(min_value=1, max_value=4)), max_size=40))
@example([(value, 2) for value in _EDGE_FLOATS] + [(True, 1), (1, 1), (1.0, 2), ("ideal", 1)])
def test_column_formatter_matches_format_number(runs):
    # runs of repeated values, as table coordinates repeat
    values = [value for value, count in runs for _ in range(count)]
    assert cli._texts(values, "csv") == [_seed_cell(value) for value in values]


def test_csv_renderer_matches_the_per_record_renderer():
    specials = [-0.0, 0.0, math.nan, float("nan"), math.inf, -math.inf,
                9.99999999e-4, 1e-3, 1.00000001e-3, -9.99999999e-4, -1e-3,
                1.0, 1, True, False, 0, -7, 146.2578125, 3.344946485685963e-08, "ideal"]
    records = [
        {"mu_s": "ideal" if i % 7 == 0 else specials[i % 5], "a": specials[i % len(specials)],
         "b": specials[(3 * i) % len(specials)], "c": specials[-1 - i % len(specials)]}
        for i in range(3 * len(specials))
    ]
    assert cli._render(records, "csv") == _seed_csv(records)
    # a column mixing True, 1 and 1.0 keeps each value's own spelling
    mixed = [{"x": value} for value in (1.0, True, 1, 1.0, False, 0, 0.0, -0.0, True)]
    assert cli._render(mixed, "csv") == _seed_csv(mixed) == "x\n1\ntrue\n1\n1\nfalse\n0\n0\n0\ntrue\n"


def test_json_renderer_matches_the_per_record_renderer():
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e-3, -1e-3,
                math.nextafter(1e-3, 0.0), math.nextafter(1e-3, 1.0),
                math.nextafter(-1e-3, 0.0), math.nextafter(-1e-3, -1.0),
                1e20, -1e20, 146.2578125, 3.344946485685963e-08, 1.0,
                1, -7, 0, True, False, "ideal"]
    records = [
        {"mu_s": "ideal" if i % 7 == 0 else specials[i % 5], "a": specials[i % len(specials)],
         "b": specials[(3 * i) % len(specials)], "c": specials[-1 - i % len(specials)]}
        for i in range(3 * len(specials))
    ]
    for count in (0, 1, 2, len(records)):
        assert cli._render(records[:count], "json") == _seed_json(records[:count]), count
    for bad in (math.nan, math.inf, -math.inf):
        for rows in ([{"a": 1.0, "b": bad}], [{"a": 1.0, "b": 2.0}, {"a": bad, "b": 2.0}]):
            with pytest.raises(ValueError, match=f"not JSON compliant: {bad}$"):
                cli._render(rows, "json")
        assert cli._render([{"a": bad}], "csv") == f"a\n{_seed_cell(bad)}\n"


def test_one_parser_serves_many_calls_in_a_row(capsys, monkeypatch):
    # the same bytes as one call per fresh process, and a handler patched
    # after the parser was built is the one that runs
    monkeypatch.setenv("COLUMNS", "80")
    calls = [["sweep", "distance", "--mu-s", "0.5"], ["sweep", "distance"],
             ["evaluate", "--format", "csv"], ["optimize"]]
    commands = ("evaluate", "optimize", "sweep", "mc-validate", "budget")
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def fresh(*argv):
        done = subprocess.run([sys.executable, "-m", "brpqkd", *argv],
                              capture_output=True, text=True, env=env)
        return done.returncode, done.stdout, done.stderr

    for argv in calls:
        assert _run(capsys, *argv) == fresh(*argv), argv
    monkeypatch.setattr(cli, "_cmd_evaluate", lambda config, args: ("patched\n", 0))
    assert _run(capsys, "evaluate") == (0, "patched\n", "")
    for command in commands:
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert (exit_info.value.code, capsys.readouterr().out) == fresh(command, "--help")[:2]


_TABLE_MU = tuple(i / 100 for i in sorted(random.Random(2026).sample(range(1, 151), 40)))
_TABLE_LENGTHS = tuple(float(length) for length in range(0, 201))
_TABLE_D = tuple(i / 400 for i in range(0, 101))


@pytest.mark.parametrize("preset, det", [("gys2004", GYS_DETECTOR), ("ideal", IDEAL_DETECTOR)])
@pytest.mark.parametrize("loss", [0.17, 0.21, 0.25])
def test_sweep_tables_equal_the_per_record_reference(capsys, preset, det, loss):
    distance = [
        {"mu_s": row.mu_s, "length_km": row.length_km,
         "r_bob": row.r_bob, "r_eve": row.r_eve, "r_s": row.r_s}
        for row in sweep(SweepGrid(_TABLE_MU, _TABLE_LENGTHS, det, loss))
    ]
    disturbance = []
    for label in (IDEAL_SOURCE, *_TABLE_MU):
        for d in _TABLE_D:
            i_ab, i_ae = disturbance_tradeoff(label, d)
            disturbance.append({"mu_s": label, "d": d, "i_ab": i_ab, "i_ae": i_ae})
    shared = ["--mu-s", ",".join(map(repr, _TABLE_MU)), "--preset", preset,
              "--loss-db-km", repr(loss)]
    for axis, records in (("distance", distance), ("disturbance", disturbance)):
        for fmt, reference in (("csv", _seed_csv), ("json", _seed_json)):
            code, out, err = _run(capsys, "sweep", axis, *shared, "--format", fmt)
            assert (code, err) == (0, "")
            # compared by line: a diff of the whole table would take minutes
            assert out.splitlines(True) == reference(records).splitlines(True), (axis, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("mu_s", ["inf", "0.5,inf"])
def test_an_infinite_intensity_fails_a_disturbance_table_in_every_format(capsys, mu_s, fmt):
    # disturbance_tradeoff lets +inf through its > 0 rule; the table must not
    code, out, err = _run(capsys, "sweep", "disturbance", f"--mu-s={mu_s}", "--format", fmt)
    assert (code, out, err) == (2, "", "error: mu_s must be finite, got inf\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("axis", ["distance", "disturbance"])
def test_a_nan_intensity_is_named_not_finite_on_both_sweep_axes(capsys, axis, fmt):
    code, out, err = _run(capsys, "sweep", axis, "--mu-s=nan", "--format", fmt)
    assert (code, out, err) == (2, "", "error: mu_s must be finite, got nan\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("axis", ["distance", "disturbance"])
@pytest.mark.parametrize("mu_s", ["0.5,0.5", "0.9,0.5"])
def test_an_unordered_intensity_list_fails_both_sweep_axes(capsys, mu_s, axis, fmt):
    # a repeated value would print its block twice; both axes take one grid rule
    code, out, err = _run(capsys, "sweep", axis, "--mu-s", mu_s, "--format", fmt)
    assert (code, out, err) == (2, "", "error: mu_s_values must be strictly increasing\n")


_CONTRACT_COMMANDS = [
    ("evaluate",), ("optimize",), ("sweep", "distance"), ("sweep", "disturbance"),
    ("mc-validate", "--n-pulses", "10000"), ("budget",),
]
_FLOAT_FLAGS = ["mu-s", *(f.name.replace("_", "-") for f in cli._FLAG_FIELDS
                          if cli._KEY_TYPES[f.name] is float)]
_EDGE_VALUES = ["inf", "-inf", "nan", "0", "-0", "1e308", "800", "710", "1e-320", "-1", "0.5"]


def _invoke(argv):
    # main in-process, without capsys, which hypothesis would share between examples
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None)
@given(command=st.sampled_from(_CONTRACT_COMMANDS), flag=st.sampled_from(_FLOAT_FLAGS),
       value=st.sampled_from(_EDGE_VALUES))
@example(command=("sweep", "disturbance"), flag="mu-s", value="inf")
def test_every_command_exits_alike_in_csv_and_json(command, flag, value):
    # --flag=value, so that argparse reads "-inf" as a value, not as an option
    codes = []
    for fmt in ("csv", "json"):
        code, out, err = _invoke([*command, f"--{flag}={value}", "--format", fmt])
        assert code in (0, 2, 3, 4), (fmt, code, err)
        if code == 2:
            assert out == "" and err.startswith("error: "), (fmt, out, err)
        elif fmt == "csv":
            header, *rows = out.splitlines()
            width = header.count(",")
            assert rows and all(row.count(",") == width for row in rows)
        else:
            json.loads(out)
        codes.append(code)
    assert codes[0] == codes[1], codes


def test_arithmetic_errors_exit_2_without_a_traceback(capsys, monkeypatch):
    def overflowing(config, args):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "_cmd_evaluate", overflowing)
    code, out, err = _run(capsys, "evaluate")
    assert code == 2
    assert out == ""
    assert err == "error: math range error\n"


def test_multiple_crossings_exit_2_without_a_traceback(capsys):
    # rounding noise near r_s = 0 flips the margin's sign over a hundred times
    code, out, err = _run(
        capsys, "optimize", "--mu-s", "30,36.8,40", "--eta-d", "0.001", "--y0", "0",
        "--e-detector", "0",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: security margin changes sign")
    assert "Traceback" not in err


def test_json_never_prints_a_non_finite_number(capsys, monkeypatch):
    real = cli.evaluate_point
    monkeypatch.setattr(
        cli, "evaluate_point",
        lambda *args: dataclasses.replace(real(*args), r_bob=math.inf),
    )
    code, out, err = _run(capsys, "evaluate", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# every config-file key, a non-default value for it, and where the value shows up
# in the library calls a command makes (see _calls)
_CONFIG_KEYS = {
    "mu_s": ("0.37", 0.37, lambda calls: calls["evaluate"][0].mu_s),
    "mu_b": ("1234.5", 1234.5, lambda calls: calls["evaluate"][0].mu_b),
    "length_km": ("12.5", 12.5, lambda calls: calls["evaluate"][1].length_km),
    "loss_db_km": ("0.19", 0.19, lambda calls: calls["evaluate"][1].loss_db_per_km),
    "eta_d": ("0.5", 0.5, lambda calls: calls["evaluate"][2].eta_d),
    "y0": ("2e-5", 2e-5, lambda calls: calls["evaluate"][2].y0),
    "e_detector": ("0.02", 0.02, lambda calls: calls["evaluate"][2].e_detector),
    "e_0": ("0.4", 0.4, lambda calls: calls["evaluate"][2].e_0),
    "eve_mode": ("pns", "pns", lambda calls: calls["mc"][-1].eve.mode),
    "suppress_fraction": ("0.25", 0.25, lambda calls: calls["mc"][-1].eve.suppress_fraction),
    "forward_multiphoton_lossless": (
        "false", False, lambda calls: calls["mc"][-1].eve.forward_multiphoton_lossless),
    "n_pulses": ("20000", 20000, lambda calls: calls["mc"][0].n_pulses),
    "seed": ("99", 99, lambda calls: calls["mc"][0].seed),
    "source_intensity": ("7e5", 7e5, lambda calls: calls["chain"].source_intensity),
    "alice_split_long": ("0.6", 0.6, lambda calls: calls["chain"].alice_split_long),
    "bob_split_long": ("0.75", 0.75, lambda calls: calls["chain"].bob_split_long),
    "alice_attenuation_db": ("50", 50.0, lambda calls: calls["chain"].alice_attenuation_db),
    "bob_attenuation_db": ("51", 51.0, lambda calls: calls["chain"].bob_attenuation_db),
    "switch_crosstalk_db": ("22", 22.0, lambda calls: calls["chain"].switch_crosstalk_db),
    "p_afterpulse": ("0.01", 0.01, lambda calls: calls["afterpulse"]),
}


def _calls(monkeypatch, capsys, *argv):
    """Run evaluate, mc-validate and budget with ``argv``; record their library calls.

    The Monte Carlo is stubbed out, so only the configs it would run are kept.
    """
    calls = {"mc": []}

    def evaluate(source, channel, det):
        calls["evaluate"] = (source, channel, det)
        return security.evaluate_point(source, channel, det)

    def propagate(chain):
        calls["chain"] = chain
        return linkbudget.propagate(chain)

    def afterpulse(p):
        calls["afterpulse"] = p
        return 0.0

    def simulate(config, *args, **kwargs):
        calls["mc"].append(config)

    monkeypatch.setattr(cli, "evaluate_point", evaluate)
    monkeypatch.setattr(cli, "propagate", propagate)
    monkeypatch.setattr(cli, "afterpulse_error", afterpulse)
    monkeypatch.setattr(cli, "simulate", simulate)
    monkeypatch.setattr(cli, "simulate_attack", simulate)
    monkeypatch.setattr(cli, "compare_with_model", lambda config, result: [])
    for command in ("evaluate", "mc-validate", "budget"):
        code, out, err = _run(capsys, command, *argv)
        assert code in (0, 3), (command, err)
    return calls


@pytest.mark.parametrize("key", sorted(_CONFIG_KEYS))
def test_every_config_key_reaches_the_command(monkeypatch, capsys, tmp_path, key):
    config = tmp_path / "all.cfg"
    config.write_text("".join(f"{name} = {raw}\n" for name, (raw, _, _) in _CONFIG_KEYS.items()))
    calls = _calls(monkeypatch, capsys, "--config", str(config))
    _, expected, read = _CONFIG_KEYS[key]
    assert read(calls) == expected


# the records the CLI builds from config keys, and the fields it passes itself
@pytest.mark.parametrize("cls, given", [
    (DetectorParams, ()), (OpticalChain, ("channel",)), (EvePolicy, ("mode",)),
], ids=["DetectorParams", "OpticalChain", "EvePolicy"])
def test_every_field_the_cli_fills_is_a_config_key_of_its_name(cls, given):
    keys = {f.name for f in dataclasses.fields(cli.ExperimentConfig)}
    assert {f.name for f in dataclasses.fields(cls)} - keys == set(given)


def test_the_chain_defaults_are_its_config_key_defaults():
    defaults = {f.name: f.default for f in dataclasses.fields(cli.ExperimentConfig)}
    chain = [f for f in dataclasses.fields(OpticalChain) if f.default is not dataclasses.MISSING]
    assert chain
    assert {f.name: f.default for f in chain} == {f.name: defaults.get(f.name) for f in chain}


@pytest.mark.parametrize("raw, expected", [
    ("yes", True), ("off", False), ("1", True), ("0", False), (" True ", True), ("no", False),
])
def test_config_bool_spellings(monkeypatch, capsys, tmp_path, raw, expected):
    config = tmp_path / "bool.cfg"
    config.write_text(f"eve_mode = pns\nforward_multiphoton_lossless = {raw}\n")
    calls = _calls(monkeypatch, capsys, "--config", str(config))
    assert calls["mc"][-1].eve.forward_multiphoton_lossless is expected


def test_a_config_file_with_a_byte_order_mark_sets_its_first_key(monkeypatch, capsys, tmp_path):
    # some editors begin a UTF-8 file with U+FEFF; it is not part of the first key
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(b"mu_s = 0.37\nseed = 99\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    from_plain = _calls(monkeypatch, capsys, "--config", str(plain))
    from_marked = _calls(monkeypatch, capsys, "--config", str(marked))
    assert from_marked["evaluate"][0].mu_s == from_plain["evaluate"][0].mu_s == 0.37
    assert from_marked["mc"][0].seed == from_plain["mc"][0].seed == 99


def test_an_integral_float_reads_as_an_int_from_a_flag_and_a_config_file(
        monkeypatch, capsys, tmp_path):
    # the integer rule of McConfig and README: 1e4 counts as 10000, 1.5 does not
    config = tmp_path / "floats.cfg"
    config.write_text("n_pulses = 2e4\nseed = 7e0\n")
    for argv in (("--n-pulses", "2e4", "--seed", "7e0"), ("--config", str(config))):
        (mc,) = _calls(monkeypatch, capsys, *argv)["mc"]
        assert (mc.n_pulses, mc.seed) == (20000, 7)
    # int() reads first, so a seed past the float's 53 bits stays exact
    (mc,) = _calls(monkeypatch, capsys, "--seed", str(2**64 - 1))["mc"]
    assert mc.seed == 2**64 - 1
    for raw in ("1.5", "nan", "inf"):
        with pytest.raises(SystemExit) as exit_info:
            main(["mc-validate", "--n-pulses", raw])
        assert exit_info.value.code == 2
        assert f"invalid int value: '{raw}'" in capsys.readouterr().err


def test_a_negative_zero_intensity_reads_as_zero(capsys):
    # mu_s = 0 expects no clicks; the error names the intensity as 0.0 either way
    outcomes = [_run(capsys, "evaluate", "--mu-s", zero) for zero in ("-0", "0")]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 2 and "mu_s=0.0," in outcomes[0][2]


def test_forward_multiphoton_lossless_defaults_differ_on_purpose(monkeypatch, capsys):
    # the CLI runs the canonical splitting attack (the pns golden pins it); the
    # library's EvePolicy keeps a null policy that replays the honest stream
    assert cli.ExperimentConfig().forward_multiphoton_lossless is True
    assert EvePolicy(mode="pns").forward_multiphoton_lossless is False
    calls = _calls(monkeypatch, capsys, "--eve-mode", "pns")
    assert calls["mc"][-1].eve.forward_multiphoton_lossless is True


@pytest.mark.parametrize("line, message", [
    ("mu_b = abc", "error: bad value for config key 'mu_b': 'abc' (expected float)\n"),
    ("n_pulses = 1.5", "error: bad value for config key 'n_pulses': '1.5' (expected int)\n"),
    ("forward_multiphoton_lossless = maybe",
     "error: bad value for config key 'forward_multiphoton_lossless': 'maybe' (expected bool)\n"),
    ("eve_mode = mitm", "error: eve_mode must be 'none' or 'pns', got 'mitm'\n"),
    ("preset = bogus", "error: unknown preset 'bogus' (choices: gys2004, ideal)\n"),
    ("mu_s = 0.5,x",
     "error: bad value for config key 'mu_s': '0.5,x' (expected a comma list of floats)\n"),
])
def test_bad_config_values_exit_2_with_their_message(capsys, tmp_path, line, message):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    code, out, err = _run(capsys, "evaluate", "--config", str(config))
    assert (code, out, err) == (2, "", message)


def test_a_bad_mu_s_flag_names_the_flag(capsys):
    code, out, err = _run(capsys, "evaluate", "--mu-s", "0.5,x")
    assert (code, out, err) == (
        2, "", "error: bad --mu-s value '0.5,x': could not convert string to float: 'x'\n")


# flag, the config key it overrides, a file value and a flag value
_FLAG_OVERRIDES = [
    ("--mu-s", "mu_s", "0.2", "0.3"),
    ("--mu-b", "mu_b", "100", "200"),
    ("--length-km", "length_km", "10", "20"),
    ("--loss-db-km", "loss_db_km", "0.17", "0.25"),
    ("--eta-d", "eta_d", "0.1", "0.2"),
    ("--y0", "y0", "1e-5", "3e-5"),
    ("--e-detector", "e_detector", "0.01", "0.04"),
    ("--eve-mode", "eve_mode", "none", "pns"),
    ("--suppress-fraction", "suppress_fraction", "0.1", "0.9"),
    ("--n-pulses", "n_pulses", "30000", "40000"),
    ("--seed", "seed", "5", "6"),
]


@pytest.mark.parametrize("flag, key, file_value, flag_value", _FLAG_OVERRIDES)
def test_flags_win_over_the_config_file(monkeypatch, capsys, tmp_path,
                                        flag, key, file_value, flag_value):
    config = tmp_path / "run.cfg"
    base = {name: raw for name, (raw, _, _) in _CONFIG_KEYS.items()}
    config.write_text("".join(
        f"{name} = {file_value if name == key else raw}\n" for name, raw in base.items()
    ))
    read = _CONFIG_KEYS[key][2]
    from_file = read(_calls(monkeypatch, capsys, "--config", str(config)))
    from_flag = read(_calls(monkeypatch, capsys, "--config", str(config), flag, flag_value))
    parse = str if key == "eve_mode" else type(_CONFIG_KEYS[key][1])
    assert (from_file, from_flag) == (parse(file_value), parse(flag_value))


def test_config_file_wins_over_the_preset(monkeypatch, capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("eta_d = 0.5\n")
    calls = _calls(monkeypatch, capsys, "--preset", "ideal", "--config", str(config))
    assert calls["evaluate"][2] == cli.DetectorParams(eta_d=0.5, y0=0.0, e_detector=0.0)


def test_config_keys_are_the_config_fields():
    assert list(_CONFIG_KEYS) == [f.name for f in dataclasses.fields(cli.ExperimentConfig)]


def test_preset_flag_overrides_a_config_file_preset(monkeypatch, capsys, tmp_path):
    config = tmp_path / "p.cfg"
    config.write_text("preset = ideal\n")
    code, out, err = _run(capsys, "evaluate", "--config", str(config), "--preset", "gys2004")
    assert (code, err) == (0, "")
    from_file = _calls(monkeypatch, capsys, "--config", str(config))
    from_flag = _calls(monkeypatch, capsys, "--config", str(config), "--preset", "gys2004")
    assert from_file["evaluate"][2] == cli.IDEAL_DETECTOR
    assert from_flag["evaluate"][2] == cli.GYS_DETECTOR
    config.write_text("preset = bogus\n")
    code, out, err = _run(capsys, "evaluate", "--config", str(config), "--preset", "ideal")
    assert (code, out) == (2, "")
    assert "unknown preset 'bogus'" in err


def test_readme_names_every_config_key_and_flag(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    for f in dataclasses.fields(cli.ExperimentConfig):
        assert f"`{f.name}`" in readme, f.name
    for command in ("evaluate", "optimize", "sweep", "mc-validate", "budget"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)) - {"--help"}
        assert flags
        for flag in flags:
            assert f"`{flag}" in readme, flag
