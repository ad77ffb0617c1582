"""Tests of the benchmark itself: determinism, the restatement, and checks that bite.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from brpqkd import cli, optimize, params, security

import golden
import model_ref
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
GYS = params.GYS_DETECTOR


def _first(workload, seed, count):
    return list(itertools.islice(workloads.stream(workload, seed, {}), count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_streams_are_deterministic_in_the_seed(workload):
    first = [(op.kind, op.inputs) for op in _first(workload, 3, 60)]
    again = [(op.kind, op.inputs) for op in _first(workload, 3, 60)]
    other = [(op.kind, op.inputs) for op in _first(workload, 4, 60)]
    assert first == again
    assert first != other


def test_design_mix_holds_on_every_prefix():
    kinds = [op.kind for op in _first("design-queries", 9, 200)]
    weights = {"plan": 20, "reach": 15, "batch": 10, "disturbance": 4, "outside": 1}
    for n in range(1, len(kinds) + 1):
        for kind, weight in weights.items():
            assert abs(kinds[:n].count(kind) - n * weight / 50) <= 1.0


def _detectors():
    rng = random.Random(0)
    return [GYS, params.IDEAL_DETECTOR] + [workloads._gys_like(rng) for _ in range(6)]


def test_restatement_matches_evaluate_point_over_the_generator_ranges():
    rng = random.Random(1)
    for det in _detectors():
        for _ in range(60):
            mu_s, length = rng.uniform(0.01, 1.5), rng.uniform(0.0, 250.0)
            loss = rng.uniform(0.17, 0.25)
            report = security.evaluate_point(params.SourceParams(mu_s=mu_s),
                                             params.ChannelParams(length, loss), det)
            assert workloads.check_report(mu_s, length, loss, det, report) is None


def test_restatement_matches_disturbance_tradeoff():
    for mu_s in [None, 0.01, 0.05, 0.3, 0.5, 1.0, 1.5]:
        label = optimize.IDEAL_SOURCE if mu_s is None else mu_s
        for i in range(101):
            d = i / 400
            i_ab, i_ae = optimize.disturbance_tradeoff(label, d)
            ref_ab, ref_ae = model_ref.tradeoff(mu_s, d)
            assert model_ref.info_close(i_ab, ref_ab) and model_ref.info_close(i_ae, ref_ae)


def test_restated_crossing_brackets_secure_distance():
    for det in _detectors()[:4]:
        for mu_s in (0.1, 0.5, 0.9):
            found = optimize.secure_distance(mu_s, det, 0.21)
            crossing = model_ref.crossing_km(mu_s, det, 0.21)
            assert found.distance_km <= crossing <= found.distance_km + 0.01 or found.unbounded


def _run_op(op):
    try:
        result, exc = op.run(), None
    except Exception as caught:
        result, exc = None, caught
    return result, exc, op.check(result, exc)


def test_generated_ops_pass_their_checks_at_this_commit():
    design = [op for op in _first("design-queries", 5, 100) if op.kind != "plan"]
    design += [op for op in _first("design-queries", 5, 6) if op.kind == "plan"][:1]
    ops = design + _first("bulk-tables", 5, 6) + _first("mc-validation", 5, 1)
    for op in ops:
        result, exc, error = _run_op(op)
        if op.kind == "outside":
            # the tracked mu_s >= 710 overflow
            assert error is not None and isinstance(exc, op.known_defect)
            continue
        assert error is None, error
        if op.rerun is not None:
            assert op.rerun(result) is None


def test_anchor_is_the_first_reach_query():
    reach = next(op for op in _first("design-queries", 8, 20) if op.kind == "reach")
    assert reach.inputs == (0.5, GYS, 0.21)
    assert _run_op(reach)[2] is None


def test_relative_error_of_1e_9_in_r_s_is_caught():
    report = security.evaluate_point(params.SourceParams(0.5), params.ChannelParams(60.0), GYS)
    assert workloads.check_report(0.5, 60.0, 0.21, GYS, report) is None
    wrong = dataclasses.replace(report, r_s=report.r_s * (1 + 1e-9))
    assert "r_s" in workloads.check_report(0.5, 60.0, 0.21, GYS, wrong)


def test_reach_too_long_fails_the_op(monkeypatch):
    real = optimize.secure_distance

    def too_far(*args, **kwargs):
        found = real(*args, **kwargs)
        return found._replace(distance_km=found.distance_km + 0.02)

    monkeypatch.setattr(optimize, "secure_distance", too_far)
    for anchor in (True, False):
        assert _run_op(workloads._reach_op(0.4, GYS, 0.21, anchor))[2] is not None


def test_altered_golden_bytes_fail(tmp_path):
    copy = tmp_path / "golden"
    shutil.copytree(golden.GOLDEN_DIR, copy)
    expected = golden.load("design-queries", copy)
    assert all(golden.check(cli.main, item) is None for item in expected[:2])
    path = copy / f"{expected[0][0]}.out"
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))
    assert golden.check(cli.main, golden.load("design-queries", copy)[0]) is not None


def test_wrong_table_cells_count_as_failed_ops(monkeypatch):
    real = optimize.sweep

    def skewed(grid):
        return [dataclasses.replace(row, r_s=row.r_s * (1 + 1e-6)) for row in real(grid)]

    monkeypatch.setattr(cli, "sweep", skewed)
    stream = run.run_stream("bulk-tables", 2, 0.0, 2, None)
    assert stream["failed_kinds"]["distance"] == stream["kinds"]["distance"] > 0
    assert stream["failed_kinds"]["disturbance"] == 0


def test_thread_count_mismatch_is_caught():
    op = _first("mc-validation", 6, 1)[0]
    result, exc, error = _run_op(op)
    assert error is None and op.rerun(result) is None
    honest, attacked, rows = result
    bumped = honest.counts._replace(clicks=honest.counts.clicks + 1)
    assert op.rerun((dataclasses.replace(honest, counts=bumped), attacked, rows)) is not None


def test_known_defect_is_only_the_overflow():
    op = workloads._outside_op(0, 800.0, 50.0, GYS, 0.21)
    assert isinstance(_run_op(op)[1], OverflowError)
    assert op.check(None, ValueError("documented")) is None
    assert op.check(None, RuntimeError("other")) is not None
    assert not isinstance(RuntimeError(), op.known_defect)


def test_union_of_child_intervals():
    assert tracing._union_ns([(0, 10), (5, 15), (20, 30)]) == 25
    assert tracing._union_ns([]) == 0


def _contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workload_names_agree():
    names = tuple(workload["name"] for workload in _contract()["workloads"])
    assert names == workloads.WORKLOADS == tuple(run.THROUGHPUT)


@pytest.mark.parametrize("workload,trace", [
    ("bulk-tables", 0), ("bulk-tables", 1), ("mc-validation", 1), ("design-queries", 0),
])
def test_result_line_follows_the_contract(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = _contract()["per_layer" if trace else "end_to_end"]
    assert {name: (value["unit"]) for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        counts = result["metrics"]
        assert counts["optimize.default_plan.evals"]["value"] == 31248
        if workload == "mc-validation":
            assert counts["montecarlo.derive_stream.calls"]["value"] == 32


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
