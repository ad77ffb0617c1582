"""brpqkd benchmark: seeded closed-loop workloads with checked answers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload design-queries --seed 1 --seconds 20 --trace 0

Each run imports the package from ``src/`` of the checkout, measures
set-up in fresh interpreters, replays the workload's golden CLI
invocations, then runs the workload's op stream with one client for
``--seconds`` seconds, checking every answer.  The last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  The line before it carries provenance and the
end-to-end figures under the names used in the workload descriptions
(``queries_per_s``, ``cells_per_s``, ``pulses_per_s``, ``fail_frac``).
``fail_frac`` counts every failed op; ``failed`` leaves out the ops that
hit the tracked ``mu_s >= 710`` overflow (``OverflowError`` where a
``ValueError`` is documented), so that a run fails only on a regression
while a fix of that defect still shows as a drop in ``fail_frac``.
Full results, and a sample of spans for traced runs, are written to
``perfbench/out/``.

With ``--trace 1`` every op runs twice, untraced and traced in
alternating order; layer figures come from the traced run and the
tracing overhead is the difference of the two medians.
"""

from __future__ import annotations

import os

# one client, at most nproc threads: no hidden BLAS pools
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 9
MIN_OPS = 20  # enough for a tail percentile with 10 samples beyond it
TAIL_BEYOND = 10
MAX_ERRORS_KEPT = 20

# each workload and its throughput unit, named as in the workload descriptions
THROUGHPUT = {
    "design-queries": ("queries_per_s", "queries/s"),
    "bulk-tables": ("cells_per_s", "cells/s"),
    "mc-validation": ("pulses_per_s", "pulses/s"),
}

_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import brpqkd, brpqkd.cli
t2 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads
workloads.warm_up(sys.argv[2])
print(json.dumps({"import_numpy_s": t1 - t0, "import_brpqkd_s": t2 - t1}), flush=True)
"""


def measure_setup(workload: str) -> dict:
    """Median over fresh interpreters of the time from spawn to ready (imports + one op)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ready, numpy_s, brpqkd_s = [], [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _SETUP_CHILD, str(HERE), workload],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as child:
            line = child.stdout.readline()
            ready.append(time.perf_counter() - start)
            _, err = child.communicate(timeout=120)
        if child.returncode != 0 or not line:
            raise RuntimeError(f"set-up interpreter failed: {err.decode(errors='replace')}")
        report = json.loads(line)
        numpy_s.append(report["import_numpy_s"])
        brpqkd_s.append(report["import_brpqkd_s"])
    return {"setup_s": statistics.median(ready),
            "import_numpy_s": statistics.median(numpy_s),
            "import_brpqkd_s": statistics.median(brpqkd_s)}


def execute(op, tracer):
    """Run one op, timed; returns (result, exception, nanoseconds)."""
    scope = tracer.op("op") if tracer is not None else contextlib.nullcontext()
    with scope:
        start = time.perf_counter_ns()
        try:
            result, exc = op.run(), None
        except Exception as caught:  # any exception is an answer the check judges
            result, exc = None, caught
        elapsed = time.perf_counter_ns() - start
    return result, exc, elapsed


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def run_stream(workload: str, seed: int, seconds: float, threads: int, tracer) -> dict:
    import workloads

    stats: dict = {}
    ops = workloads.stream(workload, seed, stats, threads)
    untraced_ns, traced_ns, errors = [], [], []
    kinds, failed_kinds, known_defects = Counter(), Counter(), Counter()
    facts: dict[str, list] = {}
    work = 0
    deadline = time.perf_counter() + seconds
    for index, op in enumerate(ops):
        if index >= MIN_OPS and time.perf_counter() >= deadline:
            break
        if tracer is None:
            result, exc, ns = execute(op, None)
            untraced_ns.append(ns)
        else:
            # alternate which side runs first so neither gains from the other
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                outcome = execute(op, tracer if traced else None)
                (traced_ns if traced else untraced_ns).append(outcome[2])
                if traced:
                    result, exc, _ = outcome
        error = op.check(result, exc)
        if error is None and op.rerun is not None:
            scope = tracer.op("aux") if tracer is not None else contextlib.nullcontext()
            with scope:
                error = op.rerun(result)
        kinds[op.kind] += 1
        work += op.work
        for key, value in op.facts.items():
            facts.setdefault(key, []).append(value)
        if error is not None:
            if exc is not None and isinstance(exc, op.known_defect):
                known_defects[op.kind] += 1
            else:
                failed_kinds[op.kind] += 1
            if len(errors) < MAX_ERRORS_KEPT:
                errors.append(f"op {index} ({op.kind}): {error}")
    return {"untraced_ns": untraced_ns, "traced_ns": traced_ns, "kinds": kinds,
            "failed_kinds": failed_kinds, "known_defects": known_defects, "errors": errors,
            "work": work, "facts": facts, "stats": stats}


def layer_metrics(tracer, extras: dict) -> dict:
    """The per-layer metrics, by name, from a traced run."""
    ep = "security.evaluate_point"
    params_names = ("params.SourceParams", "params.ChannelParams", "params.DetectorParams")

    def per_call(*names, field="ns", scale=1e3):
        entry = tracer.pick(*names)
        return entry[field] / entry["calls"] / scale if entry["calls"] else 0.0

    def children_per_call(parent, child):
        entry = tracer.pick(parent)
        return entry["edges"].get((parent, child), 0) / entry["calls"] if entry["calls"] else 0.0

    def ns_per_pulse(*names):
        entry = tracer.pick(*names)
        return entry["ns"] / entry["units"] if entry["units"] else 0.0

    ops = tracer.agg["op"]
    plan = tracer.agg["default_plan"]
    sweep = tracer.pick("optimize.sweep")
    t1 = ns_per_pulse("montecarlo.simulate.t1", "montecarlo.simulate_attack.t1")
    t2 = ns_per_pulse("montecarlo.simulate.t2", "montecarlo.simulate_attack.t2")
    values = {
        "security.evaluate_point.calls": (tracer.per_op(ep), "count/op"),
        "security.evaluate_point.self_us": (per_call(ep, field="self_ns"), "us"),
        "security.share": (ops["names"][ep][1] / ops["op_ns"] if ops["op_ns"] else 0.0,
                           "fraction"),
        "params.built": (tracer.per_op(*params_names), "count/op"),
        "params.self_us": (per_call(*params_names, field="self_ns"), "us"),
        "photon_stats.channel_transmittance.calls":
            (tracer.per_op("photon_stats.channel_transmittance"), "count/op"),
        "optimize.secure_distance.evals":
            (children_per_call("optimize.secure_distance", ep), "count/search"),
        "optimize.optimal_signal_intensity.searches":
            (children_per_call("optimize.optimal_signal_intensity", "optimize.secure_distance"),
             "count/plan"),
        "optimize.optimal_signal_intensity.ms":
            (per_call("optimize.optimal_signal_intensity", scale=1e6), "ms"),
        "optimize.default_plan.evals":
            (plan["names"][ep][0] / plan["ops"] if plan["ops"] else 0.0, "count/plan"),
        "optimize.brp_intensity_bound.us": (per_call("optimize.brp_intensity_bound"), "us"),
        "optimize.disturbance_bound.us": (per_call("optimize.disturbance_bound"), "us"),
        "optimize.sweep.ms": (per_call("optimize.sweep", scale=1e6), "ms"),
        "optimize.sweep.cells_per_s":
            (sweep["units"] / sweep["ns"] * 1e9 if sweep["ns"] else 0.0, "cells/s"),
        "optimize.disturbance_tradeoff.calls":
            (tracer.per_op("optimize.disturbance_tradeoff"), "count/op"),
        "optimize.disturbance_tradeoff.self_us":
            (per_call("optimize.disturbance_tradeoff", field="self_ns"), "us"),
        "linkbudget.propagate.us": (per_call("linkbudget.propagate"), "us"),
        "cli.main.self_ms": (per_call("cli.main", field="self_ns", scale=1e6), "ms"),
        "cli.bytes_out": (extras["bytes_out"], "bytes/op"),
        "montecarlo.simulate.ns_per_pulse.t1": (ns_per_pulse("montecarlo.simulate.t1"), "ns/pulse"),
        "montecarlo.simulate.ns_per_pulse.t2": (ns_per_pulse("montecarlo.simulate.t2"), "ns/pulse"),
        "montecarlo.simulate_attack.ns_per_pulse.t1":
            (ns_per_pulse("montecarlo.simulate_attack.t1"), "ns/pulse"),
        "montecarlo.simulate_attack.ns_per_pulse.t2":
            (ns_per_pulse("montecarlo.simulate_attack.t2"), "ns/pulse"),
        "montecarlo.thread_speedup": (t1 / t2 if t2 else 0.0, "ratio"),
        "montecarlo.derive_stream.calls": (tracer.per_op("montecarlo.derive_stream"), "count/op"),
        "montecarlo.derive_stream.us": (per_call("montecarlo.derive_stream"), "us"),
        "montecarlo.compare_with_model.us": (per_call("montecarlo.compare_with_model"), "us"),
        "montecarlo.z_max": (extras["z_max"], "sigma"),
        "setup.import_numpy_s": (extras["import_numpy_s"], "s"),
        "setup.import_brpqkd_s": (extras["import_brpqkd_s"], "s"),
        "trace.overhead_ms": (extras["overhead_ms"], "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "brpqkd").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return proc.stdout.strip() or None


def summarize_facts(facts: dict[str, list]) -> dict:
    summary = {}
    for key, values in facts.items():
        numbers = [v for v in values if isinstance(v, (int, float))]
        if numbers:
            summary[key] = {"min": min(numbers), "median": statistics.median(numbers),
                            "max": max(numbers), "ops": len(numbers)}
    return summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(THROUGHPUT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "brpqkd" / "__init__.py").is_file():
        print(f"error: no brpqkd package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    load_start = os.getloadavg()

    import numpy
    import brpqkd
    from brpqkd import cli

    if Path(brpqkd.__file__).resolve().parent != (SRC / "brpqkd").resolve():
        print(f"error: imported brpqkd from {brpqkd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import golden
    import tracing
    import workloads

    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    setup = measure_setup(args.workload)
    workloads.warm_up(args.workload)

    expected_outputs = golden.load(args.workload)
    golden_errors = [error for expected in expected_outputs
                     if (error := golden.check(cli.main, expected)) is not None]
    golden_count = len(expected_outputs)

    tracer = tracing.Tracer() if args.trace else None
    stream = run_stream(args.workload, args.seed, args.seconds, threads, tracer)

    untraced_ms = [ns / 1e6 for ns in stream["untraced_ns"]]
    n_ops = len(untraced_ms)
    attempted = n_ops + golden_count
    failed = sum(stream["failed_kinds"].values()) + len(golden_errors)
    known_defects = sum(stream["known_defects"].values())
    p50 = statistics.median(untraced_ms)
    tail_ms, tail_pct = tail(untraced_ms)
    throughput = stream["work"] / (sum(untraced_ms) / 1e3)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    throughput_name, throughput_unit = THROUGHPUT[args.workload]

    summary = {
        "setup_s": {"value": setup["setup_s"], "unit": "s", "interpreters": SETUP_RUNS},
        "op_p50_ms": {"value": p50, "unit": "ms", "samples": n_ops},
        "op_tail_ms": {"value": tail_ms, "unit": "ms", "percentile": tail_pct,
                       "samples_beyond": min(TAIL_BEYOND, n_ops - 1), "samples": n_ops},
        throughput_name: {"value": throughput, "unit": throughput_unit},
        "fail_frac": {"value": (failed + known_defects) / attempted, "unit": "fraction",
                      "failed": failed + known_defects, "attempted": attempted,
                      "known_defect": known_defects, "golden_failed": len(golden_errors),
                      "failed_by_kind": dict(stream["failed_kinds"] + stream["known_defects"])},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    pair_queries = stream["stats"].get("pair_queries", 0)
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(), "nproc": nproc, "threads": threads,
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "ops_by_kind": dict(stream["kinds"]), "per_op_inputs": summarize_facts(stream["facts"]),
        "repeated_pair_share": (stream["stats"].get("pair_repeats", 0) / pair_queries
                                if pair_queries else None),
        "golden_invocations": golden_count,
        "errors": golden_errors + stream["errors"],
    }

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "op_p50_ms": {"value": p50, "unit": "ms"},
            "op_tail_ms": {"value": tail_ms, "unit": "ms"},
            "work_per_s": {"value": throughput, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        z_probe = workloads.probe(tracer, threads)
        traced_p50 = statistics.median(ns / 1e6 for ns in stream["traced_ns"])
        provenance["trace_overhead_ms"] = traced_p50 - p50
        bytes_out = stream["facts"].get("bytes_out", [])
        extras = {
            "bytes_out": sum(bytes_out) / len(bytes_out) if bytes_out else 0.0,
            "z_max": stream["stats"].get("z_max", z_probe),
            "import_numpy_s": setup["import_numpy_s"],
            "import_brpqkd_s": setup["import_brpqkd_s"],
            "overhead_ms": traced_p50 - p50,
        }
        metrics = layer_metrics(tracer, extras)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    record = {"result": result, "summary": summary, "provenance": provenance}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        with open(OUT / f"{args.workload}.spans.jsonl", "w", encoding="utf-8") as spans:
            spans.writelines(json.dumps(span) + "\n" for span in tracer.sample)
    print(json.dumps({"summary": summary, "provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
