"""Span tracing around brpqkd's public names, from outside the package.

While an op runs under :meth:`Tracer.op`, each traced name is replaced,
in every ``brpqkd`` module that binds it, by a wrapper that records a
span: name, start, end, parent span, thread and op.  Callers inside the
package resolve those names at call time, so calls between layers are
seen too (``secure_distance`` calling ``evaluate_point``, ``cli.main``
calling ``sweep``).  Parameter classes are traced through their
``__init__``, which counts every construction whatever the call site.
Outside an op the original objects are restored, so untraced runs pay
nothing.

Self time is a span's duration minus the time its child spans cover;
children on other threads (Monte Carlo workers) are merged as intervals
so that overlapping children are not subtracted twice.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# layer -> traced public names; the layer boundaries of the benchmark
TRACED = {
    "params": ("SourceParams", "ChannelParams", "DetectorParams"),
    "photon_stats": ("channel_transmittance",),
    "security": ("evaluate_point",),
    "optimize": ("secure_distance", "optimal_signal_intensity", "brp_intensity_bound",
                 "disturbance_tradeoff", "disturbance_bound", "sweep"),
    "linkbudget": ("propagate", "crosstalk_false_click"),
    "montecarlo": ("simulate", "simulate_attack", "derive_stream", "compare_with_model"),
    "cli": ("main",),
}

# op kinds in the order a per-call metric looks for samples
KINDS = ("op", "aux", "probe", "default_plan")

SPAN_SAMPLE = 20_000  # spans kept for the spans file per run

_NAME, _START, _END, _PARENT, _THREAD, _UNITS, _OP = range(7)


def _units(name: str, result) -> int:
    # work units carried by a span: pulses for simulations, rows for sweeps
    if name.startswith("montecarlo.simulate"):
        return result.counts.pulses
    if name == "optimize.sweep":
        return len(result)
    return 0


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, end = 0, None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


class Tracer:
    """Records spans of traced brpqkd names for ops run under :meth:`op`."""

    def __init__(self) -> None:
        import brpqkd

        modules = [m for name, m in sys.modules.items()
                   if name == "brpqkd" or name.startswith("brpqkd.")]
        self._patches = []  # (holder, attribute, original, wrapper)
        for layer, names in TRACED.items():
            module = getattr(brpqkd, layer)
            for name in names:
                original = getattr(module, name)
                span_name = f"{layer}.{name}"
                if isinstance(original, type):
                    init = original.__init__
                    self._patches.append((original, "__init__", init, self._wrap(span_name, init)))
                    continue
                wrapper = self._wrap(span_name, original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, attr, original, wrapper))
        self._local = threading.local()
        self._main_stack: list = []
        self._spans: list = []
        self._op_index = 0
        self.sample: list = []
        # kind -> {"ops", "op_ns", "names": {name: [calls, ns, self_ns, units]}, "edges"}
        self.agg = {kind: {"ops": 0, "op_ns": 0,
                           "names": defaultdict(lambda: [0, 0, 0, 0]),
                           "edges": defaultdict(int)} for kind in KINDS}

    def _wrap(self, name: str, fn):
        tracer = self
        split_threads = name in ("montecarlo.simulate", "montecarlo.simulate_attack")

        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # a worker thread's first span hangs under the op thread's open span
            parent = stack[-1] if stack else tracer._main_stack[-1]
            label = f"{name}.t{kwargs.get('threads', 1)}" if split_threads else name
            span = [label, time.perf_counter_ns(), 0, parent, threading.get_ident(), 0,
                    tracer._op_index]
            tracer._spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span[_UNITS] = _units(name, result)
                return result
            finally:
                span[_END] = time.perf_counter_ns()
                stack.pop()

        return traced

    @contextmanager
    def op(self, kind: str):
        """Trace everything called inside the block as one op of ``kind``."""
        self._op_index += 1
        root = ["op", 0, 0, None, threading.get_ident(), 0, self._op_index]
        self._spans = [root]
        self._main_stack = self._local.stack = [root]
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)
        root[_START] = time.perf_counter_ns()
        try:
            yield
        finally:
            root[_END] = time.perf_counter_ns()
            for holder, attr, original, _ in self._patches:
                setattr(holder, attr, original)
            self._local.stack = []
            self._aggregate(kind)

    def _aggregate(self, kind: str) -> None:
        spans, self._spans = self._spans, []
        same_thread = defaultdict(int)
        cross_thread = defaultdict(list)
        for span in spans:
            parent = span[_PARENT]
            if parent is None:
                continue
            if parent[_THREAD] == span[_THREAD]:
                same_thread[id(parent)] += span[_END] - span[_START]
            else:
                cross_thread[id(parent)].append((span[_START], span[_END]))
        agg = self.agg[kind]
        agg["ops"] += 1
        agg["op_ns"] += spans[0][_END] - spans[0][_START]
        names, edges = agg["names"], agg["edges"]
        for span in spans[1:]:
            duration = span[_END] - span[_START]
            covered = same_thread[id(span)] + _union_ns(cross_thread.get(id(span), []))
            entry = names[span[_NAME]]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - covered
            entry[3] += span[_UNITS]
            edges[(span[_PARENT][_NAME], span[_NAME])] += 1
        room = SPAN_SAMPLE - len(self.sample)
        if room > 0:
            index = {id(span): i + len(self.sample) for i, span in enumerate(spans[:room])}
            self.sample.extend(
                {"op": span[_OP], "kind": kind, "name": span[_NAME],
                 "start_ns": span[_START], "end_ns": span[_END],
                 "parent": index.get(id(span[_PARENT])), "thread": span[_THREAD]}
                for span in spans[:room])

    # -- reading the aggregates -------------------------------------------

    def per_op(self, *names: str) -> float:
        """Calls of ``names`` per op of kind "op" (0 when the workload never calls them)."""
        agg = self.agg["op"]
        if not agg["ops"]:
            return 0.0
        return sum(agg["names"][n][0] for n in names if n in agg["names"]) / agg["ops"]

    def pick(self, *names: str) -> dict:
        """Combined entry of ``names`` from the first kind that called them.

        Per-call figures come from the workload's own ops when it calls the
        name, else from the sampled reruns, else from the fixed probe.
        """
        for kind in KINDS:
            found = [self.agg[kind]["names"][n] for n in names if n in self.agg[kind]["names"]]
            calls = sum(entry[0] for entry in found)
            if calls:
                return {"kind": kind, "calls": calls,
                        "ns": sum(e[1] for e in found), "self_ns": sum(e[2] for e in found),
                        "units": sum(e[3] for e in found), "edges": self.agg[kind]["edges"]}
        return {"kind": None, "calls": 0, "ns": 0, "self_ns": 0, "units": 0, "edges": {}}
