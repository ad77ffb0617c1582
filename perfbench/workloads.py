"""Seeded workload generators, the library calls they make, and answer checks.

A workload is an endless, seed-determined stream of :class:`Op`.  Each op
holds only plain inputs; ``run`` makes the library calls that are timed
and ``check`` verifies the answer afterwards, untimed, against
:mod:`model_ref` and invariants of the searches.  Library functions are
always looked up on their module at call time so that the tracer's
wrappers see them.

Mixes are interleaved by smooth weighted round robin, and the draws that
drive an op's cost (table sizes, Monte Carlo intensities) follow a
golden-ratio sequence with a seeded offset, so every prefix of a stream
has nearly the same mix and size distribution whatever the seed.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from typing import Callable, NamedTuple

from brpqkd import cli, linkbudget, montecarlo, optimize, params, security

import golden
import model_ref

WORKLOADS = ("design-queries", "bulk-tables", "mc-validation")

GRID19 = tuple(i / 20 for i in range(2, 21))  # the CLI's optimize grid, 0.10 .. 1.00
ANCHOR = (0.5, 0.21, 146.2578125)  # secure_distance(0.5, GYS, 0.21) at this model
CAP_KM = 1000.0  # the searches' documented scan cap
DISTANCE_LENGTHS = 201  # rows per mu_s in a distance table (0 .. 200 km)
DISTURBANCE_POINTS = 101  # rows per source in a disturbance table (d = 0 .. 0.25)
BATCH = 64  # evaluate_point calls per batch query
MC_PULSES = 1 << 20  # 16 Monte Carlo blocks per run
T1_EVERY = 8  # every 8th mc op is rerun at threads=1
SAMPLED_ROWS = 64  # table rows checked against the restatement per op
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class Op(NamedTuple):
    """One operation: ``run()`` is timed, ``check(result, exc)`` returns an error or None."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], str | None]
    work: int  # units of the workload's throughput metric this op completes
    facts: dict  # per-op input sizes and other provenance
    inputs: tuple  # the generated inputs, as plain values
    rerun: Callable[[object], str | None] | None = None  # untimed extra check
    # exceptions of a known, tracked defect: reported, but not a regression
    known_defect: tuple[type[BaseException], ...] = ()


def interleave(weights: dict[str, int]):
    """Smooth weighted round robin: every prefix holds each kind within one of its share."""
    total = sum(weights.values())
    current = dict.fromkeys(weights, 0)
    while True:
        for kind, weight in weights.items():
            current[kind] += weight
        kind = max(current, key=current.get)
        current[kind] -= total
        yield kind


def spread(rng: random.Random):
    """Golden-ratio sequence in [0, 1) with a seeded offset."""
    value = rng.random()
    while True:
        value = (value + _PHI) % 1.0
        yield value


def _expect_no_exception(exc: BaseException | None) -> str | None:
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    return None


def _gys_like(rng: random.Random) -> params.DetectorParams:
    return params.DetectorParams(
        eta_d=rng.uniform(0.02, 0.2),
        y0=10.0 ** rng.uniform(-7.0, -5.0),
        e_detector=rng.uniform(0.01, 0.05),
    )


def _loss_pool(rng: random.Random) -> list[float]:
    return [0.21] + [round(rng.uniform(0.17, 0.25), 4) for _ in range(3)]


def _rel_close(value: float, target: float, rel: float = model_ref.ULPS * 2.0 ** -52) -> bool:
    return math.isfinite(value) and abs(value - target) <= rel * abs(target)


# -- checks shared by the search queries ------------------------------------


def check_reach(mu_s: float, det, loss: float, found) -> str | None:
    """Margin > 0 at the reach and <= 0 within 0.01 km beyond it (or the documented edges)."""
    d = found.distance_km
    if not math.isfinite(d):
        return f"non-finite reach {d}"
    if found.unbounded:
        if d != CAP_KM or model_ref.margin(mu_s, d, loss, det) <= 0.0:
            return f"unbounded reach {d} km is not secure at the cap"
        return None
    if d == 0.0:
        if model_ref.margin(mu_s, 0.0, loss, det) > 0.0:
            return "reach 0 km but the margin is positive at 0 km"
        return None
    if model_ref.margin(mu_s, d, loss, det) <= 0.0:
        return f"margin not positive at the returned reach {d} km"
    if model_ref.margin(mu_s, d + 0.01, loss, det) > 0.0:
        return f"margin still positive 0.01 km beyond the reach {d} km"
    return None


def check_disturbance(mu_s, found) -> str | None:
    """The high-loss margin changes sign within 1e-6 of the bound."""
    def margin(d: float) -> float:
        i_ab, i_ae = model_ref.tradeoff(mu_s, d)
        return i_ab - i_ae

    if found.insecure_at_zero:
        return None if margin(0.0) <= 0.0 else "insecure_at_zero but secure at d = 0"
    b = found.bound
    if not (0.0 < b < 0.5):
        return f"bound {b} outside (0, 1/2)"
    if margin(b - 1e-6) <= 0.0 or margin(b + 1e-6) > 0.0:
        return f"margin does not change sign within 1e-6 of the bound {b}"
    return None


def check_report(mu_s: float, length_km: float, loss: float, det, report) -> str | None:
    ref = model_ref.point(mu_s, length_km, loss, det.eta_d, det.y0, det.e_detector, det.e_0)
    if ref is None:
        return f"report at ({mu_s}, {length_km} km) where no clicks are expected"
    bad = model_ref.report_mismatches(report, ref)
    if bad:
        return f"evaluate_point({mu_s}, {length_km} km) disagrees on {', '.join(bad)}"
    return None


# -- design-queries ---------------------------------------------------------


def _plan_op(det, loss: float) -> Op:
    def run():
        best = optimize.optimal_signal_intensity(det, loss, GRID19)
        channel = params.ChannelParams(length_km=best.distance_km, loss_db_per_km=loss)
        bound = optimize.brp_intensity_bound(best.mu_s_star, channel, det)
        chain = linkbudget.OpticalChain(source_intensity=8.0e5, channel=channel)
        budget = linkbudget.propagate(chain)
        false_click = linkbudget.crosstalk_false_click(
            budget.switch_leak_at_signal_detector, det.eta_d)
        return best, bound, budget, false_click

    def check(result, exc):
        if exc is not None:
            return _expect_no_exception(exc)
        best, bound, budget, false_click = result
        if not GRID19[0] <= best.mu_s_star <= GRID19[-1]:
            return f"optimum {best.mu_s_star} outside the grid"
        error = check_reach(best.mu_s_star, det, loss, best)
        if error:
            return f"optimum: {error}"
        for mu in GRID19:
            if best.distance_km < model_ref.crossing_km(mu, det, loss) - 0.01:
                return f"optimum reach {best.distance_km} km below the reach at grid mu_s {mu}"
        p_1 = best.mu_s_star * math.exp(-best.mu_s_star)
        target = bound.suppression_budget * p_1
        if bound.suppression_budget != 1e-3 or not _rel_close(bound.g_b0_at_bound, target, 1e-12):
            return f"g_b0_at_bound {bound.g_b0_at_bound} != budget * p_1 = {target}"
        eta_t = model_ref.transmittance(best.distance_km, loss)
        brp_at_alice = 8.0e5 * 0.25
        signal_at_alice = 8.0e5 * 0.5 * 10.0 ** -5.6 * 0.5
        expected = {
            "brp_at_alice": brp_at_alice,
            "signal_at_alice": signal_at_alice,
            "brp_at_bob": brp_at_alice * eta_t,
            "signal_at_bob": signal_at_alice * eta_t,
            "dim_at_bob": 8.0e5 * 0.25 * 10.0 ** -11.2 * eta_t,
            "switch_leak_at_signal_detector": brp_at_alice * eta_t * 0.01,
        }
        for name, value in expected.items():
            if not _rel_close(getattr(budget, name), value):
                return f"propagate {name} = {getattr(budget, name)}, expected {value}"
        leak = budget.switch_leak_at_signal_detector
        if not _rel_close(false_click, -math.expm1(-det.eta_d * leak)):
            return f"crosstalk_false_click {false_click} disagrees"
        return None

    return Op("plan", run, check, 1, {"grid": len(GRID19)}, (det, loss))


def _reach_op(mu_s: float, det, loss: float, anchor: bool) -> Op:
    def run():
        return optimize.secure_distance(mu_s, det, loss)

    def check(result, exc):
        if exc is not None:
            return _expect_no_exception(exc)
        if anchor and result.distance_km != ANCHOR[2]:
            return f"anchor secure_distance(0.5, GYS, 0.21) = {result.distance_km!r}"
        return check_reach(mu_s, det, loss, result)

    return Op("reach", run, check, 1, {}, (mu_s, det, loss))


def _batch_op(points: list[tuple[float, float]], det, loss: float) -> Op:
    def run():
        return [
            security.evaluate_point(params.SourceParams(mu_s=mu_s),
                                    params.ChannelParams(length_km=length, loss_db_per_km=loss),
                                    det)
            for mu_s, length in points
        ]

    def check(result, exc):
        if exc is not None:
            return _expect_no_exception(exc)
        for (mu_s, length), report in zip(points, result):
            error = check_report(mu_s, length, loss, det, report)
            if error:
                return error
        return None

    return Op("batch", run, check, 1, {"points": len(points)}, (tuple(points), det, loss))


def _disturbance_op(mu_s: float) -> Op:
    def run():
        return optimize.disturbance_bound(mu_s)

    def check(result, exc):
        if exc is not None:
            return _expect_no_exception(exc)
        return check_disturbance(mu_s, result)

    return Op("disturbance", run, check, 1, {}, (mu_s,))


def _outside_op(variant: int, mu_s: float, length: float, det, loss: float) -> Op:
    """mu_s >= 710: the documented outcome is a ValueError or a finite, correct answer."""
    def run():
        if variant == 0:
            return security.evaluate_point(
                params.SourceParams(mu_s=mu_s),
                params.ChannelParams(length_km=length, loss_db_per_km=loss), det)
        if variant == 1:
            return optimize.secure_distance(mu_s, det, loss)
        return optimize.disturbance_bound(mu_s)

    def check(result, exc):
        if exc is not None:
            if isinstance(exc, ValueError):
                return None
            return f"mu_s={mu_s}: raised {type(exc).__name__}, documented is ValueError"
        if variant == 0:
            return check_report(mu_s, length, loss, det, result)
        if variant == 1:
            return check_reach(mu_s, det, loss, result)
        return check_disturbance(mu_s, result)

    # mu_s >= 710 overflows math.exp(mu_s) in the model today
    return Op("outside", run, check, 1, {"mu_s": mu_s}, (variant, mu_s, length, det, loss),
              known_defect=(OverflowError,))


def design_queries(rng: random.Random, stats: dict):
    """Planning queries over a small seeded pool of detectors and fiber losses."""
    detectors = [params.GYS_DETECTOR, params.IDEAL_DETECTOR] + [_gys_like(rng) for _ in range(4)]
    losses = _loss_pool(rng)
    seen: set[tuple[int, float]] = set()
    anchor_pending = True
    kinds = interleave({"plan": 20, "reach": 15, "batch": 10, "disturbance": 4, "outside": 1})
    # pool members rotate rather than being drawn: ideal-detector ops are
    # cheaper, so random picks would make a run's cost depend on the seed
    pairs = {kind: itertools.cycle(list(itertools.product(range(len(detectors)), losses)))
             for kind in ("plan", "reach", "batch", "disturbance", "outside")}
    for kind in kinds:
        det_index, loss = next(pairs[kind])
        det = detectors[det_index]
        if kind == "reach" and anchor_pending:
            det_index, det, loss = 0, params.GYS_DETECTOR, ANCHOR[1]
        if kind in ("plan", "reach", "batch"):
            stats["pair_queries"] = stats.get("pair_queries", 0) + 1
            if (det_index, loss) in seen:
                stats["pair_repeats"] = stats.get("pair_repeats", 0) + 1
            seen.add((det_index, loss))
        if kind == "plan":
            yield _plan_op(det, loss)
        elif kind == "reach":
            mu_s = ANCHOR[0] if anchor_pending else rng.uniform(0.1, 0.9)
            yield _reach_op(mu_s, det, loss, anchor_pending)
            anchor_pending = False
        elif kind == "batch":
            points = [(rng.uniform(0.05, 1.0), rng.uniform(0.0, 250.0)) for _ in range(BATCH)]
            yield _batch_op(points, det, loss)
        elif kind == "disturbance":
            yield _disturbance_op(rng.uniform(0.05, 1.0))
        else:
            yield _outside_op(rng.randrange(3), rng.uniform(710.0, 1000.0),
                              rng.uniform(0.0, 200.0), det, loss)


# -- bulk-tables ------------------------------------------------------------

_PRESET_DETECTORS = {"gys2004": params.GYS_DETECTOR, "ideal": params.IDEAL_DETECTOR}


def _check_distance_table(rows, mu_values, det, loss, sample) -> str | None:
    if rows[0] != ["mu_s", "length_km", "r_bob", "r_eve", "r_s"]:
        return f"distance header {rows[0]}"
    body = rows[1:]
    if len(body) != len(mu_values) * DISTANCE_LENGTHS:
        return f"{len(body)} distance rows for {len(mu_values)} mu_s values"
    for index in sample:
        mu_s = mu_values[index // DISTANCE_LENGTHS]
        length = float(index % DISTANCE_LENGTHS)
        cells = [float(cell) for cell in body[index]]
        if not (math.isclose(cells[0], mu_s, rel_tol=model_ref.PRINTED_REL)
                and cells[1] == length):
            return f"row {index}: coordinates {body[index][:2]} != ({mu_s}, {length})"
        ref = model_ref.point(mu_s, length, loss, det.eta_d, det.y0, det.e_detector, det.e_0)
        for name, value in zip(("r_bob", "r_eve", "r_s"), cells[2:]):
            if not model_ref.field_close(name, value, ref, printed=True):
                return f"row {index}: {name} {value!r} != {ref[name]!r}"
    return None


def _check_disturbance_table(rows, mu_values, sample) -> str | None:
    if rows[0] != ["mu_s", "d", "i_ab", "i_ae"]:
        return f"disturbance header {rows[0]}"
    body = rows[1:]
    if len(body) != (len(mu_values) + 1) * DISTURBANCE_POINTS:
        return f"{len(body)} disturbance rows for {len(mu_values)} mu_s values"
    sources = [None, *mu_values]
    for index in sample:
        mu_s = sources[index // DISTURBANCE_POINTS]
        d = (index % DISTURBANCE_POINTS) / 400
        row = body[index]
        label_ok = row[0] == "ideal" if mu_s is None else math.isclose(
            float(row[0]), mu_s, rel_tol=model_ref.PRINTED_REL)
        if not label_ok or not math.isclose(float(row[1]), d, rel_tol=model_ref.PRINTED_REL):
            return f"row {index}: coordinates {row[:2]} != ({mu_s}, {d})"
        i_ab, i_ae = model_ref.tradeoff(mu_s, d)
        if not (model_ref.info_close(float(row[2]), i_ab, printed=True)
                and model_ref.info_close(float(row[3]), i_ae, printed=True)):
            return f"row {index}: ({row[2]}, {row[3]}) != ({i_ab!r}, {i_ae!r})"
    return None


def _table_op(axis: str, mu_values: list[float], preset: str, loss: float,
              sample_seed: int) -> Op:
    argv = ["sweep", axis, "--mu-s", ",".join(repr(mu) for mu in mu_values),
            "--preset", preset, "--loss-db-km", repr(loss), "--format", "csv"]
    if axis == "distance":
        cells = len(mu_values) * DISTANCE_LENGTHS
    else:
        cells = (len(mu_values) + 1) * DISTURBANCE_POINTS
    facts = {"mu_values": len(mu_values), "cells": cells}

    def run():
        return golden.run_in_process(cli.main, argv)

    def check(result, exc):
        if exc is not None:
            return _expect_no_exception(exc)
        code, out = result
        facts["bytes_out"] = len(out)
        if code != 0:
            return f"sweep exit code {code}"
        rows = [line.split(",") for line in out.decode("utf-8").splitlines()]
        for row in rows[1:]:
            for cell in row[1:]:
                if not math.isfinite(float(cell)):
                    return f"non-finite cell {cell}"
        sample = random.Random(sample_seed).sample(range(len(rows) - 1),
                                                   min(SAMPLED_ROWS, len(rows) - 1))
        if axis == "distance":
            return _check_distance_table(rows, mu_values, _PRESET_DETECTORS[preset], loss, sample)
        return _check_disturbance_table(rows, mu_values, sample)

    return Op(axis, run, check, cells, facts, tuple(argv))


def bulk_tables(rng: random.Random, stats: dict):
    """In-process ``brp-qkd sweep`` runs with 10-40 seeded mu_s values each."""
    pairs = itertools.cycle(list(itertools.product(sorted(_PRESET_DETECTORS), _loss_pool(rng))))
    sizes = {"distance": spread(rng), "disturbance": spread(rng)}
    seen: set[tuple[str, float]] = set()
    for axis in interleave({"distance": 2, "disturbance": 1}):
        count = 10 + int(31 * next(sizes[axis]))
        mu_values = sorted(i / 100 for i in rng.sample(range(1, 151), count))
        preset, loss = next(pairs)
        if axis == "distance":
            stats["pair_queries"] = stats.get("pair_queries", 0) + 1
            if (preset, loss) in seen:
                stats["pair_repeats"] = stats.get("pair_repeats", 0) + 1
            seen.add((preset, loss))
        yield _table_op(axis, mu_values, preset, loss, rng.getrandbits(32))


# -- mc-validation ----------------------------------------------------------

Z_LIMIT = 8.0


def check_counts(counts, attacked: bool) -> str | None:
    """Tallies that must be consistent with each other in any run."""
    c = counts
    relations = [
        c.pulses == MC_PULSES,
        0 <= c.single_emission_clicks <= min(c.single_emissions, c.photon_clicks),
        c.photon_clicks <= c.clicks <= c.pulses,
        0 <= c.error_clicks <= c.clicks,
        0 <= c.brp_misses <= c.pulses,
        c.blocked_cycles <= c.single_emissions <= c.pulses,
        c.blocked_brp_clicks + c.blocked_brp_misses == c.blocked_cycles,
        0 <= c.interference_errors <= c.blocked_brp_clicks,
        attacked or c.blocked_cycles == 0,
    ]
    if not all(relations):
        return f"inconsistent counts {tuple(c)}"
    return None


def _check_result(result, attacked: bool) -> str | None:
    c = result.counts
    error = check_counts(c, attacked)
    if error:
        return error
    if result.est_y_exp != c.photon_clicks / c.pulses or result.est_g_b0 != c.brp_misses / c.pulses:
        return "estimates do not match the counts"
    if c.clicks and result.est_d_bob != c.error_clicks / c.clicks:
        return "est_d_bob does not match the counts"
    return None


def _mc_op(base, policy, threads: int, rerun_t1: bool, mc_stats: dict) -> Op:
    def run():
        honest = montecarlo.simulate(base, threads=threads)
        attacked_config = dataclasses.replace(base, eve=policy)
        attacked = montecarlo.simulate_attack(attacked_config, threads=threads)
        rows = (montecarlo.compare_with_model(base, honest)
                + montecarlo.compare_with_model(attacked_config, attacked))
        return honest, attacked, rows

    def check(result, exc):
        if exc is not None:
            return _expect_no_exception(exc)
        honest, attacked, rows = result
        for outcome, is_attack in ((honest, False), (attacked, True)):
            error = _check_result(outcome, is_attack)
            if error:
                return f"{'attack' if is_attack else 'honest'}: {error}"
        z_max = max(abs(row.z) for row in rows)
        mc_stats["z_max"] = max(mc_stats.get("z_max", 0.0), z_max)
        if not math.isfinite(z_max) or z_max > Z_LIMIT:
            return f"|z| = {z_max} > {Z_LIMIT}"
        return None

    def rerun_single_thread(result) -> str | None:
        """Counts at threads=1 must equal the threads=N counts bit for bit."""
        honest, attacked, _ = result
        again = montecarlo.simulate(base, threads=1)
        again_attack = montecarlo.simulate_attack(dataclasses.replace(base, eve=policy),
                                                  threads=1)
        if again.counts != honest.counts or again_attack.counts != attacked.counts:
            return "McCounts differ between threads=1 and threads=2"
        return None

    facts = {"pulses": 2 * MC_PULSES, "threads": threads}
    return Op("mc", run, check, 2 * MC_PULSES, facts, (base, policy),
              rerun_single_thread if rerun_t1 else None)


def mc_validation(rng: random.Random, stats: dict, threads: int = 2):
    """Honest plus attacked Monte Carlo runs at seeded working points."""
    detectors = [params.GYS_DETECTOR, params.IDEAL_DETECTOR] + [_gys_like(rng) for _ in range(2)]
    intensities = spread(rng)
    detector_cycle = itertools.cycle(detectors)
    k = 0
    while True:
        mu_s = 0.1 + 0.7 * next(intensities)
        base = montecarlo.McConfig(
            n_pulses=MC_PULSES,
            source=params.SourceParams(mu_s=mu_s, mu_b=10.0 ** rng.uniform(3.0, 6.0)),
            channel=params.ChannelParams(length_km=rng.uniform(0.0, 150.0)),
            det=next(detector_cycle),
            seed=rng.getrandbits(63),
        )
        policy = montecarlo.EvePolicy(mode="pns", suppress_fraction=rng.random(),
                                      forward_multiphoton_lossless=True)
        yield _mc_op(base, policy, threads, k % T1_EVERY == 0, stats)
        k += 1


def stream(workload: str, seed: int, stats: dict, threads: int = 2):
    """The op stream of ``workload`` for ``seed``; ``stats`` collects generator facts."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "design-queries":
        return design_queries(rng, stats)
    if workload == "bulk-tables":
        return bulk_tables(rng, stats)
    return mc_validation(rng, stats, threads)


def warm_up(workload: str) -> None:
    """One small op of the workload's kind, paid once in set-up."""
    if workload == "design-queries":
        optimize.secure_distance(0.5, params.GYS_DETECTOR, 0.21)
    elif workload == "bulk-tables":
        golden.run_in_process(cli.main, ["sweep", "disturbance", "--mu-s", "0.5"])
    else:
        config = montecarlo.McConfig(n_pulses=montecarlo.BLOCK_SIZE,
                                     source=params.SourceParams(mu_s=0.5, mu_b=2.0e5),
                                     channel=params.ChannelParams(length_km=50.0),
                                     det=params.GYS_DETECTOR, seed=1)
        montecarlo.simulate(config, threads=2)


def probe(tracer, threads: int) -> float:
    """Call every traced layer once on fixed inputs; returns the probe's max |z|.

    Per-call layer figures of a workload that never calls a layer come
    from here, so every layer has a measured time on every workload.
    """
    gys = params.GYS_DETECTOR
    with tracer.op("default_plan"):
        optimize.optimal_signal_intensity(gys, 0.21, GRID19)
    with tracer.op("probe"):
        optimize.secure_distance(0.5, gys, 0.21)
        channel = params.ChannelParams(length_km=100.0)
        optimize.brp_intensity_bound(0.5, channel, gys)
        optimize.disturbance_bound(0.5)
        golden.run_in_process(cli.main, ["sweep", "distance", "--mu-s", "0.5"])
        budget = linkbudget.propagate(linkbudget.OpticalChain(source_intensity=8.0e5,
                                                              channel=channel))
        linkbudget.crosstalk_false_click(budget.switch_leak_at_signal_detector, gys.eta_d)
        base = montecarlo.McConfig(n_pulses=4 * montecarlo.BLOCK_SIZE,
                                   source=params.SourceParams(mu_s=0.5, mu_b=2.0e5),
                                   channel=channel, det=gys, seed=7)
        attacked = dataclasses.replace(base, eve=montecarlo.EvePolicy("pns", 0.5, True))
        rows = []
        for t in sorted({1, threads}):
            rows += montecarlo.compare_with_model(base, montecarlo.simulate(base, threads=t))
            rows += montecarlo.compare_with_model(
                attacked, montecarlo.simulate_attack(attacked, threads=t))
    return max(abs(row.z) for row in rows)

