"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
[PASS]/[FAIL] line (visible with ``pytest -s``) before asserting.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from brpqkd import (
    ChannelParams,
    DetectorParams,
    EvePolicy,
    GYS_DETECTOR,
    IDEAL_SOURCE,
    McConfig,
    SourceParams,
    afterpulse_error,
    brp_empty_prob,
    brp_intensity_bound,
    channel_transmittance,
    compare_with_model,
    disturbance_bound,
    disturbance_tradeoff,
    evaluate_point,
    optimal_signal_intensity,
    poisson_pmf,
    propagate,
    secure_distance,
    simulate,
    simulate_attack,
)
from brpqkd.linkbudget import OpticalChain


def _criterion(number, detail, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_secure_distance():
    start = time.perf_counter()
    result = secure_distance(0.5, GYS_DETECTOR, 0.21)
    elapsed = time.perf_counter() - start
    ok = abs(result.distance_km - 146.0) <= 3.0 and not result.unbounded and elapsed < 1.0
    _criterion(
        1,
        f"secure distance {result.distance_km:.2f} km (target 146 +- 3) in {elapsed:.3f} s",
        ok,
    )


def test_criterion_2_optimal_intensity():
    start = time.perf_counter()
    grid = [i / 20 for i in range(2, 21)]
    best = optimal_signal_intensity(GYS_DETECTOR, 0.21, grid)
    elapsed = time.perf_counter() - start
    edge_low = secure_distance(0.1, GYS_DETECTOR, 0.21).distance_km
    edge_high = secure_distance(1.0, GYS_DETECTOR, 0.21).distance_km
    ok = (
        abs(best.mu_s_star - 0.5) <= 0.05
        and best.distance_km > edge_low
        and best.distance_km > edge_high
        and elapsed < 10.0
    )
    _criterion(
        2,
        f"optimum mu_s {best.mu_s_star:.4f} (target 0.50 +- 0.05), "
        f"reach {best.distance_km:.2f} km > edges ({edge_low:.1f}, {edge_high:.1f}) "
        f"in {elapsed:.2f} s",
        ok,
    )


def test_criterion_3_brp_bound():
    bound = brp_intensity_bound(0.5, ChannelParams(length_km=146.0), GYS_DETECTOR)
    eta_total = channel_transmittance(ChannelParams(length_km=146.0)) * GYS_DETECTOR.eta_d
    round_trip = brp_empty_prob(bound.mu_b_min, eta_total)
    target = bound.suppression_budget * poisson_pmf(1, 0.5)
    ok = (
        1.9e5 <= bound.mu_b_min <= 2.2e5
        and abs(2e5 - bound.mu_b_min) / bound.mu_b_min <= 0.10
        and abs(round_trip - target) / target <= 1e-9
    )
    _criterion(
        3,
        f"mu_b_min {bound.mu_b_min:.4e} in [1.9e5, 2.2e5], "
        f"round-trip error {abs(round_trip - target) / target:.2e}",
        ok,
    )


def test_criterion_4_disturbance_bound():
    ideal = disturbance_bound(IDEAL_SOURCE).bound
    curve = [disturbance_bound(mu).bound for mu in (0.1, 0.3, 0.5, 0.8, 1.0)]
    decreasing = all(b < a for a, b in zip(curve, curve[1:]))
    ok = abs(ideal - 0.14645) <= 1e-3 and decreasing
    _criterion(
        4,
        f"ideal bound {ideal:.5f} (target 0.14645 +- 1e-3), "
        f"curve strictly decreasing: {decreasing}",
        ok,
    )


def test_criterion_5_link_budget():
    eta_t = channel_transmittance(ChannelParams(length_km=146.0, loss_db_per_km=0.21))
    report = propagate(
        OpticalChain(source_intensity=8e5, channel=ChannelParams(length_km=146.0))
    )
    checks = [
        abs(eta_t - 8.59e-4) / 8.59e-4 <= 0.005,
        report.brp_at_alice == 2e5,
        abs(report.signal_at_alice - 0.50) / 0.50 <= 0.01,
        abs(report.brp_at_bob - 172.0) / 172.0 <= 0.01,
        abs(report.signal_at_bob - 4.3e-4) / 4.3e-4 <= 0.01,
        afterpulse_error(0.008) == 0.004,
    ]
    _criterion(
        5,
        f"eta_t {eta_t:.4e}, brp at stations ({report.brp_at_alice:.3g}, "
        f"{report.brp_at_bob:.4g}), signal ({report.signal_at_alice:.4g}, "
        f"{report.signal_at_bob:.4g}), afterpulse {afterpulse_error(0.008)}",
        all(checks),
    )


def test_criterion_6_monte_carlo_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    n = 1_000_000
    failures = []
    for i in range(20):
        mu_s = float(rng.uniform(0.1, 1.0))
        length = float(rng.uniform(0.0, 150.0))
        config = McConfig(
            n_pulses=n,
            source=SourceParams(mu_s=mu_s, mu_b=2e5),
            channel=ChannelParams(length_km=length),
            det=GYS_DETECTOR,
            seed=1000 + i,
        )
        rows = {row.quantity: row for row in compare_with_model(config, simulate(config))}
        for name in ("y_exp", "d_bob", "g_b0"):
            if abs(rows[name].z) > 4.0:
                failures.append((name, mu_s, length, rows[name].z))

    attack_config = McConfig(
        n_pulses=n,
        source=SourceParams(mu_s=0.5, mu_b=2000.0),
        channel=ChannelParams(length_km=0.0),
        det=DetectorParams(eta_d=1.0, y0=0.0, e_detector=0.0),
        seed=4242,
        eve=EvePolicy(mode="pns", suppress_fraction=1.0, forward_multiphoton_lossless=True),
    )
    attack = simulate_attack(attack_config)
    se = math.sqrt(0.25 / attack.counts.blocked_brp_clicks)
    interference_ok = abs(attack.interference_error_rate - 0.5) <= 4.0 * se
    elapsed = time.perf_counter() - start
    ok = len(failures) <= 1 and interference_ok and elapsed < 60.0
    _criterion(
        6,
        f"{len(failures)} of 60 comparisons beyond 4 SE (allow 1), "
        f"interference {attack.interference_error_rate:.4f} (target 0.5 +- {4 * se:.4f}), "
        f"{elapsed:.1f} s",
        ok,
    )


def test_criterion_7_determinism(tmp_path):
    from brpqkd.montecarlo import BLOCK_SIZE

    config = McConfig(
        n_pulses=2 * BLOCK_SIZE + 777,
        source=SourceParams(mu_s=0.5, mu_b=2e5),
        channel=ChannelParams(length_km=100.0),
        det=GYS_DETECTOR,
        seed=606,
    )
    mc_equal = simulate(config, threads=1) == simulate(config, threads=8)

    paths = [tmp_path / name for name in ("first.csv", "second.csv")]
    for path in paths:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "brpqkd",
                "sweep",
                "distance",
                "--mu-s",
                "0.5",
                "--format",
                "csv",
                "--out",
                str(path),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
    cli_equal = paths[0].read_bytes() == paths[1].read_bytes()
    _criterion(
        7,
        f"1-thread vs 8-thread results identical: {mc_equal}; "
        f"repeated CLI files identical: {cli_equal}",
        mc_equal and cli_equal,
    )


def test_criterion_8_bound_scaling():
    lengths = np.array([50.0, 75.0, 100.0, 125.0, 146.0])
    logs = np.array(
        [
            math.log10(
                brp_intensity_bound(0.5, ChannelParams(length_km=length), GYS_DETECTOR).mu_b_min
            )
            for length in lengths
        ]
    )
    slope = np.polyfit(lengths, logs, 1)[0]
    ok = abs(slope - 0.0210) <= 1e-4
    _criterion(8, f"log10 bound slope {slope:.6f} per km (target 0.0210 +- 1e-4)", ok)


def test_criterion_9_property_suites():
    rng = np.random.default_rng(99)
    trials = 10_000

    # the ideal-source trade-off's i_ab is 1 - h2(p)
    entropy_ok = True
    for p in rng.uniform(0.0, 1.0, trials):
        i_ab = disturbance_tradeoff(IDEAL_SOURCE, p)[0]
        if abs(i_ab - disturbance_tradeoff(IDEAL_SOURCE, 1.0 - p)[0]) > 1e-12:
            entropy_ok = False
            break

    # at 0 km the total efficiency is exactly eta_d
    ordering_ok = True
    for mu, eta in zip(
        rng.uniform(1e-3, 5.0, trials), rng.uniform(1e-6, 1.0, trials)
    ):
        report = evaluate_point(
            SourceParams(mu_s=float(mu)), ChannelParams(length_km=0.0),
            DetectorParams(eta_d=float(eta)),
        )
        if report.y_1 > report.y_exp:
            ordering_ok = False
            break

    decomposition_ok = True
    identity_ok = True
    clamping_ok = True
    for mu, length in zip(
        rng.uniform(0.01, 2.0, trials), rng.uniform(0.0, 300.0, trials)
    ):
        report = evaluate_point(
            SourceParams(mu_s=float(mu)),
            ChannelParams(length_km=float(length)),
            GYS_DETECTOR,
        )
        if report.i_ae != report.i_ae_multi + report.i_ae_single:
            decomposition_ok = False
        if report.r_s != report.r_bob - report.r_eve:
            identity_ok = False
        raw_eve = report.d_bob * math.exp(float(mu))
        if report.d_eve != min(raw_eve, 0.5) or report.d_eve_clamped != (raw_eve > 0.5):
            clamping_ok = False
        if not (decomposition_ok and identity_ok and clamping_ok):
            break

    ok = entropy_ok and ordering_ok and decomposition_ok and identity_ok and clamping_ok
    _criterion(
        9,
        f"{trials} draws each: entropy symmetry {entropy_ok}, yield ordering {ordering_ok}, "
        f"info decomposition {decomposition_ok}, rate identity {identity_ok}, "
        f"clamping {clamping_ok}",
        ok,
    )
