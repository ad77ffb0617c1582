"""Pulse-level simulator: determinism, estimator agreement, attack bookkeeping."""

import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest

from brpqkd import (
    ChannelParams,
    DetectorParams,
    EvePolicy,
    GYS_DETECTOR,
    McConfig,
    SourceParams,
    brp_intensity_bound,
    channel_transmittance,
    compare_with_model,
    derive_stream,
    poisson_pmf,
    simulate,
    simulate_attack,
    yields,
)
from brpqkd.montecarlo import BLOCK_SIZE, McCounts, McResult


def _config(
    mu_s=0.5,
    mu_b=2e5,
    length_km=100.0,
    det=GYS_DETECTOR,
    n_pulses=1_000_000,
    seed=42,
    eve=None,
):
    return McConfig(
        n_pulses=n_pulses,
        source=SourceParams(mu_s=mu_s, mu_b=mu_b),
        channel=ChannelParams(length_km=length_km),
        det=det,
        seed=seed,
        eve=eve if eve is not None else EvePolicy(),
    )


def test_derive_stream_is_deterministic():
    a = derive_stream(Seed := 123, 0).integers(0, 2**63, 8)
    b = derive_stream(Seed, 0).integers(0, 2**63, 8)
    c = derive_stream(Seed, 1).integers(0, 2**63, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_degenerate_source_yields_nothing():
    det = DetectorParams(eta_d=0.045, y0=0.0, e_detector=0.033)
    result = simulate(_config(mu_s=0.0, det=det, n_pulses=200_000))
    assert result.est_y_exp == 0.0
    assert result.est_y_1 == 0.0
    assert result.counts.single_emissions == 0
    assert result.counts.clicks == 0


def test_bright_source_lossless_link():
    # mean 10 exercises the generator's high-mean path
    det = DetectorParams(eta_d=1.0, y0=0.0, e_detector=0.0)
    result = simulate(_config(mu_s=10.0, length_km=0.0, det=det, n_pulses=1_000_000))
    target = -math.expm1(-10.0)
    se = math.sqrt(target * (1.0 - target) / 1_000_000)
    assert abs(result.est_y_exp - target) < 4.0 * se


def test_estimates_track_the_analytic_model():
    result = simulate(_config(n_pulses=10_000_000, seed=7))
    eta_total = channel_transmittance(ChannelParams(length_km=100.0)) * 0.045
    y_exp, y_1 = yields(SourceParams(mu_s=0.5), eta_total)
    n = 10_000_000
    assert abs(result.est_y_exp - y_exp) < 4.0 * math.sqrt(y_exp * (1 - y_exp) / n)
    p_1 = poisson_pmf(1, 0.5)
    cond = y_1 / p_1
    assert abs(result.est_y_1 - y_1) < 4.0 * p_1 * math.sqrt(cond * (1 - cond) / (n * p_1))


def test_compare_with_model_z_scores():
    config = _config(n_pulses=2_000_000, seed=11)
    rows = compare_with_model(config, simulate(config))
    names = [row.name for row in rows]
    assert names == ["y_exp", "y_1", "d_bob", "g_b0"]
    for row in rows:
        assert abs(row.z) < 4.0, f"{row.name}: z={row.z}"


def test_null_attack_equals_baseline_bitwise():
    config = _config(n_pulses=500_000, seed=99)
    baseline = simulate(config)
    null = simulate_attack(
        dataclasses.replace(config, eve=EvePolicy(mode="pns", suppress_fraction=0.0))
    )
    assert null.counts == baseline.counts
    assert null.est_y_exp == baseline.est_y_exp
    assert null.est_d_bob == baseline.est_d_bob
    assert null.est_g_b0 == baseline.est_g_b0


def test_thread_count_does_not_change_results():
    n = 3 * BLOCK_SIZE + 12345
    config = _config(n_pulses=n, seed=5)
    results = [simulate(config, threads=k) for k in (1, 4, 8)]
    assert results[0].counts == results[1].counts == results[2].counts
    assert results[0].est_y_exp == results[1].est_y_exp == results[2].est_y_exp


def test_reruns_are_identical():
    config = _config(n_pulses=300_000, seed=314)
    assert simulate(config).counts == simulate(config).counts


def test_full_suppression_hits_the_reference_monitor():
    """Blocking every single-photon cycle leaves a hole the bright pulse flags."""
    n = 2_000_000
    eve = EvePolicy(mode="pns", suppress_fraction=1.0, forward_multiphoton_lossless=True)
    det = DetectorParams(eta_d=1.0, y0=0.0, e_detector=0.0)
    config = _config(mu_s=0.5, mu_b=2000.0, length_km=0.0, det=det, n_pulses=n, eve=eve)
    result = simulate_attack(config)
    counts = result.counts
    expected_blocked = poisson_pmf(1, 0.5) * n
    assert abs(counts.blocked_cycles - expected_blocked) < 4.0 * math.sqrt(expected_blocked)
    # mu_b = 2000 at unit transmittance: the monitor fires every blocked cycle
    assert counts.blocked_brp_misses == 0
    assert counts.blocked_brp_clicks == counts.blocked_cycles
    se = math.sqrt(0.25 / counts.blocked_brp_clicks)
    assert abs(result.interference_error_rate - 0.5) < 4.0 * se


def test_suppression_below_budget_is_nearly_invisible():
    """At the computed intensity floor the miss rate stays within the budget."""
    source = SourceParams(mu_s=0.5)
    channel = ChannelParams(length_km=100.0)
    bound = brp_intensity_bound(0.5, channel, GYS_DETECTOR)
    n = 4_000_000
    eve = EvePolicy(mode="pns", suppress_fraction=1.0, forward_multiphoton_lossless=True)
    config = McConfig(
        n_pulses=n,
        source=SourceParams(mu_s=0.5, mu_b=bound.mu_b_min),
        channel=channel,
        det=GYS_DETECTOR,
        seed=2024,
        eve=eve,
    )
    result = simulate_attack(config)
    counts = result.counts
    assert counts.blocked_cycles == counts.blocked_brp_clicks + counts.blocked_brp_misses
    expected_misses = bound.suppression_budget * poisson_pmf(1, 0.5) * n
    assert counts.blocked_brp_misses < expected_misses + 4.0 * math.sqrt(expected_misses)
    assert result.brp_missing_rate < 2.0 * bound.suppression_budget * poisson_pmf(1, 0.5)


def test_attack_comparison_rows():
    eve = EvePolicy(mode="pns", suppress_fraction=1.0, forward_multiphoton_lossless=True)
    det = DetectorParams(eta_d=1.0, y0=0.0, e_detector=0.0)
    config = _config(mu_s=0.5, mu_b=2000.0, length_km=0.0, det=det, n_pulses=500_000, eve=eve)
    result = simulate_attack(config)
    rows = compare_with_model(config, result)
    by_name = {row.name: row for row in rows}
    assert set(by_name) == {"g_b0", "interference_error_rate"}
    assert by_name["interference_error_rate"].target == 0.5
    assert abs(by_name["interference_error_rate"].z) < 4.0


def test_estimates_are_probabilities():
    result = simulate(_config(n_pulses=200_000, seed=77))
    for value in (result.est_y_exp, result.est_y_1, result.est_d_bob, result.est_g_b0):
        assert 0.0 <= value <= 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        _config(n_pulses=0)
    with pytest.raises(ValueError):
        _config(seed=-1)
    with pytest.raises(ValueError):
        _config(seed=2**64)
    with pytest.raises(ValueError):
        EvePolicy(mode="intercept")
    with pytest.raises(ValueError):
        EvePolicy(mode="pns", suppress_fraction=1.5)


def test_simulate_rejects_attack_configs():
    config = _config(eve=EvePolicy(mode="pns", suppress_fraction=0.5))
    with pytest.raises(ValueError):
        simulate(config)
    with pytest.raises(ValueError):
        simulate_attack(_config())


def test_rare_event_z_uses_the_poisson_tail():
    """One reference-pulse miss where 0.01436 are expected is a 2.19 sigma event, not 8.2."""
    n = 1 << 20
    lam = 0.01436
    det = DetectorParams(eta_d=1.0, y0=0.0, e_detector=0.0)
    config = _config(mu_b=-math.log(lam / n), length_km=0.0, det=det, n_pulses=n)
    counts = McCounts(n, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0)
    result = McResult(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1 / n, 0.0, 1 / n, 0.0, counts)
    (g_b0,) = [row for row in compare_with_model(config, result) if row.name == "g_b0"]
    assert n * g_b0.target == pytest.approx(lam, rel=1e-12)
    assert g_b0.se == math.sqrt(g_b0.target * (1.0 - g_b0.target) / n)
    assert (g_b0.estimate - g_b0.target) / g_b0.se == pytest.approx(8.23, abs=0.01)
    assert g_b0.z == pytest.approx(-NormalDist().inv_cdf(-math.expm1(-lam)), rel=1e-12)
    assert g_b0.z == pytest.approx(2.19, abs=0.005)
