"""Pulse-level simulator: determinism, estimator agreement, attack bookkeeping."""

import dataclasses
import math
import tracemalloc
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
    evaluate_point,
    poisson_pmf,
    simulate,
    simulate_attack,
)
from brpqkd import montecarlo
from brpqkd.montecarlo import (
    BLOCK_SIZE,
    McCounts,
    McResult,
    _block_counts,
    _click_rule,
    _photon_clicks,
)


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


@pytest.mark.parametrize("mu_s, eta_d", [(0.0, 0.045), (0.5, 0.0)],
                         ids=["no-signal-photons", "blind-detector"])
def test_compare_with_model_without_signal_photons(mu_s, eta_d):
    # mu_s = 0 emits no single photons and a blind detector sees none of them;
    # with no dark counts either run expects no clicks: both yield targets
    # are 0, and there is no error rate to compare
    det = DetectorParams(eta_d=eta_d, y0=0.0, e_detector=0.033)
    config = _config(mu_s=mu_s, det=det, n_pulses=200_000)
    rows = {row.quantity: row for row in compare_with_model(config, simulate(config))}
    assert list(rows) == ["y_exp", "y_1", "g_b0"]
    assert rows["y_exp"] == ("y_exp", 0.0, 0.0, 0.0, 0.0)
    assert rows["y_1"] == ("y_1", 0.0, 0.0, 0.0, 0.0)


def test_a_result_carries_the_estimates_and_the_tallies():
    assert [field.name for field in dataclasses.fields(McResult)] == [
        "est_y_exp", "est_y_1", "est_d_bob", "est_g_b0", "interference_error_rate", "counts",
    ]


def test_bright_source_lossless_link():
    # mean 10 exercises the generator's high-mean path
    det = DetectorParams(eta_d=1.0, y0=0.0, e_detector=0.0)
    result = simulate(_config(mu_s=10.0, length_km=0.0, det=det, n_pulses=1_000_000))
    target = -math.expm1(-10.0)
    se = math.sqrt(target * (1.0 - target) / 1_000_000)
    assert abs(result.est_y_exp - target) < 4.0 * se


def test_estimates_track_the_analytic_model():
    result = simulate(_config(n_pulses=10_000_000, seed=7))
    report = evaluate_point(SourceParams(mu_s=0.5), ChannelParams(length_km=100.0), GYS_DETECTOR)
    y_exp, y_1 = report.y_exp, report.y_1
    n = 10_000_000
    assert abs(result.est_y_exp - y_exp) < 4.0 * math.sqrt(y_exp * (1 - y_exp) / n)
    p_1 = poisson_pmf(1, 0.5)
    cond = y_1 / p_1
    assert abs(result.est_y_1 - y_1) < 4.0 * p_1 * math.sqrt(cond * (1 - cond) / (n * p_1))


def test_compare_with_model_targets_are_the_report_fields_bit_for_bit():
    rng = np.random.default_rng(707)
    points = [
        (DetectorParams(eta_d=float(rng.uniform(0.01, 1.0)),
                        y0=float(10.0 ** rng.uniform(-8.0, -3.0)),
                        e_detector=float(rng.uniform(0.0, 0.1))),
         float(10.0 ** rng.uniform(-3.0, 1.5)), float(rng.uniform(0.0, 400.0)))
        for _ in range(40)
    ]
    points += [(GYS_DETECTOR, mu_s, 50.0) for mu_s in (709.78, 709.79, 800.0)]
    for det, mu_s, length in points:
        config = _config(mu_s=mu_s, length_km=length, det=det, n_pulses=1000)
        report = evaluate_point(config.source, config.channel, det)
        targets = {row.quantity: row.target for row in compare_with_model(config, simulate(config))}
        assert targets["y_exp"] == report.y_exp
        assert targets["y_1"] == report.y_1
        assert targets["d_bob"] == report.d_bob


def test_compare_with_model_z_scores():
    config = _config(n_pulses=2_000_000, seed=11)
    rows = compare_with_model(config, simulate(config))
    names = [row.quantity for row in rows]
    assert names == ["y_exp", "y_1", "d_bob", "g_b0"]
    for row in rows:
        assert abs(row.z) < 4.0, f"{row.quantity}: z={row.z}"


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


@pytest.mark.parametrize("threads", [1, 2])
def test_runs_submit_a_bounded_window_of_blocks(monkeypatch, threads):
    """Blocks are submitted a few at a time, not all up front, at any thread count."""
    started = []

    def fake_block_counts(config, block_index, size):
        started.append(block_index)
        if block_index == 20:
            raise RuntimeError("stop")
        return McCounts(size, *([0] * 10))

    monkeypatch.setattr(montecarlo, "_block_counts", fake_block_counts)
    with pytest.raises(RuntimeError, match="stop"):
        simulate(_config(n_pulses=1000 * BLOCK_SIZE), threads=threads)
    assert max(started) <= 20 + 2 * threads + 1


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
    assert result.est_g_b0 < 2.0 * bound.suppression_budget * poisson_pmf(1, 0.5)


def test_attack_comparison_rows():
    eve = EvePolicy(mode="pns", suppress_fraction=1.0, forward_multiphoton_lossless=True)
    det = DetectorParams(eta_d=1.0, y0=0.0, e_detector=0.0)
    config = _config(mu_s=0.5, mu_b=2000.0, length_km=0.0, det=det, n_pulses=500_000, eve=eve)
    result = simulate_attack(config)
    rows = compare_with_model(config, result)
    by_name = {row.quantity: row for row in rows}
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
    """One reference-pulse miss where 0.01436 are expected is a 2.45 sigma event, not 8.2."""
    n = 1 << 20
    lam = 0.01436
    det = DetectorParams(eta_d=1.0, y0=0.0, e_detector=0.0)
    config = _config(mu_b=-math.log(lam / n), length_km=0.0, det=det, n_pulses=n)
    counts = McCounts(n, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0)
    result = McResult(0.0, 0.0, 0.0, 1 / n, 0.0, counts)
    (g_b0,) = [row for row in compare_with_model(config, result) if row.quantity == "g_b0"]
    assert n * g_b0.target == pytest.approx(lam, rel=1e-12)
    assert g_b0.se == math.sqrt(g_b0.target * (1.0 - g_b0.target) / n)
    assert (g_b0.estimate - g_b0.target) / g_b0.se == pytest.approx(8.23, abs=0.01)
    # mid-p tail: P(X > 1) + P(X = 1) / 2
    mid_p = -math.expm1(-lam) - 0.5 * lam * math.exp(-lam)
    assert g_b0.z == pytest.approx(-NormalDist().inv_cdf(mid_p), rel=1e-12)
    assert g_b0.z == pytest.approx(2.448, abs=0.0005)


@pytest.mark.parametrize("lam, z", [(0.75, 0.384), (0.99, 0.14)])
def test_rare_event_z_keeps_the_sign(lam, z):
    """One event above an expectation below 1 never reads as a shortfall."""
    n = 1 << 20
    det = DetectorParams(eta_d=1.0, y0=0.0, e_detector=0.0)
    config = _config(mu_b=-math.log(lam / n), length_km=0.0, det=det, n_pulses=n)
    counts = McCounts(n, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0)
    result = McResult(0.0, 0.0, 0.0, 1 / n, 0.0, counts)
    (g_b0,) = [row for row in compare_with_model(config, result) if row.quantity == "g_b0"]
    assert g_b0.z == pytest.approx(z, abs=0.005)


# -- photon-click mirror ----------------------------------------------------


def _reference_block_counts(config, block_index, size):
    """The block body before the click mirror, kept verbatim as the reference."""
    rng = derive_stream(config.seed, block_index)
    det = config.det
    eta_total = channel_transmittance(config.channel) * det.eta_d
    pns = config.eve.mode == "pns"
    suppress = config.eve.suppress_fraction if pns else 0.0
    forward = pns and config.eve.forward_multiphoton_lossless

    # fixed draw order; see module docstring
    n_emitted = rng.poisson(config.source.mu_s, size)
    blocked = (n_emitted == 1) & (rng.random(size) < suppress)
    if forward:
        multi = n_emitted >= 2
        n_eff = np.where(blocked, 0, np.where(multi, n_emitted - 1, n_emitted))
        p_eff = np.where(multi, det.eta_d, eta_total)
        survivors = rng.binomial(n_eff, p_eff)
    else:
        survivors = rng.binomial(np.where(blocked, 0, n_emitted), eta_total)
    dark_u = rng.random(size)
    err_u = rng.random(size)
    brp_u = rng.random(size)

    p_brp_click = -math.expm1(-eta_total * config.source.mu_b)
    photon_click = survivors >= 1
    brp_click = brp_u < p_brp_click
    # a blocked cycle whose bright pulse still clicks registers anyway:
    # the empty signal arm interferes with the reference and errs half
    # the time
    interference_click = blocked & brp_click
    click = photon_click | (dark_u < det.y0) | interference_click
    err_threshold = np.where(
        photon_click, det.e_detector, np.where(interference_click, 0.5, det.e_0)
    )
    error_click = click & (err_u < err_threshold)
    single = n_emitted == 1

    return McCounts(
        pulses=size,
        single_emissions=int(single.sum()),
        photon_clicks=int(photon_click.sum()),
        single_emission_clicks=int((single & photon_click).sum()),
        clicks=int(click.sum()),
        error_clicks=int(error_click.sum()),
        brp_misses=int((~brp_click).sum()),
        blocked_cycles=int(blocked.sum()),
        blocked_brp_clicks=int(interference_click.sum()),
        blocked_brp_misses=int((blocked & ~brp_click).sum()),
        interference_errors=int((error_click & interference_click).sum()),
    )


_MIRROR_DETECTORS = {
    "gys": GYS_DETECTOR,
    "ideal": DetectorParams(eta_d=1.0, y0=0.0, e_detector=0.0),
    "eta0.7": DetectorParams(eta_d=0.7, y0=1e-3, e_detector=0.02, e_0=0.4),
}
_MIRROR_POLICIES = {
    "honest": EvePolicy(),
    "null": EvePolicy(mode="pns"),
    "suppress": EvePolicy(mode="pns", suppress_fraction=0.37),
    "forward": EvePolicy(mode="pns", suppress_fraction=0.37, forward_multiphoton_lossless=True),
    "block-all": EvePolicy(mode="pns", suppress_fraction=1.0),
    "block-all-forward": EvePolicy(mode="pns", suppress_fraction=1.0,
                                   forward_multiphoton_lossless=True),
}


@pytest.mark.parametrize("policy", sorted(_MIRROR_POLICIES))
@pytest.mark.parametrize("detector", sorted(_MIRROR_DETECTORS))
def test_block_counts_equal_the_binomial_reference(detector, policy):
    """Mirrored clicks give the counts rng.binomial gave, on the same stream."""
    det, eve = _MIRROR_DETECTORS[detector], _MIRROR_POLICIES[policy]
    cases = 0
    for mu_s in (0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 25.0):
        for length_km in (0.0, 10.0, 100.0):
            for block_index, size in ((0, 3000), (5, 1), (2, 20000)):
                config = _config(mu_s=mu_s, mu_b=300.0, length_km=length_km, det=det,
                                 n_pulses=BLOCK_SIZE, seed=cases, eve=eve)
                got = _block_counts(config, block_index, size)
                assert got == _reference_block_counts(config, block_index, size), (
                    mu_s, length_km, block_index, size)
                cases += 1
    config = _config(mu_s=0.5, length_km=0.0, det=det, n_pulses=BLOCK_SIZE, seed=1, eve=eve)
    assert _block_counts(config, 3, BLOCK_SIZE) == _reference_block_counts(config, 3, BLOCK_SIZE)


_WORD = (1 << 64) - 1


def _generator_emitting(u, high=0x0123456789ABCDEF):
    """A PCG64 generator whose next ``random()`` is ``u`` (a multiple of 2**-53).

    PCG64 steps its 128-bit state and then outputs the xor of the two
    halves rotated right by the top 6 bits; the state is chosen to output
    the 64-bit word behind ``u`` and then stepped back once.
    """
    word = int(u * 2.0**53) << 11
    rot = high >> 58
    low = (((word << rot) | (word >> (64 - rot))) & _WORD) ^ high
    bit_generator = np.random.PCG64(0)
    state = bit_generator.state
    state["state"]["state"] = (high << 64) | low
    bit_generator.state = state
    bit_generator.advance((1 << 128) - 1)
    return np.random.Generator(bit_generator)


def _assert_mirror_matches(n_emitted, p, make_rng):
    mirrored_rng, numpy_rng = make_rng(), make_rng()
    got = _photon_clicks(mirrored_rng, n_emitted, None, p, None, np.empty(n_emitted.size))
    expected = numpy_rng.binomial(n_emitted, p) >= 1
    assert np.array_equal(got, expected), (n_emitted, p)
    assert mirrored_rng.random() == numpy_rng.random(), (n_emitted, p)


@pytest.mark.parametrize("p", [1e-6, 0.045, 0.3, 0.46, 0.5, 0.6, 0.7, 0.95, 1.0])
def test_click_mirror_matches_numpy_binomial(p):
    """Clicks equal Generator.binomial(n, p) >= 1 and leave the stream where it does.

    This pins numpy's inversion sampler: random streams, plus one-pulse
    draws at each side of every threshold the mirror uses, and at the
    largest uniform, where numpy restarts for some (n, p).
    """
    for seed, mu in enumerate((0.05, 0.5, 3.0, 12.0)):
        n_emitted = derive_stream(seed, 0).poisson(mu, 5000)
        _assert_mirror_matches(n_emitted, p, lambda: derive_stream(seed, 1))
    step = 2.0**-53
    for n in range(1, 16):
        lo, hi, restart = _click_rule(n, p)
        probes = {1.0 - step}
        for threshold in (math.floor(lo / step) * step + step, hi, restart):
            if 0.0 < threshold < 1.0:
                probes |= {threshold - step, threshold}
        for u in sorted(probes):
            assert _generator_emitting(u).random() == u
            _assert_mirror_matches(np.array([n]), p, lambda: _generator_emitting(u))


def _patch_streams(monkeypatch, make_rng, used):
    def derive(seed, block_index):
        rng = make_rng()
        used.append(rng)
        return rng

    monkeypatch.setattr(montecarlo, "derive_stream", derive)
    monkeypatch.setitem(globals(), "derive_stream", derive)


@pytest.mark.parametrize("eve, mu_s", [
    (EvePolicy(), 0.05),
    # k photons thin as B(k - 1, eta_d): at length 0 a two-photon pulse restarts too
    (EvePolicy(mode="pns", forward_multiphoton_lossless=True), 0.5),
], ids=["honest", "forward"])
def test_restart_falls_back_to_numpy(monkeypatch, eve, mu_s):
    """A uniform past numpy's restart threshold is redrawn as numpy redraws it.

    At p = 0.46 a one-photon draw restarts at the largest uniform.  The
    block's stream is built so that the first thinning uniform is that
    one; the mirror must hand the block to rng.binomial and end on the
    same stream position with the same counts.  Under lossless
    forwarding the stream must also emit a multi-photon pulse, so the
    fallback thins by the forwarding entries of the block's table.
    """
    assert _click_rule(1, 0.46)[2] == 1.0 - 2.0**-53
    det = DetectorParams(eta_d=0.46, y0=0.0, e_detector=0.1)
    config = _config(mu_s=mu_s, mu_b=2.0, length_km=0.0, det=det, n_pulses=64, eve=eve)
    top = 1.0 - 2.0**-53
    for high in range(1, 200):
        high = (high * 0x9E3779B97F4A7C15) & _WORD
        for consumed in range(2 * 64 + 1, 2 * 64 + 8 + int(128 * mu_s)):
            def make_rng():
                rng = _generator_emitting(top, high)
                rng.bit_generator.advance((1 << 128) - consumed)
                return rng

            probe = make_rng()
            n_emitted = probe.poisson(mu_s, 64)
            probe.random(64)
            if probe.random() == top and (eve.mode == "none" or n_emitted.max() >= 2):
                used = []
                _patch_streams(monkeypatch, make_rng, used)
                assert _block_counts(config, 0, 64) == _reference_block_counts(config, 0, 64)
                assert used[0].random() == used[1].random()
                return
    pytest.fail("no stream found")


def test_btpe_domain_falls_back_to_numpy():
    """Where numpy samples by BTPE (mu_s = 80, eta_total = 0.5) the counts still agree."""
    det = DetectorParams(eta_d=0.5, y0=1e-4, e_detector=0.05)
    for eve in (EvePolicy(), _MIRROR_POLICIES["forward"]):
        config = _config(mu_s=80.0, mu_b=3.0, length_km=0.0, det=det, n_pulses=BLOCK_SIZE,
                         eve=eve)
        assert _block_counts(config, 0, 5000) == _reference_block_counts(config, 0, 5000)


def test_block_allocations_stay_bounded():
    """One block's traced allocation peak stays within the pre-mirror worst case (4.9 MB)."""
    peaks = []
    for det in (GYS_DETECTOR, DetectorParams(eta_d=1.0, y0=0.0, e_detector=0.0)):
        for eve in (EvePolicy(), _MIRROR_POLICIES["forward"]):
            for mu_s, length_km in ((0.5, 0.0), (0.8, 50.0), (3.0, 0.0)):
                config = _config(mu_s=mu_s, length_km=length_km, det=det,
                                 n_pulses=BLOCK_SIZE, eve=eve)
                _block_counts(config, 0, BLOCK_SIZE)  # fill the rule cache first
                tracemalloc.start()
                try:
                    _block_counts(config, 1, BLOCK_SIZE)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
    assert max(peaks) <= 4.9e6, max(peaks)
