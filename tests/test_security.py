"""Analytic security model against a 50-digit reference implementation."""

import math

import numpy as np
import pytest
from mpmath import mp

from brpqkd import (
    IDEAL_SOURCE,
    ChannelParams,
    DetectorParams,
    EvePolicy,
    GYS_DETECTOR,
    SourceParams,
    UndefinedPointError,
    YieldPair,
    binary_entropy,
    bob_error_rate,
    disturbance_tradeoff,
    evaluate_point,
    eve_error_rate,
    eve_info_multi,
    eve_info_single,
    mutual_info_ab,
    yields,
)
from brpqkd.linkbudget import afterpulse_error, crosstalk_false_click
from brpqkd.photon_stats import brp_empty_prob, detect_prob, total_efficiency

mp.dps = 50


def _mp_h2(x):
    x = mp.mpf(x)
    if x == 0 or x == 1:
        return mp.mpf(0)
    return -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)


def _mp_eta_total(length_km):
    return mp.mpf(10) ** (-mp.mpf("0.21") * length_km / 10) * mp.mpf("0.045")


def _mp_report(mu_s, length_km):
    """Reference pipeline for the benchmark detector, mirrored in mpmath."""
    mu_s = mp.mpf(mu_s)
    eta = _mp_eta_total(length_km)
    y_exp = 1 - mp.e ** (-eta * mu_s)
    y_1 = mp.e ** (-mu_s) * mu_s * eta
    d_bob = (mp.mpf("0.5") * mp.mpf("1.7e-6") + mp.mpf("0.033") * y_exp) / y_exp
    d_bob = min(d_bob, mp.mpf("0.5"))
    d_eve = min(d_bob * mp.e**mu_s, mp.mpf("0.5"))
    d_prime = mp.mpf("0.5") - mp.sqrt(d_eve * (1 - d_eve))
    i_ab = 1 - _mp_h2(d_bob)
    i_ae = (y_exp - y_1) / y_exp + mp.e ** (-mu_s) * (1 - _mp_h2(d_prime))
    r_s = mp.mpf("0.5") * y_exp * (i_ab - i_ae)
    return d_bob, i_ab, i_ae, r_s


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_reference_values():
    assert binary_entropy(0.11) == pytest.approx(float(_mp_h2(0.11)), rel=1e-13)
    assert binary_entropy(0.11) == pytest.approx(0.49991596, rel=1e-7)
    assert binary_entropy(0.077) == pytest.approx(float(_mp_h2(0.077)), rel=1e-13)


def test_binary_entropy_symmetric():
    rng = np.random.default_rng(404)
    x = rng.uniform(0.0, 1.0, size=10_000)
    for value in x:
        assert abs(binary_entropy(value) - binary_entropy(1.0 - value)) <= 1e-12


def test_binary_entropy_rejects_non_probability():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_mutual_info_ab():
    assert mutual_info_ab(0.0) == 1.0
    assert mutual_info_ab(0.5) == 0.0
    assert mutual_info_ab(0.077) == pytest.approx(float(1 - _mp_h2(0.077)), rel=1e-13)
    assert mutual_info_ab(0.077) == pytest.approx(0.60848073, rel=1e-7)


def test_yields_lossless():
    pair = yields(SourceParams(mu_s=0.5), 1.0)
    assert pair.y_exp == pytest.approx(float(1 - mp.e ** mp.mpf("-0.5")), rel=1e-14)
    assert pair.y_1 == pytest.approx(float(mp.e ** mp.mpf("-0.5") / 2), rel=1e-14)


def test_yields_at_fiber_scale():
    eta = float(_mp_eta_total(146))
    pair = yields(SourceParams(mu_s=0.5), eta)
    assert pair.y_exp == pytest.approx(1.9327617e-5, rel=1e-7)
    assert pair.y_1 == pytest.approx(1.1722906e-5, rel=1e-7)


def test_yields_survive_extreme_loss():
    # 1000 km of fiber: eta ~ 1e-23, far below float epsilon of 1
    eta = 10.0 ** (-21.0) * 0.045
    pair = yields(SourceParams(mu_s=0.5), eta)
    assert pair.y_exp == pytest.approx(eta * 0.5, rel=1e-9)
    assert 0.0 < pair.y_1 <= pair.y_exp


def test_yields_ordering_randomized():
    rng = np.random.default_rng(515)
    for _ in range(10_000):
        mu_s = float(rng.uniform(0.0, 6.0))
        eta = float(rng.uniform(0.0, 1.0))
        pair = yields(SourceParams(mu_s=mu_s), eta)
        assert 0.0 <= pair.y_1 <= pair.y_exp <= 1.0


def test_eve_info_multi_limits():
    assert eve_info_multi(YieldPair(y_exp=0.2, y_1=0.2)) == 0.0
    assert eve_info_multi(YieldPair(y_exp=0.3, y_1=0.0)) == 1.0
    with pytest.raises(UndefinedPointError):
        eve_info_multi(YieldPair(y_exp=0.0, y_1=0.0))


def test_eve_info_multi_high_loss_limit():
    # deep in the lossy regime the multiphoton share tends to 1 - exp(-mu_s)
    pair = yields(SourceParams(mu_s=0.5), 1e-9)
    assert eve_info_multi(pair) == pytest.approx(float(1 - mp.e ** mp.mpf("-0.5")), rel=1e-6)


def test_eve_info_multi_increases_with_intensity():
    eta = 0.045 * 10 ** (-2.1)
    values = [
        eve_info_multi(yields(SourceParams(mu_s=mu), eta))
        for mu in (0.1, 0.3, 0.5, 0.8, 1.0, 2.0)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_eve_error_rate_amplification():
    assert eve_error_rate(0.5, 0.0) == 0.0
    expected = float(mp.mpf("0.077") * mp.e ** mp.mpf("0.5"))
    assert eve_error_rate(0.5, 0.077) == pytest.approx(expected, rel=1e-14)
    assert eve_error_rate(0.5, 0.077) == pytest.approx(0.12695154, rel=1e-7)


def test_eve_error_rate_clamps_at_half():
    # raw value 0.4 * e^0.5 = 0.6595 exceeds a random channel
    assert 0.4 * math.exp(0.5) > 0.5
    assert eve_error_rate(0.5, 0.4) == 0.5


def test_eve_error_rate_monotone_in_intensity():
    rng = np.random.default_rng(626)
    for _ in range(500):
        d = float(rng.uniform(0.0, 0.3))
        rates = [eve_error_rate(mu, d) for mu in (0.1, 0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_eve_error_rate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        eve_error_rate(0.0, 0.1)
    with pytest.raises(ValueError):
        eve_error_rate(0.5, 1.5)


def test_eve_info_single_no_disturbance_no_information():
    assert eve_info_single(0.5, 0.0) == 0.0


def test_eve_info_single_saturates_at_single_photon_weight():
    # once the allowed error rate is clamped at 1/2 the bound is exp(-mu_s) exactly
    assert eve_info_single(0.5, 0.4) == math.exp(-0.5)


def test_eve_info_single_reference_value():
    d_eve = mp.mpf("0.077") * mp.e ** mp.mpf("0.5")
    d_prime = mp.mpf("0.5") - mp.sqrt(d_eve * (1 - d_eve))
    expected = float(mp.e ** mp.mpf("-0.5") * (1 - _mp_h2(d_prime)))
    assert eve_info_single(0.5, 0.077) == pytest.approx(expected, rel=1e-12)
    assert eve_info_single(0.5, 0.077) == pytest.approx(0.21168870, rel=1e-7)


def test_eve_info_single_prefactor_decreases():
    values = [eve_info_single(mu, 0.49) for mu in (0.5, 1.0, 2.0, 3.0)]
    # all clamped, so the values are exactly the single-photon weights
    assert values == [math.exp(-mu) for mu in (0.5, 1.0, 2.0, 3.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_bob_error_rate_without_dark_counts():
    det = DetectorParams(eta_d=0.045, y0=0.0, e_detector=0.033)
    d = bob_error_rate(SourceParams(mu_s=0.5), ChannelParams(length_km=80.0), det)
    assert d == pytest.approx(0.033, rel=1e-14)


def test_bob_error_rate_reference_values():
    d0 = bob_error_rate(SourceParams(mu_s=0.5), ChannelParams(length_km=0.0), GYS_DETECTOR)
    assert d0 == pytest.approx(float(_mp_report(0.5, 0)[0]), rel=1e-12)
    assert d0 == pytest.approx(0.03303820, rel=1e-6)
    d146 = bob_error_rate(SourceParams(mu_s=0.5), ChannelParams(length_km=146.0), GYS_DETECTOR)
    assert d146 == pytest.approx(float(_mp_report(0.5, 146)[0]), rel=1e-12)
    assert d146 == pytest.approx(0.0770, abs=5e-5)


def test_bob_error_rate_clamps_deep_in_the_noise():
    d = bob_error_rate(SourceParams(mu_s=0.5), ChannelParams(length_km=250.0), GYS_DETECTOR)
    assert d == 0.5


def test_bob_error_rate_undefined_without_clicks():
    with pytest.raises(UndefinedPointError):
        bob_error_rate(SourceParams(mu_s=0.0), ChannelParams(length_km=10.0), GYS_DETECTOR)


def test_evaluate_point_reference_chain():
    for length in (0.0, 50.0, 100.0, 146.0):
        report = evaluate_point(
            SourceParams(mu_s=0.5), ChannelParams(length_km=length), GYS_DETECTOR
        )
        _, i_ab, i_ae, r_s = _mp_report(0.5, length)
        assert report.i_ab == pytest.approx(float(i_ab), rel=1e-12)
        assert report.i_ae == pytest.approx(float(i_ae), rel=1e-12)
        assert report.r_s == pytest.approx(float(r_s), rel=1e-9)


def test_evaluate_point_security_boundary():
    secure_point = evaluate_point(
        SourceParams(mu_s=0.5), ChannelParams(length_km=146.0), GYS_DETECTOR
    )
    assert secure_point.secure
    assert 0.0 < secure_point.r_s <= 0.05 * secure_point.r_bob
    broken_point = evaluate_point(
        SourceParams(mu_s=0.5), ChannelParams(length_km=147.0), GYS_DETECTOR
    )
    assert not broken_point.secure
    assert broken_point.r_s < 0.0


def test_evaluate_point_exact_identities():
    report = evaluate_point(
        SourceParams(mu_s=0.5), ChannelParams(length_km=100.0), GYS_DETECTOR
    )
    assert report.r_s == report.r_bob - report.r_eve
    assert report.i_ae == report.i_ae_multi + report.i_ae_single
    assert report.secure == (report.r_s > 0.0)
    assert report.r_bob == 0.5 * report.y_exp * report.i_ab
    assert report.r_eve == 0.5 * report.y_exp * report.i_ae


def test_evaluate_point_clamping_flags():
    healthy = evaluate_point(
        SourceParams(mu_s=0.5), ChannelParams(length_km=100.0), GYS_DETECTOR
    )
    assert not healthy.d_bob_clamped
    assert not healthy.d_eve_clamped
    drowned = evaluate_point(
        SourceParams(mu_s=0.5), ChannelParams(length_km=250.0), GYS_DETECTOR
    )
    assert drowned.d_bob_clamped
    assert drowned.d_eve_clamped
    assert drowned.d_bob == 0.5
    assert drowned.d_eve == 0.5
    assert drowned.i_ab == 0.0
    assert not drowned.secure


def test_evaluate_point_undefined_without_clicks():
    with pytest.raises(UndefinedPointError):
        evaluate_point(SourceParams(mu_s=0.0), ChannelParams(length_km=10.0), GYS_DETECTOR)
    dead = DetectorParams(eta_d=0.0, y0=0.0, e_detector=0.0)
    with pytest.raises(UndefinedPointError):
        evaluate_point(SourceParams(mu_s=0.5), ChannelParams(length_km=10.0), dead)


def test_evaluate_point_randomized_invariants():
    rng = np.random.default_rng(737)
    for _ in range(10_000):
        mu_s = float(rng.uniform(0.01, 2.0))
        length = float(rng.uniform(0.0, 300.0))
        report = evaluate_point(
            SourceParams(mu_s=mu_s), ChannelParams(length_km=length), GYS_DETECTOR
        )
        assert 0.0 <= report.y_1 <= report.y_exp <= 1.0
        assert 0.0 <= report.d_bob <= 0.5
        assert 0.0 <= report.d_eve <= 0.5
        assert report.i_ae == report.i_ae_multi + report.i_ae_single
        assert report.r_s == report.r_bob - report.r_eve
        half_rate_form = 0.5 * report.y_exp * (report.i_ab - report.i_ae)
        scale = max(abs(report.r_bob), abs(report.r_eve))
        assert abs(report.r_s - half_rate_form) <= 1e-15 * scale
        raw_d_eve = report.d_bob * math.exp(mu_s)
        assert report.d_eve_clamped == (raw_d_eve > 0.5)
        assert report.d_eve == min(raw_d_eve, 0.5)


def test_evaluate_point_is_total_past_the_exp_overflow():
    # exp(800) overflows a double; the allowed single-photon error clamps instead
    report = evaluate_point(
        SourceParams(mu_s=800.0), ChannelParams(length_km=50.0), GYS_DETECTOR
    )
    for name in ("y_exp", "y_1", "d_bob", "d_eve", "i_ab", "i_ae_multi", "i_ae_single",
                 "i_ae", "r_bob", "r_eve", "r_s"):
        assert math.isfinite(getattr(report, name)), name
    assert report.d_eve == 0.5
    assert report.d_eve_clamped
    assert not report.secure
    assert eve_error_rate(800.0, 0.033) == 0.5
    assert eve_error_rate(800.0, 0.0) == 0.0
    assert eve_info_single(800.0, 0.033) == 0.0


def _seeded_points():
    rng = np.random.default_rng(707)
    for _ in range(400):
        det = DetectorParams(
            eta_d=float(rng.uniform(0.01, 1.0)),
            y0=float(10.0 ** rng.uniform(-8.0, -3.0)),
            e_detector=float(rng.uniform(0.0, 0.1)),
        )
        mu_s = float(10.0 ** rng.uniform(-3.0, 1.5))
        length = float(rng.uniform(0.0, 400.0))
        yield det, mu_s, length
    for mu_s in (709.78, 709.79, 800.0):
        yield GYS_DETECTOR, mu_s, 50.0


def test_per_term_functions_equal_the_report_bit_for_bit():
    for det, mu_s, length in _seeded_points():
        source = SourceParams(mu_s=mu_s)
        channel = ChannelParams(length_km=length)
        report = evaluate_point(source, channel, det)
        eta_total = total_efficiency(channel, det)
        pair = yields(source, eta_total)
        assert tuple(pair) == (report.y_exp, report.y_1)
        assert eve_error_rate(mu_s, report.d_bob) == report.d_eve
        assert eve_info_single(mu_s, report.d_bob) == report.i_ae_single
        assert eve_info_multi(pair) == report.i_ae_multi
        assert bob_error_rate(source, channel, det) == report.d_bob
    # past the exp overflow every positive error rate clamps, subnormal ones too
    assert eve_error_rate(800.0, 5e-324) == 0.5


def test_ideal_source_tradeoff_is_the_unit_weight_single_photon_bound():
    # d across the whole [0, 1], including the (1/2, 1] half no clamp reaches
    ds = [i / 200 for i in range(201)] + [1e-12, 0.5 - 1e-12, 0.5 + 1e-12, 1.0 - 1e-12]
    for d in ds:
        i_ab, i_ae = disturbance_tradeoff(IDEAL_SOURCE, d)
        assert i_ab == mutual_info_ab(d)
        assert i_ae == 1.0 - binary_entropy(0.5 - math.sqrt(d * (1.0 - d)))


@pytest.mark.parametrize("check", [
    binary_entropy,
    lambda x: yields(SourceParams(mu_s=0.5), x),
    lambda x: eve_error_rate(0.5, x),
    lambda x: disturbance_tradeoff(0.5, x),
    lambda x: disturbance_tradeoff(IDEAL_SOURCE, x),
    lambda x: detect_prob(2, x),
    lambda x: brp_empty_prob(1.0, x),
    afterpulse_error,
    lambda x: crosstalk_false_click(1.0, x),
    lambda x: EvePolicy(mode="pns", suppress_fraction=x),
], ids=["binary_entropy", "yields", "eve_error_rate", "tradeoff", "tradeoff_ideal",
        "detect_prob", "brp_empty_prob", "afterpulse_error", "crosstalk", "EvePolicy"])
def test_every_probability_argument_is_checked(check):
    for bad in (-0.1, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got "):
            check(bad)
    check(0)
    check(1)
    check(np.float64(0.25))
