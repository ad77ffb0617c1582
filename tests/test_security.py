"""Analytic security model against a 50-digit reference implementation."""

import math
import sys

import numpy as np
import pytest
from mpmath import mp

from brpqkd import (
    IDEAL_DETECTOR,
    IDEAL_SOURCE,
    ChannelParams,
    DetectorParams,
    EvePolicy,
    GYS_DETECTOR,
    SourceParams,
    UndefinedPointError,
    disturbance_tradeoff,
    evaluate_point,
)
from brpqkd.linkbudget import afterpulse_error, crosstalk_false_click
from brpqkd.photon_stats import brp_empty_prob, total_efficiency

mp.dps = 50


def _mp_h2(x):
    x = mp.mpf(x)
    if x == 0 or x == 1:
        return mp.mpf(0)
    return -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)


def _mp_eta_total(length_km):
    return mp.mpf(10) ** (-mp.mpf("0.21") * length_km / 10) * mp.mpf("0.045")


def _mp_single_photon_bound(mu_s, d_eve):
    d_prime = mp.mpf("0.5") - mp.sqrt(d_eve * (1 - d_eve))
    return mp.e ** (-mu_s) * (1 - _mp_h2(d_prime))


def _mp_report(mu_s, length_km):
    """Reference pipeline for the benchmark detector, mirrored in mpmath.

    Returns the ``SecurityReport`` terms by field name.
    """
    mu_s = mp.mpf(mu_s)
    eta = _mp_eta_total(length_km)
    y_exp = 1 - mp.e ** (-eta * mu_s)
    y_1 = mp.e ** (-mu_s) * mu_s * eta
    d_bob = (mp.mpf("0.5") * mp.mpf("1.7e-6") + mp.mpf("0.033") * y_exp) / y_exp
    d_bob = min(d_bob, mp.mpf("0.5"))
    d_eve = min(d_bob * mp.e**mu_s, mp.mpf("0.5"))
    i_ab = 1 - _mp_h2(d_bob)
    i_ae_multi = (y_exp - y_1) / y_exp
    i_ae_single = _mp_single_photon_bound(mu_s, d_eve)
    i_ae = i_ae_multi + i_ae_single
    r_s = mp.mpf("0.5") * y_exp * (i_ab - i_ae)
    return {"y_exp": y_exp, "y_1": y_1, "d_bob": d_bob, "d_eve": d_eve, "i_ab": i_ab,
            "i_ae_multi": i_ae_multi, "i_ae_single": i_ae_single, "i_ae": i_ae, "r_s": r_s}


def _point(mu_s, length_km, det=GYS_DETECTOR):
    return evaluate_point(SourceParams(mu_s=mu_s), ChannelParams(length_km=length_km), det)


def test_i_ab_is_one_minus_the_binary_entropy():
    # the ideal-source trade-off's first term is 1 - h2(d), the same i_ab as the report's
    i_ab = lambda d: disturbance_tradeoff(IDEAL_SOURCE, d)[0]
    assert i_ab(0.0) == 1.0
    assert i_ab(1.0) == 1.0
    assert i_ab(0.5) == 0.0
    for d in (0.11, 0.077):
        assert i_ab(d) == pytest.approx(float(1 - _mp_h2(d)), rel=1e-13)
    assert i_ab(0.11) == pytest.approx(1.0 - 0.49991596, rel=1e-7)
    assert i_ab(0.077) == pytest.approx(0.60848073, rel=1e-7)
    for length in (0.0, 146.0):
        assert _point(0.5, length).i_ab == pytest.approx(
            float(_mp_report(0.5, length)["i_ab"]), rel=1e-12)


def test_i_ab_is_symmetric_in_the_error_rate():
    rng = np.random.default_rng(404)
    x = rng.uniform(0.0, 1.0, size=10_000)
    for value in x:
        assert abs(disturbance_tradeoff(IDEAL_SOURCE, value)[0]
                   - disturbance_tradeoff(IDEAL_SOURCE, 1.0 - value)[0]) <= 1e-12


def test_yields_lossless():
    # a unit-efficiency detector at 0 km has total efficiency exactly 1
    report = _point(0.5, 0.0, IDEAL_DETECTOR)
    assert report.y_exp == pytest.approx(float(1 - mp.e ** mp.mpf("-0.5")), rel=1e-14)
    assert report.y_1 == pytest.approx(float(mp.e ** mp.mpf("-0.5") / 2), rel=1e-14)


def test_yields_at_fiber_scale():
    report = _point(0.5, 146.0)
    reference = _mp_report(0.5, 146)
    assert report.y_exp == pytest.approx(float(reference["y_exp"]), rel=1e-12)
    assert report.y_1 == pytest.approx(float(reference["y_1"]), rel=1e-12)
    assert report.y_exp == pytest.approx(1.9327617e-5, rel=1e-7)
    assert report.y_1 == pytest.approx(1.1722906e-5, rel=1e-7)


def test_yields_survive_extreme_loss():
    # 1000 km of fiber: eta ~ 1e-23, far below float epsilon of 1
    eta = 10.0 ** (-21.0) * 0.045
    report = _point(0.5, 1000.0)
    assert report.y_exp == pytest.approx(eta * 0.5, rel=1e-9)
    assert 0.0 < report.y_1 <= report.y_exp


def test_yields_ordering_randomized():
    rng = np.random.default_rng(515)
    for _ in range(10_000):
        mu_s = float(rng.uniform(0.0, 6.0))
        eta = float(rng.uniform(0.0, 1.0))
        # at 0 km the total efficiency is exactly eta_d
        report = _point(mu_s, 0.0, DetectorParams(eta_d=eta))
        assert 0.0 <= report.y_1 <= report.y_exp <= 1.0


def test_i_ae_multi_limits():
    # a vanishingly weak pulse carries no multi-photon share, a bright one nothing else
    assert _point(1e-300, 0.0, IDEAL_DETECTOR).i_ae_multi == 0.0
    assert _point(800.0, 0.0, IDEAL_DETECTOR).i_ae_multi == 1.0


def test_i_ae_multi_high_loss_limit():
    # deep in the lossy regime the multiphoton share tends to 1 - exp(-mu_s)
    report = _point(0.5, 0.0, DetectorParams(eta_d=1e-9))
    assert report.i_ae_multi == pytest.approx(float(1 - mp.e ** mp.mpf("-0.5")), rel=1e-6)


def test_i_ae_multi_increases_with_intensity():
    values = [_point(mu, 100.0).i_ae_multi for mu in (0.1, 0.3, 0.5, 0.8, 1.0, 2.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_d_eve_amplifies_the_observed_error_rate():
    silent = DetectorParams(eta_d=0.045, y0=0.0, e_detector=0.0)
    assert _point(0.5, 50.0, silent).d_eve == 0.0
    report = _point(0.5, 146.0)
    reference = _mp_report(0.5, 146)
    assert report.d_eve == pytest.approx(float(reference["d_eve"]), rel=1e-12)
    assert report.d_eve == pytest.approx(float(reference["d_bob"] * mp.e ** mp.mpf("0.5")),
                                         rel=1e-12)
    assert report.d_eve == pytest.approx(0.12695, abs=1e-4)


def test_d_eve_is_monotone_in_intensity():
    rng = np.random.default_rng(626)
    for _ in range(500):
        # no dark counts, so d_bob is e_detector at every intensity
        det = DetectorParams(eta_d=0.1, y0=0.0, e_detector=float(rng.uniform(0.0, 0.3)))
        rates = [_point(mu, 50.0, det).d_eve for mu in (0.1, 0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_i_ae_single_without_disturbance_is_zero():
    silent = DetectorParams(eta_d=0.045, y0=0.0, e_detector=0.0)
    assert _point(0.5, 50.0, silent).i_ae_single == 0.0


@pytest.mark.parametrize("mu_s", [0.5, 1.0, 2.0, 3.0])
def test_a_clamped_d_eve_leaves_the_single_photon_weight(mu_s):
    # raw d_bob e^mu_s exceeds a random channel while d_bob itself does not, and
    # once d_eve is clamped at 1/2 the bound is exp(-mu_s) exactly
    report = _point(mu_s, 50.0, DetectorParams(eta_d=0.1, y0=0.0, e_detector=0.49))
    assert not report.d_bob_clamped
    assert report.d_eve_clamped and report.d_eve == 0.5
    assert report.i_ae_single == math.exp(-mu_s)


def test_i_ae_single_reference_value():
    report = _point(0.5, 146.0)
    expected = float(_mp_report(0.5, 146)["i_ae_single"])
    assert report.i_ae_single == pytest.approx(expected, rel=1e-12)
    assert report.i_ae_single == pytest.approx(0.21169, abs=1e-4)


def test_d_bob_without_dark_counts():
    det = DetectorParams(eta_d=0.045, y0=0.0, e_detector=0.033)
    assert _point(0.5, 80.0, det).d_bob == pytest.approx(0.033, rel=1e-14)


def test_d_bob_reference_values():
    d0 = _point(0.5, 0.0).d_bob
    assert d0 == pytest.approx(float(_mp_report(0.5, 0)["d_bob"]), rel=1e-12)
    assert d0 == pytest.approx(0.03303820, rel=1e-6)
    d146 = _point(0.5, 146.0).d_bob
    assert d146 == pytest.approx(float(_mp_report(0.5, 146)["d_bob"]), rel=1e-12)
    assert d146 == pytest.approx(0.0770, abs=5e-5)


def test_evaluate_point_reference_chain():
    for length in (0.0, 50.0, 100.0, 146.0):
        report = evaluate_point(
            SourceParams(mu_s=0.5), ChannelParams(length_km=length), GYS_DETECTOR
        )
        reference = _mp_report(0.5, length)
        assert report.i_ab == pytest.approx(float(reference["i_ab"]), rel=1e-12)
        assert report.i_ae == pytest.approx(float(reference["i_ae"]), rel=1e-12)
        assert report.r_s == pytest.approx(float(reference["r_s"]), rel=1e-9)


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
    assert report.i_ae_single == 0.0  # exp(-800) underflows
    # past the overflow every positive error rate clamps, a subnormal one too, and zero stays
    assert _point(800.0, 0.0, DetectorParams(eta_d=1.0, e_detector=5e-324)).d_eve == 0.5
    assert _point(800.0, 0.0, IDEAL_DETECTOR).d_eve == 0.0


_LOG_DBL_MAX = math.log(sys.float_info.max)


@pytest.mark.parametrize("mu_s", [1e-3, 0.5, 5.0, 30.0, 709.78, 709.79, 800.0])
def test_report_terms_restate_the_model_bit_for_bit(mu_s):
    # random receivers and lengths, with intensities on both sides of the exp overflow;
    # the error-rate terms go through the public d-parameterised trade-off
    rng = np.random.default_rng(707)
    for _ in range(60):
        det = DetectorParams(
            eta_d=float(rng.uniform(0.01, 1.0)),
            y0=float(10.0 ** rng.uniform(-8.0, -3.0)),
            e_detector=float(rng.uniform(0.0, 0.1)),
        )
        channel = ChannelParams(length_km=float(rng.uniform(0.0, 400.0)))
        report = evaluate_point(SourceParams(mu_s=mu_s), channel, det)
        eta_total = total_efficiency(channel, det)
        assert report.y_exp == -math.expm1(-eta_total * mu_s)
        assert report.y_1 == math.exp(-mu_s) * mu_s * eta_total
        assert 0.0 <= report.y_1 <= report.y_exp <= 1.0
        assert report.i_ae_multi == (report.y_exp - report.y_1) / report.y_exp
        if mu_s > _LOG_DBL_MAX:
            assert report.d_eve == (0.5 if report.d_bob > 0.0 else 0.0)
        else:
            assert report.d_eve == min(report.d_bob * math.exp(mu_s), 0.5)
        assert report.i_ab == disturbance_tradeoff(IDEAL_SOURCE, report.d_bob)[0]
        unit_weight = disturbance_tradeoff(IDEAL_SOURCE, report.d_eve)[1]
        assert report.i_ae_single == math.exp(-mu_s) * unit_weight


def test_ideal_source_tradeoff_is_the_unit_weight_single_photon_bound():
    # d across the whole [0, 1], including the (1/2, 1] half no clamp reaches
    ds = [i / 200 for i in range(201)] + [1e-12, 0.5 - 1e-12, 0.5 + 1e-12, 1.0 - 1e-12]
    for d in ds:
        i_ab, i_ae = disturbance_tradeoff(IDEAL_SOURCE, d)
        assert i_ab == pytest.approx(float(1 - _mp_h2(d)), rel=1e-13, abs=1e-15), d
        assert i_ae == pytest.approx(float(_mp_single_photon_bound(0, mp.mpf(d))),
                                     rel=1e-13, abs=1e-15), d


@pytest.mark.parametrize("check", [
    lambda x: disturbance_tradeoff(0.5, x),
    lambda x: disturbance_tradeoff(IDEAL_SOURCE, x),
    lambda x: brp_empty_prob(1.0, x),
    afterpulse_error,
    lambda x: crosstalk_false_click(1.0, x),
    lambda x: EvePolicy(mode="pns", suppress_fraction=x),
], ids=["tradeoff", "tradeoff_ideal", "brp_empty_prob", "afterpulse_error", "crosstalk",
        "EvePolicy"])
def test_every_probability_argument_is_checked(check):
    for bad in (-0.1, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got "):
            check(bad)
    check(0)
    check(1)
    check(np.float64(0.25))
