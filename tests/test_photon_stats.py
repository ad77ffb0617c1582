"""Photon-number statistics against arbitrary-precision references."""

import math

import numpy as np
import pytest
from mpmath import mp

from brpqkd import (
    ChannelParams,
    DetectorParams,
    brp_empty_prob,
    channel_transmittance,
    poisson_pmf,
    total_efficiency,
    transmittance,
)

mp.dps = 50


def _mp_pmf(n, mu):
    mu = mp.mpf(mu)
    return mp.e ** (-mu) * mu**n / mp.factorial(n)


def _empty_prob_by_sum(mu_b, eta):
    """Independent vacancy oracle: sum P_i(mu_b) (1-eta)^i over the 12-sigma mass."""
    if mu_b == 0.0:
        return 1.0
    n_max = math.ceil(mu_b + 12.0 * math.sqrt(mu_b + 1.0))
    total = math.exp(-mu_b)
    if eta >= 1.0:
        return total
    log_keep = math.log1p(-eta)
    log_mu = math.log(mu_b)
    for i in range(1, n_max + 1):
        total += math.exp(i * log_mu - mu_b - math.lgamma(i + 1) + i * log_keep)
    return total


def test_poisson_pmf_reference_values():
    assert poisson_pmf(1, 0.5) == pytest.approx(float(_mp_pmf(1, 0.5)), rel=1e-13)
    assert poisson_pmf(3, 2.0) == pytest.approx(float(_mp_pmf(3, 2.0)), rel=1e-13)
    assert poisson_pmf(1, 0.5) == pytest.approx(0.30326533, rel=1e-7)
    assert poisson_pmf(3, 2.0) == pytest.approx(0.18044704, rel=1e-7)


def test_poisson_pmf_degenerate_source():
    assert poisson_pmf(0, 0.0) == 1.0
    assert poisson_pmf(5, 0.0) == 0.0


def test_poisson_pmf_log_branch():
    # n > 20 and mu > 20 both take the log-space path; bright-pulse scale must not overflow
    assert poisson_pmf(25, 19.0) == pytest.approx(float(_mp_pmf(25, 19.0)), rel=1e-12)
    assert poisson_pmf(18, 35.5) == pytest.approx(float(_mp_pmf(18, 35.5)), rel=1e-12)
    assert poisson_pmf(200_000, 2.0e5) == pytest.approx(
        float(_mp_pmf(200_000, mp.mpf("2e5"))), rel=1e-10
    )


def test_poisson_pmf_branches_agree_near_cutoff():
    for mu in (19.75, 20.25):
        for n in (19, 20, 21, 22):
            assert poisson_pmf(n, mu) == pytest.approx(float(_mp_pmf(n, mu)), rel=1e-12)


def _mp_log_pmf(n, mu):
    # n and mu exactly as given (ints and floats convert to mpf exactly)
    n, mu = mp.mpf(n), mp.mpf(mu)
    return n * mp.log(mu) - mu - mp.loggamma(n + 1)


# (n, mu) near each other (within about sqrt(n)) and far apart (tens of sqrt(n),
# or a large factor, where the pmf is still a normal float)
_PMF_POINTS = [
    (21, 21.0), (21, 25.0), (21, 2.5), (21, 120.0),
    (100, 100.0), (100, 109.5), (100, 20.5), (100, 300.0),
    (10**6, 1e6), (10**6, 1e6 - 1000.0), (10**6, 9.7e5), (10**6, 1.03e6),
    (10**15, 1e15), (10**15, 1e15 + 3e7), (10**15, 1e15 - 9e8), (10**15, 1e15 + 9e8),
    (10**20, 1e20), (10**20, 1e20 + 1e10), (10**20, 1e20 - 3e11), (10**20, 1e20 + 3e11),
    (1, 600.0), (15, 40.0), (16, 40.0),
]


@pytest.mark.parametrize("n, mu", _PMF_POINTS)
def test_poisson_pmf_keeps_full_precision_for_large_close_arguments(n, mu):
    # the saddle-point form has no cancellation between n ln mu, mu and ln n!
    mp.dps = 80
    try:
        expected = mp.exp(_mp_log_pmf(n, mu))
    finally:
        mp.dps = 50
    assert float(expected) > 1e-300
    assert abs(poisson_pmf(n, mu) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 5.0, 20.5, 100.0, 1000.0, 2.0e5])
def test_poisson_pmf_normalizes(mu):
    n_max = math.ceil(mu + 12.0 * math.sqrt(mu + 1.0))
    total = math.fsum(poisson_pmf(n, mu) for n in range(n_max + 1))
    assert total >= 1.0 - 1e-10
    assert total <= 1.0 + 1e-10


def test_poisson_pmf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        poisson_pmf(-1, 0.5)
    with pytest.raises(ValueError):
        poisson_pmf(2, -0.1)
    with pytest.raises(TypeError):
        poisson_pmf(1.5, 0.5)


def test_photon_numbers_beyond_the_float_range_answer():
    # n! swamps mu**n
    assert poisson_pmf(10**400, 0.5) == 0.0
    assert poisson_pmf(10**400, 1e300) == 0.0
    assert poisson_pmf(10**306, 0.5) == 0.0  # far from mu, the pmf underflows
    assert poisson_pmf(10**306, 1e300) == 0.0
    # near mu = n the pmf is answered, about 1/sqrt(2 pi n)
    assert poisson_pmf(10**305, 1e305) == pytest.approx(1 / math.sqrt(2e305 * math.pi), rel=1e-12)


@pytest.mark.parametrize("mu", [2.5e305, 1e306, 1e307, 2.8e307])
def test_poisson_pmf_answers_past_the_lgamma_overflow(mu):
    # ln n! overflows lgamma from about 2.56e305; the saddle-point form needs
    # neither it nor x + mu, and answers until 2 pi n leaves the float range.
    # n is the integer equal to the float mu, whose neighbours differ from it
    # by far more than sqrt(n), so only mu = n itself has a pmf above zero
    n = int(mu)
    mp.dps = 400
    try:
        expected = mp.exp(_mp_log_pmf(n, mu))
    finally:
        mp.dps = 50
    assert float(expected) > 1e-300
    assert abs(poisson_pmf(n, mu) - expected) <= 1e-12 * expected


def test_poisson_pmf_for_a_mean_near_the_float_maximum():
    # x + mu overflows there; it must not pass for x near mu
    assert poisson_pmf(10**305, 1.7976931348623157e308) == 0.0
    assert poisson_pmf(10**305, 1.79e308) == 0.0


def test_channel_transmittance_reference_values():
    assert channel_transmittance(ChannelParams(length_km=0.0)) == 1.0
    assert channel_transmittance(ChannelParams(length_km=10.0)) == pytest.approx(
        float(mp.mpf(10) ** (-mp.mpf("0.21"))), rel=1e-13
    )
    assert channel_transmittance(ChannelParams(length_km=146.0)) == pytest.approx(
        8.5901352e-4, rel=1e-7
    )


def test_channel_transmittance_multiplicative():
    rng = np.random.default_rng(2203)
    for _ in range(300):
        l1, l2 = rng.uniform(0.0, 200.0, size=2)
        loss = float(rng.uniform(0.05, 0.5))
        combined = channel_transmittance(ChannelParams(l1 + l2, loss))
        split = channel_transmittance(ChannelParams(l1, loss)) * channel_transmittance(
            ChannelParams(l2, loss)
        )
        assert combined == pytest.approx(split, rel=1e-12)


def test_transmittance_of_an_array_matches_each_span():
    # the array form the reach scans use, against the scalar channel path
    rng = np.random.default_rng(2207)
    lengths = rng.uniform(0.0, 400.0, size=500)
    for loss in (0.0, 0.21, 0.35):
        expected = [channel_transmittance(ChannelParams(float(x), loss)) for x in lengths]
        np.testing.assert_allclose(transmittance(lengths, loss), expected, rtol=1e-15, atol=0)


def test_total_efficiency_is_the_transmittance_times_eta_d():
    rng = np.random.default_rng(2209)
    for _ in range(300):
        det = DetectorParams(eta_d=float(rng.uniform(0.0, 1.0)))
        # at 0 km the transmittance is exactly 1, so the product is eta_d itself
        assert total_efficiency(ChannelParams(length_km=0.0), det) == det.eta_d
        channel = ChannelParams(length_km=float(rng.uniform(0.0, 300.0)))
        assert total_efficiency(channel, det) == channel_transmittance(channel) * det.eta_d


def test_brp_empty_prob_trivial_cases():
    assert brp_empty_prob(0.0, 0.5) == 1.0
    assert brp_empty_prob(3.0e5, 0.0) == 1.0


def test_brp_empty_prob_reference_point():
    # eta at 146 km with the benchmark detector, bright pulse at 2e5 photons
    eta = float(mp.mpf(10) ** (-mp.mpf("0.21") * 146 / 10) * mp.mpf("0.045"))
    value = brp_empty_prob(2.0e5, eta)
    assert value == pytest.approx(float(mp.e ** (-mp.mpf(eta) * 200000)), rel=1e-12)
    assert value == pytest.approx(4.38951472e-4, rel=1e-8)
    assert value == pytest.approx(_empty_prob_by_sum(2.0e5, eta), rel=1e-9)


def test_brp_empty_prob_matches_truncated_sum():
    rng = np.random.default_rng(3301)
    for _ in range(150):
        mu_b = float(rng.uniform(0.0, 1000.0))
        eta = float(rng.uniform(0.0, 1.0))
        assert abs(brp_empty_prob(mu_b, eta) - _empty_prob_by_sum(mu_b, eta)) <= 1e-9


def test_brp_empty_prob_rejects_bad_arguments():
    with pytest.raises(ValueError):
        brp_empty_prob(-1.0, 0.5)
    with pytest.raises(ValueError):
        brp_empty_prob(1.0, -0.2)
    with pytest.raises(ValueError):
        brp_empty_prob(1.0, 1.01)
