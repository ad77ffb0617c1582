"""Optical chain accounting: mean photon numbers along each interferometer arm."""

import math
import random

import pytest
from mpmath import mp

from brpqkd import (
    ChannelParams,
    OpticalChain,
    afterpulse_error,
    crosstalk_false_click,
    propagate,
)

mp.dps = 50


def _default_chain(**overrides):
    base = dict(
        source_intensity=8e5,
        channel=ChannelParams(length_km=146.0),
        alice_split_long=0.5,
        bob_split_long=0.5,
        alice_attenuation_db=56.0,
        bob_attenuation_db=56.0,
        switch_crosstalk_db=20.0,
    )
    base.update(overrides)
    return OpticalChain(**base)


def _mp_report():
    src = mp.mpf("8e5")
    half = mp.mpf("0.5")
    atten = mp.mpf(10) ** (mp.mpf(-56) / 10)
    eta_t = mp.mpf(10) ** (-mp.mpf("0.21") * 146 / 10)
    brp_alice = src * half * half
    signal_alice = src * half * atten * half
    dim_alice = src * half * atten * half * atten
    return {
        "brp_at_alice": brp_alice,
        "signal_at_alice": signal_alice,
        "brp_at_bob": brp_alice * eta_t,
        "signal_at_bob": signal_alice * eta_t,
        "dim_at_bob": dim_alice * eta_t,
        "switch_leak_at_signal_detector": brp_alice * eta_t * mp.mpf(10) ** (-mp.mpf(2)),
    }


def test_propagate_reference_chain():
    report = propagate(_default_chain())
    expected = _mp_report()
    assert report.brp_at_alice == 200000.0
    for field, value in expected.items():
        assert getattr(report, field) == pytest.approx(float(value), rel=1e-9), field
    # three passes through 56 dB of attenuation relative to the bright arm
    assert report.dim_at_bob == pytest.approx(1.084001781e-9, rel=1e-6)


def test_propagate_dark_source():
    report = propagate(_default_chain(source_intensity=0.0))
    for field in report.__dataclass_fields__:
        assert getattr(report, field) == 0.0


def test_propagate_is_linear_in_source_intensity():
    base = propagate(_default_chain())
    doubled = propagate(_default_chain(source_intensity=1.6e6))
    for field in base.__dataclass_fields__:
        assert getattr(doubled, field) == 2.0 * getattr(base, field)


def test_attenuations_compose_in_decibels():
    split = propagate(_default_chain(alice_attenuation_db=30.0, bob_attenuation_db=26.0))
    lumped = propagate(_default_chain(alice_attenuation_db=56.0, bob_attenuation_db=0.0))
    assert split.dim_at_bob == pytest.approx(lumped.dim_at_bob, rel=1e-12)


def test_signal_to_brp_ratio():
    rng = random.Random(20240731)
    for _ in range(50):
        long_a = rng.uniform(0.1, 0.9)
        long_b = rng.uniform(0.1, 0.9)
        atten = rng.uniform(0.0, 80.0)
        chain = _default_chain(
            alice_split_long=long_a,
            bob_split_long=long_b,
            alice_attenuation_db=atten,
        )
        report = propagate(chain)
        # each short arm is 1.0 - long, the same floats, so the same bits
        atten_a, atten_b = 10.0 ** (-atten / 10.0), 10.0 ** (-56.0 / 10.0)
        assert report.brp_at_alice == 8e5 * long_a * long_b
        assert report.signal_at_alice == 8e5 * (1.0 - long_a) * atten_a * long_b
        eta_t = 10.0 ** (-0.21 * 146.0 / 10.0)
        assert report.dim_at_bob == (
            8e5 * (1.0 - long_a) * atten_a * (1.0 - long_b) * atten_b * eta_t)
        expected = atten_a * (1.0 - long_a) / long_a
        assert report.signal_at_alice / report.brp_at_alice == pytest.approx(
            expected, rel=1e-12
        )


def test_fiber_scaling_between_stations():
    report = propagate(_default_chain())
    eta_t = 10.0 ** (-0.21 * 146.0 / 10.0)
    assert report.brp_at_bob == pytest.approx(report.brp_at_alice * eta_t, rel=1e-12)
    assert report.signal_at_bob == pytest.approx(report.signal_at_alice * eta_t, rel=1e-12)


def test_afterpulse_error():
    assert afterpulse_error(0.008) == 0.004
    assert afterpulse_error(0.0) == 0.0
    assert afterpulse_error(1.0) == 0.5
    with pytest.raises(ValueError):
        afterpulse_error(-0.1)
    with pytest.raises(ValueError):
        afterpulse_error(1.1)


def test_crosstalk_false_click():
    assert crosstalk_false_click(0.0, 0.045) == 0.0
    assert crosstalk_false_click(1.72, 0.045) == pytest.approx(
        -math.expm1(-0.045 * 1.72), rel=1e-14
    )
    assert crosstalk_false_click(1.0, 0.045) == pytest.approx(0.044002514, rel=1e-7)
    with pytest.raises(ValueError):
        crosstalk_false_click(-1.0, 0.045)
    with pytest.raises(ValueError):
        crosstalk_false_click(1.0, 1.5)


def test_chain_validation():
    with pytest.raises(ValueError):
        _default_chain(source_intensity=-1.0)
    with pytest.raises(ValueError):
        _default_chain(alice_split_long=1.1)
    with pytest.raises(ValueError):
        _default_chain(bob_split_long=-0.1)
    with pytest.raises(ValueError):
        _default_chain(alice_attenuation_db=-5.0)
    with pytest.raises(ValueError):
        _default_chain(switch_crosstalk_db=-1.0)


@pytest.mark.parametrize("name", ["alice_split_long", "bob_split_long"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_split_is_rejected(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        _default_chain(**{name: value})


def test_source_intensity_is_stored_as_a_float():
    chain = _default_chain(source_intensity=8)
    assert type(chain.source_intensity) is float and chain.source_intensity == 8.0
