"""Input rules: every value a public entry point's rule rejects raises a ValueError.

Five rules cover the numeric parameters:

* finite and >= 0 (intensities, lengths, losses, attenuations);
* > 0, where NaN is rejected and +inf passes (the model clamps it);
* a probability in [0, 1];
* a nonempty, strictly increasing grid;
* an integer in a range, where an integral float such as 1e6 counts.

Each rejected value must raise a ``ValueError`` subclass whose message names
the parameter; never an ``OverflowError``, a ``TypeError`` or a
``RuntimeWarning`` (pyproject turns the warning into an error).  An int
beyond the float range counts as the infinity of its sign.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brpqkd import (
    GYS_DETECTOR,
    IDEAL_SOURCE,
    ChannelParams,
    DetectorParams,
    EvePolicy,
    McConfig,
    OpticalChain,
    SourceParams,
    SweepGrid,
    afterpulse_error,
    brp_empty_prob,
    brp_intensity_bound,
    crosstalk_false_click,
    derive_stream,
    disturbance_bound,
    disturbance_tradeoff,
    optimal_signal_intensity,
    poisson_pmf,
    secure_distance,
    simulate,
    sweep,
)

HUGE = 10**400  # float(HUGE) overflows
_LINK = ChannelParams(length_km=50.0)
_SOURCE = SourceParams(mu_s=0.5)


def _chain(**overrides):
    return OpticalChain(**{"source_intensity": 8e5, "channel": _LINK, **overrides})


def _mc(**overrides):
    fields = {"n_pulses": 1000, "source": _SOURCE, "channel": _LINK, "det": GYS_DETECTOR,
              "seed": 1, **overrides}
    return McConfig(**fields)


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_REJECTED = {
    "nonnegative": st.one_of(
        _ANY_FLOAT.filter(lambda x: not 0.0 <= x < math.inf),
        st.integers(max_value=-1),
        st.sampled_from([HUGE, -HUGE]),
    ),
    "positive": st.one_of(
        _ANY_FLOAT.filter(lambda x: not x > 0.0),
        st.integers(max_value=0),
        st.just(-HUGE),
    ),
    "probability": st.one_of(
        _ANY_FLOAT.filter(lambda x: not 0.0 <= x <= 1.0),
        st.integers().filter(lambda n: n not in (0, 1)),
        st.sampled_from([HUGE, -HUGE]),
    ),
}


def _integers_outside(low, high=math.inf):
    return st.one_of(
        _ANY_FLOAT.filter(lambda x: not (x.is_integer() and low <= x < high)),
        st.integers(max_value=low - 1),
        st.integers(min_value=high) if high < math.inf else st.nothing(),
    )


# (id, call with the value under test, rule or strategy of rejected values, name
# the message must contain)
CASES = [
    ("SourceParams.mu_s", lambda x: SourceParams(mu_s=x), "nonnegative", "mu_s"),
    ("SourceParams.mu_b", lambda x: SourceParams(mu_s=0.5, mu_b=x), "nonnegative", "mu_b"),
    ("ChannelParams.length_km", lambda x: ChannelParams(length_km=x), "nonnegative",
     "length_km"),
    ("ChannelParams.loss_db_per_km", lambda x: ChannelParams(10.0, loss_db_per_km=x),
     "nonnegative", "loss_db_per_km"),
    *((f"DetectorParams.{name}", lambda x, name=name: DetectorParams(**{"eta_d": 0.1, name: x}),
       "probability", name) for name in ("eta_d", "y0", "e_detector", "e_0")),
    ("poisson_pmf.mu", lambda x: poisson_pmf(1, x), "nonnegative", "mu"),
    ("poisson_pmf.n", lambda n: poisson_pmf(n, 0.5), st.integers(max_value=-1),
     "photon number"),
    ("brp_empty_prob.mu_b", lambda x: brp_empty_prob(x, 0.5), "nonnegative", "mu_b"),
    ("brp_empty_prob.eta_total", lambda x: brp_empty_prob(1.0, x), "probability",
     "eta_total"),
    ("OpticalChain.source_intensity", lambda x: _chain(source_intensity=x), "nonnegative",
     "source_intensity"),
    *((f"OpticalChain.{name}", lambda x, name=name: _chain(**{name: x}), "nonnegative", name)
      for name in ("alice_attenuation_db", "bob_attenuation_db", "switch_crosstalk_db")),
    *((f"OpticalChain.{name}", lambda ratio, name=name: _chain(**{name: ratio}),
       st.one_of(
           st.tuples(_ANY_FLOAT, _ANY_FLOAT).filter(
               lambda r: not (r[0] >= 0.0 and r[1] >= 0.0 and abs(r[0] + r[1] - 1.0) <= 1e-9)),
           st.tuples(_ANY_FLOAT.filter(lambda x: not x >= 0.0)).map(lambda r: (r[0], 1.0 - r[0])),
           st.just((HUGE, 0.5)),
           st.just((0.5, 0.25, 0.25)),
       ),
       name) for name in ("alice_split_ratio", "bob_split_ratio")),
    ("afterpulse_error", afterpulse_error, "probability", "afterpulse probability"),
    ("crosstalk_false_click.leak_intensity", lambda x: crosstalk_false_click(x, 0.5),
     "nonnegative", "leak_intensity"),
    ("crosstalk_false_click.eta_d", lambda x: crosstalk_false_click(1.0, x), "probability",
     "eta_d"),
    ("brp_intensity_bound.mu_s", lambda x: brp_intensity_bound(x, _LINK, GYS_DETECTOR),
     "positive", "mu_s"),
    ("brp_intensity_bound.budget",
     lambda x: brp_intensity_bound(0.5, _LINK, GYS_DETECTOR, budget=x), "positive", "budget"),
    ("disturbance_tradeoff.mu_s", lambda x: disturbance_tradeoff(x, 0.1), "positive", "mu_s"),
    ("disturbance_tradeoff.d", lambda x: disturbance_tradeoff(0.5, x), "probability",
     "error rate"),
    ("disturbance_bound.mu_s", disturbance_bound, "positive", "mu_s"),
    ("secure_distance.mu_s", lambda x: secure_distance(x, GYS_DETECTOR), "nonnegative",
     "mu_s"),
    ("secure_distance.loss_db_per_km", lambda x: secure_distance(0.5, GYS_DETECTOR, x),
     "nonnegative", "loss_db_per_km"),
    ("optimal_signal_intensity.loss_db_per_km",
     lambda x: optimal_signal_intensity(GYS_DETECTOR, x, [0.4, 0.5]), "nonnegative",
     "loss_db_per_km"),
    ("optimal_signal_intensity.grid-value",
     lambda x: optimal_signal_intensity(GYS_DETECTOR, 0.21, [x]), "nonnegative", "mu_s"),
    ("sweep.mu_s", lambda x: sweep(SweepGrid((x,), (0.0, 10.0), GYS_DETECTOR)),
     "nonnegative", "mu_s"),
    ("sweep.length_km", lambda x: sweep(SweepGrid((0.5,), (x,), GYS_DETECTOR)),
     "nonnegative", "length_km"),
    ("sweep.loss_db_per_km", lambda x: sweep(SweepGrid((0.5,), (0.0, 10.0), GYS_DETECTOR, x)),
     "nonnegative", "loss_db_per_km"),
    ("EvePolicy.suppress_fraction", lambda x: EvePolicy(mode="pns", suppress_fraction=x),
     "probability", "suppress_fraction"),
    ("McConfig.n_pulses", lambda n: _mc(n_pulses=n), _integers_outside(1), "n_pulses"),
    ("McConfig.seed", lambda n: _mc(seed=n), _integers_outside(0, 2**64), "seed"),
    ("derive_stream.seed", lambda n: derive_stream(n, 0), _integers_outside(0, 2**64), "seed"),
    ("derive_stream.block_index", lambda n: derive_stream(1, n), _integers_outside(0),
     "block index"),
    # only rejected counts are drawn, so no worker thread is ever started
    ("simulate.threads", lambda n: simulate(_mc(), threads=n), _integers_outside(1),
     "threads"),
]

_GRIDS = st.one_of(
    st.just([]),
    st.lists(st.floats(0.0, 10.0), min_size=2, max_size=6).filter(
        lambda v: any(b <= a for a, b in zip(v, v[1:]))),
)
GRID_CASES = [
    ("optimal_signal_intensity.grid",
     lambda grid: optimal_signal_intensity(GYS_DETECTOR, 0.21, grid), "intensity grid"),
    ("SweepGrid.mu_s_values", lambda grid: SweepGrid(grid, (0.0,), GYS_DETECTOR),
     "mu_s_values"),
    ("SweepGrid.length_values_km", lambda grid: SweepGrid((0.5,), grid, GYS_DETECTOR),
     "length_values_km"),
]


def _assert_rejected(call, value, name):
    with pytest.raises(ValueError) as info:
        call(value)
    assert name in str(info.value), (value, str(info.value))


@pytest.mark.parametrize("call, rejected, name", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
@given(data=st.data())
def test_a_rejected_value_raises_a_value_error_naming_the_parameter(call, rejected, name, data):
    strategy = _REJECTED[rejected] if isinstance(rejected, str) else rejected
    _assert_rejected(call, data.draw(strategy), name)


@pytest.mark.parametrize("call, name", [case[1:] for case in GRID_CASES],
                         ids=[case[0] for case in GRID_CASES])
@given(grid=_GRIDS)
def test_an_empty_or_unordered_grid_raises_a_value_error_naming_it(call, name, grid):
    _assert_rejected(call, grid, name)


def _outcome(call, value):
    # what the call returns, or the type and message of what it raised
    try:
        return call(value)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("call", [case[1] for case in CASES if isinstance(case[2], str)],
                         ids=[case[0] for case in CASES if isinstance(case[2], str)])
@pytest.mark.parametrize("sign", [1, -1])
def test_an_int_beyond_the_float_range_counts_as_infinity(call, sign):
    assert _outcome(call, sign * HUGE) == _outcome(call, sign * math.inf)


@pytest.mark.parametrize("name, value", [("n_pulses", math.inf), ("n_pulses", 1.5),
                                         ("seed", 1.7)])
def test_an_infinite_or_fractional_count_is_rejected_not_truncated(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
        _mc(**{name: value})


def test_integral_floats_count_as_integers():
    config = _mc(n_pulses=1e6, seed=7.0)
    assert (config.n_pulses, config.seed) == (1_000_000, 7)
    assert type(config.n_pulses) is int and type(config.seed) is int
    assert _mc(seed=2**64 - 1).seed == 2**64 - 1
    assert derive_stream(3.0, 2.0).random() == derive_stream(3, 2).random()


def test_a_positive_rule_lets_infinity_through():
    # the model clamps d_eve where exp(mu_s) overflows: every click is a multi-photon one
    i_ab = disturbance_tradeoff(IDEAL_SOURCE, 0.1)[0]
    assert disturbance_tradeoff(math.inf, 0.1) == disturbance_tradeoff(HUGE, 0.1) == (i_ab, 1.0)


@pytest.mark.parametrize("value", ["no", "", 0, 1, None, 0.0], ids=repr)
def test_lossless_forwarding_must_be_a_bool(value):
    # "no" is truthy, and must not switch lossless forwarding on
    with pytest.raises(ValueError, match="^forward_multiphoton_lossless must be a bool, got "):
        EvePolicy(mode="pns", forward_multiphoton_lossless=value)


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
def test_lossless_forwarding_takes_python_and_numpy_bools(value):
    policy = EvePolicy(mode="pns", forward_multiphoton_lossless=value)
    assert policy.forward_multiphoton_lossless is bool(value)


@pytest.mark.parametrize("mode", ["", "PNS", "intercept-resend"], ids=repr)
def test_an_unknown_eve_mode_is_rejected(mode):
    with pytest.raises(ValueError, match=f"^eve mode must be one of .*, got {mode!r}$"):
        EvePolicy(mode=mode)


@pytest.mark.parametrize("call", [
    lambda marker: disturbance_tradeoff(marker, 0.1),
    disturbance_bound,
], ids=["disturbance_tradeoff", "disturbance_bound"])
def test_a_source_marker_other_than_ideal_is_rejected(call):
    # only IDEAL_SOURCE is a marker; a near miss must not pass as an intensity
    for marker in (IDEAL_SOURCE.upper(), IDEAL_SOURCE + " ", "0.5"):
        with pytest.raises(ValueError, match=f"^unknown source marker {marker!r}$"):
            call(marker)
