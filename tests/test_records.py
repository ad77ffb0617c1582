"""Records built through an unfrozen twin, and checked fields stored only when changed.

``evaluate_point`` builds its ``SecurityReport`` as an instance of a
non-frozen twin class and then switches its ``__class__``; the params
classes store a checked field again only where its rule returned another
object.  Neither may be observable: these tests compare against the
records the plain frozen constructors build.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from brpqkd import (
    GYS_DETECTOR,
    ChannelParams,
    DetectorParams,
    EvePolicy,
    OpticalChain,
    SecurityReport,
    SourceParams,
    SweepGrid,
    evaluate_point,
)
from brpqkd.photon_stats import total_efficiency
from brpqkd.security import _report

_POINTS = [(0.5, 0.0), (0.5, 146.0), (0.05, 30.0), (800.0, 20.0)]


def _pair(mu_s, length_km):
    source, channel = SourceParams(mu_s=mu_s), ChannelParams(length_km=length_km)
    built = SecurityReport(*_report(mu_s, total_efficiency(channel, GYS_DETECTOR), GYS_DETECTOR))
    return evaluate_point(source, channel, GYS_DETECTOR), built


@pytest.mark.parametrize("mu_s, length_km", _POINTS)
def test_evaluate_point_returns_a_security_report_in_every_respect(mu_s, length_km):
    report, built = _pair(mu_s, length_km)
    assert type(report) is SecurityReport
    assert report == built and hash(report) == hash(built)
    assert repr(report) == repr(built)
    assert dataclasses.asdict(report) == dataclasses.asdict(built)
    assert vars(report) == vars(built)
    assert list(vars(report)) == [f.name for f in dataclasses.fields(SecurityReport)]
    assert dataclasses.astuple(report) == dataclasses.astuple(built)
    for copied in (pickle.loads(pickle.dumps(report)), copy.copy(report), copy.deepcopy(report)):
        assert type(copied) is SecurityReport and copied == built
    replaced = dataclasses.replace(report, r_s=1.0)
    assert type(replaced) is SecurityReport
    assert replaced == dataclasses.replace(built, r_s=1.0)


def test_an_evaluated_report_stays_frozen():
    report, _ = _pair(0.5, 50.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.r_s = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del report.r_s
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.extra = 1
    assert report == _pair(0.5, 50.0)[1]


@pytest.mark.parametrize("cls, names", [
    (SourceParams, ("mu_s", "mu_b")),
    (ChannelParams, ("length_km", "loss_db_per_km")),
    (DetectorParams, ("eta_d", "y0", "e_detector", "e_0")),
])
@pytest.mark.parametrize("value", [1, True, np.float64(0.25), np.float32(0.5)],
                         ids=["int", "bool", "float64", "float32"])
def test_params_store_exact_floats(cls, names, value):
    record = cls(**dict.fromkeys(names, value))
    for name in names:
        stored = getattr(record, name)
        assert type(stored) is float and stored == float(value)


@pytest.mark.parametrize("cls, names", [
    (SourceParams, ("mu_s", "mu_b")),
    (ChannelParams, ("length_km", "loss_db_per_km")),
    (DetectorParams, ("eta_d", "y0", "e_detector", "e_0")),
])
def test_params_keep_a_float_input_as_the_same_object(cls, names):
    values = {name: float(f"0.{i + 1}5") for i, name in enumerate(names)}
    record = cls(**values)
    for name in names:
        assert getattr(record, name) is values[name]


def test_the_other_checked_records_store_their_checked_values():
    chain = OpticalChain(source_intensity=8, channel=ChannelParams(length_km=1),
                         alice_split_ratio=[1, 0], alice_attenuation_db=np.float64(3.0))
    assert type(chain.source_intensity) is float and chain.source_intensity == 8.0
    assert chain.alice_split_ratio == (1.0, 0.0)
    assert [type(x) for x in chain.alice_split_ratio] == [float, float]
    assert type(chain.alice_attenuation_db) is float
    grid = SweepGrid([1, 2], np.array([0.0, 5.0]), GYS_DETECTOR)
    assert grid.mu_s_values == (1.0, 2.0) and type(grid.mu_s_values[0]) is float
    assert type(grid.length_values_km) is tuple and type(grid.length_values_km[1]) is float
    policy = EvePolicy(mode="pns", suppress_fraction=1)
    assert type(policy.suppress_fraction) is float


# each call sets several fields wrong; the first one in field order is the one named
@pytest.mark.parametrize("call, message", [
    (lambda: SourceParams(mu_s=-1, mu_b=math.nan), "mu_s must be >= 0, got -1.0"),
    (lambda: SourceParams(mu_s=0.5, mu_b=math.inf), "mu_b must be finite, got inf"),
    (lambda: SourceParams(mu_s=math.nan, mu_b=-1), "mu_s must be finite, got nan"),
    (lambda: ChannelParams(length_km=10**400, loss_db_per_km=-1),
     "length_km must be finite, got inf"),
    (lambda: ChannelParams(length_km=1, loss_db_per_km=-0.5),
     "loss_db_per_km must be >= 0, got -0.5"),
    (lambda: DetectorParams(eta_d=math.nan, y0=2.0), "eta_d must be finite, got nan"),
    (lambda: DetectorParams(eta_d=0.5, y0=2.0, e_0=math.inf), "y0 must lie in [0, 1], got 2.0"),
    (lambda: DetectorParams(eta_d=0.5, e_0=-math.inf), "e_0 must be finite, got -inf"),
    (lambda: OpticalChain(source_intensity=-1.0, channel=ChannelParams(length_km=1),
                          alice_split_ratio=(2.0, 0.0)),
     "source_intensity must be >= 0, got -1.0"),
    (lambda: OpticalChain(source_intensity=1.0, channel=ChannelParams(length_km=1),
                          bob_split_ratio=(0.2, 0.2), alice_attenuation_db=-1.0),
     "bob_split_ratio must sum to 1, got (0.2, 0.2)"),
    (lambda: OpticalChain(source_intensity=1.0, channel=ChannelParams(length_km=1),
                          bob_attenuation_db=math.nan, switch_crosstalk_db=-1.0),
     "bob_attenuation_db must be finite, got nan"),
    (lambda: SweepGrid((), (2.0, 1.0), GYS_DETECTOR), "mu_s_values must be nonempty"),
    (lambda: SweepGrid((1.0,), (2.0, 1.0), GYS_DETECTOR),
     "length_values_km must be strictly increasing"),
    (lambda: EvePolicy(mode="pns", suppress_fraction=1.5),
     "suppress_fraction must lie in [0, 1], got 1.5"),
])
def test_bad_input_raises_the_same_error_in_field_order(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message
