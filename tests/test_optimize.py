"""Searches and sweeps: reach, working point, reference-pulse floor, disturbance."""

import math
import pickle
import sys
import threading
from dataclasses import FrozenInstanceError, astuple, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

import brpqkd.optimize
from brpqkd import (
    ChannelParams,
    DetectorParams,
    GYS_DETECTOR,
    IDEAL_DETECTOR,
    IDEAL_SOURCE,
    MultipleCrossingsError,
    SecureDistance,
    SourceParams,
    SweepGrid,
    SweepRow,
    UndefinedPointError,
    brp_empty_prob,
    brp_intensity_bound,
    disturbance_bound,
    disturbance_tradeoff,
    evaluate_point,
    optimal_signal_intensity,
    secure_distance,
    sweep,
)
from brpqkd.security import security_margin

mp.dps = 50


def test_secure_distance_benchmark_point():
    """The 0.5-intensity benchmark link stays secure out to about 146 km."""
    result = secure_distance(0.5, GYS_DETECTOR, 0.21)
    assert not result.unbounded
    assert result.distance_km == pytest.approx(146.262, abs=0.02)


def test_secure_distance_brackets_the_sign_change():
    result = secure_distance(0.5, GYS_DETECTOR, 0.21)
    at = lambda length: evaluate_point(
        SourceParams(mu_s=0.5), ChannelParams(length_km=length), GYS_DETECTOR
    ).r_s
    assert at(result.distance_km - 0.1) > 0.0
    assert at(result.distance_km + 0.1) < 0.0


def _seeded_detectors():
    rng = np.random.default_rng(1107)
    return [GYS_DETECTOR] + [
        DetectorParams(eta_d=float(rng.uniform(0.02, 0.6)),
                       y0=float(10.0 ** rng.uniform(-7.0, -4.5)),
                       e_detector=float(rng.uniform(0.0, 0.05)))
        for _ in range(8)
    ]


_PROPERTY_MU = (0.1, 0.3, 0.5, 0.8)
_PROPERTY_LOSSES = (0.15, 0.17, 0.19, 0.21, 0.23, 0.25, 0.3)


def test_the_reach_does_not_increase_with_loss_and_sets_one_loss_budget():
    # the length enters the model only through loss * length, so each reach is
    # the same budget in dB, less at most one bisection tolerance in km
    tolerance = brpqkd.optimize._DISTANCE_TOL_KM * max(_PROPERTY_LOSSES) + 1e-9
    budgets_checked = 0
    for det in _seeded_detectors():
        for mu_s in _PROPERTY_MU:
            reaches = [secure_distance(mu_s, det, loss) for loss in _PROPERTY_LOSSES]
            km = [reach.distance_km for reach in reaches]
            assert all(b <= a for a, b in zip(km, km[1:])), (det, mu_s, km)
            budgets = [reach.distance_km * loss for reach, loss in zip(reaches, _PROPERTY_LOSSES)
                       if not reach.unbounded and reach.distance_km > 0.0]
            assert max(budgets) - min(budgets) <= tolerance, (det, mu_s, budgets)
            budgets_checked += len(budgets)
    assert budgets_checked == 9 * 4 * 7


def test_the_reach_does_not_decrease_with_detector_efficiency():
    for det in _seeded_detectors():
        for mu_s in _PROPERTY_MU:
            km = [secure_distance(mu_s, replace(det, eta_d=eta_d), 0.21).distance_km
                  for eta_d in (0.01, 0.03, 0.1, 0.3, 1.0)]
            assert all(b >= a for a, b in zip(km, km[1:])), (det, mu_s, km)


def test_secure_distance_depends_on_intensity():
    weak = secure_distance(0.1, GYS_DETECTOR, 0.21)
    mid = secure_distance(0.5, GYS_DETECTOR, 0.21)
    assert weak.distance_km < mid.distance_km


def test_secure_distance_unbounded_for_ideal_detector():
    result = secure_distance(0.5, IDEAL_DETECTOR, 0.21)
    assert result.unbounded
    assert result.distance_km == 1000.0


def test_secure_distance_zero_when_insecure_everywhere():
    noisy = DetectorParams(eta_d=0.045, y0=1.7e-6, e_detector=0.25)
    result = secure_distance(0.5, noisy, 0.21)
    assert result == (0.0, False)


def test_secure_distance_reports_multiple_crossings(monkeypatch):
    def alternating(mu_s, eta_total, det):
        # the scan grid is 1 km per index: secure on [0,100) and [200,300), insecure elsewhere
        band = np.arange(len(eta_total)) // 100
        return np.where(np.isin(band, (0, 2)), 1.0, -1.0)

    monkeypatch.setattr(brpqkd.optimize, "security_margin", alternating)
    with pytest.raises(MultipleCrossingsError) as excinfo:
        secure_distance(0.5, GYS_DETECTOR, 0.21)
    assert len(excinfo.value.crossings) == 3
    assert excinfo.value.crossings[0] == (99.0, 100.0)


_FAST = DetectorParams(eta_d=0.15, y0=3e-7, e_detector=0.015)
_DARK = DetectorParams(eta_d=0.03, y0=8e-6, e_detector=0.045)
_NOISY = DetectorParams(eta_d=0.045, y0=1.7e-6, e_detector=0.25)
_GRID19 = [i / 20 for i in range(2, 21)]


def test_the_default_search_scans_its_grid_in_blocks_and_its_opening_probes_together(
    monkeypatch,
):
    rows = []

    def counting(mu_s, eta_total, det):
        rows.append(len(mu_s) if np.ndim(mu_s) else 1)
        return security_margin(mu_s, eta_total, det)

    monkeypatch.setattr(brpqkd.optimize, "security_margin", counting)
    best = optimal_signal_intensity(GYS_DETECTOR, 0.21, _GRID19)
    # 19 grid values six at a time, both opening probes, then one probe per step
    assert rows == [6, 6, 6, 1, 2] + [1] * 10
    assert tuple(best) == (0.4642425845017245, 146.3046875, False, False)


@pytest.mark.parametrize(
    "mu_s, det, loss, expected",
    [
        (0.5, GYS_DETECTOR, 0.21, (146.2578125, False)),
        (0.1, GYS_DETECTOR, 0.21, (128.7734375, False)),
        (1.0, GYS_DETECTOR, 0.21, (127.6484375, False)),
        (0.37, GYS_DETECTOR, 0.17, (179.8203125, False)),
        (0.73, GYS_DETECTOR, 0.25, (119.6640625, False)),
        (0.5, IDEAL_DETECTOR, 0.21, (1000.0, True)),
        (0.5, _NOISY, 0.21, (0.0, False)),
        (0.45, _FAST, 0.19, (235.921875, False)),
        (0.3, _DARK, 0.23, (90.8515625, False)),
        (0.9, _FAST, 0.2, (223.2734375, False)),
    ],
)
def test_secure_distance_pinned_values(mu_s, det, loss, expected):
    """Reaches are exact bisection results; the array scan must not move them."""
    assert tuple(secure_distance(mu_s, det, loss)) == expected


@pytest.mark.parametrize(
    "det, loss, grid, expected",
    [
        (GYS_DETECTOR, 0.21, _GRID19, (0.4642425845017245, 146.3046875, False, False)),
        (GYS_DETECTOR, 0.17, _GRID19, (0.4698153935018086, 180.734375, False, False)),
        (_FAST, 0.19, _GRID19, (0.6214781741247581, 237.2109375, False, False)),
        (_DARK, 0.23, _GRID19, (0.3900146627487171, 91.703125, False, False)),
        (IDEAL_DETECTOR, 0.21, [0.2, 0.4, 0.6, 0.8], (0.5, 1000.0, True, True)),
        (GYS_DETECTOR, 0.21, [0.5], (0.5, 146.2578125, False, False)),
        (GYS_DETECTOR, 0.21, [0.1, 0.2], (0.2, 139.453125, False, False)),
    ],
)
def test_optimal_intensity_pinned_values(det, loss, grid, expected):
    assert tuple(optimal_signal_intensity(det, loss, grid)) == expected


def test_searches_are_total_past_the_exp_overflow():
    assert secure_distance(800.0, GYS_DETECTOR, 0.21) == (0.0, False)
    assert disturbance_bound(800.0) == (0.0, True)


def test_optimal_intensity_lands_near_half():
    grid = [i / 20 for i in range(2, 21)]
    best = optimal_signal_intensity(GYS_DETECTOR, 0.21, grid)
    assert not best.plateau
    assert not best.unbounded
    assert best.mu_s_star == pytest.approx(0.5, abs=0.05)
    for mu in grid:
        assert best.distance_km >= secure_distance(mu, GYS_DETECTOR, 0.21).distance_km


def test_optimal_intensity_single_point_grid():
    best = optimal_signal_intensity(GYS_DETECTOR, 0.21, [0.5])
    assert best.mu_s_star == 0.5
    assert best.distance_km == pytest.approx(146.262, abs=0.02)


def test_optimal_intensity_plateau_for_ideal_detector():
    best = optimal_signal_intensity(IDEAL_DETECTOR, 0.21, [0.3, 0.5, 0.7])
    assert best.plateau
    assert best.unbounded
    assert best.mu_s_star == pytest.approx(0.5)
    assert best.distance_km == 1000.0


def test_optimal_intensity_rejects_bad_grids():
    with pytest.raises(ValueError):
        optimal_signal_intensity(GYS_DETECTOR, 0.21, [])
    with pytest.raises(ValueError):
        optimal_signal_intensity(GYS_DETECTOR, 0.21, [0.5, 0.5])
    with pytest.raises(ValueError):
        optimal_signal_intensity(GYS_DETECTOR, 0.21, [0.5, 0.3])


def _mp_mu_b_min(mu_s, length_km, budget="1e-3"):
    mu_s = mp.mpf(mu_s)
    eta = mp.mpf(10) ** (-mp.mpf("0.21") * length_km / 10) * mp.mpf("0.045")
    p_1 = mp.e ** (-mu_s) * mu_s
    return float(-mp.log(mp.mpf(budget) * p_1) / eta)


def test_brp_intensity_bound_reference_point():
    bound = brp_intensity_bound(0.5, ChannelParams(length_km=146.0), GYS_DETECTOR)
    assert bound.mu_b_min == pytest.approx(_mp_mu_b_min(0.5, 146), rel=1e-12)
    assert bound.mu_b_min == pytest.approx(2.0956603e5, rel=1e-7)
    assert bound.suppression_budget == 1e-3


def test_brp_intensity_bound_round_trip():
    bound = brp_intensity_bound(0.5, ChannelParams(length_km=146.0), GYS_DETECTOR)
    eta = 10.0 ** (-0.21 * 146.0 / 10.0) * 0.045
    assert bound.g_b0_at_bound == brp_empty_prob(bound.mu_b_min, eta)
    target = 1e-3 * math.exp(-0.5) * 0.5
    assert bound.g_b0_at_bound == pytest.approx(target, rel=1e-9)
    assert bound.g_b0_at_bound <= target * (1.0 + 1e-9)


def test_brp_intensity_bound_at_unit_transmittance():
    det = DetectorParams(eta_d=1.0, y0=0.0, e_detector=0.0)
    bound = brp_intensity_bound(0.5, ChannelParams(length_km=0.0), det)
    assert bound.mu_b_min == pytest.approx(-math.log(1e-3 * math.exp(-0.5) * 0.5), rel=1e-12)
    assert bound.mu_b_min == pytest.approx(8.101, abs=5e-4)


@pytest.mark.parametrize("mu_s", [708.5, 742.0, 800.0, 1000.0, 1e6])
def test_brp_intensity_bound_answers_where_the_target_underflows(mu_s):
    # budget * p_1(mu_s) is subnormal from mu_s about 708 and 0 from about 743
    bound = brp_intensity_bound(mu_s, ChannelParams(length_km=50.0), GYS_DETECTOR)
    assert math.isfinite(bound.mu_b_min)
    assert bound.mu_b_min == pytest.approx(_mp_mu_b_min(mu_s, 50), rel=1e-12)
    assert 0.0 <= bound.g_b0_at_bound < 1e-300


def test_brp_intensity_bound_beyond_the_float_range_names_the_link():
    # the total efficiency is subnormal at 14900 km, so the bound overflows
    with pytest.raises(ValueError) as info:
        brp_intensity_bound(0.5, ChannelParams(length_km=14900.0), GYS_DETECTOR)
    message = str(info.value)
    assert message.startswith("total efficiency 5.66516435e-315 at 14900.0 km ")
    assert message.endswith("the bright-pulse bound exceeds the float range")


def test_brp_intensity_bound_vacuous_budget():
    # a suppressed fraction cannot exceed one, so budget >= 1 constrains nothing
    bound = brp_intensity_bound(0.05, ChannelParams(length_km=50.0), GYS_DETECTOR, budget=1.0)
    assert bound.mu_b_min == 0.0
    assert bound.g_b0_at_bound == 1.0


def test_brp_intensity_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        brp_intensity_bound(0.0, ChannelParams(length_km=50.0), GYS_DETECTOR)
    with pytest.raises(ValueError):
        brp_intensity_bound(0.5, ChannelParams(length_km=50.0), GYS_DETECTOR, budget=0.0)
    dead = DetectorParams(eta_d=0.0)
    with pytest.raises(ValueError):
        brp_intensity_bound(0.5, ChannelParams(length_km=50.0), dead)


def test_brp_intensity_bound_slope_is_fiber_loss():
    """log10 of the intensity floor grows linearly at loss/10 per km."""
    lengths = np.array([50.0, 75.0, 100.0, 125.0, 146.0])
    logs = np.array(
        [
            math.log10(
                brp_intensity_bound(0.5, ChannelParams(length_km=length), GYS_DETECTOR).mu_b_min
            )
            for length in lengths
        ]
    )
    slope, intercept = np.polyfit(lengths, logs, 1)
    assert slope == pytest.approx(0.021, abs=1e-4)
    residuals = logs - (slope * lengths + intercept)
    assert np.max(np.abs(residuals)) < 1e-9


def test_disturbance_tradeoff_endpoints():
    i_ab, i_ae = disturbance_tradeoff(IDEAL_SOURCE, 0.0)
    assert i_ab == 1.0
    assert i_ae == 0.0
    i_ab, i_ae = disturbance_tradeoff(0.5, 0.0)
    assert i_ab == 1.0
    assert i_ae == pytest.approx(1.0 - math.exp(-0.5), rel=1e-14)


def test_disturbance_tradeoff_rejects_bad_arguments():
    with pytest.raises(ValueError):
        disturbance_tradeoff(0.0, 0.1)
    with pytest.raises(ValueError):
        disturbance_tradeoff("perfect", 0.1)
    with pytest.raises(ValueError):
        disturbance_tradeoff(0.5, 1.5)


def _h2(x):
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _tradeoff_reference(mu_s, d):
    # the trade-off restated in plain math, term for term as SecurityReport defines
    # i_ab, i_ae_multi (in the high-loss limit), d_eve and i_ae_single
    i_ab = 1.0 - _h2(d)
    if mu_s == IDEAL_SOURCE:
        return i_ab, 1.0 - _h2(0.5 - math.sqrt(d * (1.0 - d)))
    if mu_s > math.log(sys.float_info.max):
        d_eve = 0.5 * (d > 0.0)  # exp(mu_s) overflows, and every d > 0 clamps
    else:
        d_eve = min(d * math.exp(mu_s), 0.5)
    i_ae_single = math.exp(-mu_s) * (1.0 - _h2(0.5 - math.sqrt(d_eve * (1.0 - d_eve))))
    return i_ab, -math.expm1(-mu_s) + i_ae_single


# 709.78 and 709.79 straddle log(DBL_MAX), where exp(mu_s) overflows
_TRADEOFF_MU = (IDEAL_SOURCE, 1e-9, 0.01, 0.1, 0.5, 1.0, 1.5, 30.0, 709.78, 709.79, 800.0)
_TRADEOFF_D = (
    *(i / 1000 for i in range(1001)),
    5e-324, 1e-300, 1e-9, 0.5 - 2.0**-54, 0.5 + 2.0**-53, 1.0 - 2.0**-53,
)


@pytest.mark.parametrize("mu_s", _TRADEOFF_MU)
def test_disturbance_tradeoff_equals_its_plain_restatement_bitwise(mu_s):
    for d in _TRADEOFF_D:
        assert disturbance_tradeoff(mu_s, d) == _tradeoff_reference(mu_s, d), d


@given(
    mu_s=st.one_of(st.sampled_from(_TRADEOFF_MU),
                   st.floats(min_value=0.0, max_value=1e3, exclude_min=True)),
    d=st.floats(min_value=0.0, max_value=1.0),
)
def test_disturbance_tradeoff_equals_the_per_term_functions_anywhere(mu_s, d):
    assert disturbance_tradeoff(mu_s, d) == _tradeoff_reference(mu_s, d)


def test_disturbance_bound_ideal_source():
    result = disturbance_bound(IDEAL_SOURCE)
    assert not result.insecure_at_zero
    assert result.bound == pytest.approx((1.0 - 1.0 / math.sqrt(2.0)) / 2.0, abs=1e-6)


def test_disturbance_bound_balances_the_informations():
    for mu_s in (IDEAL_SOURCE, 0.3, 0.8):
        bound = disturbance_bound(mu_s).bound
        i_ab, i_ae = disturbance_tradeoff(mu_s, bound)
        assert i_ab == pytest.approx(i_ae, abs=2e-5)


def test_disturbance_bound_decreases_with_intensity():
    bounds = [disturbance_bound(mu).bound for mu in (0.1, 0.3, 0.5, 0.8, 1.0)]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))
    ideal = disturbance_bound(IDEAL_SOURCE).bound
    assert all(b < ideal for b in bounds)


def test_disturbance_bound_weak_source_approaches_ideal():
    bound = disturbance_bound(0.1)
    assert bound.bound == pytest.approx(0.1286146, abs=2e-6)
    gap = disturbance_bound(IDEAL_SOURCE).bound - bound.bound
    assert 0.017 < gap < 0.019


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(mu_s_values=(), length_values_km=(0.0, 1.0), det=GYS_DETECTOR)
    with pytest.raises(ValueError):
        SweepGrid(mu_s_values=(0.5,), length_values_km=(), det=GYS_DETECTOR)
    with pytest.raises(ValueError):
        SweepGrid(mu_s_values=(0.5, 0.5), length_values_km=(0.0,), det=GYS_DETECTOR)
    with pytest.raises(ValueError):
        SweepGrid(mu_s_values=(0.5,), length_values_km=(10.0, 5.0), det=GYS_DETECTOR)


def test_sweep_single_cell_matches_evaluate_point():
    grid = SweepGrid(mu_s_values=(0.5,), length_values_km=(100.0,), det=GYS_DETECTOR)
    (row,) = sweep(grid)
    report = evaluate_point(
        SourceParams(mu_s=0.5), ChannelParams(length_km=100.0), GYS_DETECTOR
    )
    assert row.mu_s == 0.5
    assert row.length_km == 100.0
    assert row.r_s == report.r_s
    assert row.i_ab == report.i_ab
    assert row.secure == report.secure


def test_sweep_row_ordering():
    grid = SweepGrid(
        mu_s_values=(0.1, 0.5), length_values_km=(0.0, 50.0, 100.0), det=GYS_DETECTOR
    )
    rows = sweep(grid)
    coords = [(row.mu_s, row.length_km) for row in rows]
    assert coords == sorted(coords)
    assert len(rows) == 6


def test_sweep_locates_the_security_boundary():
    """On an integer length grid only mu_s = 0.5 stays secure into the mid-140s."""
    lengths = tuple(float(length) for length in range(0, 201))
    last_secure = {}
    for mu in (0.1, 0.5, 1.0):
        grid = SweepGrid(mu_s_values=(mu,), length_values_km=lengths, det=GYS_DETECTOR)
        rows = sweep(grid)
        last_secure[mu] = max(row.length_km for row in rows if row.secure)
    assert 143.0 <= last_secure[0.5] <= 149.0
    assert last_secure[0.1] < 143.0
    assert last_secure[1.0] < 143.0


def _sweep_detectors():
    rng = np.random.default_rng(2026)
    seeded = [
        DetectorParams(
            eta_d=float(rng.uniform(0.02, 0.5)),
            y0=float(10.0 ** rng.uniform(-7.0, -5.0)),
            e_detector=float(rng.uniform(0.01, 0.05)),
        )
        for _ in range(3)
    ]
    return [GYS_DETECTOR, IDEAL_DETECTOR, *seeded]


@pytest.mark.parametrize("loss", [0.17, 0.21, 0.25])
def test_sweep_rows_equal_evaluate_point_bitwise(loss):
    mu_values = tuple(i / 100 for i in range(1, 151, 7)) + (1.5,)
    lengths = tuple(float(length) for length in range(0, 301, 2))
    for det in _sweep_detectors():
        rows = iter(sweep(SweepGrid(mu_values, lengths, det, loss)))
        for mu_s in mu_values:
            source = SourceParams(mu_s=mu_s)
            for length in lengths:
                channel = ChannelParams(length_km=length, loss_db_per_km=loss)
                report = evaluate_point(source, channel, det)
                assert next(rows) == SweepRow(mu_s, length, *astuple(report))
        assert next(rows, None) is None


def test_sweep_rows_pickle():
    rows = sweep(SweepGrid((0.5,), (0.0, 100.0), GYS_DETECTOR))
    assert pickle.loads(pickle.dumps(rows)) == rows


def test_sweep_rows_are_sweep_rows_in_every_respect():
    # sweep builds its rows through a non-frozen twin class, then switches them
    rows = sweep(SweepGrid((0.5, 1.0), (0.0, 100.0), GYS_DETECTOR))
    built = [SweepRow(*astuple(row)) for row in rows]
    assert [type(row) for row in rows] == [SweepRow] * 4
    assert rows == built and list(map(hash, rows)) == list(map(hash, built))
    assert list(map(repr, rows)) == list(map(repr, built))
    with pytest.raises(FrozenInstanceError):
        rows[0].r_s = 0.0
    with pytest.raises(FrozenInstanceError):
        del rows[0].r_s
    assert replace(rows[0], r_s=1.0) == replace(built[0], r_s=1.0)
    assert type(pickle.loads(pickle.dumps(rows[0]))) is SweepRow


_NAN = float("nan")
_LINK = ChannelParams(length_km=50.0)


@pytest.mark.parametrize("call, blamed", [
    (lambda: disturbance_bound(_NAN), "mu_s"),
    (lambda: disturbance_tradeoff(_NAN, 0.1), "mu_s"),
    (lambda: brp_intensity_bound(_NAN, _LINK, GYS_DETECTOR), "mu_s"),
    (lambda: brp_intensity_bound(0.5, _LINK, GYS_DETECTOR, budget=_NAN), "budget"),
    (lambda: SourceParams(mu_s=_NAN), "mu_s"),
    (lambda: secure_distance(_NAN, GYS_DETECTOR), "mu_s"),
    (lambda: optimal_signal_intensity(GYS_DETECTOR, 0.21, [0.4, _NAN]), "mu_s"),
    (lambda: sweep(SweepGrid((_NAN,), (0.0,), GYS_DETECTOR)), "mu_s"),
], ids=["disturbance_bound", "disturbance_tradeoff", "brp_intensity_bound-mu_s",
        "brp_intensity_bound-budget", "SourceParams", "secure_distance",
        "optimal_signal_intensity", "sweep"])
def test_nan_intensity_or_budget_is_rejected(call, blamed):
    with pytest.raises(ValueError, match=blamed):
        call()


@pytest.mark.parametrize("mu_s", [math.inf, 10**400], ids=["inf", "10**400"])
def test_an_infinite_intensity_is_rejected_by_the_brp_bound_naming_mu_s(mu_s):
    # the > 0 rule lets +inf through elsewhere, but this bound has no value there
    with pytest.raises(ValueError, match=r"^mu_s must be finite, got inf$"):
        brp_intensity_bound(mu_s, _LINK, GYS_DETECTOR)


def test_a_reach_that_starts_insecure_is_not_a_reach_question():
    # one sign change, from insecure at 0 km to secure from 100 km on
    flags = np.arange(len(brpqkd.optimize._SCAN_GRID_KM)) >= 100
    with pytest.raises(MultipleCrossingsError) as info:
        brpqkd.optimize._reach(0.5, flags, GYS_DETECTOR, 0.21)
    assert info.value.crossings == ((99.0, 100.0),)


@pytest.mark.parametrize("loss", [1.7e305, 1e306, 1e308])
def test_a_loss_that_overflows_the_scan_expects_no_clicks(loss):
    # -loss * 1000 km overflows to -inf on the scan grid, as it does on the scalar path;
    # pyproject turns numpy's overflow warning into an error, so none may be left on
    message = r"^no expected clicks at mu_s=0\.5, eta_total=0\.0$"
    with pytest.raises(UndefinedPointError, match=message):
        secure_distance(0.5, GYS_DETECTOR, loss)
    with pytest.raises(UndefinedPointError, match=message):
        optimal_signal_intensity(GYS_DETECTOR, loss, [0.5, 0.6])


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "mu_values, lengths, loss",
    [
        ((0.5,), (0.0, 10.0, math.nan), 0.21),  # invalid length
        ((0.1, math.nan), (0.0, 10.0), 0.21),  # invalid intensity
        ((0.5,), (0.0, 10.0), math.nan),  # invalid loss
        ((0.5,), (0.0, 500.0, 1000.0), 4.0),  # no expected clicks at 1000 km
    ],
)
def test_sweep_raises_what_evaluate_point_raises(mu_values, lengths, loss):
    def per_point():
        for mu_s in mu_values:
            source = SourceParams(mu_s=mu_s)
            for length in lengths:
                channel = ChannelParams(length_km=length, loss_db_per_km=loss)
                evaluate_point(source, channel, GYS_DETECTOR)

    grid = SweepGrid(mu_values, lengths, GYS_DETECTOR, loss)
    assert _raised(lambda: sweep(grid)) == _raised(per_point)


def _reference_optimum(det, loss, grid):
    """The intensity search restated plainly: one secure_distance call per
    grid value in grid order, then the plateau rule and the golden-section loop."""
    mu_values = [float(mu) for mu in grid]
    if not mu_values:
        raise ValueError("intensity grid must be nonempty")
    if any(b <= a for a, b in zip(mu_values, mu_values[1:])):
        raise ValueError("intensity grid must be strictly increasing")
    evaluated = {}

    def reach(mu):
        if mu not in evaluated:
            evaluated[mu] = secure_distance(mu, det, loss)
        return evaluated[mu].distance_km

    distances = [reach(mu) for mu in mu_values]
    best_index = max(range(len(mu_values)), key=distances.__getitem__)
    if len(mu_values) == 1:
        only = evaluated[mu_values[0]]
        return (mu_values[0], only.distance_km, False, only.unbounded)
    d_max = distances[best_index]
    lo_i = hi_i = best_index
    while lo_i > 0 and distances[lo_i - 1] >= d_max - 0.01:
        lo_i -= 1
    while hi_i < len(mu_values) - 1 and distances[hi_i + 1] >= d_max - 0.01:
        hi_i += 1
    if hi_i - lo_i >= 2:
        mid = 0.5 * (mu_values[lo_i] + mu_values[hi_i])
        at_mid = secure_distance(mid, det, loss)
        return (mid, at_mid.distance_km, True, at_mid.unbounded)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a = mu_values[max(best_index - 1, 0)]
    b = mu_values[min(best_index + 1, len(mu_values) - 1)]
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    f_c, f_d = reach(c), reach(d)
    while b - a > 1e-3:
        if f_c < f_d:
            a, c, f_c = c, d, f_d
            d = a + golden * (b - a)
            f_d = reach(d)
        else:
            b, d, f_d = d, c, f_c
            c = b - golden * (b - a)
            f_c = reach(c)
    best_mu = max(evaluated, key=lambda mu: (evaluated[mu].distance_km, -mu))
    return (best_mu, evaluated[best_mu].distance_km, False, evaluated[best_mu].unbounded)


def _outcome(search, det, loss, grid):
    # the result, or the type and message of what the search raised
    try:
        return tuple(search(det, loss, grid))
    except Exception as exc:
        return type(exc), str(exc)


def _search_detectors():
    rng = np.random.default_rng(909)
    seeded = [
        DetectorParams(
            eta_d=float(rng.uniform(0.02, 0.3)),
            y0=float(10.0 ** rng.uniform(-7.0, -5.0)),
            e_detector=float(rng.uniform(0.01, 0.06)),
        )
        for _ in range(4)
    ]
    return [GYS_DETECTOR, IDEAL_DETECTOR, *seeded]


_SEARCH_GRIDS = [
    _GRID19,
    [0.05, 0.3, 0.55, 0.8, 1.05, 1.3, 1.55],
    [0.1, 0.2],
    [0.5],
    # straddling the exp overflow at mu_s = 709.78, more than one block below it
    [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 709.78, 709.79, 800.0],
    [0.3, 0.5, 709.5, 709.79, 1000.0],
    [700.0, 709.78, 709.79, 745.0, 800.0],
]


@pytest.mark.parametrize("loss", [0.17, 0.19, 0.21, 0.23, 0.25, 4.0])
def test_optimal_intensity_equals_per_intensity_secure_distance(loss):
    for det in _search_detectors():
        for grid in _SEARCH_GRIDS:
            assert (_outcome(optimal_signal_intensity, det, loss, grid)
                    == _outcome(_reference_optimum, det, loss, grid)), (det, grid)


@pytest.mark.parametrize(
    "det, loss, grid",
    [
        # the margin flips sign from rounding noise near r_s = 0
        (DetectorParams(eta_d=0.001, y0=0.0, e_detector=0.0), 0.21, [30.0, 36.8, 40.0]),
        (DetectorParams(eta_d=0.001, y0=0.0, e_detector=0.0), 0.21, [30.0, 36.8, math.nan]),
        (GYS_DETECTOR, 4.0, [0.5, math.nan]),  # no clicks before the bad intensity
        (GYS_DETECTOR, 0.21, [0.5, 0.7, math.nan]),
        (GYS_DETECTOR, 0.21, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, math.inf]),
        (GYS_DETECTOR, math.nan, [-1.0, 0.5]),  # the intensity is checked before the loss
        (GYS_DETECTOR, math.nan, [0.5, 0.6]),
        (GYS_DETECTOR, -0.1, [0.5, 0.6]),
        (GYS_DETECTOR, 0.21, [0.0, 0.5]),  # mu_s = 0 expects no clicks
        (GYS_DETECTOR, 0.21, [1e308, 1.5e308, 1.7e308]),  # the plateau midpoint overflows
        (DetectorParams(eta_d=0.0), 0.21, _GRID19),
        (GYS_DETECTOR, 0.21, []),
        (GYS_DETECTOR, 0.21, [0.5, 0.5]),
    ],
)
def test_optimal_intensity_raises_what_secure_distance_raises(det, loss, grid):
    assert (_outcome(optimal_signal_intensity, det, loss, grid)
            == _outcome(_reference_optimum, det, loss, grid))


@given(
    grid=st.lists(st.floats(min_value=0.01, max_value=3.0), min_size=1, max_size=25,
                  unique=True).map(sorted),
    det_index=st.integers(min_value=0, max_value=5),
    loss=st.floats(min_value=0.15, max_value=0.3),
)
def test_optimal_intensity_equals_per_intensity_secure_distance_anywhere(grid, det_index, loss):
    det = _search_detectors()[det_index]
    assert (_outcome(optimal_signal_intensity, det, loss, grid)
            == _outcome(_reference_optimum, det, loss, grid))


# --- the reach memo ---------------------------------------------------------


def _memo_battery():
    # both presets and four GYS-like detectors, three losses, the default and an edge grid
    rng = np.random.default_rng(1616)
    gys_like = [
        DetectorParams(
            eta_d=float(GYS_DETECTOR.eta_d * rng.uniform(0.7, 1.3)),
            y0=float(GYS_DETECTOR.y0 * rng.uniform(0.5, 2.0)),
            e_detector=float(GYS_DETECTOR.e_detector * rng.uniform(0.7, 1.3)),
        )
        for _ in range(4)
    ]
    return [
        (det, loss, grid)
        for det in [GYS_DETECTOR, IDEAL_DETECTOR, *gys_like]
        for loss in (0.17, 0.21, 0.25)
        for grid in (_GRID19, [0.1, 0.2])
    ]


def _battery_answers(empty_first):
    answers = []
    for det, loss, grid in _memo_battery():
        if empty_first:
            brpqkd.optimize._reach_memo.clear()
        answers.append(_outcome(optimal_signal_intensity, det, loss, grid))
        for mu in grid:
            if empty_first:
                brpqkd.optimize._reach_memo.clear()
            answers.append(tuple(secure_distance(mu, det, loss)))
    return answers


def test_remembered_reaches_equal_scanned_ones():
    cold = _battery_answers(empty_first=True)
    _battery_answers(empty_first=False)  # fill the memo with every reach of the battery
    assert _battery_answers(empty_first=False) == cold
    assert len(cold) == 18 * (1 + 19) + 18 * (1 + 2)
    # the headline reach, scanned and then remembered
    brpqkd.optimize._reach_memo.clear()
    assert tuple(secure_distance(0.5, GYS_DETECTOR, 0.21)) == (146.2578125, False)
    assert tuple(secure_distance(0.5, GYS_DETECTOR, 0.21)) == (146.2578125, False)


def _counting_margin_calls(monkeypatch):
    rows = []

    def counting(mu_s, eta_total, det):
        rows.append(len(mu_s) if np.ndim(mu_s) else 1)
        return security_margin(mu_s, eta_total, det)

    monkeypatch.setattr(brpqkd.optimize, "security_margin", counting)
    return rows


def test_a_warm_default_plan_scans_nothing(monkeypatch):
    cold = optimal_signal_intensity(GYS_DETECTOR, 0.21, _GRID19)
    rows = _counting_margin_calls(monkeypatch)
    assert optimal_signal_intensity(GYS_DETECTOR, 0.21, _GRID19) == cold
    # a detector equal by value shares the reaches, and so does secure_distance
    twin = DetectorParams(eta_d=0.045, y0=1.7e-6, e_detector=0.033)
    assert optimal_signal_intensity(twin, 0.21, _GRID19) == cold
    assert secure_distance(cold.mu_s_star, twin, 0.21).distance_km == cold.distance_km
    assert rows == []
    # another loss is another question
    optimal_signal_intensity(GYS_DETECTOR, 0.22, _GRID19)
    assert rows[:5] == [6, 6, 6, 1, 2]


def test_a_plan_scans_only_the_grid_values_it_has_not_seen(monkeypatch):
    for mu in (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4):
        secure_distance(mu, GYS_DETECTOR, 0.21)
    rows = _counting_margin_calls(monkeypatch)
    best = optimal_signal_intensity(GYS_DETECTOR, 0.21, _GRID19)
    # the other 12 grid values six at a time, then the probes as before
    assert rows == [6, 6, 2] + [1] * 10
    assert tuple(best) == (0.4642425845017245, 146.3046875, False, False)


@pytest.mark.parametrize(
    "search",
    [
        lambda: secure_distance(0.0, GYS_DETECTOR, 0.21),  # mu_s = 0 expects no clicks
        lambda: optimal_signal_intensity(GYS_DETECTOR, 0.21, [0.0, 0.5]),
        lambda: optimal_signal_intensity(GYS_DETECTOR, 0.21, [-0.5, 0.5]),
        lambda: optimal_signal_intensity(GYS_DETECTOR, 0.21, [0.5, 0.7, math.nan]),
        lambda: secure_distance(0.5, GYS_DETECTOR, -0.1),
    ],
)
def test_a_failing_search_fails_alike_the_second_time(search):
    first = _raised(search)
    assert _raised(search) == first
    # the valid grid values before a bad one are found, and none is an exception
    assert all(type(found) is SecureDistance for found in brpqkd.optimize._reach_memo.values())


def test_a_patched_crossing_error_is_raised_again_not_remembered(monkeypatch):
    def alternating(mu_s, eta_total, det):
        # as in test_secure_distance_reports_multiple_crossings, one row per intensity
        band = np.arange(len(eta_total)) // 100
        row = np.where(np.isin(band, (0, 2)), 1.0, -1.0)
        return np.tile(row, (len(mu_s), 1)) if np.ndim(mu_s) else row

    monkeypatch.setattr(brpqkd.optimize, "security_margin", alternating)
    first = _raised(lambda: secure_distance(0.5, GYS_DETECTOR, 0.21))
    assert first[0] is MultipleCrossingsError
    assert _raised(lambda: secure_distance(0.5, GYS_DETECTOR, 0.21)) == first
    plan = lambda: optimal_signal_intensity(GYS_DETECTOR, 0.21, _GRID19)
    assert _raised(plan) == _raised(plan) == first
    assert brpqkd.optimize._reach_memo == {}


def test_the_memo_holds_no_more_than_its_bound():
    bound = brpqkd.optimize._REACH_MEMO_SIZE
    memo = brpqkd.optimize._reach_memo
    sizes = []
    for i in range(bound + 10):
        secure_distance(0.3 + i * 1e-6, GYS_DETECTOR, 0.21)
        sizes.append(len(memo))
    assert max(sizes) == bound
    # emptied when full, then filled again
    assert sizes[bound] == 1 and sizes[-1] == 10


def _thread_searches():
    dets = [GYS_DETECTOR, _FAST, _DARK]
    calls = []
    for det in dets:
        for loss in (0.19, 0.21):
            calls.append(lambda det=det, loss=loss: optimal_signal_intensity(det, loss, _GRID19))
            for mu in (0.2, 0.45, 0.8):
                calls.append(lambda det=det, loss=loss, mu=mu: secure_distance(mu, det, loss))
    return calls


def test_threads_share_a_small_memo_safely(monkeypatch):
    # more threads than cores, switching often, against a memo that is cleared
    # every few inserts: no KeyError, the single-threaded answers, and the bound
    calls = _thread_searches()
    expected = [call() for call in calls]
    monkeypatch.setattr(brpqkd.optimize, "_REACH_MEMO_SIZE", 8)
    memo = brpqkd.optimize._reach_memo
    memo.clear()
    start = threading.Barrier(4)
    answers, errors, sizes = {}, [], []

    def work(name, order):
        try:
            start.wait(timeout=60)
            found = []
            for _ in range(3):
                found.append([])
                for i in order:
                    found[-1].append(calls[i]())
                    sizes.append(len(memo))
            answers[name] = found
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    forward = list(range(len(calls)))
    orders = {"forward": forward, "backward": forward[::-1],
              "odd": forward[1::2] + forward[::2], "even": forward[::2] + forward[1::2]}
    threads = [threading.Thread(target=work, args=item) for item in orders.items()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for name, order in orders.items():
        assert answers[name] == [[expected[i] for i in order]] * 3
    assert max(sizes) <= 8
