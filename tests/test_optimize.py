"""Searches and sweeps: reach, working point, reference-pulse floor, disturbance."""

import math

import numpy as np
import pytest
from mpmath import mp

import brpqkd.optimize
from brpqkd import (
    ChannelParams,
    DetectorParams,
    GYS_DETECTOR,
    IDEAL_DETECTOR,
    IDEAL_SOURCE,
    MultipleCrossingsError,
    SourceParams,
    SweepGrid,
    brp_empty_prob,
    brp_intensity_bound,
    disturbance_bound,
    disturbance_tradeoff,
    evaluate_point,
    optimal_signal_intensity,
    secure_distance,
    sweep,
)

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
