"""Array margin kernel against the scalar evaluate_point it mirrors."""

import math

import numpy as np
import pytest

from brpqkd import (
    ChannelParams,
    DetectorParams,
    GYS_DETECTOR,
    IDEAL_DETECTOR,
    SourceParams,
    UndefinedPointError,
    evaluate_point,
    secure_distance,
)
from brpqkd.photon_stats import transmittance
from brpqkd.security import security_margin

LENGTHS = np.arange(1001) * 1.0
GRID19 = [i / 20 for i in range(2, 21)]
ULPS = 16


def _detectors():
    rng = np.random.default_rng(2024)
    seeded = [
        DetectorParams(
            eta_d=float(rng.uniform(0.02, 0.2)),
            y0=float(10.0 ** rng.uniform(-7.0, -5.0)),
            e_detector=float(rng.uniform(0.01, 0.05)),
        )
        for _ in range(3)
    ]
    return [GYS_DETECTOR, IDEAL_DETECTOR, *seeded]


@pytest.mark.parametrize("loss", [0.17, 0.21, 0.25])
def test_kernel_matches_evaluate_point_on_the_scan_grid(loss):
    rng = np.random.default_rng(int(loss * 100))
    mu_values = GRID19 + [float(mu) for mu in rng.uniform(0.01, 2.0, size=4)]
    for det in _detectors():
        eta_total = transmittance(LENGTHS, loss) * det.eta_d
        for mu_s in mu_values:
            kernel = security_margin(mu_s, eta_total, det)
            source = SourceParams(mu_s=mu_s)
            for length, value in zip(LENGTHS, kernel):
                report = evaluate_point(
                    source, ChannelParams(length_km=length, loss_db_per_km=loss), det
                )
                assert (value > 0.0) == report.secure, (mu_s, length, det)
                tol = ULPS * 2.0**-52 * 0.5 * report.y_exp
                assert abs(value - report.r_s) <= tol, (mu_s, length, det)


def test_both_paths_raise_where_no_clicks_are_expected():
    # at 4 dB/km the transmittance underflows to zero well before 1000 km
    eta_total = transmittance(LENGTHS, 4.0) * GYS_DETECTOR.eta_d
    with pytest.raises(UndefinedPointError, match=r"mu_s=0\.5, eta_total="):
        security_margin(0.5, eta_total, GYS_DETECTOR)
    with pytest.raises(UndefinedPointError, match=r"mu_s=0\.5, eta_total="):
        secure_distance(0.5, GYS_DETECTOR, 4.0)
    with pytest.raises(UndefinedPointError, match=r"mu_s=0\.5, eta_total="):
        evaluate_point(
            SourceParams(mu_s=0.5), ChannelParams(length_km=1000.0, loss_db_per_km=4.0),
            GYS_DETECTOR,
        )


@pytest.mark.parametrize("det", [GYS_DETECTOR, IDEAL_DETECTOR])
def test_kernel_raises_no_floating_point_error(det):
    eta_total = transmittance(LENGTHS, 0.21) * det.eta_d
    mu_values = [1e-3, 0.5, 5.0, 50.0, 700.0, 709.78, 709.79, 745.0, 800.0, 1000.0]
    with np.errstate(all="raise"):
        for mu_s in mu_values:
            values = security_margin(mu_s, eta_total, det)
            assert np.all(np.isfinite(values))


def test_kernel_is_total_past_the_exp_overflow():
    eta_total = transmittance(LENGTHS, 0.21) * GYS_DETECTOR.eta_d
    values = security_margin(800.0, eta_total, GYS_DETECTOR)
    assert np.all(np.isfinite(values))
    assert not np.any(values > 0.0)
    for length in (0.0, 146.0, 1000.0):
        report = evaluate_point(
            SourceParams(mu_s=800.0), ChannelParams(length_km=length), GYS_DETECTOR
        )
        tol = ULPS * 2.0**-52 * 0.5 * report.y_exp
        assert abs(values[int(length)] - report.r_s) <= tol
        assert math.isfinite(report.r_s)
