"""security_margin over a block of intensities against one call per intensity."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brpqkd import DetectorParams, GYS_DETECTOR, IDEAL_DETECTOR
from brpqkd.photon_stats import transmittance
from brpqkd.security import security_margin

LENGTHS = np.arange(1001) * 1.0
# both sides of the exp overflow at 709.78, far past it, and a subnormal-scale
# intensity whose clicks make y_exp subnormal at the far end of the grid
EDGES = [709.78, 709.79, 800.0, 1e-300]


def _detectors():
    rng = np.random.default_rng(99)
    seeded = [
        DetectorParams(
            eta_d=float(rng.uniform(0.02, 0.3)),
            y0=float(10.0 ** rng.uniform(-7.0, -5.0)),
            e_detector=float(rng.uniform(0.01, 0.06)),
        )
        for _ in range(3)
    ]
    no_efficiency = DetectorParams(eta_d=0.0, y0=1e-6, e_detector=0.02)
    return [GYS_DETECTOR, IDEAL_DETECTOR, *seeded, no_efficiency]


DETECTORS = _detectors()


def _outcome(call):
    # what the call returns, or the type and message of what it raised
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _assert_rows_are_single_calls(mu_values, eta_total, det):
    block = _outcome(lambda: security_margin(mu_values, eta_total, det))
    alone = _outcome(lambda: [security_margin(mu, eta_total, det) for mu in mu_values])
    if isinstance(alone, tuple):
        # the first intensity that fails on its own, in row order
        assert block == alone
        return
    assert block.shape == (len(mu_values), len(eta_total))
    for mu, row, one in zip(mu_values, block, alone):
        assert row.tobytes() == one.tobytes(), mu


@pytest.mark.parametrize("det", DETECTORS)
@pytest.mark.parametrize("loss", [0.17, 0.21, 0.25, 4.0])
def test_rows_equal_one_call_per_intensity(det, loss):
    eta_total = transmittance(LENGTHS, loss) * det.eta_d
    grid19 = [i / 20 for i in range(2, 21)]
    for mu_values in (grid19, EDGES, [0.5, *EDGES, 0.0, 0.3], [0.3], []):
        _assert_rows_are_single_calls(mu_values, eta_total, det)


@given(
    mu_values=st.lists(
        st.one_of(st.sampled_from(EDGES), st.floats(min_value=0.0, max_value=1e3)),
        max_size=12,
    ),
    det=st.sampled_from(DETECTORS),
    loss=st.sampled_from([0.17, 0.21, 0.25, 4.0]),
    lengths=st.sampled_from([LENGTHS, np.array([0.0, 3.5, 146.0, 2000.0])]),
)
def test_rows_equal_one_call_per_intensity_anywhere(mu_values, det, loss, lengths):
    _assert_rows_are_single_calls(mu_values, transmittance(lengths, loss) * det.eta_d, det)


def test_a_float_intensity_keeps_the_one_dimensional_result():
    eta_total = transmittance(LENGTHS, 0.21) * GYS_DETECTOR.eta_d
    assert security_margin(0.5, eta_total, GYS_DETECTOR).shape == LENGTHS.shape
    assert security_margin([0.5], eta_total, GYS_DETECTOR).shape == (1, len(LENGTHS))
