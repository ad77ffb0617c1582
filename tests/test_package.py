"""The package namespace: every layer's public names, each listed once."""

import brpqkd
from brpqkd import linkbudget, montecarlo, optimize, params, photon_stats, security

# the 51 names the package exported by its own list, before it re-exported the
# layers' lists; none may leave it
_EARLIER_NAMES = [
    "__version__",
    "SourceParams", "ChannelParams", "DetectorParams",
    "GYS_DETECTOR", "IDEAL_DETECTOR", "DEFAULT_LOSS_DB_PER_KM",
    "poisson_pmf", "detect_prob", "channel_transmittance", "brp_empty_prob",
    "UndefinedPointError", "YieldPair", "SecurityReport",
    "binary_entropy", "mutual_info_ab", "yields",
    "eve_info_multi", "eve_error_rate", "eve_info_single",
    "bob_error_rate", "evaluate_point",
    "SecureDistance", "OptimalIntensity", "BrpBound", "DisturbanceBound",
    "SweepGrid", "SweepRow", "MultipleCrossingsError", "IDEAL_SOURCE",
    "secure_distance", "optimal_signal_intensity", "brp_intensity_bound",
    "disturbance_tradeoff", "disturbance_bound", "sweep",
    "BLOCK_SIZE", "EvePolicy", "McConfig", "McCounts", "McResult", "McComparison",
    "derive_stream", "simulate", "simulate_attack", "compare_with_model",
    "OpticalChain", "LinkBudgetReport", "propagate",
    "afterpulse_error", "crosstalk_false_click",
]


def test_the_package_exports_each_layer_once():
    names = brpqkd.__all__
    assert len(names) == len(set(names))
    layers = (params, photon_stats, security, optimize, montecarlo, linkbudget)
    assert names == ["__version__", *(name for layer in layers for name in layer.__all__)]
    for layer in layers:
        for name in layer.__all__:
            assert getattr(brpqkd, name) is getattr(layer, name), name


def test_no_earlier_name_leaves_the_package():
    assert len(_EARLIER_NAMES) == 51
    assert set(_EARLIER_NAMES) <= set(brpqkd.__all__)
    assert {"security_margin", "transmittance", "total_efficiency", "SCAN_CAP_KM"} <= set(
        brpqkd.__all__
    )
    assert isinstance(brpqkd.__version__, str)
