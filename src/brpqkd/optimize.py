"""Design-space searches over the security model.

Four questions an experiment planner asks, answered by root finding and
scans over the security model of :mod:`brpqkd.security`:

* how far does the link stay secure (:func:`secure_distance`),
* which signal intensity maximizes that reach (:func:`optimal_signal_intensity`),
* how bright must the reference pulse be so covert suppression stays
  inside a budget (:func:`brp_intensity_bound`),
* how much disturbance is tolerable at all (:func:`disturbance_bound`),

plus a plain grid :func:`sweep` for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence, Union

import numpy as np

from .params import ChannelParams, DetectorParams, SourceParams
from .photon_stats import brp_empty_prob, channel_transmittance, poisson_pmf, transmittance
from .security import (
    SecurityReport,
    binary_entropy,
    eve_info_single,
    evaluate_point,
    mutual_info_ab,
    security_margin,
)

__all__ = [
    "SCAN_CAP_KM",
    "IDEAL_SOURCE",
    "MultipleCrossingsError",
    "SecureDistance",
    "OptimalIntensity",
    "BrpBound",
    "DisturbanceBound",
    "SweepGrid",
    "SweepRow",
    "secure_distance",
    "optimal_signal_intensity",
    "brp_intensity_bound",
    "disturbance_tradeoff",
    "disturbance_bound",
    "sweep",
]

SCAN_CAP_KM = 1000.0
_COARSE_STEP_KM = 1.0
_DISTANCE_TOL_KM = 0.01
_MU_TOL = 1e-3
_DISTURBANCE_TOL = 1e-6
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Sentinel intensity: every pulse carries exactly one photon.
IDEAL_SOURCE = "ideal"


class MultipleCrossingsError(RuntimeError):
    """The security margin changes sign more than once on the scan grid.

    ``crossings`` holds every (left_km, right_km) bracket in which a sign
    change was seen, so the caller can decide which regime it cares about.
    """

    def __init__(self, crossings: Sequence[tuple[float, float]]):
        self.crossings = tuple(crossings)
        brackets = ", ".join(f"({a:g}, {b:g}) km" for a, b in self.crossings)
        super().__init__(
            f"security margin changes sign {len(self.crossings)} times: {brackets}"
        )


class SecureDistance(NamedTuple):
    """Longest fiber length with a positive security margin."""

    distance_km: float
    unbounded: bool = False


class OptimalIntensity(NamedTuple):
    """Signal intensity that maximizes secure reach, and that reach."""

    mu_s_star: float
    distance_km: float
    plateau: bool = False
    unbounded: bool = False


class BrpBound(NamedTuple):
    """Minimum reference-pulse intensity keeping covert suppression in budget.

    ``g_b0_at_bound`` is the vacancy probability the bound achieves;
    except in degenerate cases it equals
    ``suppression_budget * p_1(mu_s)`` to rounding.
    """

    mu_b_min: float
    g_b0_at_bound: float
    suppression_budget: float


class DisturbanceBound(NamedTuple):
    """Largest error rate at which the link is still secure in the high-loss limit."""

    bound: float
    insecure_at_zero: bool = False


def secure_distance(
    mu_s: float,
    det: DetectorParams,
    loss_db_per_km: float = 0.21,
    *,
    scan_cap_km: float = SCAN_CAP_KM,
) -> SecureDistance:
    """Longest span (km) at which the security margin stays positive.

    Scans the margin on a 1 km grid up to ``scan_cap_km`` in one array
    call (:func:`brpqkd.security.security_margin`), then bisects the sign
    change down to 0.01 km with scalar
    :func:`brpqkd.security.evaluate_point` and returns the largest length
    that evaluated secure there.  A margin that never goes negative
    returns the cap with ``unbounded=True``; one that is never positive
    returns 0.  A margin with several sign changes on the grid raises
    :class:`MultipleCrossingsError` listing every crossing bracket.
    """
    source = SourceParams(mu_s=mu_s)
    cap = ChannelParams(length_km=scan_cap_km, loss_db_per_km=loss_db_per_km)

    def margin(length_km: float) -> float:
        channel = ChannelParams(length_km=length_km, loss_db_per_km=loss_db_per_km)
        return evaluate_point(source, channel, det).r_s

    n_steps = int(round(cap.length_km / _COARSE_STEP_KM))
    grid = np.arange(n_steps + 1) * _COARSE_STEP_KM
    eta_total = transmittance(grid, cap.loss_db_per_km) * det.eta_d
    secure_flags = security_margin(source.mu_s, eta_total, det) > 0.0

    crossings = [
        (float(grid[i]), float(grid[i + 1]))
        for i in np.flatnonzero(secure_flags[:-1] != secure_flags[1:])
    ]
    if len(crossings) > 1:
        raise MultipleCrossingsError(crossings)
    if not crossings:
        if secure_flags[0]:
            return SecureDistance(distance_km=float(grid[-1]), unbounded=True)
        return SecureDistance(distance_km=0.0, unbounded=False)
    if not secure_flags[0]:
        # insecure at zero but secure further out: not a reach question
        raise MultipleCrossingsError(crossings)

    lo, hi = crossings[0]
    while hi - lo > _DISTANCE_TOL_KM:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return SecureDistance(distance_km=lo, unbounded=False)


def optimal_signal_intensity(
    det: DetectorParams,
    loss_db_per_km: float,
    grid: Sequence[float],
) -> OptimalIntensity:
    """Signal intensity maximizing secure reach over ``grid``, refined by golden section.

    The reported point is the best point actually evaluated (grid plus
    refinement probes), so its distance is >= every grid distance.  A
    maximum that is flat across more than two neighbouring grid points
    (within the 0.01 km distance resolution) cannot be refined; the
    plateau midpoint is returned with ``plateau=True``.
    """
    mu_values = [float(mu) for mu in grid]
    if not mu_values:
        raise ValueError("intensity grid must be nonempty")
    if any(b <= a for a, b in zip(mu_values, mu_values[1:])):
        raise ValueError("intensity grid must be strictly increasing")

    evaluated: dict[float, SecureDistance] = {}

    def reach(mu: float) -> float:
        if mu not in evaluated:
            evaluated[mu] = secure_distance(mu, det, loss_db_per_km)
        return evaluated[mu].distance_km

    distances = [reach(mu) for mu in mu_values]
    best_index = max(range(len(mu_values)), key=distances.__getitem__)

    if len(mu_values) == 1:
        only = evaluated[mu_values[0]]
        return OptimalIntensity(
            mu_s_star=mu_values[0],
            distance_km=only.distance_km,
            plateau=False,
            unbounded=only.unbounded,
        )

    # contiguous run around the maximum that the 0.01 km resolution cannot split
    d_max = distances[best_index]
    lo_i = best_index
    while lo_i > 0 and distances[lo_i - 1] >= d_max - _DISTANCE_TOL_KM:
        lo_i -= 1
    hi_i = best_index
    while hi_i < len(mu_values) - 1 and distances[hi_i + 1] >= d_max - _DISTANCE_TOL_KM:
        hi_i += 1
    if hi_i - lo_i >= 2:
        mid = 0.5 * (mu_values[lo_i] + mu_values[hi_i])
        at_mid = secure_distance(mid, det, loss_db_per_km)
        return OptimalIntensity(
            mu_s_star=mid,
            distance_km=at_mid.distance_km,
            plateau=True,
            unbounded=at_mid.unbounded,
        )

    a = mu_values[max(best_index - 1, 0)]
    b = mu_values[min(best_index + 1, len(mu_values) - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    f_c, f_d = reach(c), reach(d)
    while b - a > _MU_TOL:
        if f_c < f_d:
            a, c, f_c = c, d, f_d
            d = a + _GOLDEN * (b - a)
            f_d = reach(d)
        else:
            b, d, f_d = d, c, f_c
            c = b - _GOLDEN * (b - a)
            f_c = reach(c)

    best_mu = max(evaluated, key=lambda mu: (evaluated[mu].distance_km, -mu))
    best = evaluated[best_mu]
    return OptimalIntensity(
        mu_s_star=best_mu,
        distance_km=best.distance_km,
        plateau=False,
        unbounded=best.unbounded,
    )


def brp_intensity_bound(
    mu_s: float,
    channel: ChannelParams,
    det: DetectorParams,
    budget: float = 1e-3,
) -> BrpBound:
    """Minimum bright-pulse intensity keeping the covert-suppression window in budget.

    An eavesdropper can only suppress a cycle unnoticed while the bright
    pulse happens to arrive empty, so the vacancy rate is capped at
    ``budget`` times the single-photon emission probability:
    ``mu_b_min = -ln(budget * p_1(mu_s)) / (eta_t * eta_d)``.  A budget
    of one (or more) tolerates suppression of every single-photon pulse
    and constrains nothing, so the bound collapses to zero.
    """
    mu_s = float(mu_s)
    if mu_s <= 0.0:
        raise ValueError(f"mu_s must be > 0, got {mu_s}")
    budget = float(budget)
    if budget <= 0.0:
        raise ValueError(f"suppression budget must be > 0, got {budget}")
    eta_total = channel_transmittance(channel) * det.eta_d
    if eta_total <= 0.0:
        raise ValueError("total efficiency is zero; no intensity can be monitored")

    target = budget * poisson_pmf(1, mu_s)
    if budget >= 1.0 or target >= 1.0:
        mu_b_min = 0.0
    else:
        mu_b_min = -math.log(target) / eta_total
    return BrpBound(
        mu_b_min=mu_b_min,
        g_b0_at_bound=brp_empty_prob(mu_b_min, eta_total),
        suppression_budget=budget,
    )


def disturbance_tradeoff(
    mu_s: Union[float, str], d: float
) -> tuple[float, float]:
    """Information trade-off ``(i_ab, i_ae)`` at error rate ``d`` in the high-loss limit.

    Far from the transmitter the single-photon share of the clicks
    approaches the single-photon emission fraction ``exp(-mu_s)``, which
    makes the trade-off distance-free.  Passing :data:`IDEAL_SOURCE`
    instead of an intensity models a source emitting exactly one photon
    per pulse (no multi-photon leakage, unit single-photon weight).
    """
    d = float(d)
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"error rate must lie in [0, 1], got {d}")
    i_ab = mutual_info_ab(d)
    if isinstance(mu_s, str):
        if mu_s != IDEAL_SOURCE:
            raise ValueError(f"unknown source marker {mu_s!r}")
        d_prime = 0.5 - math.sqrt(d * (1.0 - d))
        return i_ab, 1.0 - binary_entropy(d_prime)
    mu_s = float(mu_s)
    if mu_s <= 0.0:
        raise ValueError(f"mu_s must be > 0, got {mu_s}")
    i_ae_multi = -math.expm1(-mu_s)
    return i_ab, i_ae_multi + eve_info_single(mu_s, d)


def disturbance_bound(mu_s: Union[float, str]) -> DisturbanceBound:
    """Largest tolerable error rate in the high-loss limit, by bisection to 1e-6.

    Below the bound the receiver out-informs the eavesdropper; above it
    the link is insecure no matter the postprocessing.  A source so weak
    (or so bright) that even a noiseless channel is insecure returns 0
    with ``insecure_at_zero=True``.
    """

    def margin(d: float) -> float:
        i_ab, i_ae = disturbance_tradeoff(mu_s, d)
        return i_ab - i_ae

    if margin(0.0) <= 0.0:
        return DisturbanceBound(bound=0.0, insecure_at_zero=True)
    lo, hi = 0.0, 0.5
    while hi - lo > _DISTURBANCE_TOL:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return DisturbanceBound(bound=0.5 * (lo + hi), insecure_at_zero=False)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian (mu_s, length) grid evaluated by :func:`sweep`.

    Both axes must be nonempty and strictly increasing.
    """

    mu_s_values: tuple[float, ...]
    length_values_km: tuple[float, ...]
    det: DetectorParams
    loss_db_per_km: float = 0.21

    def __post_init__(self) -> None:
        for name in ("mu_s_values", "length_values_km"):
            values = tuple(float(v) for v in getattr(self, name))
            if not values:
                raise ValueError(f"{name} must be nonempty")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, values)


@dataclass(frozen=True)
class SweepRow:
    """One grid point: the coordinates plus the flattened security report."""

    mu_s: float
    length_km: float
    y_exp: float
    y_1: float
    d_bob: float
    d_eve: float
    i_ab: float
    i_ae_multi: float
    i_ae_single: float
    i_ae: float
    r_bob: float
    r_eve: float
    r_s: float
    secure: bool
    d_bob_clamped: bool
    d_eve_clamped: bool


_REPORT_FIELDS = tuple(f.name for f in fields(SecurityReport))


def _flatten(mu_s: float, length_km: float, report: SecurityReport) -> SweepRow:
    values = {name: getattr(report, name) for name in _REPORT_FIELDS}
    return SweepRow(mu_s=mu_s, length_km=length_km, **values)


def sweep(grid: SweepGrid) -> list[SweepRow]:
    """Evaluate every grid point, ordered by (mu_s, length_km)."""
    rows = []
    for mu_s in grid.mu_s_values:
        source = SourceParams(mu_s=mu_s)
        for length_km in grid.length_values_km:
            channel = ChannelParams(
                length_km=length_km, loss_db_per_km=grid.loss_db_per_km
            )
            rows.append(_flatten(mu_s, length_km, evaluate_point(source, channel, det=grid.det)))
    return rows
