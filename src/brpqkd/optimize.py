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
from dataclasses import dataclass, fields, make_dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .params import (
    DEFAULT_LOSS_DB_PER_KM,
    ChannelParams,
    DetectorParams,
    _check_fields,
    _check_finite,
    _check_grid,
    _check_nonnegative,
    _check_positive,
    _check_probability,
    _unfrozen_twin,
)
from .photon_stats import brp_empty_prob, total_efficiency, transmittance
from .security import (
    SecurityReport,
    _eve_error_clamped,
    _eve_info_single,
    _h2,
    _report,
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

# the lengths secure_distance scans, every _COARSE_STEP_KM up to SCAN_CAP_KM
_SCAN_GRID_KM = np.arange(int(round(SCAN_CAP_KM / _COARSE_STEP_KM)) + 1) * _COARSE_STEP_KM
_SCAN_GRID_KM.flags.writeable = False

# Grid intensities per security_margin call in optimal_signal_intensity.  Most
# of a 1001-point call is fixed numpy dispatch, so a block of rows costs less
# per intensity, until its temporaries are large enough that freeing them trims
# glibc's heap and the next call faults the pages back in.  Per intensity: 40 us
# for 1 row, 18 us at 4 rows and 15.8 us at 6 with no page faults, then 25 us at
# 8 rows (about 90 minor faults a call) and 31 us at 19 (about 540).  With
# MALLOC_TRIM_THRESHOLD_ and MALLOC_MMAP_THRESHOLD_ at 64 MB the faults vanish
# and 19 rows cost 13 us each, so the limit is the allocator, not the cache
# (2 vCPU, Python 3.11.7, numpy 2.4.6, faults from getrusage's ru_minflt).
_SCAN_BLOCK_ROWS = 6

# Sentinel intensity: every pulse carries exactly one photon.
IDEAL_SOURCE = "ideal"


class MultipleCrossingsError(ValueError):
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
    loss_db_per_km: float = DEFAULT_LOSS_DB_PER_KM,
) -> SecureDistance:
    """Longest span (km) at which the security margin stays positive.

    Scans the margin on a 1 km grid up to :data:`SCAN_CAP_KM` in one array
    call (:func:`brpqkd.security.security_margin`), then bisects the sign
    change down to 0.01 km with the scalar instance of the same formulas
    (the kernel behind :func:`brpqkd.security.evaluate_point`) and
    returns the largest length that evaluated secure there.  Inputs are
    validated once, on entry.  A margin that never goes negative
    returns the cap with ``unbounded=True``; one that is never positive
    returns 0.  A margin with several sign changes on the grid raises
    :class:`MultipleCrossingsError` listing every crossing bracket.
    """
    mu_s = _check_nonnegative("mu_s", mu_s)
    loss, eta_total = _scan_efficiencies(det, loss_db_per_km)
    return _reach(mu_s, security_margin(mu_s, eta_total, det) > 0.0, det, loss)


def _scan_efficiencies(det: DetectorParams, loss_db_per_km: float) -> tuple[float, np.ndarray]:
    # the checked loss, and the total efficiency at each length of the scan grid;
    # as on the scalar path, a huge loss overflows to a zero transmittance
    loss = _check_nonnegative("loss_db_per_km", loss_db_per_km)
    with np.errstate(over="ignore"):
        return loss, transmittance(_SCAN_GRID_KM, loss) * det.eta_d


def _reach(
    mu_s: float, secure_flags: np.ndarray, det: DetectorParams, loss: float
) -> SecureDistance:
    """Reach of one intensity from its secure flags on the scan grid.

    Locates the sign change of the flags, then bisects it with the
    scalar kernel; see :func:`secure_distance`.
    """
    grid = _SCAN_GRID_KM
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
    # field 11 of the report is `secure`, i.e. r_s > 0
    while hi - lo > _DISTANCE_TOL_KM:
        mid = 0.5 * (lo + hi)
        if _report(mu_s, transmittance(mid, loss) * det.eta_d, det)[11]:
            lo = mid
        else:
            hi = mid
    return SecureDistance(distance_km=lo, unbounded=False)


def _grid_reaches(
    mu_values: Sequence[float], eta_total: np.ndarray, det: DetectorParams, loss: float
) -> list[SecureDistance]:
    """Reach of each checked intensity of an increasing grid, in order.

    The intensities are scanned :data:`_SCAN_BLOCK_ROWS` at a time, and
    the search raises what :func:`secure_distance` raises at the first
    intensity that fails.  Only an intensity whose product with the
    smallest efficiency underflows expects no clicks, so such intensities
    lead the grid: the no-clicks error of a block is the one its first
    row raises alone.
    """
    reaches = []
    for start in range(0, len(mu_values), _SCAN_BLOCK_ROWS):
        block = mu_values[start:start + _SCAN_BLOCK_ROWS]
        rows = security_margin(block, eta_total, det) > 0.0
        reaches.extend(_reach(mu, flags, det, loss) for mu, flags in zip(block, rows))
    return reaches


def _leading_intensities(mu_values: Sequence[float]) -> tuple[Sequence[float], ValueError | None]:
    # the values before the first invalid intensity, and the error that one raises
    for i, mu in enumerate(mu_values):
        try:
            _check_nonnegative("mu_s", mu)
        except ValueError as exc:
            return mu_values[:i], exc
    return mu_values, None


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

    Each reach is the one :func:`secure_distance` gives, and a search
    that fails raises what ``secure_distance`` raises at the first grid
    value that fails.  The grid values are scanned a block at a time.
    """
    mu_values = _check_grid("intensity grid", grid)

    # secure_distance checks the intensity, then the loss, then scans
    checked, invalid = _leading_intensities(mu_values)
    if not checked:
        raise invalid
    loss, eta_total = _scan_efficiencies(det, loss_db_per_km)
    evaluated = dict(zip(checked, _grid_reaches(checked, eta_total, det, loss)))
    if invalid is not None:
        raise invalid

    def scan(mu: float) -> SecureDistance:
        # secure_distance past its checks, on this search's efficiencies
        return _reach(mu, security_margin(mu, eta_total, det) > 0.0, det, loss)

    def reach(mu: float) -> float:
        # probes lie between checked grid values, so they are valid intensities
        if mu not in evaluated:
            evaluated[mu] = scan(mu)
        return evaluated[mu].distance_km

    distances = [evaluated[mu].distance_km for mu in mu_values]
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
        # the midpoint of two huge intensities can overflow, so it is checked
        mid = _check_nonnegative("mu_s", 0.5 * (mu_values[lo_i] + mu_values[hi_i]))
        at_mid = scan(mid)
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
    # the new opening probes share one call: c <= d, so d's row can lack clicks
    # only if c's row does too, and the block raises what reach(c) and then
    # reach(d) would (see _grid_reaches)
    fresh = [mu for mu in (c, d) if mu not in evaluated]
    evaluated.update(zip(fresh, _grid_reaches(fresh, eta_total, det, loss)))
    f_c, f_d = evaluated[c].distance_km, evaluated[d].distance_km
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
    # +inf passes the > 0 rule, but p_1(mu_s) has no bound to give there
    mu_s = _check_finite("mu_s", _check_positive("mu_s", mu_s))
    budget = _check_positive("suppression budget", budget)
    eta_total = total_efficiency(channel, det)
    if eta_total <= 0.0:
        raise ValueError("total efficiency is zero; no intensity can be monitored")

    # -ln(budget * p_1) term by term: the product itself underflows for bright
    # signals (from mu_s about 708), and mu - ln mu >= 1 keeps this positive
    mu_b_min = 0.0 if budget >= 1.0 else (mu_s - math.log(mu_s) - math.log(budget)) / eta_total
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
    d = _check_probability("error rate", d)
    # each input is checked once, here; the scalar kernel pieces trust them
    i_ab = 1.0 - _h2(d)
    if isinstance(mu_s, str):
        if mu_s != IDEAL_SOURCE:
            raise ValueError(f"unknown source marker {mu_s!r}")
        # unit single-photon weight exp(-0) and the whole error budget, unclamped
        return i_ab, _eve_info_single(0.0, d)
    mu_s = _check_positive("mu_s", mu_s)
    i_ae_multi = -math.expm1(-mu_s)
    return i_ab, i_ae_multi + _eve_info_single(mu_s, _eve_error_clamped(mu_s, d)[0])


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
    loss_db_per_km: float = DEFAULT_LOSS_DB_PER_KM

    def __post_init__(self) -> None:
        _check_fields(self, _check_grid, ("mu_s_values", "length_values_km"))


_SWEEP_ROW_FIELDS = [
    ("mu_s", "float"), ("length_km", "float"),
    *((f.name, f.type) for f in fields(SecurityReport)),
]
SweepRow = make_dataclass("SweepRow", _SWEEP_ROW_FIELDS, frozen=True, slots=True)
SweepRow.__module__ = __name__
SweepRow.__doc__ = """One grid point: the coordinates plus the flattened security report."""

# sweep builds its rows through this twin (see params._unfrozen_twin)
_UnfrozenSweepRow = _unfrozen_twin(SweepRow)


def sweep(grid: SweepGrid) -> list[SweepRow]:
    """Evaluate every grid point, ordered by (mu_s, length_km).

    Each row holds the values :func:`brpqkd.security.evaluate_point`
    returns for its point, bit for bit.  Both axes are validated before
    any point is evaluated.
    """
    det = grid.det
    mu_values = [_check_nonnegative("mu_s", mu_s) for mu_s in grid.mu_s_values]
    loss = _check_nonnegative("loss_db_per_km", grid.loss_db_per_km)
    lengths = [_check_nonnegative("length_km", length) for length in grid.length_values_km]
    eta_totals = [transmittance(length, loss) * det.eta_d for length in lengths]
    rows = []
    for mu_s in mu_values:
        for length_km, eta_total in zip(lengths, eta_totals):
            row = _UnfrozenSweepRow(mu_s, length_km, *_report(mu_s, eta_total, det))
            row.__class__ = SweepRow
            rows.append(row)
    return rows
