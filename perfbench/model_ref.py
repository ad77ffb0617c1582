"""Independent stdlib restatement of the closed-form security model.

Written from the formulas stated in the ``brpqkd.security`` and
``brpqkd.optimize`` docstrings, using only :mod:`math`, so that the
benchmark can check library answers against something other than the
library itself.  It is total in ``mu_s``: where the library form
``d * exp(mu_s)`` overflows, the clamp at 1/2 is applied instead.

Tolerances: a report field agrees when it is within ``ULPS`` units in
the last place of the field's natural scale (1 bit for informations,
``y_exp / 2`` for rates).  Values printed by the CLI carry 9 significant
digits and are compared within half a unit of the ninth digit on top.
"""

from __future__ import annotations

import math

ULPS = 16
_EPS = 2.0 ** -52
PRINTED_REL = 5.000001e-9  # half a unit in the 9th significant digit

REPORT_FIELDS = (
    "y_exp", "y_1", "d_bob", "d_eve", "i_ab", "i_ae_multi", "i_ae_single",
    "i_ae", "r_bob", "r_eve", "r_s",
)


def transmittance(length_km: float, loss_db_per_km: float) -> float:
    """Fiber power transmittance ``10^(-loss * L / 10)``."""
    return 10.0 ** (-loss_db_per_km * length_km / 10.0)


def h2(x: float) -> float:
    """Binary entropy in bits."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _eve_error(mu_s: float, d: float) -> float:
    # min(d * e^mu_s, 1/2) without overflowing for large mu_s
    if d <= 0.0:
        return 0.0
    if math.log(d) + mu_s >= math.log(0.5):
        return 0.5
    return min(d * math.exp(mu_s), 0.5)


def _single_info(mu_s: float, d_eve: float) -> float:
    # individual-attack bound on single photons, weighted by exp(-mu_s)
    return math.exp(-mu_s) * (1.0 - h2(0.5 - math.sqrt(d_eve * (1.0 - d_eve))))


def point(mu_s: float, length_km: float, loss_db_per_km: float,
          eta_d: float, y0: float, e_detector: float, e_0: float = 0.5) -> dict:
    """Every ``SecurityReport`` field at one working point, or ``None`` without clicks."""
    eta = transmittance(length_km, loss_db_per_km) * eta_d
    y_exp = -math.expm1(-eta * mu_s)
    if y_exp <= 0.0:
        return None
    y_1 = math.exp(-mu_s) * mu_s * eta
    d_bob = min((e_0 * y0 + e_detector * y_exp) / y_exp, 0.5)
    d_eve = _eve_error(mu_s, d_bob)
    i_ab = 1.0 - h2(d_bob)
    i_ae_multi = (y_exp - y_1) / y_exp
    i_ae_single = _single_info(mu_s, d_eve)
    i_ae = i_ae_multi + i_ae_single
    r_bob = 0.5 * y_exp * i_ab
    r_eve = 0.5 * y_exp * i_ae
    return {
        "y_exp": y_exp, "y_1": y_1, "d_bob": d_bob, "d_eve": d_eve,
        "i_ab": i_ab, "i_ae_multi": i_ae_multi, "i_ae_single": i_ae_single,
        "i_ae": i_ae, "r_bob": r_bob, "r_eve": r_eve, "r_s": r_bob - r_eve,
    }


def margin(mu_s: float, length_km: float, loss_db_per_km: float, det) -> float:
    """Security margin ``r_s`` of ``det`` (any object with detector attributes)."""
    ref = point(mu_s, length_km, loss_db_per_km, det.eta_d, det.y0, det.e_detector, det.e_0)
    return -math.inf if ref is None else ref["r_s"]


def scale(name: str, ref: dict) -> float:
    """Magnitude against which a field's rounding error is measured."""
    if name.startswith("r_"):
        return 0.5 * ref["y_exp"]
    if name.startswith("i_") or name.startswith("d_"):
        return 1.0
    return abs(ref[name])


def field_close(name: str, value: float, ref: dict, printed: bool = False) -> bool:
    """Whether ``value`` agrees with ``ref[name]`` within the stated tolerance."""
    target = ref[name]
    if not math.isfinite(value):
        return False
    tol = ULPS * _EPS * scale(name, ref)
    if printed:
        tol += PRINTED_REL * abs(target)
    return abs(value - target) <= tol


def report_mismatches(report, ref: dict) -> list[str]:
    """Names of report fields (and flags) that disagree with the restatement."""
    bad = [name for name in REPORT_FIELDS if not field_close(name, getattr(report, name), ref)]
    if report.secure != (report.r_s > 0.0):
        bad.append("secure")
    return bad


def tradeoff(mu_s, d: float) -> tuple[float, float]:
    """High-loss ``(i_ab, i_ae)`` at error rate ``d``; ``mu_s=None`` is the one-photon source."""
    i_ab = 1.0 - h2(d)
    if mu_s is None:
        return i_ab, 1.0 - h2(0.5 - math.sqrt(d * (1.0 - d)))
    return i_ab, -math.expm1(-mu_s) + _single_info(mu_s, _eve_error(mu_s, d))


def info_close(value: float, target: float, printed: bool = False) -> bool:
    """Agreement of an information value in bits (scale 1)."""
    tol = ULPS * _EPS + (PRINTED_REL * abs(target) if printed else 0.0)
    return math.isfinite(value) and abs(value - target) <= tol


def crossing_km(mu_s: float, det, loss_db_per_km: float, cap_km: float = 1000.0) -> float:
    """Where the margin turns non-positive, to 1e-6 km; ``cap_km`` if it never does.

    Assumes at most one sign change on [0, cap_km], as the searches do.
    """
    if margin(mu_s, cap_km, loss_db_per_km, det) > 0.0:
        return cap_km
    if margin(mu_s, 0.0, loss_db_per_km, det) <= 0.0:
        return 0.0
    lo, hi = 0.0, cap_km
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if margin(mu_s, mid, loss_db_per_km, det) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo
