"""Analytic security model for weak-pulse QKD guarded by bright reference pulses.

The model compares two mutual informations per emitted pulse: what the
receiver shares with the transmitter across a lossy fiber, and the most
an individual eavesdropper can know while staying consistent with the
observed channel.  Multi-photon emissions are written off entirely: a
photon-number splitter keeps one photon of each and forwards the rest
losslessly, so every multi-photon click is assumed fully known to Eve.
Single-photon emissions leak at most the individual-attack bound at the
error rate Eve is allowed to imprint on the single-photon subset, which
is the observed error rate concentrated onto that subset.  A working
point is secure while the receiver's information rate exceeds Eve's.

Click probabilities keep their exact exponential form throughout; the
usual small-transmittance linearizations are avoided so the model stays
meaningful at zero distance and unit efficiency.

Sign conventions: all rates are per emitted pulse, and the factor 1/2
in the information rates is basis sifting.

The formulas are written once, in :func:`_formulas`, over a small ops
namespace.  Two instances share that body: one over ``math`` is the
scalar kernel behind :func:`evaluate_point` and the searches of
:mod:`brpqkd.optimize`; one over numpy is :func:`security_margin`,
which evaluates a whole array of efficiencies, for one intensity or a
block of them, in one call.  Each model term is a field of
:class:`SecurityReport`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .params import ChannelParams, DetectorParams, SourceParams, _unfrozen_twin
from .photon_stats import total_efficiency

__all__ = [
    "UndefinedPointError",
    "SecurityReport",
    "evaluate_point",
    "security_margin",
]

# math.exp(mu_s) overflows above this intensity
_LOG_DBL_MAX = math.log(sys.float_info.max)


class UndefinedPointError(ValueError):
    """Raised where a conditional rate loses its denominator (no expected clicks)."""


def _h2(x: float) -> float:
    # Shannon entropy of a coin with bias x, in bits
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _entropy(x: np.ndarray) -> np.ndarray:
    # _h2 over an array; at zero the log2 of the smallest subnormal is
    # -1074, which the zero factor cancels, so 0 log 0 = 0 with no masked log2
    # (a zero result may come out as -0.0, which the callers' 1 - h2 absorbs)
    y = 1.0 - x
    return -x * np.log2(np.maximum(x, 5e-324)) - y * np.log2(np.maximum(y, 5e-324))


def _clamp_half(raw: float) -> tuple[float, bool]:
    # error rates live in [0, 1/2]; past 1/2 the channel is just noise
    if raw > 0.5:
        return 0.5, True
    return raw, False


def _clamp_half_array(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.minimum(raw, 0.5), raw > 0.5


def _exp_rows(mu_s):
    # math.exp of each row's intensity, so every row rounds as the scalar mu_s does
    if isinstance(mu_s, np.ndarray):
        return np.array([math.exp(mu) for mu in mu_s.ravel()]).reshape(mu_s.shape)
    return math.exp(mu_s)


def _any_flagged(flags) -> bool:
    # a float intensity gives the overflow check a plain bool, which needs no numpy call
    return flags if isinstance(flags, bool) else flags.any()


def _first_flagged(mu_s, eta_total, flags):
    # the intensity and efficiency of the first flagged point, rows in order; only
    # a column of intensities has rows, and a float intensity flags eta_total's shape
    if np.ndim(mu_s) == 2:
        row = int(np.argmax(flags.any(axis=1)))
        mu_s, flags = float(mu_s[row, 0]), flags[row]
    return mu_s, float(np.ravel(eta_total)[np.argmax(flags)])


def _formulas(exp, expm1, sqrt, h2, clamp_half, where, any_of, first_of):
    """The model, written once over a small ops namespace.

    For the ``math`` ops ``mu_s``, the efficiency and every rate derived
    from them are floats.  For the numpy ops the efficiency is an array;
    ``mu_s`` is a float or a column of intensities, one row of results
    each.  ``exp`` only ever sees intensities, so both instances round
    it alike.  ``where(flags, a, b)`` picks per point, ``any_of(flags)``
    tells whether any point is flagged, and ``first_of(mu_s, eta_total,
    flags)`` gives the intensity and efficiency of the first flagged
    point.  Returns the functions ``(eve_error, info_single, report)``;
    inputs are trusted: ``mu_s >= 0`` and ``eta_total`` in [0, 1].
    """

    def eve_error(mu_s, d_bob):
        over = mu_s > _LOG_DBL_MAX
        if any_of(over):
            # exp(mu_s) overflows there, and d_bob * exp(mu_s) would exceed 1/2 for
            # every d_bob > 0; those points take exp(0) in the unused branch
            return clamp_half(
                where(over, (d_bob > 0.0) * 1.0, d_bob * exp(where(over, 0.0, mu_s)))
            )
        return clamp_half(d_bob * exp(mu_s))

    def info_multi(y_exp, y_1):
        return (y_exp - y_1) / y_exp

    def info_single(mu_s, d_eve):
        return exp(-mu_s) * (1.0 - h2(0.5 - sqrt(d_eve * (1.0 - d_eve))))

    def report(mu_s, eta_total, det):
        # the SecurityReport values of the working point(s), in field order
        y_exp, y_1 = -expm1(-eta_total * mu_s), exp(-mu_s) * mu_s * eta_total
        undefined = y_exp <= 0.0
        if any_of(undefined):
            mu_s, eta_total = first_of(mu_s, eta_total, undefined)
            raise UndefinedPointError(
                f"no expected clicks at mu_s={mu_s}, eta_total={eta_total}"
            )
        d_bob, d_bob_clamped = clamp_half((det.e_0 * det.y0 + det.e_detector * y_exp) / y_exp)
        d_eve, d_eve_clamped = eve_error(mu_s, d_bob)

        i_ab = 1.0 - h2(d_bob)
        i_ae_multi = info_multi(y_exp, y_1)
        i_ae_single = info_single(mu_s, d_eve)
        i_ae = i_ae_multi + i_ae_single

        r_bob = 0.5 * y_exp * i_ab
        r_eve = 0.5 * y_exp * i_ae
        r_s = r_bob - r_eve
        return (y_exp, y_1, d_bob, d_eve, i_ab, i_ae_multi, i_ae_single, i_ae,
                r_bob, r_eve, r_s, r_s > 0.0, d_bob_clamped, d_eve_clamped)

    return eve_error, info_single, report


_eve_error_clamped, _eve_info_single, _report = _formulas(
    math.exp, math.expm1, math.sqrt, _h2, _clamp_half,
    lambda flag, a, b: a if flag else b, bool, lambda mu_s, eta_total, _: (mu_s, eta_total),
)
*_, _array_report = _formulas(
    _exp_rows, np.expm1, np.sqrt, _entropy, _clamp_half_array, np.where, _any_flagged,
    _first_flagged,
)


@dataclass(frozen=True)
class SecurityReport:
    """Full breakdown of one working point of the link.

    ``y_exp = 1 - exp(-eta_total mu_s)`` is the click rate per pulse and
    ``y_1 = exp(-mu_s) mu_s eta_total`` its single-photon part.  ``d_bob =
    (e_0 y0 + e_detector y_exp) / y_exp`` is the observed error rate and
    ``d_eve = d_bob exp(mu_s)`` the rate Eve may imprint on single photons
    (each clamped at 1/2).  ``i_ab = 1 - h2(d_bob)``; ``i_ae_multi =
    (y_exp - y_1) / y_exp`` is what photon-number splitting reads out, and
    ``i_ae_single = exp(-mu_s) (1 - h2(1/2 - sqrt(d_eve (1 - d_eve))))``
    the individual-attack bound on the single photons.

    ``r_s = r_bob - r_eve`` holds exactly (same floats, no re-rounding),
    as does ``i_ae = i_ae_multi + i_ae_single``.  The ``*_clamped``
    flags mark where an error rate hit the 1/2 ceiling, i.e. where the
    formulas left their trustworthy regime.
    """

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


# evaluate_point builds its report through this twin (see params._unfrozen_twin)
_UnfrozenReport = _unfrozen_twin(SecurityReport)

# where the kernels' report tuples hold r_s and secure
_R_S, _SECURE = (
    [f.name for f in fields(SecurityReport)].index(name) for name in ("r_s", "secure")
)


def evaluate_point(
    source: SourceParams, channel: ChannelParams, det: DetectorParams
) -> SecurityReport:
    """Evaluate the security balance of one (source, channel, detector) point.

    The point is secure iff the sifted information rate of the receiver
    strictly exceeds the eavesdropper bound, ``r_s > 0``.
    """
    report = _UnfrozenReport(*_report(source.mu_s, total_efficiency(channel, det), det))
    report.__class__ = SecurityReport
    return report


def security_margin(
    mu_s: float | Sequence[float], eta_total: np.ndarray, det: DetectorParams
) -> np.ndarray:
    """Security margin ``r_s`` of signal intensities over an array of total efficiencies.

    The numpy instance of the formula body behind ``evaluate_point``
    (the scalar instance), so each value agrees with
    ``evaluate_point(...).r_s`` to within a few ulp of ``y_exp / 2``:
    numpy and libm may round ``expm1`` and ``log2`` differently.

    A float ``mu_s`` gives one value per efficiency, shaped like
    ``eta_total``.  A sequence of intensities with a 1-D ``eta_total``
    gives one row per intensity, and each row equals the call with that
    float intensity bit for bit: the intensity enters through
    ``math.exp`` row by row.  Scanning several intensities at once pays
    numpy's per-call overhead once per block instead of once per row.

    Inputs are trusted: ``mu_s >= 0`` and ``eta_total`` in [0, 1].
    Raises :class:`UndefinedPointError` if any point expects no clicks,
    naming the first such row's intensity and its first such efficiency.
    """
    if np.ndim(mu_s):
        mu_s = np.asarray(mu_s, dtype=float).reshape(-1, 1)
    # as on the scalar path, results that underflow to zero are intended, and so
    # is d_bob's ratio overflowing where y_exp is subnormal: it clamps to 1/2
    with np.errstate(under="ignore", over="ignore"):
        return _array_report(mu_s, eta_total, det)[_R_S]
