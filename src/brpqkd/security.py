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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import ChannelParams, DetectorParams, SourceParams
from .photon_stats import channel_transmittance

__all__ = [
    "UndefinedPointError",
    "YieldPair",
    "SecurityReport",
    "binary_entropy",
    "mutual_info_ab",
    "yields",
    "eve_info_multi",
    "eve_error_rate",
    "eve_info_single",
    "bob_error_rate",
    "evaluate_point",
    "security_margin",
]

# math.exp(mu_s) overflows above this intensity
_LOG_DBL_MAX = math.log(sys.float_info.max)


class UndefinedPointError(ValueError):
    """Raised where a conditional rate loses its denominator (no expected clicks)."""


class YieldPair(NamedTuple):
    """Expected click rate and the single-photon slice of it.

    ``y_exp`` is the probability that a signal pulse causes a photon
    click; ``y_1`` is the joint probability that the pulse carried
    exactly one photon and that photon clicked.  ``0 <= y_1 <= y_exp``
    always.
    """

    y_exp: float
    y_1: float


def binary_entropy(x: float) -> float:
    """Shannon entropy of a coin with bias ``x``, in bits."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"expected a probability in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def mutual_info_ab(d: float) -> float:
    """Per-bit information shared over a binary symmetric channel with error rate ``d``."""
    return 1.0 - binary_entropy(d)


def yields(source: SourceParams, eta_total: float) -> YieldPair:
    """Click rates of a Poissonian signal pulse through total efficiency ``eta_total``.

    ``y_exp = 1 - exp(-eta_total * mu_s)`` is the photon-caused click
    probability; ``y_1 = exp(-mu_s) * mu_s * eta_total`` is the part
    contributed by single-photon emissions.  Both are evaluated in forms
    that survive transmittances far below float epsilon.
    """
    eta_total = float(eta_total)
    if not 0.0 <= eta_total <= 1.0:
        raise ValueError(f"eta_total must lie in [0, 1], got {eta_total}")
    y_exp = -math.expm1(-eta_total * source.mu_s)
    y_1 = math.exp(-source.mu_s) * source.mu_s * eta_total
    return YieldPair(y_exp=y_exp, y_1=y_1)


def eve_info_multi(pair: YieldPair) -> float:
    """Fraction of clicks fully known to Eve via photon-number splitting.

    Everything the receiver detects beyond the single-photon yield is
    attributed to multi-photon emissions, which the splitting attack
    reads out perfectly: ``(y_exp - y_1) / y_exp``.
    """
    if pair.y_exp <= 0.0:
        raise UndefinedPointError("no expected clicks: y_exp = 0")
    return (pair.y_exp - pair.y_1) / pair.y_exp


def eve_error_rate(mu_s: float, d: float) -> float:
    """Error rate Eve may imprint on single-photon pulses while the link observes ``d``.

    Multi-photon attacks are error-free, so the whole observed error
    budget concentrates on the single-photon fraction:
    ``d * mu_s / p_1 = d * exp(mu_s)``, clamped at 1/2 where the budget
    exceeds a random channel.  Total in ``mu_s``: where ``exp(mu_s)``
    would overflow, any ``d > 0`` is clamped.
    """
    mu_s = float(mu_s)
    if mu_s <= 0.0:
        raise ValueError(f"mu_s must be > 0 to carry single-photon pulses, got {mu_s}")
    d = float(d)
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"error rate must lie in [0, 1], got {d}")
    return _eve_error_clamped(mu_s, d)[0]


def eve_info_single(mu_s: float, d: float) -> float:
    """Individual-attack information bound on the single-photon subset.

    At single-photon error rate ``d_eve`` the optimal individual attack
    yields ``1 - h2(1/2 - sqrt(d_eve (1 - d_eve)))`` bits, weighted here
    by the single-photon emission fraction ``exp(-mu_s) = p_1 / mu_s``.
    """
    d_eve = eve_error_rate(mu_s, d)
    d_prime = 0.5 - math.sqrt(d_eve * (1.0 - d_eve))
    return math.exp(-mu_s) * (1.0 - binary_entropy(d_prime))


def bob_error_rate(
    source: SourceParams, channel: ChannelParams, det: DetectorParams
) -> float:
    """Observed error rate: misalignment on photon clicks plus random dark clicks.

    ``(e_0 * y0 + e_detector * y_exp) / y_exp``, clamped to [0, 1/2].
    Raises :class:`UndefinedPointError` where no clicks are expected.
    """
    eta_total = channel_transmittance(channel) * det.eta_d
    pair = yields(source, eta_total)
    return _clamp_half(_bob_error_raw(pair, det))[0]


def _bob_error_raw(pair: YieldPair, det: DetectorParams) -> float:
    if pair.y_exp <= 0.0:
        raise UndefinedPointError("no expected clicks: y_exp = 0")
    return (det.e_0 * det.y0 + det.e_detector * pair.y_exp) / pair.y_exp


def _clamp_half(raw: float) -> tuple[float, bool]:
    # error rates live in [0, 1/2]; past 1/2 the channel is just noise
    if raw > 0.5:
        return 0.5, True
    return raw, False


def _eve_error_clamped(mu_s: float, d: float) -> tuple[float, bool]:
    if mu_s > _LOG_DBL_MAX:
        # exp(mu_s) overflows; d * exp(mu_s) > 1/2 for every normal d > 0
        return (0.5, True) if d > 0.0 else (0.0, False)
    return _clamp_half(d * math.exp(mu_s))


@dataclass(frozen=True)
class SecurityReport:
    """Full breakdown of one working point of the link.

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


def evaluate_point(
    source: SourceParams, channel: ChannelParams, det: DetectorParams
) -> SecurityReport:
    """Evaluate the security balance of one (source, channel, detector) point.

    The point is secure iff the sifted information rate of the receiver
    strictly exceeds the eavesdropper bound, ``r_s > 0``.
    """
    eta_total = channel_transmittance(channel) * det.eta_d
    pair = yields(source, eta_total)
    if pair.y_exp <= 0.0:
        raise UndefinedPointError(
            f"no expected clicks at mu_s={source.mu_s}, eta_total={eta_total}"
        )
    d_bob, d_bob_clamped = _clamp_half(_bob_error_raw(pair, det))
    d_eve, d_eve_clamped = _eve_error_clamped(source.mu_s, d_bob)

    i_ab = mutual_info_ab(d_bob)
    i_ae_multi = eve_info_multi(pair)
    i_ae_single = eve_info_single(source.mu_s, d_bob)
    i_ae = i_ae_multi + i_ae_single

    r_bob = 0.5 * pair.y_exp * i_ab
    r_eve = 0.5 * pair.y_exp * i_ae
    r_s = r_bob - r_eve
    return SecurityReport(
        y_exp=pair.y_exp,
        y_1=pair.y_1,
        d_bob=d_bob,
        d_eve=d_eve,
        i_ab=i_ab,
        i_ae_multi=i_ae_multi,
        i_ae_single=i_ae_single,
        i_ae=i_ae,
        r_bob=r_bob,
        r_eve=r_eve,
        r_s=r_s,
        secure=r_s > 0.0,
        d_bob_clamped=d_bob_clamped,
        d_eve_clamped=d_eve_clamped,
    )


def _entropy(x: np.ndarray) -> np.ndarray:
    # binary_entropy over an array, with 0 log 0 = 0
    y = 1.0 - x
    log2_x = np.log2(x, out=np.zeros_like(x), where=x > 0.0)
    log2_y = np.log2(y, out=np.zeros_like(y), where=y > 0.0)
    return -x * log2_x - y * log2_y


def security_margin(mu_s: float, eta_total: np.ndarray, det: DetectorParams) -> np.ndarray:
    """Security margin ``r_s`` of one signal intensity over an array of total efficiencies.

    The array counterpart of ``evaluate_point(...).r_s``, with the same
    formulas in the same order, so each value agrees with the scalar
    path to within a few ulp of ``y_exp / 2`` (numpy and libm may round
    ``expm1`` and ``log2`` differently).  Inputs are trusted:
    ``mu_s >= 0`` and ``eta_total`` in [0, 1].  Raises
    :class:`UndefinedPointError` if any point expects no clicks.
    """
    # results that underflow to zero are intended, as on the scalar path
    with np.errstate(under="ignore"):
        y_exp = -np.expm1(-eta_total * mu_s)
        undefined = y_exp <= 0.0
        if undefined.any():
            raise UndefinedPointError(
                f"no expected clicks at mu_s={mu_s}, "
                f"eta_total={float(eta_total[np.argmax(undefined)])}"
            )
        y_1 = math.exp(-mu_s) * mu_s * eta_total
        d_bob = np.minimum((det.e_0 * det.y0 + det.e_detector * y_exp) / y_exp, 0.5)
        if mu_s > _LOG_DBL_MAX:
            d_eve = np.where(d_bob > 0.0, 0.5, 0.0)
        else:
            d_eve = np.minimum(d_bob * math.exp(mu_s), 0.5)
        d_prime = 0.5 - np.sqrt(d_eve * (1.0 - d_eve))

        i_ab = 1.0 - _entropy(d_bob)
        i_ae_multi = (y_exp - y_1) / y_exp
        i_ae_single = math.exp(-mu_s) * (1.0 - _entropy(d_prime))
        i_ae = i_ae_multi + i_ae_single
        return 0.5 * y_exp * i_ab - 0.5 * y_exp * i_ae
