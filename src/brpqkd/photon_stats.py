"""Poisson photon-number statistics and the optical response built on them.

Everything downstream (security model, Monte Carlo, link budget) reduces
to four primitives: the photon-number distribution of an attenuated
laser pulse, the click probability of a threshold detector exposed to a
known photon number, fiber transmittance, and the probability that a
bright reference pulse arrives empty.  The bright-pulse case is why the
probability mass function switches to log space: intensities around 1e5
photons overflow the direct factorial form long before they stop being
physically interesting.
"""

from __future__ import annotations

import math
import operator

from .params import ChannelParams

__all__ = [
    "poisson_pmf",
    "detect_prob",
    "transmittance",
    "channel_transmittance",
    "brp_empty_prob",
]

# Above this the direct factorial form risks overflow / catastrophic
# rounding, so the pmf is evaluated as exp(n ln mu - mu - ln n!).
_LOG_FORM_CUTOFF = 20


def poisson_pmf(n: int, mu: float) -> float:
    """Probability that a pulse of mean photon number ``mu`` carries ``n`` photons."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    mu = float(mu)
    if not math.isfinite(mu) or mu < 0.0:
        raise ValueError(f"mean photon number must be finite and >= 0, got {mu}")
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    if n > _LOG_FORM_CUTOFF or mu > _LOG_FORM_CUTOFF:
        return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))
    return math.exp(-mu) * mu**n / math.factorial(n)


def detect_prob(i: int, eta: float) -> float:
    """Click probability of a threshold detector receiving ``i`` photons.

    Each photon is detected independently with probability ``eta``; the
    detector fires if at least one is.  For a single photon the result is
    ``eta`` exactly, with no ``1 - (1 - eta)`` round trip.
    """
    i = operator.index(i)
    if i < 0:
        raise ValueError(f"photon number must be >= 0, got {i}")
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {eta}")
    if i == 0:
        return 0.0
    if i == 1:
        return eta
    if eta == 1.0:
        return 1.0
    # 1 - (1-eta)^i evaluated without cancellation for small eta
    return -math.expm1(i * math.log1p(-eta))


def transmittance(length_km, loss_db_per_km):
    """Power transmittance ``10^(-loss_db_per_km * L / 10)`` of a fiber span.

    ``length_km`` may be a float or a numpy array of lengths.  Nothing is
    validated here; :class:`ChannelParams` checks the inputs.
    """
    return 10.0 ** (-loss_db_per_km * length_km / 10.0)


def channel_transmittance(channel: ChannelParams) -> float:
    """Power transmittance of a fiber span, ``10^(-loss_db_per_km * L / 10)``."""
    return transmittance(channel.length_km, channel.loss_db_per_km)


def brp_empty_prob(mu_b: float, eta_total: float) -> float:
    """Probability that a bright reference pulse produces no click.

    This is the Poisson vacancy rate ``exp(-eta_total * mu_b)`` of a
    coherent pulse of intensity ``mu_b`` seen through total efficiency
    ``eta_total``: the window in which an eavesdropper can suppress a
    cycle without leaving a missing-pulse signature.
    """
    mu_b = float(mu_b)
    if not math.isfinite(mu_b) or mu_b < 0.0:
        raise ValueError(f"mu_b must be finite and >= 0, got {mu_b}")
    eta_total = float(eta_total)
    if not 0.0 <= eta_total <= 1.0:
        raise ValueError(f"eta_total must lie in [0, 1], got {eta_total}")
    return math.exp(-eta_total * mu_b)
