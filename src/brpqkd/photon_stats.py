"""Poisson photon-number statistics and the optical response built on them.

Everything downstream (security model, Monte Carlo, link budget) reduces
to three primitives: the photon-number distribution of an attenuated
laser pulse, fiber transmittance, and the probability that a bright
reference pulse arrives empty.  The bright-pulse case is why the
probability mass function switches to log space: intensities around 1e5
photons overflow the direct factorial form long before they stop being
physically interesting.
"""

from __future__ import annotations

import math

from .params import (ChannelParams, DetectorParams, _check_integer, _check_nonnegative,
                     _check_probability)

__all__ = [
    "poisson_pmf",
    "transmittance",
    "channel_transmittance",
    "total_efficiency",
    "brp_empty_prob",
]

# Above this the direct factorial form risks overflow / catastrophic
# rounding, so the pmf is evaluated in Loader's saddle-point form.
_SADDLE_POINT_CUTOFF = 20

# Past this photon number 2 pi n leaves the float range (from about 2.86e307),
# and the pmf is answered as 0: its value in double unless mu lies within some
# 30 sqrt(n) of n.
_PMF_ZERO_ABOVE = 2.8e307

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(n: float) -> float:
    # ln n! - ln(sqrt(2 pi n) (n/e)^n), the error of Stirling's formula, for n >= 1;
    # below 16 the difference of lgamma and the Stirling terms, with an absolute
    # error of a few 1e-15, and from 16 five terms of the asymptotic series,
    # whose next term is below 1.1e-16 there
    if n < 16.0:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LN_SQRT_2PI
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, mu: float) -> float:
    # x ln(x / mu) + mu - x, the deviance term, without its cancellation for x near mu:
    # there it is summed as the series 2x (v^3/3 + v^5/5 + ...) + (x - mu) v, v = (x-mu)/(x+mu);
    # the test takes x + mu halved, which is exact and cannot overflow for a huge mean
    if abs(x - mu) < 0.2 * (0.5 * x + 0.5 * mu):
        v = (x - mu) / (x + mu)
        total = (x - mu) * v
        term = 2.0 * x * v
        v *= v
        j = 3
        while True:
            term *= v
            updated = total + term / j
            if updated == total:
                return total
            total = updated
            j += 2
    return x * math.log(x / mu) + mu - x


def poisson_pmf(n: int, mu: float) -> float:
    """Probability that a pulse of mean photon number ``mu`` carries ``n`` photons.

    Beyond 20 photons or a mean of 20 this is Loader's saddle-point form,
    ``exp(-stirlerr(n) - bd0(n, mu)) / sqrt(2 pi n)``, which keeps full
    relative precision where ``n`` and ``mu`` are large and close.

    ``n`` may be an int of any size, or an integral float such as ``2.0``.
    That form takes ``n`` as the nearest double, so past 2^53 the answer
    is the pmf at that float, not at ``n``; past 2.8e307 photons, where
    ``2 pi n`` leaves the float range, the answer is 0.0.
    """
    n = _check_integer("photon number", n, 0)
    mu = _check_nonnegative("mu", mu)
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    if n > _SADDLE_POINT_CUTOFF or mu > _SADDLE_POINT_CUTOFF:
        if n == 0:
            return math.exp(-mu)
        if n > _PMF_ZERO_ABOVE:
            return 0.0
        x = float(n)
        return math.exp(-_stirlerr(x) - _bd0(x, mu)) / math.sqrt(2.0 * math.pi * x)
    return math.exp(-mu) * mu**n / math.factorial(n)


def transmittance(length_km, loss_db_per_km):
    """Power transmittance ``10^(-loss_db_per_km * L / 10)`` of a fiber span.

    ``length_km`` may be a float or a numpy array of lengths.  Nothing is
    validated here; :class:`ChannelParams` checks the inputs.
    """
    return 10.0 ** (-loss_db_per_km * length_km / 10.0)


def channel_transmittance(channel: ChannelParams) -> float:
    """Power transmittance of a fiber span, ``10^(-loss_db_per_km * L / 10)``."""
    return transmittance(channel.length_km, channel.loss_db_per_km)


def total_efficiency(channel: ChannelParams, det: DetectorParams) -> float:
    """Probability that a photon entering the fiber clicks the detector.

    The fiber transmittance times the detection efficiency ``det.eta_d``.
    """
    return channel_transmittance(channel) * det.eta_d


def brp_empty_prob(mu_b: float, eta_total: float) -> float:
    """Probability that a bright reference pulse produces no click.

    This is the Poisson vacancy rate ``exp(-eta_total * mu_b)`` of a
    coherent pulse of intensity ``mu_b`` seen through total efficiency
    ``eta_total``: the window in which an eavesdropper can suppress a
    cycle without leaving a missing-pulse signature.
    """
    mu_b = _check_nonnegative("mu_b", mu_b)
    eta_total = _check_probability("eta_total", eta_total)
    return math.exp(-eta_total * mu_b)
