"""Parameter containers shared by every analysis stage.

The three dataclasses mirror the knobs of a weak-pulse QKD link guarded
by bright reference pulses: the transmitter (:class:`SourceParams`), the
fiber (:class:`ChannelParams`) and the receiver (:class:`DetectorParams`).
They are frozen so a parameter set can be hashed, cached and shared
between worker threads without defensive copying.

``GYS_DETECTOR`` bundles the detector figures of the long-haul fiber
experiment commonly used to benchmark weak-pulse security analyses;
``IDEAL_DETECTOR`` is the noiseless unit-efficiency receiver used for
limit curves.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "SourceParams",
    "ChannelParams",
    "DetectorParams",
    "GYS_DETECTOR",
    "IDEAL_DETECTOR",
    "DEFAULT_LOSS_DB_PER_KM",
]

DEFAULT_LOSS_DB_PER_KM = 0.21


def _float(value: float) -> float:
    try:
        return float(value)
    except OverflowError:
        # an int beyond the float range stands for the infinity of its sign
        return math.inf if value > 0 else -math.inf


def _check_finite(name: str, value: float) -> float:
    value = _float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_nonnegative(name: str, value: float) -> float:
    # valid values return first: the classes check each field of every point
    value = _float(value)
    if 0.0 <= value < math.inf:
        return value
    _check_finite(name, value)
    raise ValueError(f"{name} must be >= 0, got {value}")


def _check_positive(name: str, value: float) -> float:
    # NaN fails the comparison; +inf passes, because the model clamps it
    value = _float(value)
    if not value > 0.0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def _check_probability(name: str, value: float) -> float:
    # NaN fails the comparison, so it is rejected too
    value = _float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def _check_grid(name: str, values: Sequence[float]) -> tuple[float, ...]:
    # the values as floats, nonempty and strictly increasing
    values = tuple(map(_float, values))
    if not values:
        raise ValueError(f"{name} must be nonempty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    return values


def _check_integer(name: str, value: int, low: int, high: float = math.inf) -> int:
    # an int in [low, high); an integral float such as 1e6 counts as one
    try:
        number = operator.index(value)
    except TypeError:
        number = _float(value)
        if not number.is_integer():
            raise ValueError(f"{name} must be an integer, got {number}") from None
        number = int(number)
    if number < low:
        raise ValueError(f"{name} must be >= {low}, got {number}")
    if number >= high:
        raise ValueError(f"{name} must be < {high}, got {number}")
    return number


@dataclass(frozen=True)
class SourceParams:
    """Mean photon numbers of the two pulse classes leaving the transmitter.

    Attributes
    ----------
    mu_s:
        Mean photon number of a signal pulse.  Zero is allowed so that a
        dark-source simulation can be expressed; analytic operations that
        divide by the single-photon weight reject it at the call site.
    mu_b:
        Mean photon number of the bright reference pulse that rides along
        with each signal.  Defaults to zero (no reference pulse).
    """

    mu_s: float
    mu_b: float = 0.0

    def __post_init__(self) -> None:
        for name in ("mu_s", "mu_b"):
            object.__setattr__(self, name, _check_nonnegative(name, getattr(self, name)))


@dataclass(frozen=True)
class ChannelParams:
    """Fiber span between transmitter and receiver.

    Attributes
    ----------
    length_km:
        Span length in kilometres.
    loss_db_per_km:
        Attenuation coefficient.  The default 0.21 dB/km is typical of
        standard telecom fiber at 1550 nm.
    """

    length_km: float
    loss_db_per_km: float = DEFAULT_LOSS_DB_PER_KM

    def __post_init__(self) -> None:
        for name in ("length_km", "loss_db_per_km"):
            object.__setattr__(self, name, _check_nonnegative(name, getattr(self, name)))


@dataclass(frozen=True)
class DetectorParams:
    """Receiver imperfections.

    Attributes
    ----------
    eta_d:
        Detection efficiency of the signal detector.
    y0:
        Dark-click probability per gate.
    e_detector:
        Intrinsic misalignment error: probability that a photon-caused
        click lands in the wrong detector.
    e_0:
        Error probability of a click with no signal correlation (a dark
        click).  Such a click lands in either detector at random, so it
        errs half the time: 1/2 by default.
    """

    eta_d: float
    y0: float = 0.0
    e_detector: float = 0.0
    e_0: float = 0.5

    def __post_init__(self) -> None:
        for name in ("eta_d", "y0", "e_detector", "e_0"):
            value = _check_probability(name, _check_finite(name, getattr(self, name)))
            object.__setattr__(self, name, value)


# Detector block of the 122 km fiber benchmark experiment.
GYS_DETECTOR = DetectorParams(eta_d=0.045, y0=1.7e-6, e_detector=0.033)

# Noiseless unit-efficiency receiver for limit curves.
IDEAL_DETECTOR = DetectorParams(eta_d=1.0, y0=0.0, e_detector=0.0)
