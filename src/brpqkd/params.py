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
from dataclasses import dataclass, fields, make_dataclass
from typing import Callable, Sequence

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


def _check_finite_probability(name: str, value: float) -> float:
    # the finiteness message first, so NaN and inf are named as not finite
    return _check_probability(name, _check_finite(name, value))


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


def _check_fields(record, rule: Callable[[str, object], object], names: Sequence[str]) -> None:
    # runs each named field of a frozen record through rule(name, value), in
    # order, and stores the result only where the rule returned another object:
    # float() returns an exact float as itself, so a float input is not stored twice
    for name in names:
        value = getattr(record, name)
        checked = rule(name, value)
        if checked is not value:
            object.__setattr__(record, name, checked)


def _unfrozen_twin(cls: type) -> type:
    """A non-frozen dataclass with the fields and instance layout of frozen ``cls``.

    A frozen dataclass's ``__init__`` stores every field through
    ``object.__setattr__``, which costs several times what the twin's
    plain stores do.  The benchmarked record builders construct the twin
    from every field value in order and then assign ``cls`` to the
    instance's ``__class__``, which CPython allows between two classes of
    the same layout (the same slots, or both with a ``__dict__``).  The
    result is a ``cls`` instance in every respect: type, equality, hash,
    repr, frozenness, pickling and ``dataclasses.replace``.  It is not
    the same in memory where ``cls`` has no slots: CPython 3.11 to 3.13
    give the instance a dict object of its own when ``__class__`` is
    assigned, where the frozen constructor keeps the values inline.  A
    retained 14-field ``SecurityReport`` then holds about 270 bytes
    instead of 200 on 3.11 and 3.12, and about 410 on 3.13.
    """
    return make_dataclass(
        f"_Unfrozen{cls.__name__}",
        [(f.name, f.type) for f in fields(cls)],
        repr=False,
        eq=False,
        slots="__slots__" in cls.__dict__,
    )


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
        _check_fields(self, _check_nonnegative, ("mu_s", "mu_b"))


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
        _check_fields(self, _check_nonnegative, ("length_km", "loss_db_per_km"))


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
        _check_fields(self, _check_finite_probability, ("eta_d", "y0", "e_detector", "e_0"))


# Detector block of the 122 km fiber benchmark experiment.
GYS_DETECTOR = DetectorParams(eta_d=0.045, y0=1.7e-6, e_detector=0.033)

# Noiseless unit-efficiency receiver for limit curves.
IDEAL_DETECTOR = DetectorParams(eta_d=1.0, y0=0.0, e_detector=0.0)
