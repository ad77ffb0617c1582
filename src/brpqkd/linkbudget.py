"""Mean-intensity bookkeeping for the two-interferometer optical chain.

The transmitter splits each laser pulse into a long and a short arm and
the receiver splits again, so every pulse leaves in three intensity
classes: bright reference (both long arms, unattenuated), signal (one
short arm, one fixed attenuator) and a doubly attenuated dim pulse that
rides along as background.  :func:`propagate` tracks all three down the
fiber; the two helpers bound detector-side nuisances of running a bright
pulse next to a single-photon detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import ChannelParams, _check_fields, _check_nonnegative, _check_probability, _float
from .photon_stats import channel_transmittance

__all__ = [
    "OpticalChain",
    "LinkBudgetReport",
    "propagate",
    "afterpulse_error",
    "crosstalk_false_click",
]


def _db_to_fraction(db: float) -> float:
    return 10.0 ** (-db / 10.0)


@dataclass(frozen=True)
class OpticalChain:
    """Optical elements between the laser and the detectors.

    Split ratios are (long, short) power fractions and must sum to one.
    Attenuations are in dB; ``switch_crosstalk_db`` is the isolation of
    the detector-side switch that routes bright pulses away from the
    signal detector.
    """

    source_intensity: float
    channel: ChannelParams
    alice_split_ratio: tuple[float, float] = (0.5, 0.5)
    bob_split_ratio: tuple[float, float] = (0.5, 0.5)
    alice_attenuation_db: float = 56.0
    bob_attenuation_db: float = 56.0
    switch_crosstalk_db: float = 20.0

    def __post_init__(self) -> None:
        _check_fields(self, _check_nonnegative, ("source_intensity",))
        for name in ("alice_split_ratio", "bob_split_ratio"):
            ratio = tuple(map(_float, getattr(self, name)))
            # NaN fails the comparison, so it is rejected too
            if len(ratio) != 2 or not all(x >= 0.0 for x in ratio):
                raise ValueError(f"{name} must be two nonnegative fractions, got {ratio}")
            if abs(ratio[0] + ratio[1] - 1.0) > 1e-9:
                raise ValueError(f"{name} must sum to 1, got {ratio}")
            object.__setattr__(self, name, ratio)
        _check_fields(
            self, _check_nonnegative,
            ("alice_attenuation_db", "bob_attenuation_db", "switch_crosstalk_db"),
        )


@dataclass(frozen=True)
class LinkBudgetReport:
    """Mean photon numbers of each pulse class at the fiber ends.

    "At Alice" means entering the fiber; "at Bob" is after fiber loss.
    ``switch_leak_at_signal_detector`` is the bright-pulse intensity
    bleeding through the switch toward the signal detector.
    """

    brp_at_alice: float
    signal_at_alice: float
    brp_at_bob: float
    signal_at_bob: float
    dim_at_bob: float
    switch_leak_at_signal_detector: float


def propagate(chain: OpticalChain) -> LinkBudgetReport:
    """Track the three pulse classes through splitters, attenuators and fiber.

    Bright reference: both long arms, no attenuator.  Signal: the
    transmitter's short (attenuated) arm recombined with the receiver's
    long arm.  Dim: both short arms, both attenuators.  Every output
    scales linearly with ``source_intensity``.
    """
    alice_long, alice_short = chain.alice_split_ratio
    bob_long, bob_short = chain.bob_split_ratio
    atten_alice = _db_to_fraction(chain.alice_attenuation_db)
    atten_bob = _db_to_fraction(chain.bob_attenuation_db)
    eta_t = channel_transmittance(chain.channel)

    brp_at_alice = chain.source_intensity * alice_long * bob_long
    signal_at_alice = chain.source_intensity * alice_short * atten_alice * bob_long
    dim_at_alice = chain.source_intensity * alice_short * atten_alice * bob_short * atten_bob

    brp_at_bob = brp_at_alice * eta_t
    return LinkBudgetReport(
        brp_at_alice=brp_at_alice,
        signal_at_alice=signal_at_alice,
        brp_at_bob=brp_at_bob,
        signal_at_bob=signal_at_alice * eta_t,
        dim_at_bob=dim_at_alice * eta_t,
        switch_leak_at_signal_detector=brp_at_bob
        * _db_to_fraction(chain.switch_crosstalk_db),
    )


def afterpulse_error(p_afterpulse: float) -> float:
    """Error rate contributed by detector afterpulses triggered by bright pulses.

    An afterpulse is uncorrelated with the encoded bit, so it errs half
    the time: the contribution is ``p_afterpulse / 2``.
    """
    return 0.5 * _check_probability("afterpulse probability", p_afterpulse)


def crosstalk_false_click(leak_intensity: float, eta_d: float) -> float:
    """Probability that switch leakage fires the signal detector, ``1 - exp(-eta_d * leak)``."""
    leak_intensity = _check_nonnegative("leak_intensity", leak_intensity)
    eta_d = _check_probability("eta_d", eta_d)
    return -math.expm1(-eta_d * leak_intensity)
