"""Monte Carlo cross-check of the analytic model, then a staged attack.

The first run plays honest pulses through the simulated link and compares
the estimated yields, error rate and bright-pulse vacancy against their
closed forms. The second run lets an eavesdropper block every
single-photon cycle: the bright reference pulse then arrives at an empty
interferometer arm, clicks at random, and flips half the affected bits.
"""

import dataclasses
import math

from brpqkd import (
    ChannelParams,
    DetectorParams,
    EvePolicy,
    GYS_DETECTOR,
    McConfig,
    SourceParams,
    compare_with_model,
    simulate,
    simulate_attack,
)

baseline = McConfig(
    n_pulses=2_000_000,
    source=SourceParams(mu_s=0.5, mu_b=2e5),
    channel=ChannelParams(length_km=100.0),
    det=GYS_DETECTOR,
    seed=20240818,
)

result = simulate(baseline)
print(f"honest link, {baseline.n_pulses:,} pulses at {baseline.channel.length_km:.0f} km")
print(f"{'quantity':>10}  {'estimate':>12}  {'target':>12}  {'z':>6}")
for row in compare_with_model(baseline, result):
    print(f"{row.quantity:>10}  {row.estimate:12.4e}  {row.target:12.4e}  {row.z:+6.2f}")

attack = dataclasses.replace(
    baseline,
    source=SourceParams(mu_s=0.5, mu_b=2000.0),
    channel=ChannelParams(length_km=0.0),
    det=DetectorParams(eta_d=1.0, y0=0.0, e_detector=0.0),
    eve=EvePolicy(mode="pns", suppress_fraction=1.0, forward_multiphoton_lossless=True),
)
attacked = simulate_attack(attack)
counts = attacked.counts
se = math.sqrt(0.25 / counts.blocked_brp_clicks)
print(f"\nfull suppression attack, short lossless link, mu_b = {attack.source.mu_b}")
print(f"  blocked cycles:            {counts.blocked_cycles:,}")
print(f"  bright-pulse clicks there: {counts.blocked_brp_clicks:,}")
print(f"  bright-pulse misses there: {counts.blocked_brp_misses:,}")
print(f"  interference error rate:   {attacked.interference_error_rate:.4f} (expect 0.5 +- {4 * se:.4f})")
print("\nthe attack is loud: every blocked cycle still lights up the monitor,")
print("and half of those forced clicks land on the wrong detector.")
