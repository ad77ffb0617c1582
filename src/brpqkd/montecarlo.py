"""Pulse-level Monte Carlo validation of the analytic click and error model.

Each simulated cycle draws a Poisson photon number, thins it through
channel and detector, adds dark counts, classifies the click as right or
wrong, and checks whether the accompanying bright reference pulse was
seen.  Under ``EvePolicy(mode="pns")`` the cycle is first filtered by a
photon-number-splitting eavesdropper who may block single-photon pulses
and forward one photon of every multi-photon pulse without loss.

Reproducibility contract
------------------------
Work is split into fixed blocks of :data:`BLOCK_SIZE` pulses.  Block
``k`` of a run seeded with ``seed`` always consumes the generator
``derive_stream(seed, k)`` and always draws the same variate arrays in
the same order: photon counts, blocking coins, survival thinning, dark
uniforms, error uniforms, reference-pulse uniforms.  The blocking coin
is drawn even when no eavesdropper is configured, so a null attack
(``mode="pns"``, ``suppress_fraction=0``, no forwarding) replays the
exact baseline stream.  Per-block tallies are integers combined by
summation in block order, which makes results independent of how many
worker threads ran the blocks.  Photon counts come from numpy's
``Generator.poisson`` (sequential-search inversion below mean 10,
transformed rejection above); the numpy version floor in pyproject.toml
pins that algorithm per release.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .params import ChannelParams, DetectorParams, SourceParams
from .photon_stats import brp_empty_prob, channel_transmittance, poisson_pmf
from .security import UndefinedPointError, bob_error_rate, yields

__all__ = [
    "BLOCK_SIZE",
    "EvePolicy",
    "McConfig",
    "McCounts",
    "McResult",
    "McComparison",
    "derive_stream",
    "simulate",
    "simulate_attack",
    "compare_with_model",
]

BLOCK_SIZE = 65536

_EVE_MODES = ("none", "pns")


@dataclass(frozen=True)
class EvePolicy:
    """What the eavesdropper does to each pulse.

    ``suppress_fraction`` is the probability that a single-photon pulse
    is blocked outright; ``forward_multiphoton_lossless`` replaces the
    lossy channel by a perfect one for the photon Eve forwards out of
    every multi-photon pulse (the canonical splitting attack).
    Meaningful only when ``mode="pns"``.
    """

    mode: str = "none"
    suppress_fraction: float = 0.0
    forward_multiphoton_lossless: bool = False

    def __post_init__(self) -> None:
        if self.mode not in _EVE_MODES:
            raise ValueError(f"eve mode must be one of {_EVE_MODES}, got {self.mode!r}")
        if not 0.0 <= float(self.suppress_fraction) <= 1.0:
            raise ValueError(
                f"suppress_fraction must lie in [0, 1], got {self.suppress_fraction}"
            )
        object.__setattr__(self, "suppress_fraction", float(self.suppress_fraction))


@dataclass(frozen=True)
class McConfig:
    """One simulation run: physics parameters, eavesdropper policy and seed."""

    n_pulses: int
    source: SourceParams
    channel: ChannelParams
    det: DetectorParams
    seed: int
    eve: EvePolicy = EvePolicy()

    def __post_init__(self) -> None:
        if int(self.n_pulses) < 1:
            raise ValueError(f"n_pulses must be >= 1, got {self.n_pulses}")
        object.__setattr__(self, "n_pulses", int(self.n_pulses))
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        object.__setattr__(self, "seed", seed)


class McCounts(NamedTuple):
    """Integer tallies over all simulated pulses."""

    pulses: int
    single_emissions: int
    photon_clicks: int
    single_emission_clicks: int
    clicks: int
    error_clicks: int
    brp_misses: int
    blocked_cycles: int
    blocked_brp_clicks: int
    blocked_brp_misses: int
    interference_errors: int


def _merge_counts(parts: list[McCounts]) -> McCounts:
    return McCounts(*(sum(values) for values in zip(*parts)))


@dataclass(frozen=True)
class McResult:
    """Estimates with plug-in binomial standard errors, plus the raw tallies.

    ``est_g_b0`` and ``brp_missing_rate`` are the same observable (the
    bright-pulse vacancy rate); the former carries a standard error for
    model comparison.  ``interference_error_rate`` is the error rate of
    clicks caused by the bright pulse alone in blocked cycles, 0.0 when
    no such cycle occurred.
    """

    est_y_exp: float
    se_y_exp: float
    est_y_1: float
    se_y_1: float
    est_d_bob: float
    se_d_bob: float
    est_g_b0: float
    se_g_b0: float
    brp_missing_rate: float
    interference_error_rate: float
    counts: McCounts


def derive_stream(seed: int, block_index: int) -> np.random.Generator:
    """Deterministic per-block generator: PCG64 seeded by (seed, block_index).

    The block index enters as a spawn key, so streams for different
    blocks are independent and a given (seed, block) pair yields the
    same stream in every process, thread and run.
    """
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    block_index = int(block_index)
    if block_index < 0:
        raise ValueError(f"block index must be >= 0, got {block_index}")
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.PCG64(sequence))


def _block_counts(config: McConfig, block_index: int, size: int) -> McCounts:
    rng = derive_stream(config.seed, block_index)
    det = config.det
    eta_total = channel_transmittance(config.channel) * det.eta_d
    pns = config.eve.mode == "pns"
    suppress = config.eve.suppress_fraction if pns else 0.0
    forward = pns and config.eve.forward_multiphoton_lossless

    # fixed draw order; see module docstring
    n_emitted = rng.poisson(config.source.mu_s, size)
    blocked = (n_emitted == 1) & (rng.random(size) < suppress)
    if forward:
        multi = n_emitted >= 2
        n_eff = np.where(blocked, 0, np.where(multi, n_emitted - 1, n_emitted))
        p_eff = np.where(multi, det.eta_d, eta_total)
        survivors = rng.binomial(n_eff, p_eff)
    else:
        survivors = rng.binomial(np.where(blocked, 0, n_emitted), eta_total)
    dark_u = rng.random(size)
    err_u = rng.random(size)
    brp_u = rng.random(size)

    p_brp_click = -math.expm1(-eta_total * config.source.mu_b)
    photon_click = survivors >= 1
    brp_click = brp_u < p_brp_click
    # a blocked cycle whose bright pulse still clicks registers anyway:
    # the empty signal arm interferes with the reference and errs half
    # the time
    interference_click = blocked & brp_click
    click = photon_click | (dark_u < det.y0) | interference_click
    err_threshold = np.where(
        photon_click, det.e_detector, np.where(interference_click, 0.5, det.e_0)
    )
    error_click = click & (err_u < err_threshold)
    single = n_emitted == 1

    return McCounts(
        pulses=size,
        single_emissions=int(single.sum()),
        photon_clicks=int(photon_click.sum()),
        single_emission_clicks=int((single & photon_click).sum()),
        clicks=int(click.sum()),
        error_clicks=int(error_click.sum()),
        brp_misses=int((~brp_click).sum()),
        blocked_cycles=int(blocked.sum()),
        blocked_brp_clicks=int(interference_click.sum()),
        blocked_brp_misses=int((blocked & ~brp_click).sum()),
        interference_errors=int((error_click & interference_click).sum()),
    )


def _binomial_se(p: float, n: int) -> float:
    if n <= 0:
        return 0.0
    return math.sqrt(p * (1.0 - p) / n)


def _result_from_counts(config: McConfig, total: McCounts) -> McResult:
    n = total.pulses
    est_y_exp = total.photon_clicks / n
    est_g_b0 = total.brp_misses / n

    if total.single_emissions > 0:
        p_1 = poisson_pmf(1, config.source.mu_s)
        click_given_single = total.single_emission_clicks / total.single_emissions
        est_y_1 = p_1 * click_given_single
        se_y_1 = p_1 * _binomial_se(click_given_single, total.single_emissions)
    else:
        est_y_1, se_y_1 = 0.0, 0.0

    if total.clicks > 0:
        est_d_bob = total.error_clicks / total.clicks
        se_d_bob = _binomial_se(est_d_bob, total.clicks)
    else:
        est_d_bob, se_d_bob = 0.0, 0.0

    if total.blocked_brp_clicks > 0:
        interference_error_rate = total.interference_errors / total.blocked_brp_clicks
    else:
        interference_error_rate = 0.0

    return McResult(
        est_y_exp=est_y_exp,
        se_y_exp=_binomial_se(est_y_exp, n),
        est_y_1=est_y_1,
        se_y_1=se_y_1,
        est_d_bob=est_d_bob,
        se_d_bob=se_d_bob,
        est_g_b0=est_g_b0,
        se_g_b0=_binomial_se(est_g_b0, n),
        brp_missing_rate=est_g_b0,
        interference_error_rate=interference_error_rate,
        counts=total,
    )


def _run(config: McConfig, threads: int) -> McResult:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    blocks = [
        (index, min(BLOCK_SIZE, config.n_pulses - index * BLOCK_SIZE))
        for index in range((config.n_pulses + BLOCK_SIZE - 1) // BLOCK_SIZE)
    ]
    if threads == 1:
        parts = [_block_counts(config, index, size) for index, size in blocks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(lambda job: _block_counts(config, job[0], job[1]), blocks)
            )
    return _result_from_counts(config, _merge_counts(parts))


def simulate(config: McConfig, *, threads: int = 1) -> McResult:
    """Run the baseline (no eavesdropper) simulation."""
    if config.eve.mode != "none":
        raise ValueError(f"simulate requires eve.mode='none', got {config.eve.mode!r}")
    return _run(config, threads)


def simulate_attack(config: McConfig, *, threads: int = 1) -> McResult:
    """Run the simulation with the photon-number-splitting policy applied."""
    if config.eve.mode != "pns":
        raise ValueError(f"simulate_attack requires eve.mode='pns', got {config.eve.mode!r}")
    return _run(config, threads)


class McComparison(NamedTuple):
    """One estimate lined up against its analytic target.

    ``se`` is the binomial standard error at the *target* rate, so a
    z-score is defined even when the estimate sits on 0 or 1; ``z`` is
    0.0 where no relevant samples exist.  Where fewer than one event is
    expected (``n * rate < 1`` for a count of ``n`` trials at the target
    rate) and more are observed, a normal z would overstate the
    surprise, so ``z`` is the normal quantile of the exact Poisson tail
    instead: ``z = -NormalDist().inv_cdf(P(X >= k))`` with
    ``X ~ Poisson(n * rate)`` and ``k`` the observed count.  A tail too
    small for a float keeps the normal z.
    """

    name: str
    estimate: float
    target: float
    se: float
    z: float


def _poisson_tail(k: int, lam: float) -> float:
    # P(X >= k) for X ~ Poisson(lam < 1), summed upward: no cancellation
    term = poisson_pmf(k, lam)
    tail = 0.0
    while tail + term != tail:
        tail += term
        k += 1
        term *= lam / k
    return tail


def _z(estimate: float, target: float, se: float, count: int, expected: float) -> float:
    if expected < 1.0 and count > expected:
        tail = _poisson_tail(count, expected)
        if tail > 0.0:
            return -NormalDist().inv_cdf(tail)
    if se <= 0.0:
        return 0.0
    return (estimate - target) / se


def compare_with_model(config: McConfig, result: McResult) -> list[McComparison]:
    """Line simulation estimates up against the analytic model.

    Baseline runs compare the photon yield, single-photon yield, error
    rate and bright-pulse vacancy rate.  Attack runs compare only the
    vacancy rate and the blocked-cycle interference error (yield and
    error targets do not apply under an active eavesdropper).
    """
    counts = result.counts
    eta_total = channel_transmittance(config.channel) * config.det.eta_d
    g_b0 = brp_empty_prob(config.source.mu_b, eta_total)

    def row(name: str, estimate: float, target: float, count: int, trials: int,
            rate: float, scale: float = 1.0) -> McComparison:
        # estimate = scale * count / trials with count ~ Binomial(trials, rate)
        se = scale * _binomial_se(rate, trials)
        z = _z(estimate, target, se, count, trials * rate)
        return McComparison(name, estimate, target, se, z)

    rows = []
    if config.eve.mode == "none":
        pair = yields(config.source, eta_total)
        rows.append(row("y_exp", result.est_y_exp, pair.y_exp,
                        counts.photon_clicks, counts.pulses, pair.y_exp))
        if config.source.mu_s > 0.0:
            p_1 = poisson_pmf(1, config.source.mu_s)
            click_given_single = pair.y_1 / p_1
        else:
            p_1, click_given_single = 0.0, 0.0
        rows.append(row("y_1", result.est_y_1, pair.y_1, counts.single_emission_clicks,
                        counts.single_emissions, click_given_single, p_1))
        try:
            d_target = bob_error_rate(config.source, config.channel, config.det)
        except UndefinedPointError:
            d_target = None  # no expected clicks, nothing to compare
        if d_target is not None:
            rows.append(row("d_bob", result.est_d_bob, d_target,
                            counts.error_clicks, counts.clicks, d_target))
    rows.append(row("g_b0", result.est_g_b0, g_b0, counts.brp_misses, counts.pulses, g_b0))
    if config.eve.mode != "none":
        rows.append(row("interference_error_rate", result.interference_error_rate, 0.5,
                        counts.interference_errors, counts.blocked_brp_clicks, 0.5))
    return rows
