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
exact baseline stream.  Per-block tallies are integers, so their sum,
and with it every result, is independent of how many worker threads
ran the blocks and in which order they finished.

Photon counts come from numpy's ``Generator.poisson``.  The thinning
stage consumes exactly the stream ``Generator.binomial(n_eff, p_eff)``
would, but only ``survivors >= 1`` is ever observed, so it is decided
from the same doubles.  numpy's binomial draws nothing where ``n_eff``
or ``p_eff`` is 0 and, in its inversion domain, one uniform per pulse
unless the inversion walk restarts.  The simulator draws one uniform per
live pulse with ``Generator.random`` and compares it with thresholds,
computed once per photon number and probability, that replay numpy's
inversion arithmetic exactly (see :func:`_click_rule`).  It hands the
block's thinning back to ``Generator.binomial``, from the same generator
state, where numpy would not invert (``min(p, 1 - p) * n > 30`` for some
pulse, its BTPE domain) or where a drawn uniform reaches the lowest
restart threshold among the block's photon numbers.  The numpy version
floor in pyproject.toml pins neither sampler.  ``tests/test_montecarlo.py``
checks the thinning against ``Generator.binomial`` on both sides of
every threshold and the block counts against plain ``rng.binomial``
thinning; a change to numpy's Poisson sampler would show in the golden
``mc-validate`` outputs that ``tests/test_golden.py`` replays.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .params import (ChannelParams, DetectorParams, SourceParams, _check_fields, _check_integer,
                     _check_probability)
from .photon_stats import brp_empty_prob, poisson_pmf, total_efficiency
from .security import UndefinedPointError, evaluate_point

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

    ``forward_multiphoton_lossless`` defaults to ``False`` here, so that
    ``EvePolicy(mode="pns")`` with nothing suppressed is a null attack
    that replays the honest stream.  The CLI's ``ExperimentConfig``
    defaults it to ``True``, the canonical attack, on purpose.
    """

    mode: str = "none"
    suppress_fraction: float = 0.0
    forward_multiphoton_lossless: bool = False

    def __post_init__(self) -> None:
        if self.mode not in _EVE_MODES:
            raise ValueError(f"eve mode must be one of {_EVE_MODES}, got {self.mode!r}")
        _check_fields(self, _check_probability, ("suppress_fraction",))
        # a truthy string such as "no" must not switch lossless forwarding on
        forward = self.forward_multiphoton_lossless
        if not isinstance(forward, (bool, np.bool_)):
            raise ValueError(f"forward_multiphoton_lossless must be a bool, got {forward!r}")
        object.__setattr__(self, "forward_multiphoton_lossless", bool(forward))


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
        object.__setattr__(self, "n_pulses", _check_integer("n_pulses", self.n_pulses, 1))
        object.__setattr__(self, "seed", _check_integer("seed", self.seed, 0, 2**64))


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


@dataclass(frozen=True)
class McResult:
    """Estimates of the model's rates, plus the raw tallies.

    Standard errors are taken at the model's rate, not at the estimate:
    see :class:`McComparison`.

    ``est_g_b0`` is the bright-pulse vacancy rate (the share of reference
    pulses that went unseen).  ``interference_error_rate`` is the error rate of
    clicks caused by the bright pulse alone in blocked cycles, 0.0 when
    no such cycle occurred.
    """

    est_y_exp: float
    est_y_1: float
    est_d_bob: float
    est_g_b0: float
    interference_error_rate: float
    counts: McCounts


def derive_stream(seed: int, block_index: int) -> np.random.Generator:
    """Deterministic per-block generator: PCG64 seeded by (seed, block_index).

    The block index enters as a spawn key, so streams for different
    blocks are independent and a given (seed, block) pair yields the
    same stream in every process, thread and run.
    """
    seed = _check_integer("seed", seed, 0, 2**64)
    block_index = _check_integer("block index", block_index, 0)
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.PCG64(sequence))


# Generator.random returns k * 2**-53 for k in [0, 2**53); the click rules
# below are thresholds on that grid.
_U_STEP = 2.0**-53
_U_COUNT = 1 << 53


def _inverts(n: int, p: float) -> bool:
    """Whether numpy's ``random_binomial`` samples B(n, p) by inversion (not BTPE)."""
    if p <= 0.5:
        return p * n <= 30.0
    return (1.0 - p) * n <= 30.0


def _inversion_bound(n: int, p: float) -> int:
    # the largest X numpy's inversion walks to before it restarts
    np_ = n * p
    return int(min(n, np_ + 10.0 * math.sqrt(np_ * (1.0 - p) + 1)))


def _inversion_p0(n: int, p: float) -> float:
    # numpy's P(X = 0), the first step of its inversion walk
    return math.exp(n * math.log1p(-p))


def _inversion_x(n: int, p: float, u: float) -> int:
    """The X numpy's binomial inversion returns for the uniform ``u``.

    A walk that would pass numpy's bound (where numpy restarts with a
    fresh uniform) returns the bound plus one.  The float operations are
    those of ``random_binomial_inversion`` in numpy's ``distributions.c``,
    in the same order, so the walk lands where numpy's does.
    """
    q = 1.0 - p
    bound = _inversion_bound(n, p)
    px = _inversion_p0(n, p)
    x = 0
    while u > px:
        x += 1
        if x > bound:
            break
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


def _first_u_above(n: int, p: float, j: int) -> float:
    """Smallest uniform ``Generator.random`` can return with inversion X > ``j``.

    X only grows with the uniform (every step subtracts a fixed value and
    compares with a fixed value), so bisection over the 2**53-point grid
    finds the threshold exactly.  1.0 means no uniform reaches it.
    """
    below, above = -1, _U_COUNT - 1
    if _inversion_x(n, p, above * _U_STEP) <= j:
        return 1.0
    while above - below > 1:
        mid = (below + above) // 2
        if _inversion_x(n, p, mid * _U_STEP) > j:
            above = mid
        else:
            below = mid
    return above * _U_STEP


@functools.lru_cache(maxsize=4096)
def _click_rule(n: int, p: float) -> tuple[float, float, float]:
    """``(lo, hi, restart)`` for numpy's inversion draw of B(n, p), n >= 1, p > 0.

    With U the one uniform numpy's inversion draws, the draw has at least
    one success iff ``lo < U < hi``, and numpy restarts (consuming more
    uniforms) iff ``U >= restart``.  For p > 1/2 numpy inverts for the
    failures, X ~ B(n, 1 - p), and returns ``n - X``.
    """
    if p <= 0.5:
        restart = _first_u_above(n, p, _inversion_bound(n, p))
        return _inversion_p0(n, p), 2.0, restart
    q = 1.0 - p
    bound = _inversion_bound(n, q)
    restart = _first_u_above(n, q, bound)
    hi = restart if n - 1 >= bound else _first_u_above(n, q, n - 1)
    return -1.0, hi, restart


def _photon_clicks(rng, n_emitted, blocked, eta_total, eta_forward, scratch):
    """``binomial(n_eff, p_eff) >= 1`` per pulse, drawing what numpy would.

    A pulse with ``k`` emitted photons is thinned as B(k, eta_total), or
    as B(k - 1, eta_forward) when ``eta_forward`` is set and k >= 2 (the
    forwarded photon meets only the detector); blocked pulses keep no
    photon.  That rule is one table per block, ``n_of[k], p_of[k]``.
    numpy's binomial draws nothing where n or p is 0 and one uniform per
    inversion otherwise, so this draws one uniform per live pulse, in
    block order, and decides each click by :func:`_click_rule`.  It falls
    back to ``rng.binomial`` itself, from the same generator state, where
    numpy would not invert (``min(p, 1 - p) * n > 30``) or a drawn
    uniform reaches the lowest restart threshold of the block's photon
    numbers.  ``scratch`` is a float buffer of at least one slot per
    pulse that the uniforms are drawn into.
    """
    k_top = int(n_emitted.max())
    n_of, p_of = list(range(k_top + 1)), [eta_total] * (k_top + 1)
    if eta_forward is not None:
        n_of[2:], p_of[2:] = range(1, k_top), [eta_forward] * (k_top - 1)

    def numpy_clicks():
        n_eff = np.take(n_of, n_emitted)
        if blocked is not None:
            n_eff[blocked] = 0
        return rng.binomial(n_eff, np.take(p_of, n_emitted)) >= 1

    # p * n grows with k at fixed p, and k = 1 always inverts, so the
    # largest photon number decides whether numpy leaves inversion
    if not _inverts(n_of[k_top], p_of[k_top]):
        return numpy_clicks()
    drawn = np.zeros(k_top + 1, dtype=bool)
    lo = np.full(k_top + 1, -1.0)
    hi = np.full(k_top + 1, 2.0)
    restart = 1.0
    for k in range(1, k_top + 1):
        if p_of[k] > 0.0:
            drawn[k] = True
            lo[k], hi[k], r = _click_rule(n_of[k], p_of[k])
            restart = min(restart, r)
    live = drawn.take(n_emitted)
    if blocked is not None:
        live &= ~blocked
    index = np.flatnonzero(live)
    state = rng.bit_generator.state
    u = rng.random(out=scratch[: index.size])
    if restart < 1.0 and index.size and u.max() >= restart:
        rng.bit_generator.state = state
        return numpy_clicks()
    k = n_emitted.take(index)
    click = u > lo.take(k)
    if hi.min() < 1.0:
        click &= u < hi.take(k)
    clicks = np.zeros(n_emitted.size, dtype=bool)
    clicks[index] = click
    return clicks


def _block_counts(config: McConfig, block_index: int, size: int) -> McCounts:
    rng = derive_stream(config.seed, block_index)
    det = config.det
    eta_total = total_efficiency(config.channel, det)
    pns = config.eve.mode == "pns"
    suppress = config.eve.suppress_fraction if pns else 0.0
    forward = pns and config.eve.forward_multiphoton_lossless

    # fixed draw order; see module docstring.  Every uniform array is
    # drawn into the one block-sized buffer ``u``.
    n_emitted = rng.poisson(config.source.mu_s, size)
    single = n_emitted == 1
    u = rng.random(size)
    blocked = single & (u < suppress) if suppress > 0.0 else None
    photon_click = _photon_clicks(
        rng, n_emitted, blocked, eta_total, det.eta_d if forward else None, u
    )
    dark = rng.random(out=u) < det.y0
    rng.random(out=u)
    photon_error = photon_click & (u < det.e_detector)
    dark_error = u < det.e_0
    half_error = u < 0.5 if blocked is not None else None
    brp_click = rng.random(out=u) < -math.expm1(-eta_total * config.source.mu_b)

    photon_clicks = np.count_nonzero(photon_click)
    # a click without a photon is a dark count or, in a blocked cycle
    # whose bright pulse still clicks, interference of the empty signal
    # arm with the reference, which errs half the time
    other_click = dark & ~photon_click
    if blocked is None:
        blocked_cycles = blocked_brp_clicks = interference_errors = 0
    else:
        interference_click = blocked & brp_click
        other_click &= ~interference_click
        blocked_cycles = np.count_nonzero(blocked)
        blocked_brp_clicks = np.count_nonzero(interference_click)
        interference_errors = np.count_nonzero(interference_click & half_error)

    return McCounts(
        pulses=size,
        single_emissions=int(np.count_nonzero(single)),
        photon_clicks=int(photon_clicks),
        single_emission_clicks=int(np.count_nonzero(single & photon_click)),
        clicks=int(photon_clicks + np.count_nonzero(other_click) + blocked_brp_clicks),
        error_clicks=int(
            np.count_nonzero(photon_error)
            + np.count_nonzero(other_click & dark_error)
            + interference_errors
        ),
        brp_misses=int(size - np.count_nonzero(brp_click)),
        blocked_cycles=int(blocked_cycles),
        blocked_brp_clicks=int(blocked_brp_clicks),
        blocked_brp_misses=int(blocked_cycles - blocked_brp_clicks),
        interference_errors=int(interference_errors),
    )


def _binomial_se(p: float, n: int) -> float:
    if n <= 0:
        return 0.0
    return math.sqrt(p * (1.0 - p) / n)


def _result_from_counts(config: McConfig, total: McCounts) -> McResult:
    est_y_1 = est_d_bob = interference_error_rate = 0.0
    if total.single_emissions > 0:
        click_given_single = total.single_emission_clicks / total.single_emissions
        est_y_1 = poisson_pmf(1, config.source.mu_s) * click_given_single
    if total.clicks > 0:
        est_d_bob = total.error_clicks / total.clicks
    if total.blocked_brp_clicks > 0:
        interference_error_rate = total.interference_errors / total.blocked_brp_clicks
    return McResult(
        est_y_exp=total.photon_clicks / total.pulses,
        est_y_1=est_y_1,
        est_d_bob=est_d_bob,
        est_g_b0=total.brp_misses / total.pulses,
        interference_error_rate=interference_error_rate,
        counts=total,
    )


def _run(entry: str, mode: str, config: McConfig, threads: int) -> McResult:
    if config.eve.mode != mode:
        raise ValueError(f"{entry} requires eve.mode={mode!r}, got {config.eve.mode!r}")
    threads = _check_integer("threads", threads, 1)
    n_blocks = (config.n_pulses + BLOCK_SIZE - 1) // BLOCK_SIZE
    total = [0] * len(McCounts._fields)

    def add(part: McCounts) -> None:
        for field, value in enumerate(part):
            total[field] += value

    # a bounded window of submitted blocks keeps memory flat in n_pulses;
    # integer tallies sum to the same total in any order
    with ThreadPoolExecutor(max_workers=threads) as pool:
        window: deque = deque()
        for index in range(n_blocks):
            size = min(BLOCK_SIZE, config.n_pulses - index * BLOCK_SIZE)
            window.append(pool.submit(_block_counts, config, index, size))
            if len(window) > 2 * threads:
                add(window.popleft().result())
        while window:
            add(window.popleft().result())
    return _result_from_counts(config, McCounts(*total))


def simulate(config: McConfig, *, threads: int = 1) -> McResult:
    """Run the baseline (no eavesdropper) simulation."""
    return _run("simulate", "none", config, threads)


def simulate_attack(config: McConfig, *, threads: int = 1) -> McResult:
    """Run the simulation with the photon-number-splitting policy applied."""
    return _run("simulate_attack", "pns", config, threads)


class McComparison(NamedTuple):
    """One estimate lined up against its analytic target.

    ``se`` is the binomial standard error at the *target* rate, so a
    z-score is defined even when the estimate sits on 0 or 1; ``z`` is
    0.0 where no relevant samples exist.  Where fewer than one event is
    expected (``n * rate < 1`` for a count of ``n`` trials at the target
    rate) and more are observed, a normal z would overstate the
    surprise, so ``z`` is the normal quantile of the exact mid-p Poisson
    tail instead: ``z = -NormalDist().inv_cdf(P(X > k) + P(X = k) / 2)``
    with ``X ~ Poisson(n * rate)`` and ``k`` the observed count.  Counting
    half of the observed outcome keeps z positive for any count above
    the expectation.  A tail too small for a float keeps the normal z.
    """

    quantity: str
    estimate: float
    target: float
    se: float
    z: float


def _poisson_mid_p(k: int, lam: float) -> float:
    # P(X > k) + P(X = k) / 2 for X ~ Poisson(lam < 1), summed upward: no cancellation
    term = poisson_pmf(k, lam)
    tail = 0.5 * term
    while True:
        k += 1
        term *= lam / k
        if tail + term == tail:
            return tail
        tail += term


def _z(estimate: float, target: float, se: float, count: int, expected: float) -> float:
    if expected < 1.0 and count > expected:
        tail = _poisson_mid_p(count, expected)
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
    eta_total = total_efficiency(config.channel, config.det)
    g_b0 = brp_empty_prob(config.source.mu_b, eta_total)

    def row(quantity: str, estimate: float, target: float, count: int, trials: int,
            rate: float, scale: float = 1.0) -> McComparison:
        # estimate = scale * count / trials with count ~ Binomial(trials, rate)
        se = scale * _binomial_se(rate, trials)
        z = _z(estimate, target, se, count, trials * rate)
        return McComparison(quantity, estimate, target, se, z)

    rows = []
    if config.eve.mode == "none":
        try:
            report = evaluate_point(config.source, config.channel, config.det)
            y_exp, y_1, d_bob = report.y_exp, report.y_1, report.d_bob
        except UndefinedPointError:
            # no expected clicks: no yield, and no error rate to compare
            y_exp, y_1, d_bob = 0.0, 0.0, None
        rows.append(row("y_exp", result.est_y_exp, y_exp,
                        counts.photon_clicks, counts.pulses, y_exp))
        # p_1 is 0 at mu_s = 0 and underflows to 0 from mu_s of about 751.6 on
        p_1 = poisson_pmf(1, config.source.mu_s)
        click_given_single = y_1 / p_1 if p_1 > 0.0 else 0.0
        rows.append(row("y_1", result.est_y_1, y_1, counts.single_emission_clicks,
                        counts.single_emissions, click_given_single, p_1))
        if d_bob is not None:
            rows.append(row("d_bob", result.est_d_bob, d_bob,
                            counts.error_clicks, counts.clicks, d_bob))
    rows.append(row("g_b0", result.est_g_b0, g_b0, counts.brp_misses, counts.pulses, g_b0))
    if config.eve.mode != "none":
        rows.append(row("interference_error_rate", result.interference_error_rate, 0.5,
                        counts.interference_errors, counts.blocked_brp_clicks, 0.5))
    return rows
