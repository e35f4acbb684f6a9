"""Exact geometric-Brownian-motion sampling and Feynman-Kac estimation.

Terminal prices are drawn from the exact lognormal solution

    S(T) = s0 * exp(sigma W(T) + (drift - sigma^2/2) T),

so European estimates carry no time-stepping error; path simulation (exact
GBM increments on ln S) is used only for barrier monitoring.  The last
terminal sample is cached, keyed on (sigma, r, T, spot, paths, seed) and
read-only, so the calls and puts of a strike ladder priced in one process
draw their normals once (common random numbers, Glasserman 2004); the cache
keeps that one array of ``paths`` values alive between calls.

Randomness is keyed, not sequential.  Every normal is drawn by
``standard_normals``: stream s is numpy's ziggurat sampler on an SFC64
generator seeded by the ``SeedSequence`` child of spawn key (s, 0).  The
terminal sample is stream 0, and block b of the knock-out walk, its whole
rows drawn at once, is stream b + 1, so no two draws share a key and results
cannot depend on worker scheduling.  Every sample of p paths is laid out in
antithetic halves (Glasserman 2004, section 4.2): the normals z_j drive paths
j < h = ceil(p / 2), and -z_j drives path h + j, the mirror of path j, so a
sample draws one normal per pair and date, an odd p leaves path h - 1
without a mirror, and every standard error comes from the pairs.
Path simulation walks one block at a time on each of at most two worker
threads, so it holds at most 2 MiB of normals however many paths there are.
Aggregation always runs over the fully materialized value array with numpy's
pairwise summation, making estimates reproducible bit-for-bit from (market,
contract, spot, paths, seed), on whichever thread ``feynman_kac_estimate``
runs: ``price`` calls it on a worker thread of its own, beside the PDE.
"""

import functools
import math
import os
import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, SFC64, SeedSequence

from .finance import MarketParams, OptionContract, check_discount

# normals in one block of the knock-out walk, its unit of work: one
# ``standard_normals`` stream drawn at once, as many whole rows as fit and at
# least one, each row the normals of an antithetic pair of paths.  Two
# workers each walk a 1 MiB block, which fits a 2 MiB L2 cache (8 MiB walked
# about 20 % slower); a row longer than a block walks alone, and one longer
# than two blocks is refused, so the walk holds at most 2 MiB of normals
# however many paths there are
BLOCK_NORMALS = 1 << 17


def check_draws(paths: int, seed: int) -> None:
    """Refuse a path count without a standard error, or a seed outside [0, 2**64).

    The seed is the 64-bit entropy of the ``SeedSequence`` that keys every
    draw, the terminal sample's and the walk's.  Every standard error comes
    from antithetic pairs, so it needs two pairs: four paths.
    """
    if paths < 4:
        raise ValueError(f"paths must be >= 4 for a standard error, which needs two antithetic "
                         f"pairs, got {paths}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def monitoring_dates(monitoring_per_year: int, maturity: float) -> int:
    """Barrier monitoring dates up to ``maturity``: at least one, however short the horizon."""
    if monitoring_per_year < 1:
        raise ValueError(f"monitoring_per_year must be >= 1, got {monitoring_per_year}")
    return max(1, round(monitoring_per_year * maturity))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float


# -- keyed normal streams -----------------------------------------------------


def standard_normals(seed: int, count: int, start: int = 0, stream: int = 0) -> np.ndarray:
    """Normals [start, start + count) of stream ``stream``: SFC64 ziggurat draws keyed (stream, 0).

    The generator is seeded by ``SeedSequence(seed, spawn_key=(stream, 0))``;
    the spawn key keeps every (seed, stream) pair apart, which the entropy
    tuple (seed, stream) would not: its 32-bit words make seed 5 + 3 * 2**32
    stream 0 the same as seed 5 stream 3.  The generator is drawn in order,
    so the first ``start`` normals are drawn and dropped, and a stream drawn
    in chunks is the stream drawn at once.
    """
    # drawn into an array made before the generator: drawing into an array
    # that ``standard_normal`` makes measured the barrier benchmark's wall
    # time 0.6-0.9 % slower in alternated pairs, for no cause found
    z = np.empty(count)
    gen = Generator(SFC64(SeedSequence(seed, spawn_key=(stream, 0))))
    gen.standard_normal(start)
    gen.standard_normal(out=z)
    return z


def rows_per_block(m: int) -> int:
    """Rows of m normals in one block of the knock-out walk, each row a path and its mirror."""
    return max(1, BLOCK_NORMALS // m)


# -- sampling ----------------------------------------------------------------


def sample_terminal(mp: MarketParams, contract: OptionContract, spot: float, paths: int,
                    seed: int) -> np.ndarray:
    """Exact lognormal draws of S(T) from S(0) = spot, in antithetic halves, with the rate as drift.

    Path j < h = ceil(paths / 2) is drawn from normal j of stream 0, and
    its mirror, path h + j, from the negation, so the sample draws h
    normals.  The sample depends only on (sigma, r, T, spot, paths, seed),
    not on the payoff or the strike, so a strike ladder priced in one process
    shares its draws (common random numbers).  The last sample is cached and returned
    read-only; the cache holds that one array of ``paths`` values until a
    call with another key replaces it.
    """
    return _terminal_sample(mp.sigma, mp.r, contract.maturity, spot, paths, seed)


@functools.lru_cache(maxsize=1)
def _terminal_sample(sigma: float, r: float, t: float, spot: float, paths: int,
                     seed: int) -> np.ndarray:
    # ln(S / spot) is drift + vol z for path j and drift - vol z for its
    # mirror h + j, formed on ``paths`` values from the h = ceil(paths / 2) normals
    h = -(-paths // 2)
    z = standard_normals(seed, h)
    z *= sigma * math.sqrt(t)
    drift = (r - 0.5 * sigma**2) * t
    s = np.empty(paths)
    np.subtract(drift, z[: paths // 2], out=s[h:])
    np.add(z, drift, out=s[:h])
    np.exp(s, out=s)
    s *= spot
    s.flags.writeable = False
    return s


def knockout_terminal(
    mp: MarketParams, contract: OptionContract, spot: float, paths: int, seed: int,
    monitoring_per_year: int, stop: threading.Event | None,
) -> tuple[np.ndarray, np.ndarray]:
    """(S(T), alive) under discrete monitoring of the contract's barrier.

    Exact GBM increments at monitoring_per_year dates; a path dies when it
    starts at or below the barrier, or touches or crosses it at a monitoring
    date.  Paths walk in antithetic halves: row i of the walk's normals z
    drives path i with z and its mirror, path h + i with h = ceil(paths / 2),
    with -z, so ln(S / S0) is R + W and R - W, where W = cumsum(sigma sqrt(dt)
    z) and R is the drift ramp k (r - sigma^2/2) dt at date k.  An odd
    ``paths`` leaves path h - 1 without its mirror.  Block b holds rows
    [b c, (b + 1) c) with c = ``rows_per_block(m)``, and is stream b + 1 of
    ``standard_normals`` (stream 0 is the terminal sample's), drawn in order,
    so a walk's last, partial block is the head of the whole block.  Blocks
    are walked one at a time on at most two threads, each writing only its
    own slices of the result, so the worker count does not affect the draws.  Once ``stop`` is set, no further block
    starts, and the walk raises ``CancelledError``.
    """
    m = monitoring_dates(monitoring_per_year, contract.maturity)
    if m > 2 * BLOCK_NORMALS:
        raise ValueError(f"{m} monitoring dates per path (monitoring_per_year={monitoring_per_year}, "
                         f"T={contract.maturity:.6g}) exceed the {2 * BLOCK_NORMALS} that one path may hold")
    # the ziggurat draw, cumsum, min and exp release the GIL, so the blocks
    # walk in parallel; a path longer than a block walks alone
    workers = min(2, len(os.sched_getaffinity(0))) if m <= BLOCK_NORMALS else 1
    per_block = rows_per_block(m)
    h, q = -(-paths // 2), paths // 2
    dt = contract.maturity / m
    ramp = (mp.r - 0.5 * mp.sigma**2) * dt * np.arange(1, m + 1)
    two_ramp = 2.0 * ramp
    vol_term = mp.sigma * math.sqrt(dt)
    log_b = math.log(contract.barrier)
    log_s0 = math.log(spot)
    # numpy's error state is per context, and a pool thread starts from the default
    err = np.geterr()

    s_t = np.empty(paths)
    alive = np.empty(paths, dtype=bool)

    def walk(block: int) -> None:
        if stop is not None and stop.is_set():
            raise CancelledError(f"the knock-out walk was stopped before block {block}")
        r0 = block * per_block
        r1 = min(r0 + per_block, h)
        with np.errstate(**err):
            # W along each row, built in place on the normals; ln S0 joins
            # only the minimum, date 0 included, and the last date, the same
            # bits as at every date since fl(c + a) is monotone in c
            w = standard_normals(seed, (r1 - r0) * m, stream=block + 1).reshape(r1 - r0, m)
            w *= vol_term
            np.cumsum(w, axis=1, out=w)
            # path r0 + j is R + W of row j, and its mirror h + r0 + j is
            # R - W = 2R - (R + W), both formed in place on W; an odd walk's
            # path h - 1 has no mirror
            plus = np.add(w, ramp, out=w)
            alive[r0:r1] = np.minimum(np.min(plus, axis=1), 0.0) + log_s0 > log_b
            s_t[r0:r1] = np.exp(plus[:, -1] + log_s0)
            mirrored = min(r1, q) - r0
            minus = np.subtract(two_ramp, plus[:mirrored], out=w[:mirrored])
            alive[h + r0 : h + r0 + mirrored] = np.minimum(np.min(minus, axis=1), 0.0) + log_s0 > log_b
            s_t[h + r0 : h + r0 + mirrored] = np.exp(minus[:, -1] + log_s0)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # reading every result re-raises a worker's exception here
        list(pool.map(walk, range(-(-h // per_block))))
    return s_t, alive


# -- estimation --------------------------------------------------------------


def feynman_kac_estimate(
    mp: MarketParams, contract: OptionContract, spot: float, paths: int, seed: int,
    monitoring_per_year: int, stop: threading.Event | None = None,
) -> McEstimate:
    """Discounted Monte Carlo price e^{-rT} E[payoff(S(T))] from S(0) = spot.

    Paths follow GBM with the market's rate as drift and its sigma, up to the
    contract's maturity.  A barrier contract is priced on monitored paths,
    whose walk ``stop`` ends early (see ``knockout_terminal``); every other
    contract samples the terminal value exactly.  The mean is the sum of the
    payoffs over ``paths``.  The standard error comes from the q = paths // 2
    antithetic pairs, path j and its mirror h + j with h = ceil(paths / 2):
    sqrt(q s2_pair + (paths mod 2) s2_path) / paths, where s2_pair is the
    sample variance of the pair sums and s2_path that of the mirrors, which
    estimates the variance of an odd sample's lone path h - 1.  Both are
    formed in place on the payoff array.  Mean and standard error are
    discounted once, after aggregation.
    """
    check_draws(paths, seed)
    if not spot > 0:
        raise ValueError(f"spot must be > 0, got {spot}")
    r, t = mp.r, contract.maturity
    check_discount(r, t)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite estimate is refused below
        if contract.payoff_kind == "down_and_out_call":
            s_t, alive = knockout_terminal(mp, contract, spot, paths, seed, monitoring_per_year, stop)
            values = contract.payoff(s_t)
            values[~alive] = 0.0
        else:
            values = contract.payoff(sample_terminal(mp, contract, spot, paths, seed))
        mean = float(np.sum(values) / paths)
        # the sum of q pairs, plus an odd sample's lone path h - 1, whose
        # variance the mirrors estimate: each has the law of one path
        h, q = -(-paths // 2), paths // 2
        pair_sums, mirrors = values[:q], values[h:]
        pair_sums += mirrors
        pair_var = _variance_in_place(pair_sums, np.sum(pair_sums) / q)
        path_var = _variance_in_place(mirrors, np.sum(mirrors) / q) if h > q else 0.0
        se = math.sqrt(q * pair_var + (h - q) * path_var) / paths
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise ValueError(f"Monte Carlo estimate {mean:.3g} +- {se:.3g} is not finite: "
                         f"the payoff samples overflow float64 at spot={spot:.6g}, "
                         f"drift={r:.6g}, sigma={mp.sigma:.6g}, T={t:.6g}")
    factor = math.exp(-r * t)
    return McEstimate(mean * factor, se * factor)


def _variance_in_place(x: np.ndarray, mean: float) -> float:
    """np.var(x, ddof=1) bit for bit, given mean = np.sum(x) / len(x), but in place on x, which it overwrites."""
    x -= mean
    np.square(x, out=x)
    return float(np.sum(x) / (len(x) - 1))


# -- monitoring bias ---------------------------------------------------------

# continuity-correction shift for discretely monitored barriers,
# -zeta(1/2)/sqrt(2 pi); used only to *bound* the monitoring bias
BARRIER_SHIFT_COEFF = 0.5825971579390107


def shifted_barrier(contract: OptionContract, sigma: float, monitoring_per_year: int) -> OptionContract:
    """The contract with its barrier moved down by exp(-c sigma sqrt(dt)).

    Broadie-Glasserman-Kou (1997): the continuously monitored price with the
    shifted barrier approximates the discretely monitored one, so the gap
    between the two closed-form prices bounds the monitoring bias.
    """
    dt_mon = contract.maturity / monitoring_dates(monitoring_per_year, contract.maturity)
    shift = math.exp(-BARRIER_SHIFT_COEFF * sigma * math.sqrt(dt_mon))
    return replace(contract, barrier=contract.barrier * shift)
