"""Exact geometric-Brownian-motion sampling and Feynman-Kac estimation.

Terminal prices are drawn from the exact lognormal solution

    S(T) = s0 * exp(sigma W(T) + (drift - sigma^2/2) T),

so every estimate carries no time-stepping error.  A continuously monitored
down-and-out call is priced on the same terminal sample: each payoff is
weighted by the chance that the path, given its end, stayed above the
barrier (see ``survival_weight``).  The last terminal sample is cached,
keyed on (sigma, r, T, spot, paths, seed) and read-only, so the calls, puts
and down-and-out calls priced in one process from one market, spot, path
count and seed draw their normals once (common random numbers, Glasserman
2004); the cache keeps that one array of ``paths`` values alive between
calls.

Randomness is keyed, not sequential.  Every normal is drawn by
``standard_normals``: stream s is numpy's ziggurat sampler on an SFC64
generator seeded by the ``SeedSequence`` child of spawn key (s, 0), and the
terminal sample is stream 0.  A sample of p paths is laid out in antithetic
halves (Glasserman 2004, section 4.2): the normal z_j drives path
j < h = ceil(p / 2), and -z_j drives path h + j, the mirror of path j, so a
sample draws one normal per pair, an odd p leaves path h - 1 without a
mirror, and every standard error comes from the pairs.  Aggregation runs
over the fully materialized value array with numpy's pairwise summation, so
estimates are reproducible bit for bit from (market, contract, spot, paths,
seed).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, SFC64, SeedSequence

from .finance import MarketParams, OptionContract, check_discount


def check_draws(paths: int, seed: int) -> None:
    """Refuse a path count without a standard error, or a seed outside [0, 2**64).

    The seed is the 64-bit entropy of the ``SeedSequence`` that keys every
    draw.  Every standard error comes from antithetic pairs, so it needs two
    pairs: four paths.
    """
    if paths < 4:
        raise ValueError(f"paths must be >= 4 for a standard error, which needs two antithetic "
                         f"pairs, got {paths}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


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


# -- sampling ----------------------------------------------------------------


def sample_terminal(mp: MarketParams, contract: OptionContract, spot: float, paths: int,
                    seed: int) -> np.ndarray:
    """Exact lognormal draws of S(T) from S(0) = spot, in antithetic halves, with the rate as drift.

    Path j < h = ceil(paths / 2) is drawn from normal j of stream 0, and
    its mirror, path h + j, from the negation, so the sample draws h
    normals.  The sample depends only on (sigma, r, T, spot, paths, seed),
    not on the payoff, the strike or the barrier, so the contracts priced in
    one process share their draws (common random numbers).  The last sample
    is cached and returned read-only; the cache holds that one array of
    ``paths`` values until a call with another key replaces it.
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


def survival_weight(mp: MarketParams, contract: OptionContract, spot: float,
                    s_t: np.ndarray) -> np.ndarray:
    """The chance that each path from a spot above the barrier, given its end S(T), stayed above it.

    With x0 = ln spot, b = ln barrier and y = ln S(T), the log-price is a
    Brownian bridge from x0 to y with variance sigma^2 T, which stays above b
    with probability p(y) = 1 - exp(-2 (x0 - b) max(y - b, 0) / (sigma^2 T))
    (the reflection principle; Glasserman 2004, section 6.4).  It is formed
    as -expm1 of the negated exponent, and the exponent is divided by
    sigma sqrt(T) twice, never by sigma^2 T, which may underflow to 0: a path
    ending at or below the barrier weighs 0, not 0/0.
    """
    log_b = math.log(contract.barrier)
    sd = mp.sigma * math.sqrt(contract.maturity)
    e = np.log(s_t)
    e -= log_b
    np.maximum(e, 0.0, out=e)
    e /= sd
    e /= sd
    e *= -2.0 * (math.log(spot) - log_b)
    np.expm1(e, out=e)
    return np.negative(e, out=e)


# -- estimation --------------------------------------------------------------


def feynman_kac_estimate(mp: MarketParams, contract: OptionContract, spot: float, paths: int,
                         seed: int) -> McEstimate:
    """Discounted Monte Carlo price e^{-rT} E[payoff(S(T))] from S(0) = spot.

    S(T) is ``sample_terminal``'s exact, cached draw, with the market's rate
    as drift and its sigma, at the contract's maturity.  A down-and-out
    call's payoff is weighted by ``survival_weight``, so the estimate prices
    the continuously monitored contract, as the PDE and the closed form do,
    by conditional Monte Carlo on the sample every other contract uses; from
    a spot at or below the barrier it is 0, drawing nothing.  The
    mean is the sum of the payoffs over ``paths``.  The standard error comes
    from the q = paths // 2 antithetic pairs, path j and its mirror h + j with
    h = ceil(paths / 2): sqrt(q s2_pair + (paths mod 2) s2_path) / paths,
    where s2_pair is the sample variance of the pair sums and s2_path that of
    the mirrors, which estimates the variance of an odd sample's lone path
    h - 1.  Both are formed in place on the payoff array.  Mean and standard
    error are discounted once, after aggregation.
    """
    check_draws(paths, seed)
    if not spot > 0:
        raise ValueError(f"spot must be > 0, got {spot}")
    r, t = mp.r, contract.maturity
    check_discount(r, t)
    # a non-finite estimate is refused below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if contract.barrier is not None and not spot > contract.barrier:
            values = np.zeros(paths)  # knocked out at time 0
        else:
            s_t = sample_terminal(mp, contract, spot, paths, seed)
            values = contract.payoff(s_t)
            if contract.barrier is not None:
                values *= survival_weight(mp, contract, spot, s_t)
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
