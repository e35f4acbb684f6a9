import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qflab import montecarlo
from qflab.finance import (
    MarketParams,
    OptionContract,
    bs_hamiltonian,
    closed_form_price,
    pde_tolerance,
    price_pde,
)
from qflab.grid import Grid1D
from qflab.montecarlo import feynman_kac_estimate, sample_terminal, standard_normals


MP = MarketParams(0.2, 0.05)
# the barrier benchmark's contract: barrier 80 below a spot of 100, one year
DO_CALL = OptionContract("down_and_out_call", 100.0, 1.0, barrier=80.0)


def test_estimate_validation():
    call = OptionContract("european_call", 100.0, 1.0)
    with pytest.raises(ValueError, match="paths"):
        feynman_kac_estimate(MP, call, 100.0, 0, 0)
    with pytest.raises(ValueError, match="spot"):
        feynman_kac_estimate(MP, call, -1.0, 100, 0)
    with pytest.raises(ValueError, match="discount"):
        feynman_kac_estimate(MarketParams(0.2, -700.0), OptionContract("european_call", 100.0, 2.0),
                             100.0, 100, 0)


# -- the keyed streams of standard_normals ----------------------------------------


def test_streams_differ_by_seed_and_stream():
    a = standard_normals(1, 64)
    b = standard_normals(2, 64)
    c = standard_normals(1, 64, stream=1)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("stream", [0, 3])
def test_normals_standardized(stream):
    z = standard_normals(0, 400_000, stream=stream)
    assert abs(z.mean()) < 3.0 / math.sqrt(len(z))
    assert abs(z.std() - 1.0) < 0.01
    assert np.all(np.isfinite(z))


def test_streams_never_share_a_key_or_draws(monkeypatch):
    # stream s is the SFC64 generator of spawn key (s, 0)
    keys = []
    sfc64 = montecarlo.SFC64

    def sfc64_(seed_sequence):
        keys.append((seed_sequence.entropy, seed_sequence.spawn_key))
        return sfc64(seed_sequence)

    monkeypatch.setattr(montecarlo, "SFC64", sfc64_)
    # among the draws, pairs whose 32-bit words would alias without the spawn
    # key's structure: seed 5 + 3 * 2**32 at 0 against seed 5 at 3, and stream
    # 2**32 (words 0, 1) against stream 0 (words 0)
    high = 5 + 3 * 2**32
    draws = {}
    for seed in (0, 5, high, 2**64 - 1):
        for s in (0, 1, 3, 2**32, 2**32 + 3):
            draws[seed, s] = standard_normals(seed, 16, stream=s)
            assert keys[-1] == (seed, (s, 0))
    assert len({d.tobytes() for d in draws.values()}) == len(draws)


@given(st.integers(0, 2**32), st.lists(st.integers(1, 400), min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_chunked_generation_matches_one_shot(seed, chunks):
    total = sum(chunks)
    whole = standard_normals(seed, total)
    parts, start = [], 0
    for c in chunks:
        parts.append(standard_normals(seed, c, start=start))
        start += c
    assert np.array_equal(whole, np.concatenate(parts))


def spawned_stream(seed: int, stream: int, shape) -> np.ndarray:
    """Normals of ``shape`` drawn straight from the seed's spawned grandchild (stream, 0)."""
    child = np.random.SeedSequence(seed).spawn(stream + 1)[stream].spawn(1)[0]
    return np.random.Generator(np.random.SFC64(child)).standard_normal(shape)


def test_streams_are_the_spawned_grandchildren_of_the_seed():
    for s in range(4):
        assert np.array_equal(standard_normals(7, 1_000, stream=s), spawned_stream(7, s, 1_000))
    # the entropy tuple (seed, stream) maps these two pairs to one state; the spawn key does not
    high = 5 + 3 * 2**32
    assert np.array_equal(np.random.SeedSequence((high, 0)).generate_state(4),
                          np.random.SeedSequence((5, 3)).generate_state(4))
    assert not np.array_equal(standard_normals(high, 16), standard_normals(5, 16, stream=3))
    assert np.all(np.isfinite(standard_normals(2**64 - 1, 16)))


@pytest.mark.parametrize("seed", [0, 5, 2**32])
def test_streams_are_uncorrelated_across_streams_and_seeds(seed):
    # stream 0 is the terminal sample's; the others are keyed apart all the same
    n = 400_000
    bound = 5.0 / math.sqrt(n)
    terminal, first, second = (standard_normals(seed, n, stream=s) for s in range(3))
    assert abs(np.corrcoef(terminal, first)[0, 1]) < bound
    assert abs(np.corrcoef(first, second)[0, 1]) < bound
    assert abs(np.corrcoef(first, standard_normals(seed + 1, n, stream=1))[0, 1]) < bound


# -- exact terminal sampling -----------------------------------------------------


def test_tiny_sigma_is_deterministic():
    contract = OptionContract("european_call", 100.0, 2.0)
    st_ = sample_terminal(MarketParams(1e-12, 0.07), contract, 50.0, 1000, 3)
    expected = 50.0 * math.exp(0.07 * 2.0)
    assert np.max(np.abs(st_ / expected - 1.0)) <= 1e-9


@pytest.mark.parametrize("sigma", [0.1, 0.2, 0.4])
@pytest.mark.parametrize("r", [0.0, 0.05, 0.1])
def test_discounted_martingale_property(sigma, r):
    paths = 1_000_000 if (sigma, r) == (0.2, 0.05) else 200_000
    contract = OptionContract("european_call", 100.0, 1.0)
    disc = math.exp(-r) * sample_terminal(MarketParams(sigma, r), contract, 100.0, paths, 0)
    assert abs(disc.mean() - 100.0) <= 3.0 * pair_standard_error(disc)


def test_log_moments_match_lognormal():
    contract = OptionContract("european_call", 100.0, 1.5)
    # the +z half: its mirrors would cancel every deviation of the mean
    logs = np.log(sample_terminal(MarketParams(0.3, 0.03), contract, 80.0, 800_000, 1)[:400_000] / 80.0)
    expected = (0.03 - 0.5 * 0.09) * 1.5
    se = np.std(logs, ddof=1) / math.sqrt(len(logs))
    assert abs(logs.mean() - expected) <= 3.0 * se


# -- Feynman-Kac estimation -------------------------------------------------------


@pytest.mark.parametrize("contract", [OptionContract("down_and_out_call", 100.0, 1.0, barrier=150.0),
                                      OptionContract("down_and_out_call", 100.0, 1.0, barrier=100.0),
                                      OptionContract("european_call", 1e6, 1.0),
                                      OptionContract("european_put", 1e-6, 1.0)],
                         ids=["do-call", "do-call-at-the-spot", "call", "put"])
def test_constant_claim_has_zero_error(contract):
    # every path pays 0: a barrier at or above the spot knocks it out at time
    # 0, and the call and put end out of the money
    est = feynman_kac_estimate(MP, contract, 100.0, 10_000, seed=0)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_linear_claim_matches_gbm_mean():
    s_t = sample_terminal(MP, OptionContract("european_call", 100.0, 0.75), 70.0, 500_000, 2)
    expected = 70.0 * math.exp(0.05 * 0.75)
    assert abs(s_t.mean() - expected) <= 3.0 * pair_standard_error(s_t)


def test_call_estimate_matches_closed_form():
    mp, contract = MarketParams(0.2, 0.05), OptionContract("european_call", 100.0, 1.0)
    est = feynman_kac_estimate(mp, contract, 100.0, 1_000_000, seed=0)
    ref = closed_form_price(mp, contract, 100.0)
    assert abs(est.mean - ref) <= 3.0 * est.std_error


def test_estimates_are_bit_reproducible():
    mp, contract = MarketParams(0.2, 0.05), OptionContract("european_call", 90.0, 1.0)
    a = feynman_kac_estimate(mp, contract, 100.0, 50_000, seed=11)
    b = feynman_kac_estimate(mp, contract, 100.0, 50_000, seed=11)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)


# -- discounting -------------------------------------------------------------------


def pair_standard_error(values: np.ndarray) -> float:
    """The standard error of the mean of antithetic pairs, and of an odd sample's lone path.

    sqrt(q s2_pair + (p mod 2) s2_path) / p for p values and q = p // 2 pairs,
    path j and its mirror h + j with h = ceil(p / 2): s2_pair is the sample
    variance of the pair sums, and s2_path that of the mirrors, each of which
    has the law of one path.
    """
    p, q = len(values), len(values) // 2
    first, mirrors = values[:q], values[p - q :]
    s2_path = float(np.var(mirrors, ddof=1)) if p % 2 else 0.0
    return math.sqrt(q * float(np.var(first + mirrors, ddof=1)) + p % 2 * s2_path) / p


def survival(mp: MarketParams, contract: OptionContract, spot: float, s_t: np.ndarray) -> np.ndarray:
    """1 - exp(-2 (x0 - b) max(y - b, 0) / (sigma^2 T)), y = ln S(T): the bridge's chance to stay above b.

    Written with the estimator's order of operations, the exponent divided by
    sigma sqrt(T) twice, so that the estimate can be compared bit for bit.
    """
    log_b, sd = math.log(contract.barrier), mp.sigma * math.sqrt(contract.maturity)
    exponent = np.maximum(np.log(s_t) - log_b, 0.0) / sd / sd * (-2.0 * (math.log(spot) - log_b))
    return -np.expm1(exponent)


def payoff_values(mp: MarketParams, contract: OptionContract, paths: int, seed: int) -> np.ndarray:
    """The undiscounted payoffs of the cached sample an estimate from spot 100 draws, a barrier's weighted."""
    s_t = sample_terminal(mp, contract, 100.0, paths, seed)
    if contract.barrier is None:
        return contract.payoff(s_t)
    return contract.payoff(s_t) * survival(mp, contract, 100.0, s_t)


@pytest.mark.parametrize("payoff,paths", [("call", 4), ("call", 5), ("call", 64), ("call", 4_000),
                                          ("do-call", 4), ("do-call", 5), ("do-call", 64),
                                          ("do-call", 4_000), ("do-call", 4_001)])
@pytest.mark.parametrize("r", [0.0, 0.05, -0.01])
def test_estimate_is_the_discounted_sampler_mean(payoff, r, paths):
    # the undiscounted payoff values of the same draws, aggregated as the
    # estimate does; its in-place standard error is the antithetic pairs', bit for bit
    barrier = 90.0 if payoff == "do-call" else None
    contract = OptionContract("down_and_out_call" if barrier else "european_call", 100.0, 0.5, barrier)
    mp = MarketParams(0.2, r)
    values = payoff_values(mp, contract, paths, 9)
    est = feynman_kac_estimate(mp, contract, 100.0, paths, seed=9)
    factor = math.exp(-r * 0.5)
    assert est.mean == float(np.sum(values) / paths) * factor
    assert est.std_error == pair_standard_error(values) * factor


@pytest.mark.parametrize("contract", [DO_CALL, OptionContract("european_call", 100.0, 1.0),
                                      OptionContract("european_put", 120.0, 1.0)],
                         ids=["do-call", "call-100", "put-120"])
def test_standard_error_is_calibrated_over_seeds(contract):
    # the spread of 256 independent estimates matches the standard error each
    # reports: the pairs' error neither over- nor understates the scatter
    estimates = [feynman_kac_estimate(MP, contract, 100.0, 2_000, seed=seed)
                 for seed in range(256)]
    spread = float(np.std([e.mean for e in estimates], ddof=1))
    reported = float(np.median([e.std_error for e in estimates]))
    # the spread of 256 estimates has a relative sampling error of about 1/sqrt(510) = 4.4 %
    assert 0.85 <= spread / reported <= 1.15, (spread, reported)


@pytest.mark.parametrize("contract", [DO_CALL, OptionContract("european_call", 80.0, 1.0),
                                      OptionContract("european_put", 120.0, 1.0)],
                         ids=["do-call", "call-80", "put-120"])
def test_antithetic_pairs_reduce_the_standard_error(contract):
    # the benchmark contract and two in the money: the pair error of the same
    # values lies below their i.i.d. error, since each payoff is monotone in every increment
    paths = 20_000
    values = payoff_values(MP, contract, paths, 0)
    iid = float(np.std(values, ddof=1) / math.sqrt(paths))
    assert pair_standard_error(values) < 0.8 * iid


@pytest.mark.parametrize("kind, spot, message", [
    ("european_call", 1e300, "1e+300 +- inf"),
    ("european_call", 1e308, "inf +- nan"),
    ("down_and_out_call", 1e300, "1e+300 +- inf"),
    ("down_and_out_call", 1e308, "inf +- nan"),
])
def test_overflowing_payoff_is_refused_with_its_estimate(kind, spot, message):
    contract = OptionContract(kind, 100.0, 1.0, barrier=80.0 if kind == "down_and_out_call" else None)
    with pytest.raises(ValueError) as info:
        feynman_kac_estimate(MP, contract, spot, 64, seed=0)
    assert str(info.value) == (f"Monte Carlo estimate {message} is not finite: the discounted payoffs "
                               f"overflow float64 at spot={spot:.6g}, drift=0.05, sigma=0.2, T=1")


def test_an_estimate_whose_discount_overflows_is_refused():
    # every payoff is finite, near K = 1e10, but the discount factor exp(700) takes the mean past float64
    mp = MarketParams(0.2, -700.0)
    with pytest.raises(ValueError, match=r"^Monte Carlo estimate inf \+- 0 is not finite: the discounted"):
        feynman_kac_estimate(mp, OptionContract("european_put", 1e10, 1.0), 100.0, 64, seed=0)


# -- the cached terminal sample -------------------------------------------------------


def test_terminal_sample_is_read_only_and_cached():
    first = sample_terminal(MP, OptionContract("european_call", 100.0, 1.0), 100.0, 1_000, 5)
    assert not first.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 0.0
    # the payoff and the strike are not part of the key
    assert sample_terminal(MP, OptionContract("european_put", 90.0, 1.0), 100.0, 1_000, 5) is first


@pytest.mark.parametrize("change", [
    {"sigma": 0.3}, {"r": 0.01}, {"t": 2.0}, {"spot": 90.0}, {"paths": 1_001}, {"seed": 6},
], ids=lambda change: next(iter(change)))
def test_each_sample_input_draws_again(monkeypatch, change):
    key = {"sigma": 0.2, "r": 0.05, "t": 1.0, "spot": 100.0, "paths": 1_000, "seed": 5}
    draws = []
    normals = montecarlo.standard_normals
    monkeypatch.setattr(montecarlo, "standard_normals",
                        lambda *args, **kwargs: draws.append(args) or normals(*args, **kwargs))

    def sample(sigma, r, t, spot, paths, seed):
        return sample_terminal(MarketParams(sigma, r), OptionContract("european_call", 100.0, t),
                               spot, paths, seed)

    base = sample(**key)
    assert sample(**key) is base and len(draws) == 1
    moved = sample(**{**key, **change})
    assert len(draws) == 2 and not np.array_equal(moved, base)


# -- standard-error scaling ---------------------------------------------------------


def test_standard_error_scaling():
    contract = OptionContract("european_call", 100.0, 1.0)
    for seed in range(10):
        small = feynman_kac_estimate(MP, contract, 100.0, 20_000, seed=seed)
        big = feynman_kac_estimate(MP, contract, 100.0, 80_000, seed=seed)
        ratio = big.std_error / small.std_error
        assert 0.4 <= ratio <= 0.6  # quadrupling paths halves the SE within 20%


# -- PDE crosscheck -----------------------------------------------------------------


def crosscheck_spots(mp, contract, g, spots, paths):
    """The crosscheck at several spots: one PDE curve, and the estimate at spot i with seed i.

    Each spot passes |MC - PDE| <= 3 SE + pde_tolerance(PDE): the two pricers
    price the same contract, a barrier's continuously monitored.
    """
    curve = price_pde(bs_hamiltonian(g, mp), contract, mp, g.n)
    for i, spot in enumerate(spots):
        est = feynman_kac_estimate(mp, contract, spot, paths, seed=i)
        pde = curve.price_at(spot)
        assert abs(est.mean - pde) <= 3.0 * est.std_error + pde_tolerance(pde), spot


def test_fk_pde_crosscheck_vanilla():
    mp = MarketParams(0.2, 0.05)
    contract = OptionContract("european_call", 100.0, 1.0)
    g = Grid1D(math.log(100) - 5, math.log(100) + 5, 1501)
    spots = (100.0 * np.array([0.8, 0.9, 1.0, 1.1, 1.2])).tolist()
    crosscheck_spots(mp, contract, g, spots, 400_000)


def test_fk_pde_crosscheck_deep_otm_high_vol():
    mp = MarketParams(0.4, 0.05)
    contract = OptionContract("european_call", 100.0, 1.0)
    g = Grid1D(math.log(100) - 6, math.log(100) + 6, 1501)
    crosscheck_spots(mp, contract, g, [60.0, 80.0, 100.0], 400_000)


def test_fk_pde_crosscheck_barrier():
    mp = MarketParams(0.2, 0.05)
    contract = OptionContract("down_and_out_call", 100.0, 1.0, barrier=80.0)
    g = Grid1D(math.log(100) - 5, math.log(100) + 5, 1501)
    spots = (100.0 * np.array([0.9, 1.0, 1.1, 1.2])).tolist()
    crosscheck_spots(mp, contract, g, spots, 100_000)


# -- the continuously monitored barrier ---------------------------------------------


@pytest.mark.parametrize("barrier", [80.0, 90.0, 95.0, 99.5, 99.9])
def test_barrier_estimate_matches_the_closed_form(barrier):
    # the survival weight prices the continuous contract, so no monitoring bias
    # is left, however close the barrier lies to the spot
    contract = OptionContract("down_and_out_call", 100.0, 1.0, barrier=barrier)
    est = feynman_kac_estimate(MP, contract, 100.0, 200_000, seed=0)
    assert abs(est.mean - closed_form_price(MP, contract, 100.0)) <= 3.0 * est.std_error


def test_barrier_estimate_is_unbiased_with_a_calibrated_error_over_seeds():
    # z = (MC - closed) / SE over 40 seeds: its mean has a standard error of
    # 1/sqrt(40) = 0.16 and its standard deviation a relative one of about
    # 1/sqrt(78) = 0.11, so the bounds lie 3 and 2.7 of those out
    contract = OptionContract("down_and_out_call", 100.0, 1.0, barrier=95.0)
    exact = closed_form_price(MP, contract, 100.0)
    z = [(e.mean - exact) / e.std_error
         for e in (feynman_kac_estimate(MP, contract, 100.0, 20_001, seed=seed) for seed in range(40))]
    assert abs(np.mean(z)) < 0.48, z
    assert 0.7 < np.std(z, ddof=1) < 1.3, z


def test_a_barrier_priced_after_a_call_draws_no_normals(monkeypatch):
    # the survival weight reads the call's cached sample: common random numbers
    draws = []
    normals = montecarlo.standard_normals
    monkeypatch.setattr(montecarlo, "standard_normals",
                        lambda *args, **kwargs: draws.append(args) or normals(*args, **kwargs))
    montecarlo._terminal_sample.cache_clear()
    call = feynman_kac_estimate(MP, OptionContract("european_call", 100.0, 1.0), 100.0, 4_000, seed=2)
    assert len(draws) == 1
    barrier = feynman_kac_estimate(MP, DO_CALL, 100.0, 4_000, seed=2)
    assert len(draws) == 1
    # each path's weight lies in [0, 1], so the barrier pays at most the call
    assert 0.0 < barrier.mean < call.mean


def test_survival_weight_is_0_or_1_when_sigma_squared_t_underflows():
    # sigma^2 T = 1e-400 rounds to 0: a path ends above the barrier (weight 1)
    # or at or below it (weight 0), with no 0/0 between
    mp = MarketParams(1e-100, 0.05)
    contract = OptionContract("down_and_out_call", 100.0, 1e-200, barrier=80.0)
    assert mp.sigma**2 * contract.maturity == 0.0
    with np.errstate(divide="ignore", over="ignore"):  # ln 0 and the overflowing exponent, as in the estimate
        weight = montecarlo.survival_weight(mp, contract, 100.0, np.array([0.0, 79.0, 80.0, 80.5, np.inf]))
    assert weight.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]


@pytest.mark.parametrize("sigma, r, maturity, strike, barrier", [
    (0.4, 0.0, 2.0, 100.0, 90.0),
    (0.1, 0.05, 0.25, 100.0, 97.0),
    (0.2, 0.05, 1.0, 80.0, 90.0),
    (0.3, -0.01, 0.5, 110.0, 85.0),
], ids=["high-vol-long", "low-vol-short", "strike-below-barrier", "negative-rate"])
def test_barrier_estimate_matches_the_closed_form_across_markets(sigma, r, maturity, strike, barrier):
    # the weight holds for any sigma^2 T and drift, and for a strike below the
    # barrier, where the closed form takes its Reiner-Rubinstein branch
    mp = MarketParams(sigma, r)
    contract = OptionContract("down_and_out_call", strike, maturity, barrier=barrier)
    est = feynman_kac_estimate(mp, contract, 100.0, 200_000, seed=0)
    assert abs(est.mean - closed_form_price(mp, contract, 100.0)) <= 3.0 * est.std_error


@pytest.mark.parametrize("barrier", [50.0, 80.0, 95.0, 99.9])
def test_survival_weight_lies_in_0_1_and_rises_with_the_end(barrier):
    # a path ending at or below the barrier weighs 0; above it the bridge's
    # chance to stay up grows with its end, towards 1
    contract = OptionContract("down_and_out_call", 100.0, 1.0, barrier=barrier)
    ends = np.linspace(barrier * 0.5, 400.0, 2_001)
    weight = montecarlo.survival_weight(MP, contract, 100.0, ends)
    assert np.all((weight >= 0.0) & (weight <= 1.0))
    assert np.all(weight[ends <= barrier] == 0.0)
    assert np.all(weight[ends > barrier] > 0.0)
    assert np.all(np.diff(weight) >= 0.0)
    np.testing.assert_array_equal(weight, survival(MP, contract, 100.0, ends))


@pytest.mark.parametrize("sigma", [0.1, 0.2, 0.4])
def test_barrier_estimate_falls_as_the_barrier_rises(sigma):
    # on one cached sample each path's weight falls as b rises, so the
    # estimates do too; rounding is monotone, so the order holds exactly
    mp = MarketParams(sigma, 0.05)
    means = [feynman_kac_estimate(mp, OptionContract("down_and_out_call", 100.0, 1.0, barrier=b),
                                  100.0, 20_000, seed=4).mean
             for b in (20.0, 60.0, 80.0, 90.0, 95.0, 99.0, 99.9)]
    assert all(a >= b for a, b in zip(means, means[1:])), means
    assert means[-1] > 0.0


@pytest.mark.parametrize("strike", [80.0, 100.0, 120.0])
def test_a_far_barrier_prices_the_vanilla_call(strike):
    # at B = 1e-3 the exponent is about -6600 on every path, so each weight is
    # exactly 1 and the barrier estimate is the call's, bit for bit
    call = feynman_kac_estimate(MP, OptionContract("european_call", strike, 1.0), 100.0, 20_000, seed=6)
    far = feynman_kac_estimate(MP, OptionContract("down_and_out_call", strike, 1.0, barrier=1e-3),
                               100.0, 20_000, seed=6)
    assert (far.mean, far.std_error) == (call.mean, call.std_error)


@pytest.mark.parametrize("spot", [80.0, 79.99, 50.0])
def test_a_spot_at_or_below_the_barrier_prices_zero_and_draws_nothing(monkeypatch, spot):
    draws = []
    normals = montecarlo.standard_normals
    monkeypatch.setattr(montecarlo, "standard_normals",
                        lambda *args, **kwargs: draws.append(args) or normals(*args, **kwargs))
    montecarlo._terminal_sample.cache_clear()
    est = feynman_kac_estimate(MP, DO_CALL, spot, 4_000, seed=0)
    assert (est.mean, est.std_error) == (0.0, 0.0)
    assert draws == []


def test_barrier_price_vanishes_as_the_spot_nears_the_barrier():
    # the weight is about 2 (x0 - b)(y - b) / (sigma^2 T), with x0 - b = 1e-9
    est = feynman_kac_estimate(MP, DO_CALL, 80.0 * (1.0 + 1e-9), 20_000, seed=0)
    assert 0.0 < est.mean < 1e-6


def test_a_barrier_estimate_does_not_depend_on_the_cache():
    # priced from a cleared cache or after a call on the same sample: one estimate
    montecarlo._terminal_sample.cache_clear()
    first = feynman_kac_estimate(MP, DO_CALL, 100.0, 4_001, seed=3)
    feynman_kac_estimate(MP, OptionContract("european_call", 100.0, 1.0), 100.0, 4_001, seed=3)
    again = feynman_kac_estimate(MP, DO_CALL, 100.0, 4_001, seed=3)
    montecarlo._terminal_sample.cache_clear()
    fresh = feynman_kac_estimate(MP, DO_CALL, 100.0, 4_001, seed=3)
    assert (first.mean, first.std_error) == (again.mean, again.std_error) == (fresh.mean, fresh.std_error)
