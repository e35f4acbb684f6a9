import math
import tracemalloc

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
from qflab.montecarlo import (
    BLOCK_NORMALS,
    feynman_kac_estimate,
    knockout_terminal,
    sample_terminal,
    shifted_barrier,
    standard_normals,
)


MP = MarketParams(0.2, 0.05)
# the knock-out walks' contract: barrier 80 below a spot of 100, one year
DO_CALL = OptionContract("down_and_out_call", 100.0, 1.0, barrier=80.0)


def test_estimate_validation():
    call = OptionContract("european_call", 100.0, 1.0)
    with pytest.raises(ValueError, match="paths"):
        feynman_kac_estimate(MP, call, 100.0, 0, 0, 250)
    with pytest.raises(ValueError, match="spot"):
        feynman_kac_estimate(MP, call, -1.0, 100, 0, 250)
    with pytest.raises(ValueError, match="discount"):
        feynman_kac_estimate(MarketParams(0.2, -700.0), OptionContract("european_call", 100.0, 2.0),
                             100.0, 100, 0, 250)


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
    # stream 0 is the terminal sample's, streams 1 and 2 the walk's first two blocks
    n = 400_000
    bound = 5.0 / math.sqrt(n)
    terminal, first, second = (standard_normals(seed, n, stream=s) for s in range(3))
    assert abs(np.corrcoef(terminal, first)[0, 1]) < bound
    assert abs(np.corrcoef(first, second)[0, 1]) < bound
    assert abs(np.corrcoef(first, standard_normals(seed + 1, n, stream=1))[0, 1]) < bound


# -- the knock-out walk's blocks ------------------------------------------------------


def is_head_per_half(short: np.ndarray, long: np.ndarray) -> bool:
    """Whether the +z paths of ``short`` and their mirrors head those of ``long``.

    A sample of p paths holds its +z paths at [0, h) and their mirrors at
    [h, p), with h = ceil(p / 2).
    """
    h, h_long = -(-len(short) // 2), -(-len(long) // 2)
    return (np.array_equal(short[:h], long[:h])
            and np.array_equal(short[h:], long[h_long : h_long + len(short) - h]))


@pytest.mark.parametrize("m", [1, 50, 250, BLOCK_NORMALS + 3])
def test_a_blocks_first_paths_are_the_head_of_the_whole_block(m):
    # a walk of two blocks, and walks that end part way into the second
    per_block = 2 * montecarlo.rows_per_block(m)
    whole = knockout_terminal(MP, DO_CALL, 100.0, 2 * per_block, 3, monitoring_per_year=m, stop=None)
    for k in {1, per_block // 2 + 1, per_block - 1}:
        part = knockout_terminal(MP, DO_CALL, 100.0, per_block + k, 3, monitoring_per_year=m, stop=None)
        assert all(is_head_per_half(p, w) for p, w in zip(part, whole))


def test_a_walk_of_fewer_paths_is_the_head_of_a_longer_walk():
    # 6001 paths end on a lone path inside the second block of 2621 pairs at 50 dates
    short = knockout_terminal(MP, DO_CALL, 100.0, 6_001, 5, monitoring_per_year=50, stop=None)
    long = knockout_terminal(MP, DO_CALL, 100.0, 14_000, 5, monitoring_per_year=50, stop=None)
    assert is_head_per_half(short[0], long[0]) and is_head_per_half(short[1], long[1])


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["two-cpus", "one-cpu"])
def test_the_walk_draws_each_block_in_one_draw(monkeypatch, cpus):
    # on one worker or two, block b is one draw of whole rows from stream
    # b + 1, one generator of key (b + 1, 0), and no block is drawn twice
    m, paths = 250, 200_000
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: cpus)
    draws, generators = [], []
    normals, sfc64 = montecarlo.standard_normals, montecarlo.SFC64

    def standard_normals_(seed, count, start=0, stream=0):
        draws.append((stream, count % m, start))
        return normals(seed, count, start, stream)

    def sfc64_(seed_sequence):
        generators.append(seed_sequence.spawn_key)
        return sfc64(seed_sequence)

    monkeypatch.setattr(montecarlo, "standard_normals", standard_normals_)
    monkeypatch.setattr(montecarlo, "SFC64", sfc64_)
    knockout_terminal(MP, DO_CALL, 100.0, paths, 0, monitoring_per_year=m, stop=None)
    count = -(-paths // (2 * montecarlo.rows_per_block(m)))  # a block's rows drive two paths each
    assert sorted(draws) == [(block + 1, 0, 0) for block in range(count)]
    assert sorted(generators) == [(block + 1, 0) for block in range(count)]


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
    # every path pays 0: a barrier at or above the spot knocks it out at date
    # 0, and the call and put end out of the money
    est = feynman_kac_estimate(MP, contract, 100.0, 10_000, seed=0, monitoring_per_year=250)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_linear_claim_matches_gbm_mean():
    s_t = sample_terminal(MP, OptionContract("european_call", 100.0, 0.75), 70.0, 500_000, 2)
    expected = 70.0 * math.exp(0.05 * 0.75)
    assert abs(s_t.mean() - expected) <= 3.0 * pair_standard_error(s_t)


def test_call_estimate_matches_closed_form():
    mp, contract = MarketParams(0.2, 0.05), OptionContract("european_call", 100.0, 1.0)
    est = feynman_kac_estimate(mp, contract, 100.0, 1_000_000, seed=0, monitoring_per_year=250)
    ref = closed_form_price(mp, contract, 100.0)
    assert abs(est.mean - ref) <= 3.0 * est.std_error


def test_estimates_are_bit_reproducible():
    mp, contract = MarketParams(0.2, 0.05), OptionContract("european_call", 90.0, 1.0)
    a = feynman_kac_estimate(mp, contract, 100.0, 50_000, seed=11, monitoring_per_year=250)
    b = feynman_kac_estimate(mp, contract, 100.0, 50_000, seed=11, monitoring_per_year=250)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)


# a block's rows are antithetic pairs of paths: one partial block; two whole blocks and a
# partial one ending on a lone path; a whole block of one-date pairs and a partial one ending
# on a lone path; one pair a block on two workers, the second block a lone path; one pair a
# block, walked alone
WALK_SHAPES = [(50, 2_000), (50, 12_001), (1, 2 * BLOCK_NORMALS + 5), (BLOCK_NORMALS, 3),
               (BLOCK_NORMALS + 3, 3)]


@pytest.mark.parametrize("m,paths", WALK_SHAPES)
def test_knockout_walk_matches_reference_formula(m, paths):
    # path j walks row j's normals z_j and its mirror h + j walks -z_j, both from one
    # W = cumsum(vol z_j), with h = ceil(paths / 2); the mirror's R - W is 2R - (R + W)
    seed, per_block = 5, max(1, BLOCK_NORMALS // m)
    dt = DO_CALL.maturity / m
    rows = -(-paths // 2)
    blocks = -(-rows // per_block)
    z = np.concatenate([spawned_stream(seed, b + 1, (per_block, m)) for b in range(blocks)])[:rows]
    drift, vol = (MP.r - 0.5 * MP.sigma**2) * dt, MP.sigma * math.sqrt(dt)
    ramp, w = drift * np.arange(1, m + 1), np.cumsum(vol * z, axis=1)
    plus = ramp + w
    logs = math.log(100.0) + np.concatenate([plus, (2.0 * ramp - plus)[: paths // 2]])
    s_t, alive = knockout_terminal(MP, DO_CALL, 100.0, paths, seed, monitoring_per_year=m, stop=None)
    assert np.array_equal(s_t, np.exp(logs[:, -1]))
    assert np.array_equal(alive, np.min(logs, axis=1) > math.log(80.0))


@pytest.mark.parametrize("m,paths", WALK_SHAPES[:-1])
def test_knockout_walk_does_not_depend_on_the_worker_count(monkeypatch, m, paths):
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})
    two = knockout_terminal(MP, DO_CALL, 100.0, paths, 5, monitoring_per_year=m, stop=None)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0})
    one = knockout_terminal(MP, DO_CALL, 100.0, paths, 5, monitoring_per_year=m, stop=None)
    assert np.array_equal(one[0], two[0]) and np.array_equal(one[1], two[1])


@pytest.mark.parametrize("dates,workers", [(250, 2), (BLOCK_NORMALS, 2), (BLOCK_NORMALS + 1, 1),
                                           (2 * BLOCK_NORMALS, 1)])
def test_knockout_walk_asks_for_at_most_two_workers(monkeypatch, dates, workers):
    asked = []

    class SerialPool:
        """Records the worker count and walks the blocks in the calling thread."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(64)))
    s_t, alive = knockout_terminal(MP, DO_CALL, 100.0, 4, 0, monitoring_per_year=dates, stop=None)
    # a path longer than a block walks alone, so the walk still holds at most two blocks of normals
    assert asked == [workers]
    assert s_t.shape == alive.shape == (4,)


def test_knockout_memory_is_bounded_by_two_blocks():
    bound = 3 * 2 * 8 * BLOCK_NORMALS
    for paths in (8_192, 65_536):
        tracemalloc.start()
        try:
            knockout_terminal(MP, DO_CALL, 100.0, paths, 0, 250, stop=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (paths, peak)


def test_knockout_refuses_more_dates_than_one_block_holds():
    with pytest.raises(ValueError, match="monitoring"):
        knockout_terminal(MP, DO_CALL, 100.0, 2, 0, monitoring_per_year=2 * BLOCK_NORMALS + 1, stop=None)
    s_t, alive = knockout_terminal(MP, DO_CALL, 100.0, 2, 0, monitoring_per_year=2 * BLOCK_NORMALS, stop=None)
    assert s_t.shape == alive.shape == (2,)


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


def payoff_values(mp: MarketParams, contract: OptionContract, paths: int, seed: int,
                  monitoring_per_year: int = 250) -> np.ndarray:
    """The undiscounted payoffs of the paths an estimate from spot 100 draws, knocked-out ones 0."""
    if contract.barrier is None:
        return contract.payoff(sample_terminal(mp, contract, 100.0, paths, seed))
    s_t, alive = knockout_terminal(mp, contract, 100.0, paths, seed, monitoring_per_year, stop=None)
    return np.where(alive, contract.payoff(s_t), 0.0)


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
    values = payoff_values(mp, contract, paths, 9, monitoring_per_year=50)
    est = feynman_kac_estimate(mp, contract, 100.0, paths, seed=9, monitoring_per_year=50)
    factor = math.exp(-r * 0.5)
    assert est.mean == float(np.sum(values) / paths) * factor
    assert est.std_error == pair_standard_error(values) * factor


@pytest.mark.parametrize("contract", [DO_CALL, OptionContract("european_call", 100.0, 1.0),
                                      OptionContract("european_put", 120.0, 1.0)],
                         ids=["do-call", "call-100", "put-120"])
def test_standard_error_is_calibrated_over_seeds(contract):
    # the spread of 256 independent estimates matches the standard error each
    # reports: the pairs' error neither over- nor understates the scatter
    estimates = [feynman_kac_estimate(MP, contract, 100.0, 2_000, seed=seed, monitoring_per_year=250)
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
    ("european_call", 1e300, "1.05e+300 +- inf"),
    ("european_call", 1e308, "inf +- nan"),
    ("down_and_out_call", 1e300, "1.05e+300 +- inf"),
    ("down_and_out_call", 1e308, "inf +- nan"),
])
def test_overflowing_payoff_is_refused_with_its_estimate(kind, spot, message):
    contract = OptionContract(kind, 100.0, 1.0, barrier=80.0 if kind == "down_and_out_call" else None)
    with pytest.raises(ValueError) as info:
        feynman_kac_estimate(MP, contract, spot, 64, seed=0, monitoring_per_year=250)
    assert str(info.value) == (f"Monte Carlo estimate {message} is not finite: the payoff samples "
                               f"overflow float64 at spot={spot:.6g}, drift=0.05, sigma=0.2, T=1")


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
        small = feynman_kac_estimate(MP, contract, 100.0, 20_000, seed=seed, monitoring_per_year=250)
        big = feynman_kac_estimate(MP, contract, 100.0, 80_000, seed=seed, monitoring_per_year=250)
        ratio = big.std_error / small.std_error
        assert 0.4 <= ratio <= 0.6  # quadrupling paths halves the SE within 20%


# -- PDE crosscheck -----------------------------------------------------------------


def crosscheck_spots(mp, contract, g, spots, paths):
    """The crosscheck at several spots: one PDE curve, and the estimate at spot i with seed i.

    Each spot passes a gate of the form of ``price --method all``'s,
    |MC - PDE| <= 3 SE + pde_tolerance(PDE) + bias, but its bias is the rise
    of the PDE price under the shifted barrier on this grid, not the CLI's
    closed-form rise.  Returns one (estimate, PDE price, bias) per spot.
    """
    h = bs_hamiltonian(g, mp)
    curve = price_pde(h, contract, mp, g.n)
    shifted = None
    if contract.barrier is not None:
        shifted = price_pde(h, shifted_barrier(contract, mp.sigma, 250), mp, g.n)
    rows = []
    for i, spot in enumerate(spots):
        est = feynman_kac_estimate(mp, contract, spot, paths, seed=i, monitoring_per_year=250)
        pde = curve.price_at(spot)
        bias = 0.0 if shifted is None else max(0.0, shifted.price_at(spot) - pde)
        assert abs(est.mean - pde) <= 3.0 * est.std_error + pde_tolerance(pde) + bias, spot
        rows.append((est, pde, bias))
    return rows


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
    rows = crosscheck_spots(mp, contract, g, spots, 100_000)
    assert max(bias for _, _, bias in rows) > 0.0
