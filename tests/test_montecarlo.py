import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfinv

from qflab import montecarlo
from qflab.finance import MarketParams, OptionContract, closed_form_price
from qflab.grid import Grid1D
from qflab.montecarlo import (
    KNOCKOUT_CHUNK_BYTES,
    CrosscheckReport,
    GbmConfig,
    feynman_kac_estimate,
    fk_pde_crosscheck,
    knockout_terminal,
    raw_uint64,
    sample_terminal,
    standard_normals,
)


def test_config_validation():
    with pytest.raises(ValueError):
        GbmConfig(0.05, 0.2, 100.0, T=0.0)
    with pytest.raises(ValueError):
        GbmConfig(0.05, 0.2, 100.0, paths=0)
    with pytest.raises(ValueError):
        GbmConfig(0.05, 0.0, 100.0)
    with pytest.raises(ValueError):
        GbmConfig(0.05, 0.2, -1.0)


# -- counter-based streams -----------------------------------------------------


def test_raw_stream_is_pure_function_of_index():
    full = raw_uint64(7, 0, 0, 256)
    for start, count in ((0, 17), (17, 100), (117, 139), (4, 4)):
        assert np.array_equal(raw_uint64(7, 0, start, count), full[start : start + count])


def test_streams_differ_by_seed_and_stream():
    a = standard_normals(1, 64)
    b = standard_normals(2, 64)
    c = standard_normals(1, 64, stream=1)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_normals_standardized():
    z = standard_normals(0, 400_000)
    assert abs(z.mean()) < 3.0 / math.sqrt(len(z))
    assert abs(z.std() - 1.0) < 0.01
    assert np.all(np.isfinite(z))


def test_normals_are_the_inverse_erf_of_the_same_draws():
    u = (raw_uint64(0, 0, 0, 400_000) >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    reference = math.sqrt(2.0) * erfinv(2.0 * u - 1.0)
    assert np.max(np.abs(standard_normals(0, 400_000) - reference)) <= 4e-15


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


# -- exact terminal sampling -----------------------------------------------------


def test_tiny_sigma_is_deterministic():
    cfg = GbmConfig(drift=0.07, sigma=1e-12, s0=50.0, T=2.0, paths=1000, seed=3)
    st_ = sample_terminal(cfg)
    expected = 50.0 * math.exp(0.07 * 2.0)
    assert np.max(np.abs(st_ / expected - 1.0)) <= 1e-9


@pytest.mark.parametrize("sigma", [0.1, 0.2, 0.4])
@pytest.mark.parametrize("r", [0.0, 0.05, 0.1])
def test_discounted_martingale_property(sigma, r):
    paths = 1_000_000 if (sigma, r) == (0.2, 0.05) else 200_000
    cfg = GbmConfig(drift=r, sigma=sigma, s0=100.0, T=1.0, paths=paths, seed=0)
    disc = math.exp(-r) * sample_terminal(cfg)
    se = np.std(disc, ddof=1) / math.sqrt(cfg.paths)
    assert abs(disc.mean() - 100.0) <= 3.0 * se


def test_log_moments_match_lognormal():
    cfg = GbmConfig(drift=0.03, sigma=0.3, s0=80.0, T=1.5, paths=400_000, seed=1)
    logs = np.log(sample_terminal(cfg) / 80.0)
    expected = (0.03 - 0.5 * 0.09) * 1.5
    se = np.std(logs, ddof=1) / math.sqrt(cfg.paths)
    assert abs(logs.mean() - expected) <= 3.0 * se


# -- Feynman-Kac estimation -------------------------------------------------------


def test_constant_claim_has_zero_error():
    # a barrier above the spot knocks every path out at the first date: the claim is 0
    contract = OptionContract("down_and_out_call", 100.0, 1.0, barrier=150.0)
    est = feynman_kac_estimate(MarketParams(0.2, 0.05), contract, 100.0, 10_000)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_linear_claim_matches_gbm_mean():
    cfg = GbmConfig(drift=0.05, sigma=0.2, s0=70.0, T=0.75, paths=500_000, seed=2)
    s_t = sample_terminal(cfg)
    expected = 70.0 * math.exp(0.05 * 0.75)
    assert abs(s_t.mean() - expected) <= 3.0 * np.std(s_t, ddof=1) / math.sqrt(cfg.paths)


def test_call_estimate_matches_closed_form():
    mp, contract = MarketParams(0.2, 0.05), OptionContract("european_call", 100.0, 1.0)
    est = feynman_kac_estimate(mp, contract, 100.0, 1_000_000)
    ref = closed_form_price(mp, contract, 100.0)
    assert abs(est.mean - ref) <= 3.0 * est.std_error


def test_estimates_are_bit_reproducible():
    mp, contract = MarketParams(0.2, 0.05), OptionContract("european_call", 90.0, 1.0)
    a = feynman_kac_estimate(mp, contract, 100.0, 50_000, seed=11)
    b = feynman_kac_estimate(mp, contract, 100.0, 50_000, seed=11)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)
    assert a.paths == 50_000 and a.seed == 11


def chunk_paths(monkeypatch, paths: int, m: int):
    """Shrink the knock-out chunk budget so that one chunk holds ``paths`` paths of m dates."""
    monkeypatch.setattr(montecarlo, "KNOCKOUT_CHUNK_BYTES", 8 * paths * m)


def test_knockout_chunking_does_not_change_results(monkeypatch):
    cfg = GbmConfig(drift=0.05, sigma=0.2, s0=100.0, T=1.0, paths=2_000, seed=5)
    chunk_paths(monkeypatch, 64, 50)
    a = knockout_terminal(cfg, 80.0, monitoring_per_year=50)
    chunk_paths(monkeypatch, 2_000, 50)
    b = knockout_terminal(cfg, 80.0, monitoring_per_year=50)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@pytest.mark.parametrize("chunk", [None, 1, 7, 64, 2_000, 5_000])
def test_knockout_walk_matches_reference_formula(monkeypatch, chunk):
    cfg = GbmConfig(drift=0.05, sigma=0.2, s0=100.0, T=1.0, paths=2_000, seed=5)
    m = 50
    if chunk is not None:
        chunk_paths(monkeypatch, chunk, m)
    dt = cfg.T / m
    z = standard_normals(cfg.seed, cfg.paths * m).reshape(cfg.paths, m)
    drift, vol = (cfg.drift - 0.5 * cfg.sigma**2) * dt, cfg.sigma * math.sqrt(dt)
    logs = math.log(cfg.s0) + np.cumsum(drift + vol * z, axis=1)
    s_t, alive = knockout_terminal(cfg, 80.0, monitoring_per_year=m)
    assert np.array_equal(s_t, np.exp(logs[:, -1]))
    assert np.array_equal(alive, np.min(logs, axis=1) > math.log(80.0))


def test_knockout_memory_is_bounded_by_the_chunk_budget():
    bound = 3 * KNOCKOUT_CHUNK_BYTES
    for paths in (8_192, 65_536):
        cfg = GbmConfig(drift=0.05, sigma=0.2, s0=100.0, T=1.0, paths=paths, seed=0)
        tracemalloc.start()
        try:
            knockout_terminal(cfg, 80.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (paths, peak)


def test_knockout_refuses_more_dates_than_one_chunk_holds():
    cfg = GbmConfig(drift=0.05, sigma=0.2, s0=100.0, T=1.0, paths=2)
    with pytest.raises(ValueError, match="monitoring"):
        knockout_terminal(cfg, 80.0, monitoring_per_year=KNOCKOUT_CHUNK_BYTES // 8 + 1)
    s_t, alive = knockout_terminal(cfg, 80.0, monitoring_per_year=KNOCKOUT_CHUNK_BYTES // 8)
    assert s_t.shape == alive.shape == (2,)


# -- discounting -------------------------------------------------------------------


@pytest.mark.parametrize("r", [0.0, 0.05, -0.01])
@pytest.mark.parametrize("payoff", ["call", "do-call"])
def test_estimate_is_the_discounted_sampler_mean(payoff, r):
    # the undiscounted payoff values of the same draws, aggregated as the estimate does
    barrier = 90.0 if payoff == "do-call" else None
    contract = OptionContract("down_and_out_call" if barrier else "european_call", 100.0, 0.5, barrier)
    cfg = GbmConfig(r, 0.2, 100.0, T=0.5, paths=4_000, seed=9)
    if barrier:
        s_t, alive = knockout_terminal(cfg, barrier, monitoring_per_year=50, stream=2)
        values = np.where(alive, contract.payoff(s_t), 0.0)
    else:
        values = contract.payoff(sample_terminal(cfg, stream=2))
    est = feynman_kac_estimate(MarketParams(0.2, r), contract, 100.0, 4_000, seed=9, stream=2,
                               monitoring_per_year=50)
    factor = math.exp(-r * 0.5)
    assert est.mean == float(np.sum(values) / 4_000) * factor
    assert est.std_error == float(np.std(values, ddof=1) / math.sqrt(4_000)) * factor
    assert (est.paths, est.seed) == (4_000, 9)


# -- standard-error scaling ---------------------------------------------------------


def test_standard_error_scaling():
    contract = OptionContract("european_call", 100.0, 1.0)
    for seed in range(10):
        small = feynman_kac_estimate(MarketParams(0.2, 0.05), contract, 100.0, 20_000, seed=seed)
        big = feynman_kac_estimate(MarketParams(0.2, 0.05), contract, 100.0, 80_000, seed=seed)
        ratio = big.std_error / small.std_error
        assert 0.4 <= ratio <= 0.6  # quadrupling paths halves the SE within 20%


# -- PDE crosscheck -----------------------------------------------------------------


def test_fk_pde_crosscheck_vanilla():
    mp = MarketParams(0.2, 0.05)
    contract = OptionContract("european_call", 100.0, 1.0)
    g = Grid1D(math.log(100) - 5, math.log(100) + 5, 1501)
    report = fk_pde_crosscheck(mp, contract, g, 400_000)
    assert isinstance(report, CrosscheckReport)
    assert len(report.rows) == 5
    assert all(row.pde_price == report.curve.price_at(row.spot) for row in report.rows)
    assert report.passed
    assert report.monitoring_per_year is None


def test_fk_pde_crosscheck_deep_otm_high_vol():
    mp = MarketParams(0.4, 0.05)
    contract = OptionContract("european_call", 100.0, 1.0)
    g = Grid1D(math.log(100) - 6, math.log(100) + 6, 1501)
    report = fk_pde_crosscheck(mp, contract, g, 400_000, spots=[60.0, 80.0, 100.0])
    assert report.passed


def test_fk_pde_crosscheck_barrier():
    mp = MarketParams(0.2, 0.05)
    contract = OptionContract("down_and_out_call", 100.0, 1.0, barrier=80.0)
    g = Grid1D(math.log(100) - 5, math.log(100) + 5, 1501)
    report = fk_pde_crosscheck(mp, contract, g, 100_000)
    assert report.passed
    assert report.monitoring_per_year == 250
    assert report.monitoring_bias_bound > 0.0
    assert all(row.spot > 80.0 for row in report.rows)
