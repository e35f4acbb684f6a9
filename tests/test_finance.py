import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from conftest import from_dense, toarray
from qflab import finance
from qflab.finance import (
    MarketParams,
    OptionContract,
    PriceCurve,
    bs_hamiltonian,
    bsb_hamiltonian,
    bsg_hamiltonian,
    closed_form_price,
    default_pricing_grid,
    map_to_deformed,
    price_pde,
)
from qflab.grid import Grid1D
from qflab.hamiltonians import closed_form
from qflab.operators import FunctionSpec, diagonal, hermiticity_defect
from qflab import tolerances as TOL


G = Grid1D(-3, 3, 601)


@pytest.fixture(scope="module")
def g():
    return G


# -- contract / params validation ---------------------------------------------


def test_market_params_validation():
    with pytest.raises(ValueError):
        MarketParams(0.0, 0.05)
    MarketParams(0.2, -0.01)  # negative rates allowed


def test_contract_validation():
    with pytest.raises(ValueError):
        OptionContract("asian_call", 100, 1.0)
    with pytest.raises(ValueError):
        OptionContract("european_call", -1, 1.0)
    with pytest.raises(ValueError):
        OptionContract("european_call", 100, 0.0)
    with pytest.raises(ValueError):
        OptionContract("down_and_out_call", 100, 1.0)  # missing barrier
    c = OptionContract("down_and_out_call", 100, 1.0, barrier=80)
    assert np.array_equal(c.payoff(np.array([90.0, 120.0])), [0.0, 20.0])


# -- Hamiltonian constructions ---------------------------------------------------


def test_bs_hamiltonian_structure(g):
    from qflab.operators import derivative_matrices

    d1, d2 = (toarray(d).real for d in derivative_matrices(g))
    mp = MarketParams(1.0, 0.0)
    h = bs_hamiltonian(g, mp)
    assert np.array_equal(toarray(h).real, -0.5 * d2 + 0.5 * d1)
    # sigma^2 = 2r kills the drift term
    mp = MarketParams(0.2, 0.02)
    h = bs_hamiltonian(g, mp)
    expected = -0.02 * d2 + (0.5 * 0.04 - 0.02) * d1 + 0.02 * np.eye(g.n)
    assert np.allclose(toarray(h).real, expected, atol=1e-18)
    assert hermiticity_defect(h) > 0 or abs(0.5 * 0.04 - 0.02) < 1e-15


def test_bs_hamiltonian_nonhermitian_when_drift_present(g):
    assert hermiticity_defect(bs_hamiltonian(g, MarketParams(0.2, 0.05))) > 1.0


def test_bsg_reduces_to_bs_for_constant_potential(g):
    mp = MarketParams(0.25, 0.07, FunctionSpec.polynomial([0.07]))
    assert np.array_equal(toarray(bsg_hamiltonian(g, mp)), toarray(bs_hamiltonian(g, mp)))
    with pytest.raises(ValueError):
        bsg_hamiltonian(g, MarketParams(0.25, 0.07))


def test_bsg_drift_varies_with_node(g):
    mp = MarketParams(0.2, 0.0, FunctionSpec.polynomial([0.0, 1.0]))
    h = bsg_hamiltonian(g, mp)
    from qflab.operators import derivative_matrices

    d1, d2 = (toarray(d).real for d in derivative_matrices(g))
    hv = 0.5 * 0.2**2
    expected = -hv * d2 + (hv - g.nodes)[:, None] * d1 + np.diag(g.nodes)
    assert np.array_equal(toarray(h).real, expected)


def test_bsb_reduces_to_bs_for_constant_potential(g):
    mp = MarketParams(0.25, 0.07)
    v = FunctionSpec.polynomial([0.07])
    assert np.array_equal(toarray(bsb_hamiltonian(g, mp, v)), toarray(bs_hamiltonian(g, mp)))


def test_bsb_soft_barrier_differs_only_on_diagonal(g):
    mp = MarketParams(0.2, 0.05)
    mask = g.nodes < 0.0
    v = FunctionSpec.tabulated(np.where(mask, 50.0, mp.r))
    diff = toarray(bsb_hamiltonian(g, mp, v)) - toarray(bs_hamiltonian(g, mp))
    off_diag = diff - np.diag(np.diag(diff))
    assert np.max(np.abs(off_diag)) == 0.0
    assert np.array_equal(np.diag(diff).real != 0.0, mask)


# -- identification ---------------------------------------------------------------


@pytest.mark.parametrize("sigma", [0.1, 0.2, 0.4])
@pytest.mark.parametrize("r", [0.0, 0.01, 0.05, 0.1])
def test_identification_corpus(g, sigma, r):
    mapping = map_to_deformed(MarketParams(sigma, r), g, kind="auto")
    target = bs_hamiltonian(g, MarketParams(sigma, r))
    assert mapping.residual <= TOL.ROUND_COEFF * TOL.EPS * target.max_abs()
    assert mapping.beta**2 == pytest.approx(sigma**2 / 2, rel=1e-15)
    if abs(sigma**2 / 2 - r) > 1e-12:
        # exactly one sign branch: the paper-form f through H_I, or -f through H_II
        assert set(mapping.matches) == {("H_I", 1), ("H_II", -1)}
        assert (mapping.which_hamiltonian, mapping.sign) == ("H_I", 1)


def test_identification_degenerate_prefers_h2_label(g):
    mapping = map_to_deformed(MarketParams(0.2, 0.02), g, kind="auto")  # sigma^2 = 2r, f' ~ 0
    assert mapping.which_hamiltonian == "H_II"
    assert mapping.sign == 1
    assert len(mapping.matches) == 4


def test_identification_generalized_polynomial(g):
    mp = MarketParams(0.3, 0.0, FunctionSpec.polynomial([0.05, 0.01]))
    mapping = map_to_deformed(mp, g, kind="auto")
    assert mapping.kind == "bsg"
    assert (mapping.which_hamiltonian, mapping.sign) == ("H_I", 1)
    assert mapping.f.is_polynomial  # integral form with exact antiderivative


def test_identification_generalized_tabulated(g):
    mp = MarketParams(0.3, 0.0, FunctionSpec.tabulated(0.05 + 0.01 * np.tanh(g.nodes)))
    mapping = map_to_deformed(mp, g, kind="auto")
    assert mapping.kind == "bsg"
    assert mapping.residual <= TOL.ROUND_COEFF * TOL.EPS * bsg_hamiltonian(g, mp).max_abs()


def test_identification_barrier(g):
    v = FunctionSpec.tabulated(np.where(g.nodes < 0.0, 40.0, 0.05))
    mp = MarketParams(0.2, 0.05, v)
    mapping = map_to_deformed(mp, g, kind="bsb")
    assert mapping.kind == "bsb"
    assert (mapping.which_hamiltonian, mapping.sign) == ("H_I", 1)


# the identification's f's: linear from (sigma, r), and the bsg antiderivatives of
# a polynomial and of a tabulated V
IDENTIFICATIONS = {
    **{f"bs-{s}-{r}": (MarketParams(s, r), "bs")
       for s, r in ((0.1, 0.0), (0.1, 0.1), (0.2, 0.02), (0.2, 0.05), (0.4, 0.01), (0.4, 0.1))},
    "bsg-poly": (MarketParams(0.3, 0.0, FunctionSpec.polynomial([0.05, 0.01])), "bsg"),
    "bsg-table": (MarketParams(0.3, 0.0, FunctionSpec.tabulated(0.05 + 0.01 * np.tanh(G.nodes))), "bsg"),
    "bsb": (MarketParams(0.2, 0.05, FunctionSpec.polynomial([0.05, 0.01])), "bsb"),
}


def four_candidates(g, mapping):
    """H_I(+-f) and H_II(+-f) of the mapping's f, rebuilt from the public builders."""
    b2, v2 = mapping.beta * mapping.beta, mapping.v2.values(g)
    out = {}
    for sign, f in ((+1, mapping.f), (-1, -mapping.f)):
        fp, fpp = f.derivative_values(g), f.second_derivative_values(g)
        out["H_I", sign] = closed_form(g, f, "H4", mapping.beta) + diagonal(g, -b2 * (fpp - fp**2) + v2)
        out["H_II", sign] = closed_form(g, f, "H3", mapping.beta) + diagonal(g, b2 * (fpp + fp**2) + v2)
    return out


@pytest.mark.parametrize("case", sorted(IDENTIFICATIONS))
def test_sign_branches_are_duality_twins(g, case):
    # H_I(+-f) and H_II(-+f) are the same matrix, so two candidates cover all four
    mp, kind = IDENTIFICATIONS[case]
    mapping = map_to_deformed(mp, g, kind=kind)
    cands = four_candidates(g, mapping)
    for sign in (+1, -1):
        a, b = cands["H_I", sign], cands["H_II", -sign]
        assert a.offsets == b.offsets and np.array_equal(a.entries, b.entries)
    # the measured matches and residual are those of the four candidates
    target = (bsb_hamiltonian(g, mp, mp.potential) if kind == "bsb"
              else bsg_hamiltonian(g, mp) if kind == "bsg" else bs_hamiltonian(g, mp))
    residuals = {(w, s): (cands[w, s] - target).max_abs() for w in ("H_I", "H_II") for s in (1, -1)}
    assert mapping.matches == tuple(key for key, r in residuals.items() if r <= mapping.tolerance)
    assert mapping.residual == residuals[mapping.which_hamiltonian, mapping.sign]


@pytest.mark.parametrize("case", ["bs-0.2-0.05", "bsg-table", "bsb"])
def test_identification_builds_each_sign_branch_once(g, monkeypatch, case):
    labels = []
    monkeypatch.setattr(finance, "closed_form", lambda *a: labels.append(a[2]) or closed_form(*a))
    mp, kind = IDENTIFICATIONS[case]
    map_to_deformed(mp, g, kind=kind)
    assert labels == ["H4", "H3"]  # H_I(f) and H_II(f)


def test_identification_requires_potential_for_bsg(g):
    with pytest.raises(ValueError):
        map_to_deformed(MarketParams(0.2, 0.05), g, kind="bsg")
    with pytest.raises(ValueError):
        map_to_deformed(MarketParams(0.2, 0.05), g, kind="nope")


# -- closed form -------------------------------------------------------------------

# expected values computed with an independent brute-force quadrature of the
# discounted lognormal payoff density, split at the payoff kink
# (scipy.integrate.quad, reported |err| < 1e-7)
QUADRATURE_ORACLE = [
    (100, 100, 0.05, 0.2, 1.0, "call", 10.450583572185572),
    (100, 100, 0.05, 0.2, 1.0, "put", 5.573526022256969),
    (80, 100, 0.05, 0.1, 1.0, "call", 0.14757028598521368),
    (120, 100, 0.05, 0.4, 1.0, "put", 7.357231659617691),
    (90, 110, 0.03, 0.25, 2.0, "call", 7.833091220946454),
]


def closed(s0, k, r, sigma, t, kind):
    return closed_form_price(MarketParams(sigma, r), OptionContract(f"european_{kind}", k, t), s0)


def do_call(s0, k, b, r=0.05, sigma=0.2, t=1.0):
    return closed_form_price(MarketParams(sigma, r), OptionContract("down_and_out_call", k, t, b), s0)


@pytest.mark.parametrize("s0,k,r,sigma,t,kind,expected", QUADRATURE_ORACLE)
def test_closed_form_against_quadrature(s0, k, r, sigma, t, kind, expected):
    assert closed(s0, k, r, sigma, t, kind) == pytest.approx(expected, abs=2e-7)


def test_quadrature_oracle_reproducible():
    # recompute one frozen oracle row to prove the oracle itself
    s0, k, r, sigma, t = 100, 100, 0.05, 0.2, 1.0

    def integrand(z):
        st_ = s0 * math.exp((r - 0.5 * sigma**2) * t + sigma * math.sqrt(t) * z)
        return max(st_ - k, 0.0) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    zstar = (math.log(k / s0) - (r - 0.5 * sigma**2) * t) / (sigma * math.sqrt(t))
    lo, _ = quad(integrand, -40, zstar, limit=400)
    hi, _ = quad(integrand, zstar, 40, limit=400)
    assert math.exp(-r * t) * (lo + hi) == pytest.approx(10.450583572185572, abs=1e-9)


def test_closed_form_limits():
    assert closed(100, 1e-8, 0.05, 0.2, 1.0, "call") == pytest.approx(100.0, abs=1e-7)
    assert closed(100, 1e-8, 0.05, 0.2, 1.0, "put") == pytest.approx(0.0, abs=1e-12)
    # zero-volatility limit: deterministic forward
    assert closed(100, 90, 0.05, 1e-13, 1.0, "call") == pytest.approx(
        100 - 90 * math.exp(-0.05), rel=1e-12
    )
    assert do_call(100, 100, 80) == pytest.approx(10.351345201184554, rel=1e-14)
    assert do_call(120, 100, 110) == pytest.approx(16.621957422147567, rel=1e-14)
    with pytest.raises(ValueError, match="spot"):
        closed(0.0, 100, 0.05, 0.2, 1.0, "call")


def test_down_and_out_closed_form_limits():
    # knocked out at or below the barrier, whether B <= K or B > K
    assert do_call(100, 100, 100) == do_call(90, 100, 95) == do_call(100, 90, 120) == 0.0
    # a barrier far below the spot leaves the call
    assert do_call(100, 100, 1e-6) == pytest.approx(closed(100, 100, 0.05, 0.2, 1.0, "call"), rel=1e-12)
    # Merton's formula (B <= K) meets Reiner and Rubinstein's (B > K) at B = K
    assert do_call(100, 90, 90 * (1 - 1e-12)) == pytest.approx(do_call(100, 90, 90 * (1 + 1e-12)), rel=1e-9)
    # zero volatility: the path S e^{rt} falls below the barrier only for r < 0
    assert do_call(100, 90, 95, r=0.05, sigma=1e-13) == pytest.approx(100 - 90 * math.exp(-0.05), rel=1e-12)
    assert do_call(100, 90, 97, r=-0.05, sigma=1e-13) == 0.0


def test_down_and_out_closed_form_where_its_image_factors_leave_float64():
    # (B/S)^(2 lambda) is e^801 and N(y) about e^-800: each overflows or underflows
    # alone, and their product is formed as one exponential
    s0, k, b, r, sigma, t = 100.0, 90.0, 95.0, -0.5, 0.008, 0.1026
    mp, contract = MarketParams(sigma, r), OptionContract("down_and_out_call", k, t, b)
    assert 2 * (r / sigma**2 + 0.5) * math.log(b / s0) > math.log(np.finfo(float).max)
    # Richardson extrapolation of two second-order PDE solves on a grid starting at ln B
    coarse, fine = (price_pde(bs_hamiltonian(g, mp), contract, mp, g.n).price_at(s0)
                    for g in (Grid1D(math.log(b), math.log(b) + 0.4, n) for n in (2001, 4001)))
    assert closed_form_price(mp, contract, s0) == pytest.approx(fine + (fine - coarse) / 3, abs=2e-4)


def test_closed_form_zero_volatility_never_forms_the_forward():
    # s0 e^{rT} overflows here, while its discounted value s0 - K e^{-rT} does not
    assert closed(1e300, 100, 20.0, 1e-13, 1.0, "call") == pytest.approx(1e300)
    assert closed(1e300, 100, 20.0, 1e-13, 1.0, "put") == 0.0
    # the rate is within MarketParams' range, but exp(-r T) overflows over two years
    with pytest.raises(ValueError, match="rate"):
        closed(100, 100, -400.0, 0.2, 2.0, "call")


@given(
    st.floats(50, 200),
    st.floats(50, 200),
    st.floats(0.0, 0.1),
    st.floats(0.05, 0.8),
    st.floats(0.1, 3.0),
)
@settings(max_examples=80)
def test_put_call_parity_closed_form(s0, k, r, sigma, t):
    call = closed(s0, k, r, sigma, t, "call")
    put = closed(s0, k, r, sigma, t, "put")
    assert call - put == pytest.approx(s0 - k * math.exp(-r * t), abs=1e-9 * max(s0, k))


# -- PDE pricing -------------------------------------------------------------------


@pytest.fixture(scope="module")
def pricing_setup():
    mp = MarketParams(0.2, 0.05)
    g = Grid1D(math.log(100) - 5, math.log(100) + 5, 2001)
    return mp, g


def test_pde_benchmark_point(pricing_setup):
    mp, g = pricing_setup
    contract = OptionContract("european_call", 100.0, 1.0)
    curve = price_pde(bs_hamiltonian(g, mp), contract, mp, 2000)
    assert curve.price_at(100.0) == pytest.approx(10.450583572185565, abs=1e-2)
    assert curve.diagnostics["banded"]


def test_pde_put_call_parity(pricing_setup):
    mp, g = pricing_setup
    h = bs_hamiltonian(g, mp)
    for s0 in (80.0, 100.0, 120.0):
        call = price_pde(h, OptionContract("european_call", 100, 1.0), mp, 2000)
        put = price_pde(h, OptionContract("european_put", 100, 1.0), mp, 2000)
        gap = call.price_at(s0) - put.price_at(s0) - (s0 - 100 * math.exp(-0.05))
        assert abs(gap) <= 2e-3


def test_pde_monotonic_in_sigma_and_maturity():
    prices_sigma = []
    for sigma in (0.1, 0.2, 0.4):
        mp = MarketParams(sigma, 0.05)
        contract = OptionContract("european_call", 100.0, 1.0)
        g = default_pricing_grid(contract, mp, 100.0, 1001)
        curve = price_pde(bs_hamiltonian(g, mp), contract, mp, 1000)
        prices_sigma.append(curve.price_at(100.0))
    assert prices_sigma == sorted(prices_sigma)
    prices_t = []
    mp = MarketParams(0.2, 0.05)
    for t in (0.5, 1.0, 2.0):
        contract = OptionContract("european_call", 100.0, t)
        g = default_pricing_grid(contract, mp, 100.0, 1001)
        curve = price_pde(bs_hamiltonian(g, mp), contract, mp, 1000)
        prices_t.append(curve.price_at(100.0))
    assert prices_t == sorted(prices_t)


def centred_grid(contract, mp, spot, n):
    """The grid centred on ln K that the default grid builder is measured against."""
    ln_k = math.log(contract.strike)
    half = max(5.0, abs(math.log(spot) - ln_k) + 8.0 * mp.sigma * math.sqrt(contract.maturity))
    return Grid1D(ln_k - half, ln_k + half, n)


@pytest.mark.parametrize("n", [4, 5, 400, 401, 2000, 2001])
@pytest.mark.parametrize("kind,strike,spot", [("european_call", 100.0, 100.0), ("european_put", 80.0, 100.0),
                                              ("european_call", 130.0, 95.0)])
def test_default_vanilla_grid_puts_the_strike_at_a_cell_midpoint(kind, strike, spot, n):
    mp, contract = MarketParams(0.3, 0.02), OptionContract(kind, strike, 0.7)
    g = default_pricing_grid(contract, mp, spot, n)
    cells = (math.log(strike) - g.x_min) / g.h
    assert abs(cells - math.floor(cells) - 0.5) <= 1e-9 * n
    centred = centred_grid(contract, mp, spot, n)
    assert g.h == pytest.approx(centred.h, rel=1e-12)
    if n % 2 == 0:  # ln K already lies midway between the two central nodes
        assert g == centred


# (strike, barrier, spot): B < K twice, and B > K
BARRIER_CASES = [(100.0, 80.0, 100.0), (105.0, 85.0, 100.0), (100.0, 110.0, 120.0)]


@pytest.mark.parametrize("n", [101, 501, 2000, 2001])
@pytest.mark.parametrize("strike,barrier,spot", BARRIER_CASES)
def test_default_barrier_grid_starts_at_the_barrier(strike, barrier, spot, n):
    mp = MarketParams(0.2, 0.05)
    contract = OptionContract("down_and_out_call", strike, 1.0, barrier)
    g = default_pricing_grid(contract, mp, spot, n)
    assert g.x_min == math.log(barrier)  # node 0
    assert g.x_max >= math.log(strike) + finance._half_width(contract, mp, spot)
    if barrier < strike:
        cells = (math.log(strike) - g.x_min) / g.h
        assert abs(cells - math.floor(cells) - 0.5) <= 1e-9 * n


@pytest.mark.parametrize("n,steps", [(3, 1), (4, 1), (5, 2), (400, 100), (401, 101), (2001, 501)])
def test_default_steps_are_a_quarter_of_the_nodes(n, steps):
    assert finance.default_pricing_steps(n) == steps


@pytest.mark.parametrize("strike,barrier,spot", BARRIER_CASES)
def test_default_barrier_grid_converges_at_second_order(strike, barrier, spot):
    mp = MarketParams(0.2, 0.05)
    contract = OptionContract("down_and_out_call", strike, 1.0, barrier)
    exact = closed_form_price(mp, contract, spot)
    errors = []
    for n in (501, 1001, 2001):
        g = default_pricing_grid(contract, mp, spot, n)
        curve = price_pde(bs_hamiltonian(g, mp), contract, mp, finance.default_pricing_steps(n))
        errors.append(abs(curve.price_at(spot) - exact))
    assert errors[0] >= 3.5 * errors[1] and errors[1] >= 3.5 * errors[2]
    assert errors[2] <= 1e-4


@pytest.mark.parametrize("n", [101, 2001])
@pytest.mark.parametrize("barrier", [100.0, 100.1, 101.0, 120.0])
def test_a_knocked_out_spot_lies_on_the_default_grid_and_prices_0(barrier, n):
    mp, spot = MarketParams(0.2, 0.05), 100.0
    contract = OptionContract("down_and_out_call", 100.0, 1.0, barrier)
    g = default_pricing_grid(contract, mp, spot, n)
    # whole cells below ln B reach ln S, and the top still reaches ln K + half
    cells = (math.log(barrier) - g.x_min) / g.h
    assert abs(cells - round(cells)) <= 1e-9 * n
    assert g.x_min <= math.log(spot)
    assert g.x_max >= math.log(100.0) + finance._half_width(contract, mp, spot)
    curve = price_pde(bs_hamiltonian(g, mp), contract, mp, finance.default_pricing_steps(n))
    assert curve.price_at(spot) == 0.0
    # every node at or below the barrier is held at 0
    knocked = g.nodes <= math.log(barrier) + 1e-9 * g.h
    assert np.count_nonzero(knocked) == round(cells) + 1
    assert np.max(np.abs(curve.values[knocked])) <= 1e-12


def test_a_barrier_outside_the_call_grid_is_clipped_to_it():
    mp, spot, n = MarketParams(0.2, 0.05), 100.0, 2001
    ln_k, steps = math.log(100.0), finance.default_pricing_steps(n)
    # far below, the grid is the call's, ln K - 5 to ln K + 5, and prices the call
    far = OptionContract("down_and_out_call", 100.0, 1.0, 1e-300)
    g = default_pricing_grid(far, mp, spot, n)
    assert g.x_min == ln_k - 5.0 and g.x_max >= ln_k + 5.0
    curve = price_pde(bs_hamiltonian(g, mp), far, mp, steps)
    assert curve.price_at(spot) == pytest.approx(closed_form_price(mp, far, spot), abs=1e-4)
    # far above, the grid reaches from ln S to ln K + 5 and every node is knocked out
    above = OptionContract("down_and_out_call", 100.0, 1.0, 1e300)
    g = default_pricing_grid(above, mp, spot, n)
    assert g.x_min <= math.log(spot) and g.x_max >= ln_k + 5.0
    curve = price_pde(bs_hamiltonian(g, mp), above, mp, steps)
    assert curve.price_at(spot) == 0.0 and not np.any(curve.values)


def test_only_the_top_edge_of_a_grid_from_the_barrier_can_be_narrow():
    mp = MarketParams(0.2, 0.05)
    contract = OptionContract("down_and_out_call", 100.0, 1.0, 80.0)
    assert not finance._narrow(default_pricing_grid(contract, mp, 100.0, 2001), contract, mp)
    # ln B lies above ln K - 6 sigma sqrt(T), so a grid from below ln B is wide at the bottom
    assert not finance._narrow(Grid1D(math.log(79.0), math.log(100.0) + 2.0, 101), contract, mp)
    assert finance._narrow(Grid1D(math.log(81.0), math.log(100.0) + 2.0, 101), contract, mp)
    assert finance._narrow(Grid1D(math.log(80.0), math.log(100.0) + 1.0, 101), contract, mp)


def test_default_grid_and_steps_price_the_strike_ladder_within_3e_4():
    # the strike ladder of perfbench's vanilla workload; 5.81e-4 on the
    # centred grid at n steps
    mp, spot, n = MarketParams(0.2, 0.05), 100.0, 2001
    errors = []
    for kind in ("european_call", "european_put"):
        for strike in (80.0, 90.0, 100.0, 110.0, 120.0):
            contract = OptionContract(kind, strike, 1.0)
            g = default_pricing_grid(contract, mp, spot, n)
            curve = price_pde(bs_hamiltonian(g, mp), contract, mp, finance.default_pricing_steps(n))
            errors.append(abs(curve.price_at(spot) - closed_form_price(mp, contract, spot)))
    assert max(errors) <= 3e-4


@pytest.mark.parametrize("n", [400, 401])
@pytest.mark.parametrize("kind", ["european_call", "european_put"])
def test_a_translated_unit_curve_prices_as_the_direct_solve(kind, n):
    mp, spot = MarketParams(0.2, 0.05), 100.0
    for strike in (80.0, 100.0, 120.0):
        contract = OptionContract(kind, strike, 1.0)
        g = default_pricing_grid(contract, mp, spot, n)
        direct = price_pde(bs_hamiltonian(g, mp), contract, mp, n // 4).price_at(spot)
        curve = finance.price_by_translation(contract, mp, spot, n, n // 4)
        assert curve.grid == g
        assert curve.price_at(spot) == pytest.approx(direct, rel=1e-12, abs=0.0)
    # one unit-strike solve served all three strikes, and its values were never scaled in place
    assert finance._unit_curve.cache_info()[:2] == (2, 1)  # (hits, misses)
    unit = finance._unit_curve(kind, 0.2, 0.05, 1.0, 5.0, n, n // 4)
    assert not unit.values.flags.writeable
    fresh = price_pde(bs_hamiltonian(unit.grid, mp), OptionContract(kind, 1.0, 1.0), mp, n // 4)
    assert np.array_equal(unit.values, fresh.values)


def test_a_unit_curve_that_overflows_leaves_the_strike_to_its_own_solve():
    # at r = -708 the unit-strike put overflows float64, but the strike-0.001 one fits
    mp, contract = MarketParams(0.2, -708.0), OptionContract("european_put", 1e-3, 1.0)
    g = default_pricing_grid(contract, mp, 1e-3, 101)
    direct = price_pde(bs_hamiltonian(g, mp), contract, mp, 26)
    assert np.array_equal(finance.price_by_translation(contract, mp, 1e-3, 101, 26).values, direct.values)


def test_a_translated_curve_that_overflows_is_refused_on_its_own_grid(recwarn):
    # at r = -700 the unit-strike put fits, but 1e5 times it does not
    mp, contract = MarketParams(0.2, -700.0), OptionContract("european_put", 1e5, 1.0)
    with pytest.raises(ValueError, match=r"overflow float64 on the grid \[6.56293, 16.5629\]"):
        finance.price_by_translation(contract, mp, 1e5, 101, 26)
    assert not recwarn.list


@pytest.mark.parametrize("j", [1, 2, 3, 4, 100, 499, 500])
def test_pde_stability_bound(pricing_setup, j):
    # the curve after j of 500 steps over T = 1: the Rannacher steps 1 and 2,
    # the first Crank-Nicolson steps and the last ones
    mp, g = pricing_setup
    tau = j / 500
    contract = OptionContract("european_call", 100.0, tau)
    curve = price_pde(bs_hamiltonian(g, mp), contract, mp, j)
    payoff_max = np.max(np.abs(contract.payoff(np.exp(g.nodes))))
    assert np.max(np.abs(curve.values)) <= payoff_max * math.exp(abs(mp.r) * tau) * (1 + 1e-6)


def test_pde_narrow_grid_warns():
    mp = MarketParams(0.4, 0.05)
    g = Grid1D(math.log(100) - 0.5, math.log(100) + 0.5, 201)
    with pytest.warns(UserWarning, match="narrower"):
        price_pde(bs_hamiltonian(g, mp), OptionContract("european_call", 100, 1.0), mp, 100)


def test_pde_rejects_bad_input(pricing_setup):
    mp, g = pricing_setup
    h = bs_hamiltonian(g, mp)
    with pytest.raises(ValueError):
        price_pde(h, OptionContract("european_call", 100, 1.0), mp, 0)


def test_pde_refuses_a_wider_band(pricing_setup):
    mp, _ = pricing_setup
    g = Grid1D(math.log(100) - 4, math.log(100) + 4, 401)
    # an entry far off the band: the step matrix is no longer tridiagonal
    entries = toarray(bs_hamiltonian(g, mp))
    entries[g.n // 2, 0] += 1e-300
    with pytest.raises(ValueError, match="not a real tridiagonal band"):
        price_pde(from_dense(entries, g), OptionContract("european_call", 100.0, 1.0), mp, 400)


def test_pde_refuses_a_complex_hamiltonian(pricing_setup):
    mp, g = pricing_setup
    h = bs_hamiltonian(g, mp) + diagonal(g, 1e-3j * np.ones(g.n))
    with pytest.raises(ValueError, match="not a real tridiagonal band"):
        price_pde(h, OptionContract("european_call", 100.0, 1.0), mp, 100)


# -- barrier -----------------------------------------------------------------------


def test_barrier_below_vanilla_and_ordering(pricing_setup):
    mp, g = pricing_setup
    h = bs_hamiltonian(g, mp)
    vanilla = price_pde(h, OptionContract("european_call", 100, 1.0), mp, 2000)
    previous_gap = None
    for barrier in (90.0, 80.0, 60.0):
        do = price_pde(
            h, OptionContract("down_and_out_call", 100, 1.0, barrier=barrier), mp, 2000
        )
        gap = vanilla.price_at(100.0) - do.price_at(100.0)
        assert gap >= -1e-9
        if previous_gap is not None:
            assert gap <= previous_gap + 1e-12
        previous_gap = gap
    # 5+ standard deviations below spot: knockout nearly irrelevant
    far = price_pde(
        h, OptionContract("down_and_out_call", 100, 1.0, barrier=100 * math.exp(-7 * 0.2)),
        mp, 2000,
    )
    assert vanilla.price_at(100.0) - far.price_at(100.0) <= 1e-3


def test_soft_barrier_converges_to_dirichlet(pricing_setup):
    mp, g = pricing_setup
    contract = OptionContract("down_and_out_call", 100.0, 1.0, barrier=80.0)
    dirichlet = price_pde(bs_hamiltonian(g, mp), contract, mp, 2000).price_at(100.0)
    # the potential alone knocks out: the contract carries no barrier
    call = OptionContract("european_call", 100.0, 1.0)
    gaps = []
    for m in (20.0, 200.0, 2000.0):
        v = FunctionSpec.tabulated(np.where(g.nodes <= math.log(80.0), m, mp.r))
        soft = price_pde(bsb_hamiltonian(g, mp, v), call, mp, 2000).price_at(100.0)
        gaps.append(abs(soft - dirichlet))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 5e-3


def test_price_curve_csv(tmp_path, pricing_setup):
    mp, _ = pricing_setup
    g = Grid1D(math.log(100) - 2, math.log(100) + 2, 101)
    contract = OptionContract("european_call", 100.0, 0.5)
    curve = price_pde(bs_hamiltonian(g, mp), contract, mp, 100)
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,S,C"
    assert len(rows) == g.n + 1
    x, s, c = map(float, rows[1].split(","))
    assert s == pytest.approx(math.exp(x), rel=1e-15)


# -- read-off ----------------------------------------------------------------


@given(
    n=st.integers(4, 4001),
    seed=st.integers(0, 2**32 - 1),
    cell=st.sampled_from(["first", "interior", "last", "barrier"]),
)
@settings(max_examples=200, deadline=None)
def test_read_off_reproduces_a_cubic(n, seed, cell):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-10.0, 5.0)
    g = Grid1D(lo, lo + rng.uniform(0.5, 20.0), n)
    x = g.nodes
    i = {"first": 0, "interior": rng.integers(1, n - 2), "last": n - 2, "barrier": rng.integers(0, n - 3)}[cell]
    roots = rng.uniform(g.x_min, g.x_max, 3)
    ln_b = -math.inf
    if cell == "barrier":
        # the cubic is 0 at x_i, and ln B lies on x_i to rounding, as on the default grid;
        # the curve is 0 at and below ln B
        roots[0] = x[i]
        ln_b = float(x[i]) + int(rng.integers(-2, 3)) * math.ulp(x[i])
    scale = 10.0 ** rng.uniform(-6.0, 6.0)

    def cubic(v):
        return scale * np.prod(np.subtract.outer(v, roots), axis=-1)

    curve = PriceCurve(g, np.where(x <= ln_b, 0.0, cubic(x)), {}, ln_b)
    spot = math.exp(rng.uniform(x[i], x[i + 1]))
    xv = math.log(spot)
    expected = float(cubic(xv)) if xv > ln_b else 0.0
    # a weight carries the rounding of ln S - x_k, |x| / h times its own size
    tol = TOL.rounding(4, (1.0 + np.max(np.abs(x)) / g.h) * np.max(np.abs(curve.values)))
    assert abs(curve.price_at(spot) - expected) <= tol


def test_read_off_is_fourth_order():
    # the remainder f''''(xi) / 4! (x - x_0) ... (x - x_3) is O(h^4): halving h divides it by 16
    errors = []
    for n in (51, 101):
        g = Grid1D(0.0, 2.0, n)
        curve = PriceCurve(g, np.sin(3.0 * g.nodes), {})
        spots = np.exp(g.nodes[:-1] + 0.5 * g.h)  # every cell's midpoint
        errors.append(max(abs(curve.price_at(s) - math.sin(3.0 * math.log(s))) for s in spots))
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.05)
