import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from qflab import finance
from qflab.finance import (
    MarketParams,
    OptionContract,
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
from qflab.tolerances import DEFAULT as TOL, EPS


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

    d1, d2 = (d.toarray().real for d in derivative_matrices(g))
    mp = MarketParams(1.0, 0.0)
    h = bs_hamiltonian(g, mp)
    assert np.array_equal(h.toarray().real, -0.5 * d2 + 0.5 * d1)
    # sigma^2 = 2r kills the drift term
    mp = MarketParams(0.2, 0.02)
    h = bs_hamiltonian(g, mp)
    expected = -0.02 * d2 + (0.5 * 0.04 - 0.02) * d1 + 0.02 * np.eye(g.n)
    assert np.allclose(h.toarray().real, expected, atol=1e-18)
    assert hermiticity_defect(h) > 0 or abs(0.5 * 0.04 - 0.02) < 1e-15


def test_bs_hamiltonian_nonhermitian_when_drift_present(g):
    assert hermiticity_defect(bs_hamiltonian(g, MarketParams(0.2, 0.05))) > 1.0


def test_bsg_reduces_to_bs_for_constant_potential(g):
    mp = MarketParams(0.25, 0.07, FunctionSpec.polynomial([0.07]))
    assert np.array_equal(bsg_hamiltonian(g, mp).toarray(), bs_hamiltonian(g, mp).toarray())
    with pytest.raises(ValueError):
        bsg_hamiltonian(g, MarketParams(0.25, 0.07))


def test_bsg_drift_varies_with_node(g):
    mp = MarketParams(0.2, 0.0, FunctionSpec.polynomial([0.0, 1.0]))
    h = bsg_hamiltonian(g, mp)
    from qflab.operators import derivative_matrices

    d1, d2 = (d.toarray().real for d in derivative_matrices(g))
    hv = 0.5 * 0.2**2
    expected = -hv * d2 + (hv - g.nodes)[:, None] * d1 + np.diag(g.nodes)
    assert np.array_equal(h.toarray().real, expected)


def test_bsb_reduces_to_bs_for_constant_potential(g):
    mp = MarketParams(0.25, 0.07)
    v = FunctionSpec.polynomial([0.07])
    assert np.array_equal(bsb_hamiltonian(g, mp, v).toarray(), bs_hamiltonian(g, mp).toarray())


def test_bsb_soft_barrier_differs_only_on_diagonal(g):
    mp = MarketParams(0.2, 0.05)
    mask = g.nodes < 0.0
    v = FunctionSpec.tabulated(np.where(mask, 50.0, mp.r))
    diff = bsb_hamiltonian(g, mp, v).toarray() - bs_hamiltonian(g, mp).toarray()
    off_diag = diff - np.diag(np.diag(diff))
    assert np.max(np.abs(off_diag)) == 0.0
    assert np.array_equal(np.diag(diff).real != 0.0, mask)


# -- identification ---------------------------------------------------------------


@pytest.mark.parametrize("sigma", [0.1, 0.2, 0.4])
@pytest.mark.parametrize("r", [0.0, 0.01, 0.05, 0.1])
def test_identification_corpus(g, sigma, r):
    mapping = map_to_deformed(MarketParams(sigma, r), g)
    target = bs_hamiltonian(g, MarketParams(sigma, r))
    assert mapping.residual <= TOL.round_coeff * EPS * target.max_abs()
    assert mapping.beta**2 == pytest.approx(sigma**2 / 2, rel=1e-15)
    if abs(sigma**2 / 2 - r) > 1e-12:
        # exactly one sign branch: the paper-form f through H_I, or -f through H_II
        assert set(mapping.matches) == {("H_I", 1), ("H_II", -1)}
        assert (mapping.which_hamiltonian, mapping.sign) == ("H_I", 1)


def test_identification_degenerate_prefers_h2_label(g):
    mapping = map_to_deformed(MarketParams(0.2, 0.02), g)  # sigma^2 = 2r, f' ~ 0
    assert mapping.which_hamiltonian == "H_II"
    assert mapping.sign == 1
    assert len(mapping.matches) == 4


def test_identification_generalized_polynomial(g):
    mp = MarketParams(0.3, 0.0, FunctionSpec.polynomial([0.05, 0.01]))
    mapping = map_to_deformed(mp, g)
    assert mapping.kind == "bsg"
    assert (mapping.which_hamiltonian, mapping.sign) == ("H_I", 1)
    assert mapping.f.is_polynomial  # integral form with exact antiderivative


def test_identification_generalized_tabulated(g):
    mp = MarketParams(0.3, 0.0, FunctionSpec.tabulated(0.05 + 0.01 * np.tanh(g.nodes)))
    mapping = map_to_deformed(mp, g)
    assert mapping.kind == "bsg"
    assert mapping.residual <= TOL.round_coeff * EPS * bsg_hamiltonian(g, mp).max_abs()


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
    with pytest.raises(ValueError, match="no closed form for barrier contracts"):
        closed_form_price(MarketParams(0.2, 0.05), OptionContract("down_and_out_call", 100, 1.0, 80.0), 100)
    with pytest.raises(ValueError, match="spot"):
        closed(0.0, 100, 0.05, 0.2, 1.0, "call")


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
    curve = price_pde(bs_hamiltonian(g, mp), contract, mp, g, 2000)
    assert curve.price_at(100.0) == pytest.approx(10.450583572185565, abs=1e-2)
    assert curve.diagnostics["banded"]


def test_pde_put_call_parity(pricing_setup):
    mp, g = pricing_setup
    h = bs_hamiltonian(g, mp)
    for s0 in (80.0, 100.0, 120.0):
        call = price_pde(h, OptionContract("european_call", 100, 1.0), mp, g, 2000)
        put = price_pde(h, OptionContract("european_put", 100, 1.0), mp, g, 2000)
        gap = call.price_at(s0) - put.price_at(s0) - (s0 - 100 * math.exp(-0.05))
        assert abs(gap) <= 2e-3


def test_pde_monotonic_in_sigma_and_maturity():
    prices_sigma = []
    for sigma in (0.1, 0.2, 0.4):
        mp = MarketParams(sigma, 0.05)
        contract = OptionContract("european_call", 100.0, 1.0)
        g = default_pricing_grid(contract, mp, 100.0, 1001)
        curve = price_pde(bs_hamiltonian(g, mp), contract, mp, g, 1000)
        prices_sigma.append(curve.price_at(100.0))
    assert prices_sigma == sorted(prices_sigma)
    prices_t = []
    mp = MarketParams(0.2, 0.05)
    for t in (0.5, 1.0, 2.0):
        contract = OptionContract("european_call", 100.0, t)
        g = default_pricing_grid(contract, mp, 100.0, 1001)
        curve = price_pde(bs_hamiltonian(g, mp), contract, mp, g, 1000)
        prices_t.append(curve.price_at(100.0))
    assert prices_t == sorted(prices_t)


def test_pde_stability_bound(pricing_setup):
    mp, g = pricing_setup
    contract = OptionContract("european_call", 100.0, 1.0)
    curve = price_pde(bs_hamiltonian(g, mp), contract, mp, g, 500)
    bound = curve.diagnostics["payoff_max"] * math.exp(abs(mp.r) * contract.maturity) * (1 + 1e-6)
    assert curve.diagnostics["max_abs"] <= bound


def test_pde_narrow_grid_warns():
    mp = MarketParams(0.4, 0.05)
    g = Grid1D(math.log(100) - 0.5, math.log(100) + 0.5, 201)
    with pytest.warns(UserWarning, match="narrower"):
        price_pde(bs_hamiltonian(g, mp), OptionContract("european_call", 100, 1.0), mp, g, 100)


def test_pde_rejects_bad_input(pricing_setup):
    mp, g = pricing_setup
    h = bs_hamiltonian(g, mp)
    with pytest.raises(ValueError):
        price_pde(h, OptionContract("european_call", 100, 1.0), mp, g, 0)


def test_pde_wider_band_matches_tridiagonal(pricing_setup):
    mp, _ = pricing_setup
    g = Grid1D(math.log(100) - 4, math.log(100) + 4, 401)
    contract = OptionContract("european_call", 100.0, 1.0)
    h = bs_hamiltonian(g, mp)
    banded = price_pde(h, contract, mp, g, 400)
    # an entry far off the band: the step matrix is no longer tridiagonal,
    # and the same sparse LU must give the same price
    entries = h.toarray().copy()
    entries[g.n // 2, 0] += 1e-300
    from qflab.operators import LinOp

    dense = price_pde(LinOp.from_dense(entries, g), contract, mp, g, 400)
    assert not dense.diagnostics["banded"]
    assert banded.diagnostics["banded"]
    assert abs(dense.price_at(100.0) - banded.price_at(100.0)) <= 1e-9


# -- barrier -----------------------------------------------------------------------


def test_barrier_below_vanilla_and_ordering(pricing_setup):
    mp, g = pricing_setup
    h = bs_hamiltonian(g, mp)
    vanilla = price_pde(h, OptionContract("european_call", 100, 1.0), mp, g, 2000)
    previous_gap = None
    for barrier in (90.0, 80.0, 60.0):
        do = price_pde(
            h, OptionContract("down_and_out_call", 100, 1.0, barrier=barrier), mp, g, 2000
        )
        gap = vanilla.price_at(100.0) - do.price_at(100.0)
        assert gap >= -1e-9
        if previous_gap is not None:
            assert gap <= previous_gap + 1e-12
        previous_gap = gap
    # 5+ standard deviations below spot: knockout nearly irrelevant
    far = price_pde(
        h, OptionContract("down_and_out_call", 100, 1.0, barrier=100 * math.exp(-7 * 0.2)),
        mp, g, 2000,
    )
    assert vanilla.price_at(100.0) - far.price_at(100.0) <= 1e-3


def test_soft_barrier_converges_to_dirichlet(pricing_setup):
    mp, g = pricing_setup
    contract = OptionContract("down_and_out_call", 100.0, 1.0, barrier=80.0)
    dirichlet = price_pde(bs_hamiltonian(g, mp), contract, mp, g, 2000).price_at(100.0)
    # the potential alone knocks out: the contract carries no barrier
    call = OptionContract("european_call", 100.0, 1.0)
    gaps = []
    for m in (20.0, 200.0, 2000.0):
        v = FunctionSpec.tabulated(np.where(g.nodes <= math.log(80.0), m, mp.r))
        soft = price_pde(bsb_hamiltonian(g, mp, v), call, mp, g, 2000).price_at(100.0)
        gaps.append(abs(soft - dirichlet))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 5e-3


def test_price_curve_csv(tmp_path, pricing_setup):
    mp, _ = pricing_setup
    g = Grid1D(math.log(100) - 2, math.log(100) + 2, 101)
    contract = OptionContract("european_call", 100.0, 0.5)
    curve = price_pde(bs_hamiltonian(g, mp), contract, mp, g, 100)
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,S,C"
    assert len(rows) == g.n + 1
    x, s, c = map(float, rows[1].split(","))
    assert s == pytest.approx(math.exp(x), rel=1e-15)
