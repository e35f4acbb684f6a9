"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here; nothing is deferred to calibration.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest
from conftest import both_ground_states, run_cli, toarray

from qflab.cli import main
from qflab.finance import (
    MarketParams,
    OptionContract,
    bs_hamiltonian,
    bsb_hamiltonian,
    bsg_hamiltonian,
    closed_form_price,
    map_to_deformed,
    price_pde,
)
from qflab.grid import Grid1D
from qflab.hamiltonians import build_all, nonhermitian_defect_floor
from qflab.montecarlo import feynman_kac_estimate
from qflab.operators import (
    FunctionSpec,
    canonical_commutator_defect,
    deformed_momentum,
    hermiticity_defect,
    momentum_squared,
)
from qflab.susy import (
    BlockOp,
    block_anticommutator,
    block_commutator,
    dirichlet_eigenvalues,
    ground_state_tolerance,
    identify_blocks,
    partner_spectra,
    supercharges_4x4,
)
from qflab import tolerances as TOL

F_CORPUS = {
    "0": [0.0],
    "x": [0, 1.0],
    "x^2/2": [0, 0, 0.5],
    "x^3/6": [0, 0, 0, 1 / 6],
}


def _report(cid, name, passed, detail):
    print(f"\n[{cid}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{cid} {name}: {detail}"


def test_c01_canonical_algebra():
    started = time.perf_counter()
    worst_margin, worst_ratio = 0.0, None
    for label, coeffs in F_CORPUS.items():
        f = FunctionSpec.polynomial(coeffs)
        defects = {}
        for n in (501, 1001):
            g = Grid1D(-5, 5, n)
            d = canonical_commutator_defect(g, f)
            tol = TOL.discretization(g, f.derivative_scale(g))
            assert d <= tol, (label, n, d, tol)
            worst_margin = max(worst_margin, d / tol)
            defects[n] = d
        ratio = defects[501] / defects[1001]
        assert 3.5 <= ratio <= 4.5, (label, ratio)
        worst_ratio = ratio
    elapsed = time.perf_counter() - started
    _report(
        "C1", "canonical algebra",
        elapsed < 10.0,
        f"max defect/tol = {worst_margin:.3f}, h-halving ratio = {worst_ratio:.3f}, "
        f"runtime {elapsed:.1f}s < 10s",
    )


def test_c02_hamiltonian_agreement_and_hermiticity():
    started = time.perf_counter()
    for label, coeffs in F_CORPUS.items():
        f = FunctionSpec.polynomial(coeffs)
        agreements = {lbl: [] for lbl in ("H1", "H2", "H3", "H4")}
        for n in (501, 1001):
            g = Grid1D(-5, 5, n)
            pairs = build_all(g, f, 1.0, 1.0)
            tol = TOL.discretization(g, f.derivative_scale(g) ** 2)
            pf_scale = deformed_momentum(g, f).max_abs() ** 2
            for lbl, pair in pairs.items():
                a = pair.agreement()
                assert a <= tol, (label, lbl, n, a, tol)
                agreements[lbl].append(a)
            for lbl in ("H1", "H2"):
                assert hermiticity_defect(pairs[lbl].closed_form) <= TOL.rounding(
                    g.n, pairs[lbl].closed_form.max_abs()
                )
                assert hermiticity_defect(pairs[lbl].compositional) <= TOL.rounding(g.n, pf_scale)
            floor = nonhermitian_defect_floor(g, f, 1.0)
            for lbl in ("H3", "H4"):
                d = hermiticity_defect(pairs[lbl].closed_form)
                if floor > 0:
                    assert d >= floor, (label, lbl, d, floor)
        for lbl, (coarse, fine) in agreements.items():
            assert 3.5 <= coarse / fine <= 4.5, (label, lbl, coarse / fine)
    elapsed = time.perf_counter() - started
    _report("C2", "compositional vs closed-form Hamiltonians", elapsed < 30.0,
            f"4 functions x 2 grids x 4 Hamiltonians, runtime {elapsed:.1f}s < 30s")


def test_c03_susy_algebra():
    started = time.perf_counter()
    g = Grid1D(-5, 5, 501)
    f = FunctionSpec.polynomial([0, 0, 0.5])
    # ordinary 2x2 SUSY QM, built apart from the 4x4 supercharges at beta = 0
    q = BlockOp({(0, 1): 1.0 * deformed_momentum(g, f)}, g)
    assert (q @ q).structurally_zero
    q1z, q2z, _, _ = supercharges_4x4(g, f, 1.0, 0.0)
    q1, q2, q3, q4 = supercharges_4x4(g, f, 1.0, 1.0)
    for qi in (q1, q2, q3, q4):
        assert (qi @ qi).structurally_zero
    refs = build_all(g, f, 1.0, 1.0)
    big = block_anticommutator(q1, q2)
    tilde = block_anticommutator(q3, q4)
    big_ident, tilde_ident = identify_blocks(big, refs), identify_blocks(tilde, refs)
    assert big.structurally_block_diagonal and tilde.structurally_block_diagonal
    assert big_ident.labels == ("H2", "H1", "H3", "H3")
    assert tilde_ident.labels == ("H1", "H2", "H4", "H4")
    assert big_ident.matched and tilde_ident.matched
    worst = 0.0
    for qi, ham in ((q1, big), (q2, big), (q3, tilde), (q4, tilde)):
        c = block_commutator(qi, ham).max_abs()
        assert c <= TOL.rounding(g.n, qi.max_abs() * ham.max_abs())
        worst = max(worst, c)
    hz = block_anticommutator(q1z, q2z)
    h2 = block_anticommutator(q, q.adjoint())
    reduction_exact = all(
        np.array_equal(toarray(hz.block(i, i)), toarray(h2.block(i, i))) for i in range(2)
    )
    assert reduction_exact
    elapsed = time.perf_counter() - started
    _report("C3", "SUSY algebra", elapsed < 30.0,
            f"block content (H2,H1,H3,H3)/(H1,H2,H4,H4), max |[Q,H]| = {worst:.2e}, "
            f"beta=0 reduction exact, runtime {elapsed:.1f}s < 30s")


def test_c04_duality():
    started = time.perf_counter()
    g = Grid1D(-5, 5, 501)
    for label in ("x", "x^2/2", "x^3/6"):
        f = FunctionSpec.polynomial(F_CORPUS[label])
        pairs = build_all(g, f, 1.0, 1.0)
        swapped = build_all(g, -f, 1.0, 1.0)
        for a, b in (("H1", "H2"), ("H2", "H1"), ("H3", "H4"), ("H4", "H3")):
            residual = (swapped[a].closed_form - pairs[b].closed_form).max_abs()
            assert residual == 0.0, (label, a, b, residual)
        refs = build_all(g, f, 1.0, 1.0)
        q1n, q2n, _, _ = supercharges_4x4(g, -f, 1.0, 1.0)
        ident = identify_blocks(block_anticommutator(q1n, q2n), refs)
        expected = ("H1", "H2", "H4", "H4")
        assert ident.matched and all(e in t for e, t in zip(expected, ident.ties)), label
    elapsed = time.perf_counter() - started
    _report("C4", "duality f -> -f", elapsed < 10.0,
            f"zero closed-form residual, H(-f) content = Htilde content, "
            f"runtime {elapsed:.1f}s < 10s")


def test_c05_ground_states():
    started = time.perf_counter()
    margin = 4 * (10.0 / 500.0)
    details = []
    for label in ("x", "x^2/2"):
        f = FunctionSpec.polynomial(F_CORPUS[label])
        residuals, residuals_t = [], []
        for n in (501, 1001, 2001):
            g = Grid1D(-5, 5, n)
            gs, gs_t = both_ground_states(g, f, 1.0, 1.0)
            tol = ground_state_tolerance(g, f, 1.0, 1.0)
            residual, residual_t = gs.window_residual(margin), gs_t.window_residual(margin)
            assert residual <= tol and residual_t <= tol, (label, n)
            residuals.append(residual)
            residuals_t.append(residual_t)
        for seq in (residuals, residuals_t):
            for coarse, fine in zip(seq, seq[1:]):
                assert 3.5 <= coarse / fine <= 4.5, (label, seq)
        details.append(f"f={label}: |H psi| = {residuals[-1]:.2e}")
    elapsed = time.perf_counter() - started
    _report("C5", "ground states", elapsed < 20.0,
            "; ".join(details) + f", O(h^2) across n in (501,1001,2001), "
            f"runtime {elapsed:.1f}s < 20s")


def test_c06_partner_isospectrality():
    started = time.perf_counter()
    from qflab.hamiltonians import build_from_superpotential

    g = Grid1D(-10, 10, 2001)
    h1, h2 = build_from_superpotential(g, FunctionSpec.polynomial([0, 1]), 1.0)
    rep = partner_spectra(h1, h2, 6, 1e-3)
    err1 = np.max(np.abs(rep.eigenvalues_a - np.array([2, 4, 6, 8, 10, 12])))
    err2 = np.max(np.abs(rep.eigenvalues_b - np.array([0, 2, 4, 6, 8, 10])))
    assert err1 <= 1e-3 and err2 <= 1e-3, (err1, err2)
    assert rep.all_paired and rep.max_pair_gap <= 1e-3
    assert rep.zero_modes == (0, 1)
    elapsed = time.perf_counter() - started
    _report("C6", "partner isospectrality", elapsed < 60.0,
            f"spectrum errors ({err1:.1e}, {err2:.1e}) <= 1e-3, pair gap "
            f"{rep.max_pair_gap:.1e}, one zero mode, runtime {elapsed:.1f}s < 60s")


@pytest.mark.parametrize("slope, beta, n", [
    (0.0, 1.0, 401),  # both sides are the same matrix
    (0.5, 1.0, 801),
    (0.5, 1.3, 801),
    (4.0, 1.0, 101),
    (4.0, 1.0, 1001),
    (60.0, 1.0, 1001),  # max|f| = 300: the symmetrized solve needs no widening
])
def test_c07_real_spectrum_of_nonhermitian(slope, beta, n):
    # H4 = e^f b^2 P^2 e^-f and H3 = e^-f b^2 P^2 e^f under Dirichlet truncation
    # share the real spectrum of b^2 P^2, relative to its spectral radius
    started = time.perf_counter()
    g = Grid1D(-5, 5, n)
    p2 = (beta * beta) * momentum_squared(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = np.exp(FunctionSpec.polynomial([0, slope]).exponent_values(g))
        ref = dirichlet_eigenvalues(p2, g.n - 2)
        gaps = [np.max(np.abs(dirichlet_eigenvalues(p2.similarity(s), g.n - 2) - ref))
                / np.max(np.abs(ref)) for s in (e, 1.0 / e)]
    elapsed = time.perf_counter() - started
    _report("C7", "real spectrum of non-Hermitian H4/H3", max(gaps) <= 1e-8 and elapsed < 30.0,
            f"sorted-spectrum gap {max(gaps):.1e} <= 1e-8 rel, runtime {elapsed:.1f}s < 30s")


def test_c08_finance_identification():
    started = time.perf_counter()
    g = Grid1D(-3, 3, 601)
    for sigma in (0.1, 0.2, 0.4):
        for r in (0.0, 0.01, 0.05, 0.1):
            mp = MarketParams(sigma, r)
            mapping = map_to_deformed(mp, g, kind="auto")
            tol = 100.0 * TOL.EPS * bs_hamiltonian(g, mp).max_abs()
            assert mapping.residual <= tol, (sigma, r)
            if abs(sigma**2 / 2 - r) > 1e-12:
                # the four candidates collapse to one matching sign branch
                assert set(mapping.matches) == {("H_I", 1), ("H_II", -1)}, (sigma, r)
    mp = MarketParams(0.3, 0.0, FunctionSpec.polynomial([0.05, 0.01]))
    bsg = map_to_deformed(mp, g, kind="auto")
    assert bsg.residual <= 100.0 * TOL.EPS * bsg_hamiltonian(g, mp).max_abs()
    v = FunctionSpec.tabulated(np.where(g.nodes < 0.0, 40.0, 0.05))
    mpb = MarketParams(0.2, 0.05, v)
    bsb = map_to_deformed(mpb, g, kind="bsb")
    assert bsb.residual <= 100.0 * TOL.EPS * bsb_hamiltonian(g, mpb, v).max_abs()
    elapsed = time.perf_counter() - started
    _report("C8", "finance identification", elapsed < 10.0,
            f"12 (sigma, r) points + BSG + BSB all match (H_I, +f) branch, "
            f"runtime {elapsed:.1f}s < 10s")


def test_c09_three_way_pricing():
    started = time.perf_counter()
    strike, rate, maturity = 100.0, 0.05, 1.0
    g = Grid1D(math.log(strike) - 5, math.log(strike) + 5, 2001)
    worst_pde, worst_z = 0.0, 0.0
    seed = 0
    for sigma in (0.1, 0.2, 0.4):
        mp = MarketParams(sigma, rate)
        h = bs_hamiltonian(g, mp)
        for kind, payoff_kind in (("call", "european_call"), ("put", "european_put")):
            contract = OptionContract(payoff_kind, strike, maturity)
            curve = price_pde(h, contract, mp, 2000)
            for s0 in (80.0, 100.0, 120.0):
                ref = closed_form_price(mp, contract, s0)
                pde = curve.price_at(s0)
                tol = max(1e-2, 2e-3 * abs(ref))
                assert abs(pde - ref) <= tol, (sigma, kind, s0, pde, ref)
                worst_pde = max(worst_pde, abs(pde - ref) / tol)
                est = feynman_kac_estimate(mp, contract, s0, 1_000_000, seed=seed)
                seed += 1
                assert abs(est.mean - ref) <= 3.0 * est.std_error, (sigma, kind, s0)
                worst_z = max(worst_z, abs(est.mean - ref) / est.std_error)
    mp = MarketParams(0.2, rate)
    bench = price_pde(
        bs_hamiltonian(g, mp), OptionContract("european_call", strike, maturity), mp, 2000
    ).price_at(100.0)
    assert abs(bench - 10.4506) <= 1e-2, bench
    elapsed = time.perf_counter() - started
    _report("C9", "three-way pricing agreement", elapsed < 180.0,
            f"18 corpus points: max PDE gap {worst_pde:.2f}x tol, max MC z-score "
            f"{worst_z:.2f} < 3; benchmark {bench:.4f} = 10.4506 +- 1e-2, "
            f"runtime {elapsed:.1f}s < 180s")


def test_c10_barrier(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "barrier.json"
    code = main(["price", "--payoff", "do-call", "--barrier", "80", "--method", "all",
                 "--paths", "200000", "--seed", "0", "--json", str(out)])
    doc = json.loads(out.read_text())
    checks = {c["name"]: c for c in doc["checks"]}
    gate, below = checks["mc_vs_closed_3se"], checks["barrier_below_vanilla"]
    assert code == 0 and gate["pass"] and below["pass"], checks
    prices = doc["parameters"]["prices"]
    elapsed = time.perf_counter() - started
    _report("C10", "barrier pricing", elapsed < 120.0,
            f"MC {prices['mc']:.4f} vs closed form {prices['closed']:.4f} gap {gate['measured']:.4f}, "
            f"tolerance {gate['tolerance']:.4f} (3se); PDE {prices['pde']:.4f}; "
            f"PDE - vanilla {below['measured']:+.4f}; runtime {elapsed:.1f}s < 120s")


def test_c11_reproducibility(tmp_path):
    started = time.perf_counter()
    for name, args in (
        ("identify", ["identify", "--sigma", "0.2", "--rate", "0.05"]),
        ("price-mc", ["price", "--method", "mc", "--paths", "30000", "--seed", "3"]),
    ):
        a, b = tmp_path / f"{name}-a.json", tmp_path / f"{name}-b.json"
        for path in (a, b):
            res = run_cli(*args, "--json", str(path), timeout=300)
            assert res.returncode == 0, res.stderr
        assert a.read_bytes() == b.read_bytes(), name
        json.loads(a.read_text())  # well-formed
    elapsed = time.perf_counter() - started
    _report("C11", "CLI reproducibility", True,
            f"identify and price --method mc byte-identical across runs, "
            f"runtime {elapsed:.1f}s")
