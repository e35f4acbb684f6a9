import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from qflab.grid import Grid1D
from qflab.hamiltonians import build_all, build_from_superpotential, closed_form
from qflab.operators import FunctionSpec, hermiticity_defect, momentum_squared
from qflab.susy import (
    BlockOp,
    block_anticommutator,
    block_commutator,
    dirichlet_eigenvalues,
    ground_state_tolerance,
    ground_states,
    identify_blocks,
    partner_spectra,
    real_spectrum_check,
    supercharge_2x2,
    supercharges_4x4,
    superhamiltonian_2x2,
    superhamiltonian_4x4,
)
from qflab.tolerances import DEFAULT as TOL

ALPHA, BETA = 1.0, 1.0


@pytest.fixture(scope="module")
def g():
    return Grid1D(-5, 5, 401)


@pytest.fixture(scope="module")
def f():
    return FunctionSpec.polynomial([0, 0, 0.5])


@pytest.fixture(scope="module")
def charges(g, f):
    return supercharges_4x4(g, f, ALPHA, BETA)


@pytest.fixture(scope="module")
def refs(g, f):
    return build_all(g, f, ALPHA, BETA)


# -- 2x2 sector ----------------------------------------------------------------


def test_supercharge_2x2_structure(g, f):
    q = supercharge_2x2(g, f, ALPHA)
    assert q.block(0, 1) is not None
    assert q.block(0, 0) is q.block(1, 0) is q.block(1, 1) is None
    assert (q @ q).structurally_zero


def test_superhamiltonian_2x2_properties(g, f, refs):
    q = supercharge_2x2(g, f, ALPHA)
    h = superhamiltonian_2x2(q)
    assert h.structurally_block_diagonal
    # measured ordering: diag(H2, H1)
    ident = identify_blocks(h, refs)
    assert "H2" in ident.ties[0] and "H1" in ident.ties[1]
    assert ident.matched
    for i in range(2):
        block = h.block(i, i)
        assert hermiticity_defect(block) <= TOL.rounding(g.n, block.max_abs())
        sym = (block.toarray() + block.toarray().conj().T) / 2
        lam = np.linalg.eigvalsh(sym)
        assert lam.min() >= -TOL.rounding(g.n, block.max_abs())  # A A+ is PSD


def test_commutator_with_h_vanishes_anticommutator_does_not(g, f):
    q = supercharge_2x2(g, f, ALPHA)
    h = superhamiltonian_2x2(q)
    comm = block_commutator(q, h).max_abs()
    assert comm <= TOL.rounding(g.n, q.max_abs() * h.max_abs())
    # {Q, h} = 2 Q Q+ Q is generically nonzero: keep the discrepancy visible
    assert block_anticommutator(q, h).max_abs() > 1.0


def test_free_case_superhamiltonian(g):
    # f = 0: {Q, Q+} = alpha^2 diag(P P+, P+ P), both blocks acting as 4 P^2
    q = supercharge_2x2(g, FunctionSpec.zero(), 2.0)
    h = superhamiltonian_2x2(q)
    from qflab.operators import action_difference

    p2 = momentum_squared(g)
    for i in range(2):
        assert action_difference(h.block(i, i), 4.0 * p2) <= TOL.discretization(g, 4.0)


# -- 4x4 sector ----------------------------------------------------------------


def test_supercharges_4x4_nilpotent_and_sparse(charges):
    for q in charges:
        assert (q @ q).structurally_zero
    q1, q2, q3, q4 = charges
    assert q1.block(0, 1) is not None and q1.block(2, 3) is not None
    assert q2.block(1, 0) is not None and q2.block(3, 2) is not None
    assert q3.block(0, 1) is not None and q3.block(2, 3) is not None
    assert q4.block(1, 0) is not None and q4.block(3, 2) is not None


def test_superhamiltonian_block_content(charges, refs):
    q1, q2, q3, q4 = charges
    h = superhamiltonian_4x4(q1, q2)
    res = identify_blocks(h, refs)
    assert h.structurally_block_diagonal
    assert res.labels == ("H2", "H1", "H3", "H3")
    assert res.matched
    h_t = superhamiltonian_4x4(q3, q4)
    res_t = identify_blocks(h_t, refs)
    assert h_t.structurally_block_diagonal
    assert res_t.labels == ("H1", "H2", "H4", "H4")
    assert res_t.matched


def test_conserved_charges(charges):
    q1, q2, q3, q4 = charges
    h = superhamiltonian_4x4(q1, q2)
    ht = superhamiltonian_4x4(q3, q4)
    for q, ham in ((q1, h), (q2, h), (q3, ht), (q4, ht)):
        c = block_commutator(q, ham).max_abs()
        assert c <= TOL.rounding(h.n, q.max_abs() * ham.max_abs())


def test_free_case_4x4_anticommutator(g):
    q1, q2, _, _ = supercharges_4x4(g, FunctionSpec.zero(), 1.0, 1.0)
    h = superhamiltonian_4x4(q1, q2)
    from qflab.operators import action_difference

    p2 = momentum_squared(g)
    for i in range(4):
        assert action_difference(h.block(i, i), p2) <= TOL.discretization(g)


def test_beta_zero_reduction(g, f):
    q1, q2, _, _ = supercharges_4x4(g, f, ALPHA, 0.0)
    q = supercharge_2x2(g, f, ALPHA)
    h4 = superhamiltonian_4x4(q1, q2)
    h2 = superhamiltonian_2x2(q)
    for i in range(2):
        assert np.array_equal(h4.block(i, i).toarray(), h2.block(i, i).toarray())
    assert h4.block(2, 2) is None and h4.block(3, 3) is None
    # the supercharges themselves embed the 2x2 one
    assert np.array_equal(q1.block(0, 1).toarray(), q.block(0, 1).toarray())
    assert np.array_equal(q2.adjoint().block(0, 1).toarray(), q.block(0, 1).toarray())


def test_duality_maps_h_content_to_htilde(g, f, refs):
    neg = -f
    assert np.array_equal(neg.values(g), -f.values(g))
    q1n, q2n, _, _ = supercharges_4x4(g, neg, ALPHA, BETA)
    ident = identify_blocks(superhamiltonian_4x4(q1n, q2n), refs)
    assert ident.matched
    expected = ("H1", "H2", "H4", "H4")
    assert all(e in t for e, t in zip(expected, ident.ties))


def test_duality_is_involution(g, f):
    assert (-(-f)).coefficients == f.coefficients


def test_zero_f_is_duality_fixed_point(g):
    f0 = FunctionSpec.zero()
    refs0 = build_all(g, f0, ALPHA, BETA)
    q1, q2, _, _ = supercharges_4x4(g, -f0, ALPHA, BETA)
    ident = identify_blocks(superhamiltonian_4x4(q1, q2), refs0)
    assert ident.matched


# -- block-op mechanics ---------------------------------------------------------


def test_blockop_validation_and_apply(g, f):
    q = supercharge_2x2(g, f, 1.0)
    with pytest.raises(ValueError):
        BlockOp((q.blocks[0],), g)  # not square
    v = np.concatenate([np.sin(g.nodes), np.cos(g.nodes)])
    out = q.apply(v)
    pf = q.block(0, 1)
    assert np.array_equal(out[: g.n], pf.apply(np.cos(g.nodes)))
    assert np.max(np.abs(out[g.n :])) == 0.0
    m = q.to_matrix()
    assert m.shape == (2 * g.n, 2 * g.n)
    assert np.array_equal(m[: g.n, g.n :], pf.toarray())


def test_blockop_adjoint_layout(g, f):
    q = supercharge_2x2(g, f, 1.0)
    qd = q.adjoint()
    assert qd.block(1, 0) is not None and qd.block(0, 1) is None
    assert np.array_equal(qd.block(1, 0).toarray(), q.block(0, 1).toarray().conj().T)


# -- ground states ---------------------------------------------------------------


@pytest.mark.parametrize("coeffs", [[0, 1], [0, 0, 0.5]])
def test_ground_state_residuals_and_convergence(coeffs):
    f = FunctionSpec.polynomial(coeffs)
    margin = 4 * (10 / 500)
    residuals, residuals_t = [], []
    for n in (501, 1001, 2001):
        g = Grid1D(-5, 5, n)
        gs, gs_t = ground_states(g, f, ALPHA, BETA, margin=margin)
        assert abs(np.linalg.norm(gs.state) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(gs_t.state) - 1.0) <= 1e-12
        tol = ground_state_tolerance(g, f, ALPHA, BETA)
        assert gs.residual <= tol
        assert gs_t.residual <= tol
        residuals.append(gs.residual)
        residuals_t.append(gs_t.residual)
    for seq in (residuals, residuals_t):
        for coarse, fine in zip(seq, seq[1:]):
            assert 3.5 <= coarse / fine <= 4.5


def test_ground_state_zero_f_is_constant_vector(g):
    gs, gs_t = ground_states(g, FunctionSpec.zero(), ALPHA, BETA)
    slot = gs.state[: g.n]
    assert np.allclose(slot, slot[0])
    assert gs.residual <= TOL.discretization(g)
    assert gs_t.residual <= TOL.discretization(g)


def test_ground_state_slots_follow_measured_ordering(g, f):
    gs, gs_t = ground_states(g, f, ALPHA, BETA)
    fv = f.values(g)
    unit = lambda v: v / np.linalg.norm(v)
    assert np.allclose(gs.state[: g.n], unit(np.exp(-fv)) / 2)
    assert np.allclose(gs.state[g.n : 2 * g.n], unit(np.exp(fv)) / 2)
    assert np.allclose(gs_t.state[: g.n], unit(np.exp(fv)) / 2)


def test_ground_state_overflow_guard(g):
    with pytest.raises(ValueError, match="overflow"):
        ground_states(g, FunctionSpec.polynomial([0, 100]), ALPHA, BETA)


# -- spectra ---------------------------------------------------------------------


def test_partner_spectra_harmonic():
    g = Grid1D(-10, 10, 2001)
    h1, h2 = build_from_superpotential(g, FunctionSpec.polynomial([0, 1]), 1.0)
    rep = partner_spectra(h1, h2, 6)
    assert np.allclose(rep.eigenvalues_a, [2, 4, 6, 8, 10, 12], atol=1e-3)
    assert np.allclose(rep.eigenvalues_b, [0, 2, 4, 6, 8, 10], atol=1e-3)
    assert rep.zero_modes == (0, 1)
    assert rep.all_paired
    assert len(rep.tail_a) == 1  # H1's top value has no computed partner


def test_partner_spectra_free_box():
    g = Grid1D(-5, 5, 1001)
    h1, h2 = build_from_superpotential(g, FunctionSpec.zero(), 1.0)
    rep = partner_spectra(h1, h2, 4)
    exact = np.array([(np.pi * m / 10.0) ** 2 for m in range(1, 5)])
    assert np.allclose(rep.eigenvalues_a, exact, rtol=5e-4)
    assert np.array_equal(rep.eigenvalues_a, rep.eigenvalues_b)
    assert rep.zero_modes == (0, 0)


def test_partner_spectra_cubic_superpotential():
    g = Grid1D(-6, 6, 2001)
    h1, h2 = build_from_superpotential(g, FunctionSpec.polynomial([0, 0, 0, 1.0]), 1.0)
    rep = partner_spectra(h1, h2, 5)
    assert rep.max_pair_gap <= 1e-3
    assert rep.zero_modes == (0, 1)


def test_partner_spectra_rejects_non_hermitian(g, f):
    # at n = 9 the interior block 4..n-5 is one node, where H3 - H3^dagger is 0
    for grid in (g, Grid1D(-5, 5, 9)):
        h3 = closed_form(grid, f, "H3", 1.0)
        with pytest.raises(ValueError, match="Hermitian"):
            partner_spectra(h3, h3, 1)


@pytest.mark.parametrize("n", [4, 5, 8, 9])
def test_partner_spectra_accepts_hermitian_partners_on_small_grids(n):
    # the one-sided boundary rows are not Hermitian, but the Dirichlet block is
    h1, h2 = build_from_superpotential(Grid1D(-10, 10, n), FunctionSpec.polynomial([0, 1]), 1.0)
    assert len(partner_spectra(h1, h2, 1).eigenvalues_a) == 1


def test_partner_spectra_k_guard(g, f):
    h1, h2 = build_from_superpotential(g, FunctionSpec.zero(), 1.0)
    with pytest.raises(ValueError):
        partner_spectra(h1, h2, g.n)


def test_dirichlet_eigenvalues_match_dense_solver(g):
    h1, _ = build_from_superpotential(g, FunctionSpec.polynomial([0, 1]), 1.0)
    fast = dirichlet_eigenvalues(h1, 4)
    dense = np.sort(np.linalg.eigvalsh(h1.toarray()[1:-1, 1:-1].real))[:4]
    assert np.allclose(fast, dense, rtol=1e-12, atol=1e-12)


def test_symmetrized_band_keeps_the_hermitian_bits():
    # the spectrum workload's H1: sqrt(u l) = |u| on a symmetric band, and the
    # bisection reads only squared off-diagonals, so the signed band gives the same bits
    g = Grid1D(-10, 10, 2001)
    h1, _ = build_from_superpotential(g, FunctionSpec.polynomial([0, 1]), 1.0)
    band = dict(zip(*h1.principal_bands(slice(1, g.n - 1))))
    signed = eigh_tridiagonal(band[0].real, band[1].real[1:], eigvals_only=True,
                              select="i", select_range=(0, 5))
    assert np.array_equal(dirichlet_eigenvalues(h1, 6), signed)


# -- real spectrum of the non-Hermitian pair -------------------------------------


def test_real_spectrum_check_zero_f(g):
    # same matrix through both routes; residual limited by the two eigensolvers
    r4, r3 = real_spectrum_check(g, FunctionSpec.zero(), 1.0)
    assert r4.passed
    assert r3.passed


def test_real_spectrum_check_linear_f():
    g = Grid1D(-5, 5, 801)
    r4, r3 = real_spectrum_check(g, FunctionSpec.polynomial([0, 0.5]), 1.3)
    for rep in (r4, r3):
        assert rep.passed
        assert rep.max_sorted_diff_rel <= 1e-8


@pytest.mark.parametrize("slope, n", [(4.0, 101), (4.0, 1001), (60.0, 1001)])
def test_real_spectrum_check_keeps_1e8_for_steep_f(slope, n):
    # the symmetrized tridiagonal solve needs no widening, up to max|f| = 300
    g = Grid1D(-5, 5, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = real_spectrum_check(g, FunctionSpec.polynomial([0, slope]), 1.0)
    for rep in reports:
        assert rep.tolerance == 1e-8
        assert rep.passed, rep


def test_real_spectrum_overflow_guard(g):
    with pytest.raises(ValueError, match="overflow"):
        real_spectrum_check(g, FunctionSpec.polynomial([0, 100]), 1.0)
