import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from conftest import both_ground_states, from_dense, to_matrix, toarray
from qflab.grid import Grid1D
from qflab.hamiltonians import build_all, build_from_superpotential
from qflab.operators import FunctionSpec, deformed_momentum, hermiticity_defect, momentum_squared
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


def q_2x2(g, f, alpha):
    """The 2x2 supercharge of ordinary SUSY QM: Q1 at beta = 0."""
    return supercharges_4x4(g, f, alpha, 0.0)[0]


# -- 2x2 sector ----------------------------------------------------------------


def test_supercharge_2x2_structure(g, f):
    q = q_2x2(g, f, ALPHA)
    assert list(q.blocks) == [(0, 1)]
    assert q.block(0, 0) is q.block(1, 0) is q.block(1, 1) is None
    assert (q @ q).structurally_zero


def test_superhamiltonian_2x2_properties(g, f, refs):
    q = q_2x2(g, f, ALPHA)
    h = block_anticommutator(q, q.adjoint())
    assert h.structurally_block_diagonal
    assert h.block(2, 2) is None and h.block(3, 3) is None
    # measured ordering: diag(H2, H1) in the top-left corner
    ident = identify_blocks(h, refs)
    assert "H2" in ident.ties[0] and "H1" in ident.ties[1]
    assert max(ident.residuals[:2]) <= ident.tolerance
    for i in range(2):
        block = h.block(i, i)
        assert hermiticity_defect(block) <= TOL.rounding(g.n, block.max_abs())
        sym = (toarray(block) + toarray(block).conj().T) / 2
        lam = np.linalg.eigvalsh(sym)
        assert lam.min() >= -TOL.rounding(g.n, block.max_abs())  # A A+ is PSD


def test_commutator_with_h_vanishes_anticommutator_does_not(g, f):
    q = q_2x2(g, f, ALPHA)
    h = block_anticommutator(q, q.adjoint())
    comm = block_commutator(q, h).max_abs()
    assert comm <= TOL.rounding(g.n, q.max_abs() * h.max_abs())
    # {Q, h} = 2 Q Q+ Q is generically nonzero: keep the discrepancy visible
    assert block_anticommutator(q, h).max_abs() > 1.0


def test_free_case_superhamiltonian(g):
    # f = 0: {Q, Q+} = alpha^2 diag(P P+, P+ P), both blocks acting as 4 P^2
    q = q_2x2(g, FunctionSpec.polynomial([0.0]), 2.0)
    h = block_anticommutator(q, q.adjoint())
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
    h = block_anticommutator(q1, q2)
    res = identify_blocks(h, refs)
    assert h.structurally_block_diagonal
    assert res.labels == ("H2", "H1", "H3", "H3")
    assert res.matched
    h_t = block_anticommutator(q3, q4)
    res_t = identify_blocks(h_t, refs)
    assert h_t.structurally_block_diagonal
    assert res_t.labels == ("H1", "H2", "H4", "H4")
    assert res_t.matched


def test_conserved_charges(charges):
    q1, q2, q3, q4 = charges
    h = block_anticommutator(q1, q2)
    ht = block_anticommutator(q3, q4)
    for q, ham in ((q1, h), (q2, h), (q3, ht), (q4, ht)):
        c = block_commutator(q, ham).max_abs()
        assert c <= TOL.rounding(h.n, q.max_abs() * ham.max_abs())


def test_free_case_4x4_anticommutator(g):
    q1, q2, _, _ = supercharges_4x4(g, FunctionSpec.polynomial([0.0]), 1.0, 1.0)
    h = block_anticommutator(q1, q2)
    from qflab.operators import action_difference

    p2 = momentum_squared(g)
    for i in range(4):
        assert action_difference(h.block(i, i), p2) <= TOL.discretization(g, 1.0)


def test_beta_zero_reduction(g, f):
    q1, q2, _, _ = supercharges_4x4(g, f, ALPHA, 0.0)
    q = BlockOp({(0, 1): ALPHA * deformed_momentum(g, f)}, g)
    h4 = block_anticommutator(q1, q2)
    h2 = block_anticommutator(q, q.adjoint())
    for i in range(2):
        assert np.array_equal(toarray(h4.block(i, i)), toarray(h2.block(i, i)))
    assert h4.block(2, 2) is None and h4.block(3, 3) is None
    # the supercharges themselves embed the 2x2 one
    assert np.array_equal(toarray(q1.block(0, 1)), toarray(q.block(0, 1)))
    assert np.array_equal(toarray(q2.adjoint().block(0, 1)), toarray(q.block(0, 1)))


def test_duality_maps_h_content_to_htilde(g, f, refs):
    neg = -f
    assert np.array_equal(neg.values(g), -f.values(g))
    q1n, q2n, _, _ = supercharges_4x4(g, neg, ALPHA, BETA)
    ident = identify_blocks(block_anticommutator(q1n, q2n), refs)
    assert ident.matched
    expected = ("H1", "H2", "H4", "H4")
    assert all(e in t for e, t in zip(expected, ident.ties))


def test_duality_is_involution(g, f):
    assert (-(-f)).coefficients == f.coefficients


def test_zero_f_is_duality_fixed_point(g):
    f0 = FunctionSpec.polynomial([0.0])
    refs0 = build_all(g, f0, ALPHA, BETA)
    q1, q2, _, _ = supercharges_4x4(g, -f0, ALPHA, BETA)
    ident = identify_blocks(block_anticommutator(q1, q2), refs0)
    assert ident.matched


# -- block-op mechanics ---------------------------------------------------------


def test_blockop_validation_and_apply(g, f):
    q = q_2x2(g, f, 1.0)
    pf = q.block(0, 1)
    for key in ((0, 4), (4, 0), (-1, 0), (3, -1)):
        with pytest.raises(ValueError, match="layout"):
            BlockOp({key: pf}, g)  # not a block of the 4x4 layout
    with pytest.raises(ValueError, match="grid"):
        BlockOp({(0, 1): pf}, Grid1D(-5, 5, 11))
    v = np.concatenate([np.sin(g.nodes), np.cos(g.nodes), np.sin(g.nodes), np.cos(g.nodes)])
    out = q.apply(v)
    assert np.array_equal(out[: g.n], pf.apply(np.cos(g.nodes)))
    assert np.max(np.abs(out[g.n :])) == 0.0
    m = to_matrix(q)
    assert m.shape == (4 * g.n, 4 * g.n)
    assert np.array_equal(m[: g.n, g.n : 2 * g.n], toarray(pf))


def test_blockop_adjoint_layout(g, f):
    q = q_2x2(g, f, 1.0)
    qd = q.adjoint()
    assert qd.block(1, 0) is not None and qd.block(0, 1) is None
    assert np.array_equal(toarray(qd.block(1, 0)), toarray(q.block(0, 1)).conj().T)


def _random_band(small, rng, offsets=(-1, 0, 1)):
    dense = sum(np.diag(rng.normal(size=small.n - abs(o)) + 1j * rng.normal(size=small.n - abs(o)), o)
                for o in offsets)
    return from_dense(dense, small)


def test_blockop_algebra_matches_dense_reference():
    small = Grid1D(-1, 1, 7)
    rng = np.random.default_rng(5)
    a1, a2, a3, a4, b1, b2, b3, b4 = (_random_band(small, rng) for _ in range(8))
    a = BlockOp({(0, 1): a1, (1, 0): a2, (1, 1): a3, (3, 2): a4}, small)
    b = BlockOp({(0, 0): b1, (1, 0): b2, (1, 1): b3, (2, 3): b4}, small)
    da, db = to_matrix(a), to_matrix(b)
    tol = dict(rtol=1e-14, atol=1e-14)
    assert np.allclose(to_matrix(a @ b), da @ db, **tol)
    assert np.allclose(to_matrix(b @ a), db @ da, **tol)
    # block (1, 0) of a @ b sums two k terms, k ascending
    assert np.array_equal(toarray((a @ b).block(1, 0)), toarray((a2 @ b1) + (a3 @ b2)))
    # (0, 0) is present only in the right operand: it enters as b1 or -b1
    assert np.array_equal(to_matrix(a + b), da + db)
    assert np.array_equal(to_matrix(a - b), da - db)
    assert np.array_equal(to_matrix(b - a), db - da)
    assert np.array_equal(toarray((a - b).block(0, 0)), -toarray(b1))
    assert np.array_equal(to_matrix(a.adjoint()), da.conj().T)
    assert np.array_equal(to_matrix(2.0 * a), 2.0 * da)
    v = rng.normal(size=4 * small.n) + 1j * rng.normal(size=4 * small.n)
    assert np.allclose(a.apply(v), da @ v, **tol)
    assert np.allclose(block_commutator(a, b).apply(v), (da @ db - db @ da) @ v, **tol)


def test_blockop_4x4_algebra_matches_dense_reference():
    small = Grid1D(-2, 2, 11)
    f = FunctionSpec.polynomial([0, 0.3, 0.5])
    q1, q2, q3, q4 = supercharges_4x4(small, f, 1.0, 0.7)
    for qa, qb in ((q1, q2), (q3, q4)):
        da, db = to_matrix(qa), to_matrix(qb)
        h = block_anticommutator(qa, qb)
        assert np.allclose(to_matrix(h), da @ db + db @ da, rtol=1e-14, atol=1e-12)
        assert (qa @ qa).structurally_zero and not np.any(da @ da)
        assert np.array_equal(to_matrix(qa.adjoint()), da.conj().T)


# -- ground states ---------------------------------------------------------------


@pytest.mark.parametrize("coeffs", [[0, 1], [0, 0, 0.5]])
def test_ground_state_residuals_and_convergence(coeffs):
    f = FunctionSpec.polynomial(coeffs)
    margin = 4 * (10 / 500)
    residuals, residuals_t = [], []
    for n in (501, 1001, 2001):
        g = Grid1D(-5, 5, n)
        gs, gs_t = both_ground_states(g, f, ALPHA, BETA)
        assert abs(np.linalg.norm(gs.state) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(gs_t.state) - 1.0) <= 1e-12
        tol = ground_state_tolerance(g, f, ALPHA, BETA)
        residual, residual_t = gs.window_residual(margin), gs_t.window_residual(margin)
        assert residual <= tol
        assert residual_t <= tol
        residuals.append(residual)
        residuals_t.append(residual_t)
    for seq in (residuals, residuals_t):
        for coarse, fine in zip(seq, seq[1:]):
            assert 3.5 <= coarse / fine <= 4.5


def test_ground_state_zero_f_is_constant_vector(g):
    gs, gs_t = both_ground_states(g, FunctionSpec.polynomial([0.0]), ALPHA, BETA)
    slot = gs.state[: g.n]
    assert np.allclose(slot, slot[0])
    assert gs.residual <= TOL.discretization(g, 1.0)
    assert gs_t.residual <= TOL.discretization(g, 1.0)


def test_ground_state_slots_follow_measured_ordering(g, f):
    gs, gs_t = both_ground_states(g, f, ALPHA, BETA)
    fv = f.values(g)
    unit = lambda v: v / np.linalg.norm(v)
    assert np.allclose(gs.state[: g.n], unit(np.exp(-fv)) / 2)
    assert np.allclose(gs.state[g.n : 2 * g.n], unit(np.exp(fv)) / 2)
    assert np.allclose(gs_t.state[: g.n], unit(np.exp(fv)) / 2)
    # -f samples to exactly -f, so the dual's slots are H's, swapped, bit for bit
    slots, slots_t = gs.state.reshape(4, g.n), gs_t.state.reshape(4, g.n)
    assert np.array_equal(slots_t, slots[[1, 0, 1, 1]])


def test_ground_state_residuals_are_norms_of_the_interior_and_its_window(g, f):
    # np.linalg.norm is the reference; the report sums squares in another order
    for rep in both_ground_states(g, f, ALPHA, BETA):
        action = rep.action.reshape(4, g.n)
        assert rep.residual == pytest.approx(np.linalg.norm(action[:, 4 : g.n - 4]), rel=1e-13)
        # a margin of 1.01 on h = 0.025 leaves nodes 41..359
        assert rep.window_residual(1.01) == pytest.approx(np.linalg.norm(action[:, 41:360]), rel=1e-13)


def test_ground_state_overflow_guard(g):
    with pytest.raises(ValueError, match="overflow"):
        both_ground_states(g, FunctionSpec.polynomial([0, 100]), ALPHA, BETA)


# -- spectra ---------------------------------------------------------------------


def test_partner_spectra_harmonic():
    g = Grid1D(-10, 10, 2001)
    h1, h2 = build_from_superpotential(g, FunctionSpec.polynomial([0, 1]), 1.0)
    rep = partner_spectra(h1, h2, 6, 1e-3)
    assert np.allclose(rep.eigenvalues_a, [2, 4, 6, 8, 10, 12], atol=1e-3)
    assert np.allclose(rep.eigenvalues_b, [0, 2, 4, 6, 8, 10], atol=1e-3)
    assert rep.zero_modes == (0, 1)
    assert rep.all_paired
    assert rep.paired.tolist() == [True] * 5 + [False]  # H1's top value has no computed partner


def test_partner_spectra_flags_skip_a_zero_mode_of_h1():
    # W = -x puts the zero mode in H1, so H1's row 0 has no pair and rows 1..5 do
    g = Grid1D(-10, 10, 2001)
    h1, h2 = build_from_superpotential(g, FunctionSpec.polynomial([0, -1]), 1.0)
    rep = partner_spectra(h1, h2, 6, 1e-3)
    assert rep.zero_modes == (1, 0)
    assert rep.paired.tolist() == [False] + [True] * 5


def test_partner_spectra_free_box():
    g = Grid1D(-5, 5, 1001)
    h1, h2 = build_from_superpotential(g, FunctionSpec.polynomial([0.0]), 1.0)
    rep = partner_spectra(h1, h2, 4, 1e-3)
    exact = np.array([(np.pi * m / 10.0) ** 2 for m in range(1, 5)])
    assert np.allclose(rep.eigenvalues_a, exact, rtol=5e-4)
    assert np.array_equal(rep.eigenvalues_a, rep.eigenvalues_b)
    assert rep.zero_modes == (0, 0)


def test_partner_spectra_cubic_superpotential():
    g = Grid1D(-6, 6, 2001)
    h1, h2 = build_from_superpotential(g, FunctionSpec.polynomial([0, 0, 0, 1.0]), 1.0)
    rep = partner_spectra(h1, h2, 5, 1e-3)
    assert rep.max_pair_gap <= 1e-3
    assert rep.zero_modes == (0, 1)


@pytest.mark.parametrize("n", [4, 5, 8, 9])
def test_partner_spectra_accepts_hermitian_partners_on_small_grids(n):
    # the one-sided boundary rows are not Hermitian, but the Dirichlet block is
    h1, h2 = build_from_superpotential(Grid1D(-10, 10, n), FunctionSpec.polynomial([0, 1]), 1.0)
    assert len(partner_spectra(h1, h2, 1, 1e-3).eigenvalues_a) == 1


def test_partner_spectra_k_guard(g, f):
    h1, h2 = build_from_superpotential(g, FunctionSpec.polynomial([0.0]), 1.0)
    with pytest.raises(ValueError):
        partner_spectra(h1, h2, g.n, 1e-3)


def test_dirichlet_eigenvalues_match_dense_solver(g):
    h1, _ = build_from_superpotential(g, FunctionSpec.polynomial([0, 1]), 1.0)
    fast = dirichlet_eigenvalues(h1, 4)
    dense = np.sort(np.linalg.eigvalsh(toarray(h1)[1:-1, 1:-1].real))[:4]
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
