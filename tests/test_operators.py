import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import from_dense, toarray
from qflab.grid import Grid1D
from qflab.operators import (
    FunctionSpec,
    LinOp,
    action_difference,
    canonical_commutator_defect,
    commutator,
    deformed_momentum,
    deformed_momentum_by_similarity,
    derivative_matrices,
    diagonal,
    hermiticity_defect,
    identity,
    momentum_operator,
    position_operator,
)
from qflab import tolerances as TOL


@pytest.fixture(scope="module")
def g():
    return Grid1D(-5, 5, 501)


# -- FunctionSpec ------------------------------------------------------------


def test_polynomial_values_and_derivatives(g):
    f = FunctionSpec.polynomial([1.0, 2.0, 3.0])  # 1 + 2x + 3x^2
    x = g.nodes
    assert np.allclose(f.values(g), 1 + 2 * x + 3 * x**2)
    assert np.allclose(f.derivative_values(g), 2 + 6 * x)
    assert np.allclose(f.second_derivative_values(g), 6.0)


def test_tabulated_requires_matching_length(g):
    f = FunctionSpec.tabulated(np.ones(10))
    with pytest.raises(ValueError, match="grid has"):
        f.values(g)
    with pytest.raises(ValueError):
        deformed_momentum(g, f)


def test_tabulated_derivative_falls_back_to_d1(g):
    f = FunctionSpec.tabulated(np.sin(g.nodes))
    fp = f.derivative_values(g)
    assert np.max(np.abs((fp - np.cos(g.nodes))[g.interior()])) <= TOL.discretization(g, 1.0)


def test_antiderivative_polynomial_anchored_at_zero(g):
    w = FunctionSpec.polynomial([0.0, 1.0])
    f = w.antiderivative(g)
    assert f.coefficients == (0.0, 0.0, 0.5)
    assert f.values(Grid1D(-1, 1, 3))[1] == 0.0  # f(0) = 0


def test_antiderivative_tabulated_keeps_exact_derivative(g):
    w = FunctionSpec.tabulated(np.cos(g.nodes))
    f = w.antiderivative(g)
    assert np.array_equal(f.derivative_values(g), np.cos(g.nodes))
    anchor = np.argmin(np.abs(g.nodes))
    assert f.values(g)[anchor] == 0.0
    assert np.max(np.abs(f.values(g) - np.sin(g.nodes))) < 5e-4  # trapezoid error


@given(n=st.integers(3, 3000), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_tabulated_antiderivative_is_cumulative_trapezoid_bit_for_bit(n, seed):
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(seed)
    lo = rng.uniform(-30.0, 10.0)
    g = Grid1D(lo, lo + rng.uniform(0.1, 60.0), n)
    y = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0)
    raw = cumulative_trapezoid(y, g.nodes, initial=0.0)
    expected = raw - raw[int(np.argmin(np.abs(g.nodes)))]
    assert FunctionSpec.tabulated(y).antiderivative(g).samples.tobytes() == expected.tobytes()


def test_parse_poly_and_table(tmp_path):
    f = FunctionSpec.parse("poly:0,1,0.5")
    assert f.coefficients == (0.0, 1.0, 0.5)
    path = tmp_path / "f.csv"
    np.savetxt(path, np.arange(5.0))
    t = FunctionSpec.parse(f"table:{path}")
    assert np.array_equal(t.samples, np.arange(5.0))
    for bad in ("poly:", "table:", "spline:1,2", "poly:a,b"):
        with pytest.raises(ValueError):
            FunctionSpec.parse(bad)


def test_tabulated_derivatives_are_the_dia_matvec_bit_for_bit(g):
    # pins the bits of ``table:`` reports to the scipy DIA product of the same bands
    from scipy import sparse

    d1, d2 = (sparse.dia_array((d.entries.real, d.offsets), shape=(g.n, g.n))
              for d in derivative_matrices(g))
    rng = np.random.default_rng(3)
    u, du = rng.normal(size=g.n), rng.normal(size=g.n)
    t = FunctionSpec.tabulated(u)
    assert np.array_equal(t.derivative_values(g), d1 @ u)
    assert np.array_equal(t.second_derivative_values(g), d2 @ u)
    with_derivative = FunctionSpec.tabulated(u, derivative_values=du)
    assert np.array_equal(with_derivative.second_derivative_values(g), d1 @ du)


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6))
def test_polynomial_negation_is_exact_involution(coeffs):
    f = FunctionSpec.polynomial(coeffs)
    assert (-(-f)).coefficients == f.coefficients


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=5))
@settings(max_examples=50)
def test_antiderivative_derivative_roundtrip(coeffs):
    w = FunctionSpec.polynomial(coeffs)
    g = Grid1D(-2, 2, 41)
    roundtrip = w.antiderivative(g).derivative_values(g)
    assert np.allclose(roundtrip, w.values(g), rtol=1e-12, atol=1e-12)


# -- LinOp basics ------------------------------------------------------------


def test_linop_shape_and_grid_validation(g):
    with pytest.raises(ValueError, match="shape"):
        LinOp(np.zeros((1, 4)), (0,), g)
    with pytest.raises(ValueError, match="offsets"):
        LinOp(np.zeros((1, g.n)), (g.n,), g)
    other = Grid1D(-5, 5, 499)
    with pytest.raises(ValueError, match="different grids"):
        position_operator(g) + position_operator(other)
    with pytest.raises(ValueError, match="different grids"):
        commutator(position_operator(g), position_operator(other))


def test_position_operator_is_diagonal_coordinates(g):
    x = position_operator(g)
    assert np.array_equal(np.diag(toarray(x)), g.nodes.astype(complex))
    assert np.array_equal(x.apply(np.ones(g.n)), g.nodes.astype(complex))
    assert hermiticity_defect(x) == 0.0


def test_small_grid_position():
    g3 = Grid1D(-1, 1, 3)
    assert np.array_equal(np.diag(toarray(position_operator(g3))), [-1, 0, 1])


def test_momentum_on_plane_wave(g):
    p = momentum_operator(g)
    wave = np.exp(1j * g.nodes)
    res = (p.apply(wave) - wave)[g.interior()]
    assert np.max(np.abs(res)) <= TOL.discretization(g, 1.0)


def test_momentum_kills_constants_and_is_interior_hermitian(g):
    p = momentum_operator(g)
    inner = g.interior()
    assert np.max(np.abs(p.apply(np.ones(g.n))[inner])) == 0.0
    assert hermiticity_defect(p) <= TOL.rounding(g.n, p.max_abs())


# -- deformed momentum ------------------------------------------------------


def test_deformed_momentum_reduces_to_momentum(g):
    f0 = FunctionSpec.polynomial([0.0])
    assert np.array_equal(toarray(deformed_momentum(g, f0)), toarray(momentum_operator(g)))


def test_deformed_momentum_linear_f(g):
    f = FunctionSpec.polynomial([0, 1])
    pf = deformed_momentum(g, f)
    expected = toarray(momentum_operator(g)) + 1j * np.eye(g.n)
    assert np.array_equal(toarray(pf), expected)


def test_deformed_momentum_quadratic_f_shifts_by_position(g):
    f = FunctionSpec.polynomial([0, 0, 0.5])
    delta = deformed_momentum(g, f) - momentum_operator(g)
    assert np.allclose(toarray(delta), 1j * toarray(position_operator(g)), atol=0, rtol=0)


def test_similarity_equals_momentum_for_zero_f(g):
    assert np.array_equal(
        toarray(deformed_momentum_by_similarity(g, FunctionSpec.polynomial([0.0]))),
        toarray(momentum_operator(g)),
    )


def test_similarity_overflow_guard(g):
    with pytest.raises(ValueError, match="overflow"):
        deformed_momentum_by_similarity(g, FunctionSpec.polynomial([0, 100]))


def test_similarity_agrees_with_deformed_momentum():
    f = FunctionSpec.polynomial([0, 1])
    diffs = []
    for n in (501, 1001):
        g = Grid1D(-5, 5, n)
        diffs.append(
            action_difference(deformed_momentum(g, f), deformed_momentum_by_similarity(g, f))
        )
        assert diffs[-1] <= TOL.discretization(g, f.derivative_scale(g) ** 2)
    assert 3.5 <= diffs[0] / diffs[1] <= 4.5


def test_similarity_annihilates_exp_f_exactly(g):
    f = FunctionSpec.polynomial([0, 0, 0.25])
    sim = deformed_momentum_by_similarity(g, f)
    state = np.exp(f.values(g))
    res = sim.apply(state)
    assert np.max(np.abs(res)) <= TOL.rounding(g.n, sim.max_abs() * np.max(state))


def test_deformed_momentum_annihilation_is_second_order():
    f = FunctionSpec.polynomial([0, 1])
    res = []
    for n in (501, 1001):
        g = Grid1D(-5, 5, n)
        pf = deformed_momentum(g, f)
        state = np.exp(g.nodes)
        r = pf.apply(state)[g.interior()]
        res.append(np.max(np.abs(r)) / np.max(state))
        dual_state = np.exp(-g.nodes)
        d = pf.adjoint().apply(dual_state)[g.interior()]
        assert np.max(np.abs(d)) / np.max(dual_state) <= TOL.discretization(g, 1.0)
    assert 3.5 <= res[0] / res[1] <= 4.5


# -- adjoint and algebra -----------------------------------------------------


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_adjoint_involution_and_product_reversal(seed):
    rng = np.random.default_rng(seed)
    g = Grid1D(0, 1, 12)
    a = from_dense(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)), g)
    b = from_dense(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)), g)
    assert np.array_equal(toarray(a.adjoint().adjoint()), toarray(a))
    lhs = toarray((a @ b).adjoint())
    rhs = toarray(b.adjoint() @ a.adjoint())
    assert np.max(np.abs(lhs - rhs)) <= TOL.rounding(12, a.max_abs() * b.max_abs())


def test_adjoint_of_linear_deformation(g):
    pf = deformed_momentum(g, FunctionSpec.polynomial([0, 1]))
    inner = g.interior()
    expected = toarray(momentum_operator(g)) - 1j * np.eye(g.n)
    assert np.max(np.abs((toarray(pf.adjoint()) - expected)[inner, inner])) == 0.0


def test_adjoint_of_similarity_form(g):
    f = FunctionSpec.polynomial([0, 0.5])
    e = np.exp(f.values(g))
    p = momentum_operator(g)
    lhs = toarray(deformed_momentum_by_similarity(g, f).adjoint())
    rhs = toarray(p.adjoint()) / e[:, None] * e[None, :]
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-16)


def test_commutator_with_self_is_zero(g):
    pf = deformed_momentum(g, FunctionSpec.polynomial([0, 0, 0.5]))
    assert commutator(pf, pf).max_abs() == 0.0
    x = position_operator(g)
    assert commutator(x, x).max_abs() == 0.0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_commutator_antisymmetry_is_bitwise(seed):
    rng = np.random.default_rng(seed)
    g = Grid1D(0, 1, 10)
    a = from_dense(rng.normal(size=(10, 10)), g)
    b = from_dense(rng.normal(size=(10, 10)), g)
    assert np.array_equal(toarray(commutator(a, b)), toarray(-commutator(b, a)))


# -- canonical algebra -------------------------------------------------------


@pytest.mark.parametrize(
    "coeffs", [[0.0], [0, 1], [0, 0, 0.5], [0, 0, 0, 1 / 6]]
)
def test_canonical_commutator(coeffs):
    f = FunctionSpec.polynomial(coeffs)
    defects = []
    for n in (501, 1001):
        g = Grid1D(-5, 5, n)
        d = canonical_commutator_defect(g, f)
        defects.append(d)
        assert d <= TOL.discretization(g, f.derivative_scale(g))
    assert 3.5 <= defects[0] / defects[1] <= 4.5


def test_canonical_commutator_for_tabulated_f(g):
    f = FunctionSpec.tabulated(np.tanh(g.nodes))
    assert canonical_commutator_defect(g, f) <= TOL.discretization(g, f.derivative_scale(g))


# -- hermiticity diagnostics -------------------------------------------------


def test_defect_of_linear_deformation_is_two(g):
    pf = deformed_momentum(g, FunctionSpec.polynomial([0, 1]))
    assert hermiticity_defect(pf) == pytest.approx(2.0, abs=1e-14)


def test_diagonal_and_identity_helpers(g):
    d = diagonal(g, g.nodes**2)
    assert hermiticity_defect(d) == 0.0
    assert np.array_equal(toarray(identity(g)), np.eye(g.n))
    with pytest.raises(ValueError):
        diagonal(g, np.ones(7))
