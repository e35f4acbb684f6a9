import numpy as np
import pytest

from qflab.grid import make_grid
from qflab.hamiltonians import (
    build_all,
    build_from_superpotential,
    build_h1,
    build_h2,
    build_h3,
    build_h4,
    nonhermitian_defect_floor,
)
from qflab.operators import (
    FunctionSpec,
    deformed_momentum,
    hermiticity_defect,
    momentum_operator,
    momentum_squared,
)
from qflab.susy import dirichlet_eigenvalues
from qflab.tolerances import DEFAULT as TOL

CORPUS = [[0.0], [0, 1], [0, 0, 0.5], [0, 0, 0, 1 / 6]]


@pytest.fixture(scope="module")
def g():
    return make_grid(-5, 5, 501)


def test_free_case_reduces_to_momentum_squared(g):
    f0 = FunctionSpec.zero()
    for builder, coupling in ((build_h1, 2.0), (build_h2, 2.0), (build_h3, 1.5), (build_h4, 1.5)):
        pair = builder(g, f0, coupling)
        assert np.array_equal(
            pair.closed_form.toarray(), (coupling**2 * momentum_squared(g)).toarray()
        )


def test_h1_quadratic_f_is_shifted_oscillator(g):
    # f = x^2/2: closed form alpha^2 (P^2 + 1 + x^2)
    pair = build_h1(g, FunctionSpec.polynomial([0, 0, 0.5]), 1.0)
    expected = momentum_squared(g).toarray() + np.diag(1.0 + g.nodes**2)
    assert np.array_equal(pair.closed_form.toarray(), expected)


def test_h2_h3_h4_closed_forms_linear_f(g):
    f = FunctionSpec.polynomial([0, 1])
    p = momentum_operator(g).toarray()
    p2 = momentum_squared(g).toarray()
    eye = np.eye(g.n)
    b = 1.3
    h3 = build_h3(g, f, b).closed_form.toarray()
    assert np.allclose(h3, b * b * (p2 - 2j * p - eye), atol=0, rtol=0)
    h4 = build_h4(g, f, b).closed_form.toarray()
    assert np.allclose(h4, b * b * (p2 + 2j * p - eye), atol=0, rtol=0)
    h2 = build_h2(g, f, 2.0).closed_form.toarray()
    assert np.array_equal(h2, 4.0 * (p2 + eye))


def test_compositional_members_are_momentum_products(g):
    f = FunctionSpec.polynomial([0, 0, 0.5])
    pf = deformed_momentum(g, f)
    assert np.array_equal(
        build_h4(g, f, 1.5).compositional.toarray(), (2.25 * (pf @ pf)).toarray()
    )
    assert np.array_equal(
        build_h1(g, f, 2.0).compositional.toarray(), (4.0 * (pf.adjoint() @ pf)).toarray()
    )


@pytest.mark.parametrize("coeffs", CORPUS)
def test_agreement_and_convergence(coeffs):
    f = FunctionSpec.polynomial(coeffs)
    for label, builder in (("H1", build_h1), ("H2", build_h2), ("H3", build_h3), ("H4", build_h4)):
        agreements = []
        for n in (501, 1001):
            g = make_grid(-5, 5, n)
            pair = builder(g, f, 1.0)
            agreements.append(pair.agreement())
            assert agreements[-1] <= TOL.discretization(g, f.derivative_scale(g) ** 2), label
        assert 3.5 <= agreements[0] / agreements[1] <= 4.5, label


@pytest.mark.parametrize("coeffs", CORPUS)
def test_hermiticity_classes(g, coeffs):
    f = FunctionSpec.polynomial(coeffs)
    pairs = build_all(g, f, 1.0, 1.0)
    for label in ("H1", "H2"):
        closed = pairs[label].closed_form
        assert hermiticity_defect(closed) <= TOL.rounding(g.n, closed.max_abs())
        comp = pairs[label].compositional
        pf_scale = deformed_momentum(g, f).max_abs()
        assert hermiticity_defect(comp) <= TOL.rounding(g.n, pf_scale**2)
    floor = nonhermitian_defect_floor(g, f, 1.0)
    for label in ("H3", "H4"):
        d = hermiticity_defect(pairs[label].closed_form)
        if floor > 0:
            assert d >= floor, label
        else:
            assert d <= TOL.rounding(g.n, pairs[label].closed_form.max_abs())


@pytest.mark.parametrize("coeffs", CORPUS[1:])
def test_duality_exchanges_closed_forms_exactly(g, coeffs):
    f = FunctionSpec.polynomial(coeffs)
    neg = -f
    assert np.array_equal(
        build_h1(g, neg, 1.0).closed_form.toarray(), build_h2(g, f, 1.0).closed_form.toarray()
    )
    assert np.array_equal(
        build_h3(g, neg, 1.0).closed_form.toarray(), build_h4(g, f, 1.0).closed_form.toarray()
    )


def test_duality_compositional_members_match_on_interior(g):
    f = FunctionSpec.polynomial([0, 0, 0.5])
    s = g.interior()
    a = build_h2(g, f, 1.0).compositional.toarray()[s, s]
    b = build_h1(g, -f, 1.0).compositional.toarray()[s, s]
    scale = deformed_momentum(g, f).max_abs() ** 2
    assert np.max(np.abs(a - b)) <= TOL.rounding(g.n, scale)


def test_coupling_validation(g):
    f = FunctionSpec.zero()
    with pytest.raises(ValueError):
        build_h1(g, f, 0.0)
    with pytest.raises(ValueError):
        build_h3(g, f, -1.0)
    build_h3(g, f, 0.0)  # beta = 0 allowed


def test_superpotential_zero_and_harmonic(g):
    h1, h2 = build_from_superpotential(g, FunctionSpec.zero(), 1.5)
    assert np.array_equal(h1.closed_form.toarray(), (2.25 * momentum_squared(g)).toarray())
    h1, h2 = build_from_superpotential(g, FunctionSpec.polynomial([0, 1]), 1.0)
    p2 = momentum_squared(g).toarray()
    assert np.array_equal(h1.closed_form.toarray(), p2 + np.diag(1.0 + g.nodes**2))
    assert np.array_equal(h2.closed_form.toarray(), p2 + np.diag(-1.0 + g.nodes**2))


def test_superpotential_consistent_with_antiderivative_route(g):
    w = FunctionSpec.polynomial([0.0, 1.0, 0.2])
    h1w, h2w = build_from_superpotential(g, w, 1.0)
    f = w.antiderivative()
    h1f = build_h1(g, f, 1.0)
    # same construction up to polyint/polyder rounding on the diagonal
    assert np.allclose(h1w.closed_form.toarray(), h1f.closed_form.toarray(), rtol=1e-12, atol=1e-10)
    assert np.array_equal(h1w.compositional.toarray(), h1f.compositional.toarray())


def test_superpotential_tabulated_route(g):
    w = FunctionSpec.tabulated(np.tanh(g.nodes))
    h1, h2 = build_from_superpotential(g, w, 1.0)
    assert h1.agreement() <= TOL.discretization(g, 10.0)
    assert h2.agreement() <= TOL.discretization(g, 10.0)


def test_harmonic_superpotential_ground_levels():
    # dense Hermitian eigensolver oracle: spectra 2m and 2m+2
    g = make_grid(-10, 10, 2001)
    h1, h2 = build_from_superpotential(g, FunctionSpec.polynomial([0, 1]), 1.0)
    lam2 = dirichlet_eigenvalues(h2.closed_form, 1)
    lam1 = dirichlet_eigenvalues(h1.closed_form, 1)
    assert abs(lam2[0]) <= 1e-3
    assert abs(lam1[0] - 2.0) <= 1e-3
