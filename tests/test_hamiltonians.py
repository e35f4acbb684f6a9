import math

import numpy as np
import pytest

from conftest import toarray
from qflab.grid import Grid1D
from qflab.hamiltonians import (
    build_all,
    build_from_superpotential,
    closed_form,
    nonhermitian_defect_floor,
)
from qflab.operators import (
    FunctionSpec,
    deformed_momentum,
    hermiticity_defect,
    momentum_operator,
    momentum_squared,
)
from qflab.susy import dirichlet_eigenvalues, supercharges_4x4
from qflab import tolerances as TOL

CORPUS = [[0.0], [0, 1], [0, 0, 0.5], [0, 0, 0, 1 / 6]]


@pytest.fixture(scope="module")
def g():
    return Grid1D(-5, 5, 501)


def test_free_case_reduces_to_momentum_squared(g):
    f0 = FunctionSpec.polynomial([0.0])
    for label, coupling in (("H1", 2.0), ("H2", 2.0), ("H3", 1.5), ("H4", 1.5)):
        assert np.array_equal(
            toarray(closed_form(g, f0, label, coupling)), toarray(coupling**2 * momentum_squared(g))
        )


def test_h1_quadratic_f_is_shifted_oscillator(g):
    # f = x^2/2: closed form alpha^2 (P^2 + 1 + x^2)
    h1 = closed_form(g, FunctionSpec.polynomial([0, 0, 0.5]), "H1", 1.0)
    expected = toarray(momentum_squared(g)) + np.diag(1.0 + g.nodes**2)
    assert np.array_equal(toarray(h1), expected)


def test_h2_h3_h4_closed_forms_linear_f(g):
    f = FunctionSpec.polynomial([0, 1])
    p = toarray(momentum_operator(g))
    p2 = toarray(momentum_squared(g))
    eye = np.eye(g.n)
    b = 1.3
    h3 = toarray(closed_form(g, f, "H3", b))
    assert np.allclose(h3, b * b * (p2 - 2j * p - eye), atol=0, rtol=0)
    h4 = toarray(closed_form(g, f, "H4", b))
    assert np.allclose(h4, b * b * (p2 + 2j * p - eye), atol=0, rtol=0)
    h2 = toarray(closed_form(g, f, "H2", 2.0))
    assert np.array_equal(h2, 4.0 * (p2 + eye))


def test_compositional_members_are_momentum_products(g):
    f = FunctionSpec.polynomial([0, 0, 0.5])
    pf = deformed_momentum(g, f)
    pairs = build_all(g, f, 2.0, 1.5)
    assert np.array_equal(toarray(pairs["H4"].compositional), toarray(2.25 * (pf @ pf)))
    assert np.array_equal(
        toarray(pairs["H1"].compositional), toarray(4.0 * (pf.adjoint() @ pf))
    )


@pytest.mark.parametrize("coeffs", CORPUS)
def test_agreement_and_convergence(coeffs):
    f = FunctionSpec.polynomial(coeffs)
    agreements = {label: [] for label in ("H1", "H2", "H3", "H4")}
    for n in (501, 1001):
        g = Grid1D(-5, 5, n)
        for label, pair in build_all(g, f, 1.0, 1.0).items():
            agreements[label].append(pair.agreement())
            assert agreements[label][-1] <= TOL.discretization(g, f.derivative_scale(g) ** 2), label
    for label, (coarse, fine) in agreements.items():
        assert 3.5 <= coarse / fine <= 4.5, label


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
    assert np.array_equal(toarray(closed_form(g, neg, "H1", 1.0)), toarray(closed_form(g, f, "H2", 1.0)))
    assert np.array_equal(toarray(closed_form(g, neg, "H3", 1.0)), toarray(closed_form(g, f, "H4", 1.0)))


def test_duality_compositional_members_match_on_interior(g):
    f = FunctionSpec.polynomial([0, 0, 0.5])
    s = g.interior()
    a = toarray(build_all(g, f, 1.0, 1.0)["H2"].compositional)[s, s]
    b = toarray(build_all(g, -f, 1.0, 1.0)["H1"].compositional)[s, s]
    scale = deformed_momentum(g, f).max_abs() ** 2
    assert np.max(np.abs(a - b)) <= TOL.rounding(g.n, scale)


def test_coupling_validation(g):
    f = FunctionSpec.polynomial([0.0])
    with pytest.raises(ValueError, match="alpha must be > 0"):
        closed_form(g, f, "H1", 0.0)
    with pytest.raises(ValueError, match="beta must be >= 0"):
        closed_form(g, f, "H3", -1.0)
    with pytest.raises(ValueError, match="alpha must be > 0"):
        build_all(g, f, 0.0, 1.0)
    closed_form(g, f, "H3", 0.0)  # beta = 0 allowed
    # the supercharges refuse what the closed forms refuse
    alphas = [(0.0, "alpha must be > 0"), (-1.0, "alpha must be > 0")]
    alphas += [(a, r"alpha\*\*2 must be finite") for a in (math.nan, math.inf, 1e200)]
    for alpha, message in alphas:
        with pytest.raises(ValueError, match=message):
            supercharges_4x4(g, f, alpha, 0.0)  # the 2x2 sector
        with pytest.raises(ValueError, match=message):
            supercharges_4x4(g, f, alpha, 1.0)
    betas = [(-1.0, "beta must be >= 0")] + [(b, r"beta\*\*2 must be finite") for b in (math.nan, math.inf)]
    for beta, message in betas:
        with pytest.raises(ValueError, match=message):
            supercharges_4x4(g, f, 1.0, beta)


def test_superpotential_zero_and_harmonic(g):
    h1, h2 = build_from_superpotential(g, FunctionSpec.polynomial([0.0]), 1.5)
    assert np.array_equal(toarray(h1), toarray(2.25 * momentum_squared(g)))
    h1, h2 = build_from_superpotential(g, FunctionSpec.polynomial([0, 1]), 1.0)
    p2 = toarray(momentum_squared(g))
    assert np.array_equal(toarray(h1), p2 + np.diag(1.0 + g.nodes**2))
    assert np.array_equal(toarray(h2), p2 + np.diag(-1.0 + g.nodes**2))


def test_superpotential_consistent_with_antiderivative_route(g):
    w = FunctionSpec.polynomial([0.0, 1.0, 0.2])
    h1w, h2w = build_from_superpotential(g, w, 1.0)
    f = w.antiderivative(g)
    # same construction up to polyint/polyder rounding on the diagonal
    for label, h in (("H1", h1w), ("H2", h2w)):
        assert np.allclose(toarray(h), toarray(closed_form(g, f, label, 1.0)), rtol=1e-12, atol=1e-10)


def test_superpotential_tabulated_route(g):
    w = FunctionSpec.tabulated(np.tanh(g.nodes))
    h1, h2 = build_from_superpotential(g, w, 1.0)
    pairs = build_all(g, w.antiderivative(g), 1.0, 1.0)
    for label, h in (("H1", h1), ("H2", h2)):
        assert np.array_equal(toarray(h), toarray(pairs[label].closed_form))
        assert pairs[label].agreement() <= TOL.discretization(g, 10.0)


def test_harmonic_superpotential_ground_levels():
    # dense Hermitian eigensolver oracle: spectra 2m and 2m+2
    g = Grid1D(-10, 10, 2001)
    h1, h2 = build_from_superpotential(g, FunctionSpec.polynomial([0, 1]), 1.0)
    lam2 = dirichlet_eigenvalues(h2, 1)
    lam1 = dirichlet_eigenvalues(h1, 1)
    assert abs(lam2[0]) <= 1e-3
    assert abs(lam1[0] - 2.0) <= 1e-3
