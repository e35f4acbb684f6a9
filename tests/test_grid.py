import numpy as np
import pytest
from hypothesis import given, strategies as st

from qflab.grid import Grid1D
from qflab.operators import derivative_matrices
from qflab import tolerances as TOL


def test_make_grid_examples():
    g = Grid1D(-1, 1, 3)
    assert g.h == 1.0
    assert np.array_equal(g.nodes, [-1.0, 0.0, 1.0])
    g = Grid1D(0, 10, 11)
    assert g.h == 1.0
    assert g.nodes[5] == 5.0
    assert Grid1D(-10, 10, 2001).h == pytest.approx(0.01, abs=0)


@pytest.mark.parametrize("xmin,xmax,n", [(0, 1, 2), (0, 1, 1), (1, 1, 5), (2, -1, 5)])
def test_make_grid_rejects_bad_input(xmin, xmax, n):
    with pytest.raises(ValueError):
        Grid1D(xmin, xmax, n)


@given(
    st.floats(-50, 50),
    st.floats(0.1, 100),
    st.integers(3, 500),
)
def test_grid_invariants(xmin, width, n):
    g = Grid1D(xmin, xmin + width, n)
    assert g.h > 0
    nodes = g.nodes
    assert len(nodes) == n
    assert nodes[0] == xmin
    assert nodes[-1] == pytest.approx(xmin + width, rel=1e-12)
    k = n // 2
    assert nodes[k] == xmin + k * g.h


def test_d1_exact_on_linear():
    g = Grid1D(-5, 5, 201)
    d1, _ = derivative_matrices(g)
    res = d1.apply(g.nodes).real
    scale = np.max(np.abs(g.nodes)) / g.h
    assert np.max(np.abs(res - 1.0)) <= TOL.rounding(g.n, scale)


def test_d2_exact_on_quadratic():
    g = Grid1D(-5, 5, 201)
    _, d2 = derivative_matrices(g)
    res = d2.apply(g.nodes**2).real
    scale = np.max(g.nodes**2) / g.h**2
    assert np.max(np.abs(res - 2.0)) <= TOL.rounding(g.n, scale)


@pytest.mark.parametrize("deriv", [1, 2])
def test_convergence_order_on_sine(deriv):
    # analytic-derivative oracle: halving h cuts the max interior error ~4x
    errors = []
    for n in (201, 401):
        g = Grid1D(-np.pi, np.pi, n)
        d1, d2 = derivative_matrices(g)
        x = g.nodes
        exact = np.cos(x) if deriv == 1 else -np.sin(x)
        approx = (d1 if deriv == 1 else d2).apply(np.sin(x)).real
        inner = g.interior()
        errors.append(np.max(np.abs((approx - exact)[inner])))
        assert errors[-1] <= TOL.discretization(g, 1.0)
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


def test_one_sided_boundary_rows_are_second_order():
    errs = []
    for n in (201, 401):
        g = Grid1D(-np.pi, np.pi, n)
        d1, d2 = derivative_matrices(g)
        x = g.nodes
        errs.append(
            max(
                abs(d1.apply(np.sin(x)).real[0] - np.cos(x[0])),
                abs(d1.apply(np.sin(x)).real[-1] - np.cos(x[-1])),
                abs(d2.apply(np.sin(x)).real[0] + np.sin(x[0])),
                abs(d2.apply(np.sin(x)).real[-1] + np.sin(x[-1])),
            )
        )
    assert errs[0] / errs[1] > 3.0  # one-sided rows converge at second order too


def test_derivative_matrices_cached_and_readonly():
    g = Grid1D(0, 1, 11)
    d1a, _ = derivative_matrices(g)
    d1b, _ = derivative_matrices(Grid1D(0, 1, 11))
    assert d1a is d1b
    with pytest.raises(ValueError):
        d1a.entries[0, 0] = 1.0
