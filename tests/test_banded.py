"""Band storage of LinOp: agreement with dense algebra, bounded width, O(n) memory."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import from_dense, toarray
from qflab.cli import main
from qflab.grid import Grid1D
from qflab.hamiltonians import build_all
from qflab.operators import FunctionSpec, LinOp, deformed_momentum, derivative_matrices, diagonal
from qflab.susy import block_anticommutator, block_commutator, dirichlet_eigenvalues, supercharges_4x4

N_SMALL = 9


def random_band(rng, g, offsets) -> LinOp:
    data = rng.normal(size=(len(offsets), g.n)) + 1j * rng.normal(size=(len(offsets), g.n))
    return LinOp(data, offsets, g)


# Reference band kernels: each diagonal shifted into a zeroed copy of its own,
# the slower form the sliced kernels of LinOp must reproduce bit for bit.


def shift(v, s):
    """w[j] = v[j - s], zero where j - s falls outside v."""
    n = len(v)
    w = np.zeros_like(v)
    if s >= 0:
        w[s:] = v[: n - s]
    else:
        w[: n + s] = v[-s:]
    return w


def reference_matmul(a, b):
    acc = {}
    for p, x in zip(a.offsets, a.entries):
        for q, y in zip(b.offsets, b.entries):
            if abs(p + q) < a.n:
                term = shift(x, q) * y
                acc[p + q] = acc[p + q] + term if p + q in acc else term
    offsets = tuple(sorted(acc))
    return LinOp(np.array([acc[o] for o in offsets]).reshape(len(offsets), a.n), offsets, a.grid)


def reference_apply(a, v):
    out = np.zeros(a.n, dtype=np.result_type(v, np.complex128))
    for p, x in zip(a.offsets, a.entries):
        out += shift(x * v, -p)
    return out


def reference_adjoint(a):
    data = np.array([np.conj(shift(x, -p)) for p, x in zip(a.offsets, a.entries)])
    return LinOp(data.reshape(a.entries.shape), tuple(-p for p in a.offsets), a.grid)


def reference_scale_rows(a, v):
    rows = np.array([shift(v, o) for o in a.offsets]).reshape(a.entries.shape)
    return LinOp(rows * a.entries, a.offsets, a.grid)


def same_bits(op, ref) -> bool:
    """Equal offsets and entries; np.array_equal leaves only the sign of a zero free."""
    return op.offsets == ref.offsets and np.array_equal(op.entries, ref.entries)


band_offsets = st.sets(st.integers(1 - N_SMALL, N_SMALL - 1), min_size=1, max_size=5).map(tuple)


@given(st.integers(0, 2**31 - 1), band_offsets, band_offsets)
@settings(max_examples=50, deadline=None)
def test_band_algebra_matches_dense_algebra(seed, offs_a, offs_b):
    rng = np.random.default_rng(seed)
    g = Grid1D(0, 1, N_SMALL)
    a, b = random_band(rng, g, offs_a), random_band(rng, g, offs_b)
    da, db = toarray(a), toarray(b)
    v = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    assert np.array_equal(toarray(from_dense(da, g)), da)
    assert np.array_equal(toarray(a + b), da + db)
    assert np.array_equal(toarray(a - b), da - db)
    assert np.array_equal(toarray(a.adjoint()), da.conj().T)
    assert np.array_equal(toarray(2.5j * a), 2.5j * da)
    assert np.allclose(toarray(a @ b), da @ db, rtol=1e-13, atol=1e-13)
    assert np.allclose(a.apply(v), da @ v, rtol=1e-13, atol=1e-13)
    assert np.array_equal(toarray(a.scale_rows(v)), v[:, None] * da)
    assert same_bits(a @ b, reference_matmul(a, b)) and same_bits(b @ a, reference_matmul(b, a))
    assert same_bits(a.adjoint(), reference_adjoint(a))
    for w in (v, v.real):
        assert np.array_equal(a.apply(w), reference_apply(a, w))
        assert same_bits(a.scale_rows(w), reference_scale_rows(a, w))
    assert np.array_equal(toarray(a.similarity(v)), v[:, None] * da / v[None, :])
    assert a.max_abs() == np.max(np.abs(da))
    s = slice(2, N_SMALL - 3)
    offsets, bands = a.principal_bands(s)
    block = toarray(LinOp(bands, offsets, Grid1D(0, 1, s.stop - s.start)))
    assert np.array_equal(block, da[s, s])
    assert a.block_max_abs(s) == np.max(np.abs(da[s, s]))


@given(st.integers(0, 2**31 - 1), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=50, deadline=None)
def test_tridiagonal_reads_the_three_diagonals(seed, lo, cut):
    rng = np.random.default_rng(seed)
    g = Grid1D(0, 1, N_SMALL)
    op = LinOp(rng.normal(size=(3, g.n)), (-1, 0, 1), g)
    s = slice(lo, N_SMALL - cut)
    block = toarray(op)[s, s]
    lower, main, upper = op.tridiagonal(s)
    assert main.dtype == lower.dtype == upper.dtype == np.float64
    assert np.array_equal(lower, np.diagonal(block, -1).real)
    assert np.array_equal(main, np.diagonal(block).real)
    assert np.array_equal(upper, np.diagonal(block, 1).real)
    assert [np.array_equal(d, np.diagonal(toarray(op), o).real)
            for d, o in zip(op.tridiagonal(), (-1, 0, 1))] == [True] * 3


def test_tridiagonal_refuses_complex_and_wider_bands():
    g = Grid1D(0, 1, N_SMALL)
    with pytest.raises(ValueError, match="not a real tridiagonal band"):
        LinOp(1j * np.ones((3, g.n)), (-1, 0, 1), g).tridiagonal()
    for o in (-2, 2):
        wide = LinOp(np.ones((4, g.n)), (-1, 0, 1, o), g)
        with pytest.raises(ValueError, match="not a real tridiagonal band"):
            wide.tridiagonal()
        # a diagonal that is zero inside the block is no refusal
        assert len(wide.tridiagonal(slice(3, 5))[1]) == 2


def assert_band_layout(op: LinOp):
    """Ascending offsets, complex128 C-contiguous entries, zeros outside the matrix."""
    assert list(op.offsets) == sorted(set(op.offsets))
    e = op.entries
    assert e.dtype == np.complex128 and e.flags.c_contiguous and e.shape == (len(op.offsets), op.n)
    for o, row in zip(op.offsets, e):
        assert not np.any(row[: max(o, 0)]) and not np.any(row[op.n + min(o, 0) :]), o


def test_band_entries_outside_the_matrix_are_zero():
    g = Grid1D(0, 1, N_SMALL)
    op = LinOp(np.ones((3, g.n)), (2, -1, 0), g)
    assert op.offsets == (-1, 0, 2)
    assert op.entries.flags.c_contiguous and op.entries.dtype == np.complex128
    assert np.count_nonzero(op.entries) == 3 * g.n - 3
    with pytest.raises(ValueError):
        LinOp(np.ones((2, g.n)), (0, 0), g)
    with pytest.raises(ValueError):
        LinOp(np.ones((1, g.n)), (g.n,), g)

    # a caller's complex128 C-contiguous array, ascending or not, is neither
    # written (its out-of-matrix slots keep their ones) nor shared
    for offsets in ((-1, 0, 2), (2, -1, 0)):
        data = np.full((3, g.n), 1.0 + 2.0j)
        op = LinOp(data, offsets, g)
        assert np.array_equal(data, np.full((3, g.n), 1.0 + 2.0j))
        data[:] = 7.0
        assert np.count_nonzero(op.entries == 1.0 + 2.0j) == 3 * g.n - 3
        assert_band_layout(op)

    # every method's result has the layout, and the read-only cached
    # derivative bands it read are left as they were
    d1, d2 = derivative_matrices(g)
    before = [d.entries.copy() for d in (d1, d2)]
    v = np.linspace(1.0, 2.0, g.n)
    results = [d1 + d2, d2 - d1, -d1, 2.0 * d2, d1 * 0.5j, d1 @ d2, d2 @ d1, d1.adjoint(),
               (1j * d1).adjoint(), d1.scale_rows(v), d2.similarity(v)]
    for result in results:
        assert_band_layout(result)
        assert not np.shares_memory(result.entries, d1.entries)
        assert not np.shares_memory(result.entries, d2.entries)
    d1.apply(v), d2.apply(1j * v), d2.block_max_abs(slice(1, 6)), d1.max_abs(), d1.tridiagonal(slice(2, 5))
    for d, entries in zip((d1, d2), before):
        assert not d.entries.flags.writeable
        assert np.array_equal(d.entries, entries)


def width(op: LinOp) -> int:
    return max(abs(o) for o in op.offsets)


def test_band_width_stays_bounded():
    g = Grid1D(-5, 5, 201)
    pf = deformed_momentum(g, FunctionSpec.polynomial([0, 0, 0.5]))
    assert width(pf) <= 2
    assert width(pf.adjoint() @ pf) <= 4
    q = supercharges_4x4(g, FunctionSpec.polynomial([0, 0, 0.5]), 1.0, 0.0)[0]  # the 2x2 sector
    comm = block_commutator(q, block_anticommutator(q, q.adjoint()))
    for block in comm.blocks.values():
        assert width(block) <= 7


def test_hamiltonian_storage_is_linear_in_n():
    g = Grid1D(-10, 10, 20001)
    for pair in build_all(g, FunctionSpec.polynomial([0, 0, 0.5]), 1.0, 1.0).values():
        for op in (pair.compositional, pair.closed_form):
            assert op.entries.nbytes <= 15 * 16 * g.n


def test_dirichlet_refuses_wide_and_complex_bands():
    g = Grid1D(-5, 5, 201)
    h1 = build_all(g, FunctionSpec.polynomial([0, 0, 0.5]), 1.0, 1.0)["H1"]
    # compositional member: pentadiagonal after trimming
    with pytest.raises(ValueError, match="not a real tridiagonal band"):
        dirichlet_eigenvalues(h1.compositional, 4)
    # complex Hermitian input: a unitary diagonal similarity of the closed form
    phase = diagonal(g, np.exp(1j * g.nodes))
    rotated = phase @ h1.closed_form @ phase.adjoint()
    with pytest.raises(ValueError, match="not a real tridiagonal band"):
        dirichlet_eigenvalues(rotated, 4)


@given(dim=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_dirichlet_real_tridiagonal_with_nonnegative_products(dim, seed):
    # diagonally similar to a symmetric band: the spectrum is real, and the
    # tridiagonal solver must reproduce the dense non-symmetric one
    rng = np.random.default_rng(seed)
    n = dim + 2
    sign = rng.choice([-1.0, 1.0], n - 1)
    upper = sign * rng.uniform(0.1, 10.0, n - 1)
    lower = sign * rng.uniform(0.1, 10.0, n - 1)
    lower[rng.random(n - 1) < 0.1] = 0.0  # a zero product splits the band
    a = np.diag(rng.normal(0.0, 10.0, n)) + np.diag(upper, 1) + np.diag(lower, -1)
    k = dim if rng.random() < 0.3 else int(rng.integers(1, dim + 1))
    got = dirichlet_eigenvalues(from_dense(a, Grid1D(-1, 1, n)), k)
    dense = np.sort(np.linalg.eigvals(a[1:-1, 1:-1]).real)
    assert np.max(np.abs(got - dense[:k])) <= 1e-10 * max(1.0, np.max(np.abs(dense)))


def test_dirichlet_refuses_bands_whose_spectrum_may_be_complex():
    g = Grid1D(-1, 1, 6)
    # one negative off-diagonal product: the trimmed block [[0, 1], [-1, 0]] has eigenvalues +-i
    a = np.diag([1.0, 1.0, 1.0, 1.0, 1.0], 1) + np.diag([1.0, 1.0, -1.0, 1.0, 1.0], -1)
    assert np.max(np.abs(np.linalg.eigvals(a[1:-1, 1:-1]).imag)) > 0.1
    with pytest.raises(ValueError, match="negative off-diagonal product"):
        dirichlet_eigenvalues(from_dense(a, g), 2)
    # a non-Hermitian pentadiagonal band has no diagonal symmetrizer
    penta = np.diag(np.ones(6)) + np.diag(np.ones(4), 2) + 2.0 * np.diag(np.ones(4), -2)
    with pytest.raises(ValueError, match="not a real tridiagonal band"):
        dirichlet_eigenvalues(from_dense(penta, g), 2)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "20001"],
    ["verify-algebra", "--f", "poly:0,0,0.5", "--n", "20001"],
])
def test_large_grids_run_in_seconds(argv):
    # a dense n x n complex operator at n = 20001 would need 6.4 GB
    started = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - started < 60.0
