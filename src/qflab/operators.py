"""Canonical operators x, P = -i d/dx and the deformed momentum P_f = P + i f'.

The deformed momentum arises equivalently as the similarity transform
``exp(f) P exp(-f)``; both constructions are provided and their agreement is
a genuine O(h^2) statement checked in the test suite.  The deformation
function f is restricted to real values: a complex f would break the adjoint
relations the Hamiltonian constructions rely on.

Identity checks such as ``[x, P] = i I`` cannot hold entrywise for finite
matrices (the commutator is traceless while i I is not); they hold in the
only sense available to a discretization, namely acting on smooth functions.
:func:`action_difference` and :func:`canonical_commutator_defect` implement
that semantics against a fixed corpus of smooth test vectors.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import sparse

from .grid import Grid1D
from .tolerances import DEFAULT as TOL

# exp(f) overflows float64 near 709; similarity constructions stay well clear
MAX_SAFE_EXPONENT = 300.0
# tolerance models raise the derivative scale of f to at most the 4th power
MAX_DERIVATIVE_SCALE = float(np.finfo(float).max) ** 0.25


@dataclass(frozen=True, eq=False)
class FunctionSpec:
    """Declarative description of a function on the grid (f, W or V).

    Polynomial specs (ascending coefficients) carry exact derivatives and
    antiderivatives by coefficient shifting.  Tabulated specs hold one sample
    per grid node and differentiate through :func:`derivative_matrices`, unless
    exact derivative samples were recorded at construction time (as happens
    for antiderivatives, whose derivative is the integrand itself).
    """

    coefficients: tuple[float, ...] | None = None
    samples: np.ndarray | None = None
    derivative_samples: np.ndarray | None = None

    def __post_init__(self):
        if (self.coefficients is None) == (self.samples is None):
            raise ValueError("exactly one of coefficients/samples must be given")
        if self.coefficients is not None:
            if len(self.coefficients) == 0:
                raise ValueError("polynomial coefficient list must be non-empty")
            if not all(math.isfinite(c) for c in self.coefficients):
                raise ValueError(f"polynomial coefficients must be finite, got {self.coefficients}")
        elif not np.all(np.isfinite(self.samples)):
            raise ValueError("tabulated function samples must be finite")

    # -- constructors ------------------------------------------------------

    @classmethod
    def polynomial(cls, coefficients) -> "FunctionSpec":
        return cls(coefficients=tuple(float(c) for c in coefficients))

    @classmethod
    def tabulated(cls, values, derivative_values=None) -> "FunctionSpec":
        d = None if derivative_values is None else np.asarray(derivative_values, float)
        return cls(samples=np.asarray(values, dtype=float), derivative_samples=d)

    @classmethod
    def zero(cls) -> "FunctionSpec":
        return cls.polynomial([0.0])

    @classmethod
    def parse(cls, text: str) -> "FunctionSpec":
        """Parse the textual form ``poly:c0,c1,...`` or ``table:<path.csv>``."""
        kind, _, body = text.partition(":")
        if kind == "poly" and body:
            try:
                return cls.polynomial([float(c) for c in body.split(",")])
            except ValueError as exc:
                raise ValueError(f"bad polynomial spec {text!r}: {exc}") from exc
        if kind == "table" and body:
            try:
                values = np.loadtxt(Path(body), dtype=float, ndmin=1)
            except OSError as exc:
                raise ValueError(f"cannot read table {body!r}: {exc.strerror or exc}") from exc
            return cls.tabulated(values)
        raise ValueError(f"function spec must look like 'poly:c0,c1,...' or "
                         f"'table:<path>', got {text!r}")

    # -- evaluation --------------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return self.coefficients is not None

    def _check_length(self, g: Grid1D):
        if self.samples is not None and len(self.samples) != g.n:
            raise ValueError(
                f"tabulated function has {len(self.samples)} values, grid has {g.n} nodes"
            )

    def values(self, g: Grid1D) -> np.ndarray:
        if self.is_polynomial:
            return npoly.polyval(g.nodes, self.coefficients)
        self._check_length(g)
        return np.asarray(self.samples)

    def derivative_values(self, g: Grid1D) -> np.ndarray:
        if self.is_polynomial:
            return npoly.polyval(g.nodes, npoly.polyder(self.coefficients))
        self._check_length(g)
        if self.derivative_samples is not None:
            return np.asarray(self.derivative_samples)
        d1, _ = derivative_matrices(g)
        return d1.apply(self.samples).real

    def second_derivative_values(self, g: Grid1D) -> np.ndarray:
        if self.is_polynomial:
            return npoly.polyval(g.nodes, npoly.polyder(self.coefficients, 2))
        self._check_length(g)
        if self.derivative_samples is not None:
            d1, _ = derivative_matrices(g)
            return d1.apply(self.derivative_samples).real
        _, d2 = derivative_matrices(g)
        return d2.apply(self.samples).real

    def antiderivative(self, g: Grid1D | None = None) -> "FunctionSpec":
        """Antiderivative anchored at 0 (the integral from 0 to x).

        Exact coefficient shift for polynomials.  Tabulated specs integrate by
        the trapezoid rule on the grid, anchored at the node nearest x = 0,
        and retain the integrand as exact derivative samples.
        """
        if self.is_polynomial:
            return FunctionSpec.polynomial(npoly.polyint(self.coefficients))
        if g is None:
            raise ValueError("tabulated antiderivative needs the grid")
        self._check_length(g)
        from scipy.integrate import cumulative_trapezoid

        raw = cumulative_trapezoid(self.samples, g.nodes, initial=0.0)
        anchor = int(np.argmin(np.abs(g.nodes)))
        return FunctionSpec.tabulated(raw - raw[anchor], derivative_values=self.samples)

    def __neg__(self) -> "FunctionSpec":
        if self.is_polynomial:
            return FunctionSpec.polynomial([-c for c in self.coefficients])
        d = None if self.derivative_samples is None else -self.derivative_samples
        return FunctionSpec.tabulated(-self.samples, derivative_values=d)

    def max_abs(self, g: Grid1D) -> float:
        return float(np.max(np.abs(self.values(g))))

    def exponent_values(self, g: Grid1D) -> np.ndarray:
        """Samples of f, refused when exp(+-f) would overflow float64."""
        fv = self.values(g)
        peak = float(np.max(np.abs(fv)))
        if not peak <= MAX_SAFE_EXPONENT:
            raise ValueError(
                f"max|f| = {peak:.3g} exceeds {MAX_SAFE_EXPONENT}; exp(f) would overflow"
            )
        return fv

    def derivative_scale(self, g: Grid1D) -> float:
        """max(1, |f'|, |f''|, |f'''|) over the grid; feeds tolerance scales.

        Refused from ``MAX_DERIVATIVE_SCALE`` on, where the tolerance models
        overflow float64.
        """
        if self.is_polynomial:
            c = self.coefficients
            tops = [npoly.polyval(g.nodes, npoly.polyder(c, m)) for m in (1, 2, 3)]
        else:
            _, d2 = derivative_matrices(g)
            inner = g.interior()
            tops = [self.derivative_values(g)[inner], d2.apply(self.values(g)).real[inner]]
        scale = max(1.0, *(float(np.max(np.abs(t))) for t in tops))
        if not scale < MAX_DERIVATIVE_SCALE:
            raise ValueError(f"derivative scale of f, max(1, |f'|, |f''|, |f'''|) = {scale:.3g} "
                             f"on the grid, must be below {MAX_DERIVATIVE_SCALE:.3g}")
        return scale


def _clear_outside(data: np.ndarray, offsets) -> None:
    """Zero, in place, the DIA slots of an (ndiag, m) band array that fall outside the matrix."""
    m = data.shape[1]
    for row, o in zip(data, offsets):
        row[: max(o, 0)] = 0.0
        row[m + min(o, 0) :] = 0.0


def _shift(v: np.ndarray, s: int) -> np.ndarray:
    """w[j] = v[j - s], zero where j - s falls outside v."""
    n = len(v)
    w = np.zeros_like(v)
    if s >= 0:
        w[s:] = v[: n - s]
    else:
        w[: n + s] = v[-s:]
    return w


@dataclass(frozen=True, eq=False)
class LinOp:
    """Banded complex square matrix bound to the grid it acts on.

    Storage is the scipy DIA layout: ``entries`` is a C-contiguous complex
    (ndiag, n) array and ``entries[k, j]`` is the element A[j - offsets[k], j].
    Offsets are ascending and distinct, and the slots of a diagonal that fall
    outside the matrix hold zero.  Every operator in the package has a band
    width w of a few diagonals, so sums, products, adjoints and actions cost
    O(n w^2); :meth:`toarray` is the explicit dense export.

    Instances are treated as immutable; combining two operators requires a
    shared grid.
    """

    entries: np.ndarray
    offsets: tuple[int, ...]
    grid: Grid1D

    def __post_init__(self):
        n = self.grid.n
        offsets = np.asarray(self.offsets, dtype=int).reshape(-1)
        e = np.asarray(self.entries)
        if e.shape != (len(offsets), n):
            raise ValueError(
                f"band entries must have shape (ndiag, n) = ({len(offsets)}, {n}), got {e.shape}"
            )
        if np.any(np.abs(offsets) >= n) or len(set(offsets.tolist())) != len(offsets):
            raise ValueError(f"offsets must be distinct and below {n} in size, got {offsets}")
        order = np.argsort(offsets)
        e = np.ascontiguousarray(e[order], dtype=np.complex128)
        _clear_outside(e, offsets[order])
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "offsets", tuple(offsets[order].tolist()))

    @classmethod
    def from_dense(cls, matrix, g: Grid1D) -> "LinOp":
        """Band storage of a dense square matrix: every diagonal holding a nonzero."""
        m = np.asarray(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator entries must be square, got shape {m.shape}")
        if m.shape[0] != g.n:
            raise ValueError(f"operator dimension {m.shape[0]} does not match grid size {g.n}")
        offsets = [o for o in range(1 - g.n, g.n) if np.any(np.diagonal(m, o))]
        data = np.zeros((len(offsets), g.n), dtype=np.complex128)
        for row, o in zip(data, offsets):
            row[max(o, 0) : max(o, 0) + g.n - abs(o)] = np.diagonal(m, o)
        return cls(data, tuple(offsets), g)

    @property
    def n(self) -> int:
        return self.grid.n

    def _require_same_grid(self, other: "LinOp"):
        if self.grid != other.grid:
            raise ValueError("operators act on different grids")

    def _combine(self, other: "LinOp", other_entries: np.ndarray) -> "LinOp":
        self._require_same_grid(other)
        offsets = sorted(set(self.offsets) | set(other.offsets))
        out = np.zeros((len(offsets), self.n), dtype=np.complex128)
        out[[offsets.index(o) for o in self.offsets]] += self.entries
        out[[offsets.index(o) for o in other.offsets]] += other_entries
        return LinOp(out, tuple(offsets), self.grid)

    def __add__(self, other: "LinOp") -> "LinOp":
        return self._combine(other, other.entries)

    def __sub__(self, other: "LinOp") -> "LinOp":
        return self._combine(other, -other.entries)

    def __neg__(self) -> "LinOp":
        return LinOp(-self.entries, self.offsets, self.grid)

    def __mul__(self, scalar) -> "LinOp":
        return LinOp(self.entries * scalar, self.offsets, self.grid)

    __rmul__ = __mul__

    def __matmul__(self, other: "LinOp") -> "LinOp":
        # (AB)[j - p - q, j] = A[j - p - q, j - q] B[j - q, j]: diagonal p of A
        # meets diagonal q of B on diagonal p + q
        self._require_same_grid(other)
        acc: dict[int, np.ndarray] = {}
        for p, a in zip(self.offsets, self.entries):
            for q, b in zip(other.offsets, other.entries):
                if abs(p + q) < self.n:
                    term = _shift(a, q) * b
                    acc[p + q] = acc[p + q] + term if p + q in acc else term
        offsets = tuple(sorted(acc))
        data = np.array([acc[o] for o in offsets]).reshape(len(offsets), self.n)
        return LinOp(data, offsets, self.grid)

    def scale_rows(self, values) -> "LinOp":
        """diag(values) A: row i scaled by values[i]."""
        v = np.asarray(values)
        rows = np.array([_shift(v, o) for o in self.offsets]).reshape(self.entries.shape)
        return LinOp(rows * self.entries, self.offsets, self.grid)

    def similarity(self, values) -> "LinOp":
        """diag(values) A diag(values)^-1: row i times values[i], column j over values[j]."""
        v = np.asarray(values)
        return LinOp(self.scale_rows(v).entries / v, self.offsets, self.grid)

    def adjoint(self) -> "LinOp":
        # (A^dagger)[j + p, j] = conj(A[j, j + p]): diagonal p becomes diagonal -p
        data = np.array([np.conj(_shift(a, -p)) for p, a in zip(self.offsets, self.entries)])
        return LinOp(data.reshape(self.entries.shape), tuple(-p for p in self.offsets), self.grid)

    def apply(self, vec) -> np.ndarray:
        v = np.asarray(vec)
        out = np.zeros(self.n, dtype=np.result_type(v, np.complex128))
        for p, a in zip(self.offsets, self.entries):
            out += _shift(a * v, -p)
        return out

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries), initial=0.0))

    def principal_bands(self, s: slice) -> tuple[tuple[int, ...], np.ndarray]:
        """(offsets, entries) in DIA layout of the principal block A[s, s]."""
        lo, hi, _ = s.indices(self.n)
        m = max(hi - lo, 0)
        keep = [k for k, o in enumerate(self.offsets) if abs(o) < m]
        offsets = tuple(self.offsets[k] for k in keep)
        data = self.entries[keep, lo:hi]  # a copy: ``keep`` is a list index
        _clear_outside(data, offsets)
        return offsets, data

    def block_max_abs(self, s: slice) -> float:
        """max |A[s, s]| over the principal block ``s``."""
        return float(np.max(np.abs(self.principal_bands(s)[1]), initial=0.0))

    def to_sparse(self) -> sparse.dia_array:
        return sparse.dia_array((self.entries, np.array(self.offsets, dtype=int)),
                                shape=(self.n, self.n))

    def toarray(self) -> np.ndarray:
        """Dense n x n export."""
        return self.to_sparse().toarray()


# -- basic constructions ---------------------------------------------------


@lru_cache(maxsize=8)
def derivative_matrices(g: Grid1D) -> tuple[LinOp, LinOp]:
    """First and second derivative matrices (D1, D2), both O(h^2).

    D1 is the central difference ``(u[k+1] - u[k-1]) / 2h`` with one-sided
    second-order stencils on the first and last row; D2 is the standard
    second difference ``(u[k+1] - 2u[k] + u[k-1]) / h^2`` with four-point
    one-sided boundary rows.  Both are real-valued bands (offsets -2..2 for
    D1, -3..3 for D2, the reach of the boundary rows); the cached operators
    are shared, so their ``entries`` are read-only.
    """
    n, h = g.n, g.h
    if n < 4:
        raise ValueError(f"derivative matrices need at least 4 nodes, got n={n}")

    def banded(reach, interior, first, last):
        # interior row k holds interior[o + 1] at column k + o; the boundary
        # rows hold their stencils from column 0 and up to column n - 1
        data = np.zeros((2 * reach + 1, n))
        for o, c in zip((-1, 0, 1), interior):
            data[reach + o, 1 + o : n - 1 + o] = c
        for j, c in enumerate(first):
            data[reach + j, j] = c
        for j, c in enumerate(last):
            o = j - len(last) + 1
            data[reach + o, n - 1 + o] = c
        op = LinOp(data, tuple(range(-reach, reach + 1)), g)
        op.entries.flags.writeable = False
        return op

    d1 = banded(2, (-0.5 / h, 0.0, 0.5 / h), np.array([-3.0, 4.0, -1.0]) / (2.0 * h),
                np.array([1.0, -4.0, 3.0]) / (2.0 * h))
    d2 = banded(3, (1.0 / h**2, -2.0 / h**2, 1.0 / h**2), np.array([2.0, -5.0, 4.0, -1.0]) / h**2,
                np.array([-1.0, 4.0, -5.0, 2.0]) / h**2)
    return d1, d2


def identity(g: Grid1D) -> LinOp:
    return diagonal(g, np.ones(g.n))


def diagonal(g: Grid1D, values) -> LinOp:
    v = np.asarray(values)
    if v.shape != (g.n,):
        raise ValueError(f"diagonal needs {g.n} values, got shape {v.shape}")
    return LinOp(v[None, :], (0,), g)


def position_operator(g: Grid1D) -> LinOp:
    """The multiplication operator x: diag of the node coordinates."""
    return diagonal(g, g.nodes)


def momentum_operator(g: Grid1D) -> LinOp:
    """P = -i D1."""
    d1, _ = derivative_matrices(g)
    return -1j * d1


def momentum_squared(g: Grid1D) -> LinOp:
    """P^2 realized as -D2 (the three-point Laplacian).

    D1 @ D1 is not used here: it carries a checkerboard null-space artifact,
    while -D2 is the standard discrete Laplacian.  Compositional Hamiltonians
    do use matrix products of the momentum matrices, which makes their
    agreement with the closed forms a genuine O(h^2) statement.
    """
    _, d2 = derivative_matrices(g)
    return -d2


def deformed_momentum(g: Grid1D, f: FunctionSpec) -> LinOp:
    """P_f = P + i diag(f'), with exact f' whenever the spec provides it."""
    return momentum_operator(g) + diagonal(g, 1j * f.derivative_values(g))


def deformed_momentum_by_similarity(g: Grid1D, f: FunctionSpec) -> LinOp:
    """P_f built as diag(e^f) P diag(e^-f).

    Exactly annihilates samples of e^f (the conjugated constant vector); agrees
    with :func:`deformed_momentum` acting on smooth vectors within O(h^2).
    """
    return momentum_operator(g).similarity(np.exp(f.exponent_values(g)))


def commutator(a: LinOp, b: LinOp) -> LinOp:
    return a @ b - b @ a


def hermiticity_defect(a: LinOp) -> float:
    """max |A - A^dagger| over the interior block."""
    d = a - a.adjoint()
    return d.block_max_abs(a.grid.interior()) if a.n > 8 else d.max_abs()


# -- action-based comparison corpus ----------------------------------------


def smooth_test_vectors(g: Grid1D) -> list[tuple[str, np.ndarray, float]]:
    """Smooth probe vectors (name, samples, derivative bound up to order 4).

    Operator identities are verified by acting on these: sin/cos have all
    derivatives bounded by 1, the unit gaussian by 3.
    """
    x = g.nodes
    return [
        ("sin", np.sin(x), 1.0),
        ("cos", np.cos(x), 1.0),
        ("gauss", np.exp(-0.5 * x**2), 3.0),
    ]


def action_difference(a: LinOp, b: LinOp) -> float:
    """max interior |(A - B) v| / scale(v) over the smooth test corpus."""
    a._require_same_grid(b)
    inner = a.grid.interior()
    worst = 0.0
    for _, v, scale in smooth_test_vectors(a.grid):
        w = (a.apply(v) - b.apply(v))[inner]
        worst = max(worst, float(np.max(np.abs(w))) / scale)
    return worst


def canonical_commutator_defect(g: Grid1D, f: FunctionSpec | None = None) -> float:
    """max interior |([x, P_f] - iI) v| / scale(v) over the smooth test corpus.

    f = None checks the undeformed pair (x, P).
    """
    p = momentum_operator(g) if f is None else deformed_momentum(g, f)
    return action_difference(commutator(position_operator(g), p), 1j * identity(g))


def canonical_tolerance(g: Grid1D, f: FunctionSpec | None = None) -> float:
    """Discretization tolerance for the canonical-algebra checks."""
    scale = 1.0 if f is None else f.derivative_scale(g)
    return TOL.discretization(g, scale)
