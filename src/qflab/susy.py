"""Supercharges, superhamiltonians and the machine-verified SUSY algebra.

Block operators store absent blocks as None, so nilpotency (Q^2 = 0) and
block-diagonality of the anticommutators are structural facts, not numerical
ones.  The diagonal content of the superhamiltonians is *measured* against
the four compositional Hamiltonians rather than assumed: direct block
multiplication of the supercharge matrices yields diag(H2, H1, H3, H3) for
{Q1, Q2} and diag(H1, H2, H4, H4) for {Q3, Q4}, and the ground-state vectors
(e^-f, e^f, e^-f, e^-f) and (e^f, e^-f, e^f, e^f) annihilate exactly that
ordering.

The conserved-charge statement is implemented as the commutator [Q, h] = 0,
which follows identically from Q^2 = 0; the anticommutator {Q, h} = 2 Q Q+ Q
is generically nonzero and is computed alongside so the difference stays
visible.

Every spectrum comes from the bands by :func:`dirichlet_eigenvalues`: the
trimmed H1..H4 are real tridiagonal bands, diagonally similar to symmetric
ones, so their spectra are real.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .grid import Grid1D
from .hamiltonians import HamiltonianPair
from .operators import (
    FunctionSpec,
    LinOp,
    deformed_momentum,
    momentum_squared,
)
from .tolerances import DEFAULT as TOL


@dataclass(frozen=True, eq=False)
class BlockOp:
    """m x m block matrix of LinOps on a shared grid; None marks a zero block."""

    blocks: tuple[tuple[LinOp | None, ...], ...]
    grid: Grid1D

    def __post_init__(self):
        m = len(self.blocks)
        if m not in (2, 4) or any(len(row) != m for row in self.blocks):
            raise ValueError("blocks must form a 2x2 or 4x4 square layout")
        for row in self.blocks:
            for b in row:
                if b is not None and b.grid != self.grid:
                    raise ValueError("all blocks must share the block operator's grid")

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return self.grid.n

    def block(self, i: int, j: int) -> LinOp | None:
        return self.blocks[i][j]

    def __matmul__(self, other: "BlockOp") -> "BlockOp":
        self._compatible(other)
        m = self.m
        out = []
        for i in range(m):
            row = []
            for j in range(m):
                acc = None
                for k in range(m):
                    a, b = self.blocks[i][k], other.blocks[k][j]
                    if a is None or b is None:
                        continue
                    acc = a @ b if acc is None else acc + (a @ b)
                row.append(acc)
            out.append(tuple(row))
        return BlockOp(tuple(out), self.grid)

    def __add__(self, other: "BlockOp") -> "BlockOp":
        self._compatible(other)
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other: "BlockOp") -> "BlockOp":
        self._compatible(other)
        return self._zip(other, lambda a, b: a - b, negate_right=True)

    def _zip(self, other, combine, negate_right=False):
        out = []
        for ra, rb in zip(self.blocks, other.blocks):
            row = []
            for a, b in zip(ra, rb):
                if a is None and b is None:
                    row.append(None)
                elif a is None:
                    row.append(-b if negate_right else b)
                elif b is None:
                    row.append(a)
                else:
                    row.append(combine(a, b))
            out.append(tuple(row))
        return BlockOp(tuple(out), self.grid)

    def __rmul__(self, scalar) -> "BlockOp":
        out = tuple(
            tuple(None if b is None else scalar * b for b in row) for row in self.blocks
        )
        return BlockOp(out, self.grid)

    def adjoint(self) -> "BlockOp":
        m = self.m
        out = tuple(
            tuple(
                None if self.blocks[j][i] is None else self.blocks[j][i].adjoint()
                for j in range(m)
            )
            for i in range(m)
        )
        return BlockOp(out, self.grid)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        v = np.asarray(vec).reshape(self.m, self.n)
        out = np.zeros_like(v, dtype=np.complex128)
        for i in range(self.m):
            for j in range(self.m):
                b = self.blocks[i][j]
                if b is not None:
                    out[i] += b.apply(v[j])
        return out.reshape(-1)

    @property
    def structurally_zero(self) -> bool:
        return all(b is None for row in self.blocks for b in row)

    @property
    def structurally_block_diagonal(self) -> bool:
        return all(
            b is None for i, row in enumerate(self.blocks) for j, b in enumerate(row) if i != j
        )

    def max_abs(self) -> float:
        tops = [b.max_abs() for row in self.blocks for b in row if b is not None]
        return max(tops, default=0.0)

    def to_matrix(self) -> np.ndarray:
        z = np.zeros((self.n, self.n), dtype=np.complex128)
        rows = [
            [z if b is None else b.toarray() for b in row] for row in self.blocks
        ]
        return np.block(rows)

    def _compatible(self, other: "BlockOp"):
        if self.grid != other.grid or self.m != other.m:
            raise ValueError("block operators are not compatible")


def block_commutator(a: BlockOp, b: BlockOp) -> BlockOp:
    return (a @ b) - (b @ a)


def block_anticommutator(a: BlockOp, b: BlockOp) -> BlockOp:
    return (a @ b) + (b @ a)


# -- supercharges ------------------------------------------------------------


def supercharge_2x2(g: Grid1D, f: FunctionSpec, alpha: float) -> BlockOp:
    """Nilpotent 2x2 supercharge with upper-right block alpha P_f."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    pf = deformed_momentum(g, f)
    return BlockOp(((None, alpha * pf), (None, None)), g)


def superhamiltonian_2x2(q: BlockOp) -> BlockOp:
    """h = {Q, Q+}: block-diagonal with diagonal (H2, H1) in compositional form."""
    return block_anticommutator(q, q.adjoint())


def supercharges_4x4(
    g: Grid1D, f: FunctionSpec, alpha: float, beta: float
) -> tuple[BlockOp, BlockOp, BlockOp, BlockOp]:
    """The four 4x4 supercharges; all are structurally nilpotent.

    beta = 0 leaves the beta blocks absent, embedding the 2x2 supercharge in
    the top block exactly.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    pf = deformed_momentum(g, f)
    pfd = pf.adjoint()
    apf, apfd = alpha * pf, alpha * pfd
    bpf = beta * pf if beta > 0 else None
    bpfd = beta * pfd if beta > 0 else None

    def four(b01=None, b10=None, b23=None, b32=None) -> BlockOp:
        rows = [[None] * 4 for _ in range(4)]
        rows[0][1], rows[1][0], rows[2][3], rows[3][2] = b01, b10, b23, b32
        return BlockOp(tuple(tuple(r) for r in rows), g)

    q1 = four(b01=apf, b23=bpfd)
    q2 = four(b10=apfd, b32=bpfd)
    q3 = four(b01=apfd, b23=bpf)
    q4 = four(b10=apf, b32=bpf)
    return q1, q2, q3, q4


# -- block identification ----------------------------------------------------


@dataclass(frozen=True)
class BlockMatchReport:
    """Measured identity of each diagonal block of a superhamiltonian."""

    labels: tuple[str, ...]
    residuals: tuple[float, ...]
    ties: tuple[tuple[str, ...], ...]
    tolerance: float

    @property
    def matched(self) -> bool:
        return all(r <= self.tolerance for r in self.residuals)


def identify_blocks(h: BlockOp, pairs: dict[str, HamiltonianPair]) -> BlockMatchReport:
    """Match each diagonal block of h against the compositional H1..H4 of ``pairs``.

    ``pairs`` is the dict of :func:`hamiltonians.build_all`.  Comparison runs
    on the interior block at machine-rounding tolerance, so boundary-stencil
    asymmetries between P and P+ cannot mask a match.
    """
    references = {label: pair.compositional for label, pair in pairs.items()}
    s = h.grid.interior()
    scale = max(h.max_abs(), max((r.max_abs() for r in references.values()), default=1.0))
    tol = TOL.rounding(h.n, scale)
    labels, residuals, ties = [], [], []
    for i in range(h.m):
        block = h.block(i, i)
        best_label, best_res, tied = "?", np.inf, []
        for label, ref in references.items():
            diff = -ref if block is None else block - ref
            res = diff.block_max_abs(s)
            if res <= tol:
                tied.append(label)
            if res < best_res:
                best_label, best_res = label, res
        # degenerate deformations (f'' = 0 makes H1 = H2) tie several labels;
        # report the whole tie set rather than an arbitrary pick
        labels.append("|".join(tied) if len(tied) > 1 else best_label)
        residuals.append(best_res)
        ties.append(tuple(tied))
    return BlockMatchReport(tuple(labels), tuple(residuals), tuple(ties), tol)


def superhamiltonian_4x4(qa: BlockOp, qb: BlockOp) -> BlockOp:
    """H = {Qa, Qb}; :func:`identify_blocks` measures its diagonal content."""
    return block_anticommutator(qa, qb)


# -- ground states -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroundStateReport:
    """Normalized zero-mode candidate and its interior-restricted residual.

    ``residual`` is the 2-norm of H state over the interior rows of each slot
    (the boundary rows of a product operator carry one-sided-stencil noise
    that converges slower than the O(h^2) of interest).
    """

    state: np.ndarray
    residual: float
    label: str


def _annihilation_scale(f: FunctionSpec, g: Grid1D) -> float:
    """Tolerance scale for residuals of e^{+-f} under the deformed momenta.

    The leading truncation error involves the log-derivatives of e^f:
    r3 = (e^f)'''/e^f and r4 = (e^f)''''/e^f, computed exactly for
    polynomial f.
    """
    from numpy.polynomial import polynomial as npoly

    if f.is_polynomial:
        c = np.asarray(f.coefficients)
        d1 = npoly.polyder(c)
        d2 = npoly.polyder(c, 2)
        d3 = npoly.polyder(c, 3)
        d4 = npoly.polyder(c, 4)
        r3 = npoly.polyadd(npoly.polyadd(d3, 3 * npoly.polymul(d1, d2)),
                           npoly.polymul(npoly.polymul(d1, d1), d1))
        r4 = d4
        for term in (
            4 * npoly.polymul(d1, d3),
            3 * npoly.polymul(d2, d2),
            6 * npoly.polymul(npoly.polymul(d1, d1), d2),
            npoly.polymul(npoly.polymul(d1, d1), npoly.polymul(d1, d1)),
        ):
            r4 = npoly.polyadd(r4, term)
        x = g.nodes
        m1 = float(np.max(np.abs(npoly.polyval(x, d1))))
        m3 = float(np.max(np.abs(npoly.polyval(x, r3))))
        m4 = float(np.max(np.abs(npoly.polyval(x, r4))))
        return max(1.0, m3 * (1.0 + m1), m4)
    return f.derivative_scale(g) ** 4


def ground_states(
    g: Grid1D, f: FunctionSpec, alpha: float, beta: float, margin: float = 0.0
) -> tuple[GroundStateReport, GroundStateReport]:
    """The 4-vectors annihilated by H = {Q1,Q2} and H~ = {Q3,Q4}.

    Slots follow the measured block ordering: (e^-f, e^f, e^-f, e^-f) for
    diag(H2, H1, H3, H3) and (e^f, e^-f, e^f, e^f) for diag(H1, H2, H4, H4).
    Each slot carries equal weight before global normalization.

    ``margin`` excludes a fixed physical width at each domain end from the
    residual norm (on top of the stencil margin).  Convergence studies across
    grid refinements need it: for growing e^{|f|} the state mass sits at the
    boundary, and a fixed-index margin alone creeps toward it as h shrinks.
    """
    fv = f.exponent_values(g)
    plus, minus = np.exp(fv), np.exp(-fv)

    def unit(v):
        norm = float(np.linalg.norm(v))
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("ground-state slot sample is degenerate (zero or non-finite)")
        return v / norm

    psi = np.concatenate([unit(minus), unit(plus), unit(minus), unit(minus)]) / 2.0
    psi_tilde = np.concatenate([unit(plus), unit(minus), unit(plus), unit(plus)]) / 2.0

    q1, q2, q3, q4 = supercharges_4x4(g, f, alpha, beta)

    def ham_action(qa, qb, v):
        return qa.apply(qb.apply(v)) + qb.apply(qa.apply(v))

    idx = np.arange(g.n)
    x = g.nodes
    keep = (idx >= 4) & (idx <= g.n - 5)
    if margin > 0.0:
        keep &= (x >= g.x_min + margin) & (x <= g.x_max - margin)
    inner = np.concatenate([slot * g.n + np.where(keep)[0] for slot in range(4)])
    res = float(np.linalg.norm(ham_action(q1, q2, psi)[inner]))
    res_tilde = float(np.linalg.norm(ham_action(q3, q4, psi_tilde)[inner]))
    return (
        GroundStateReport(psi, res, "H"),
        GroundStateReport(psi_tilde, res_tilde, "Htilde"),
    )


def ground_state_tolerance(g: Grid1D, f: FunctionSpec, alpha: float, beta: float) -> float:
    coupling = max(1.0, alpha * alpha, beta * beta)
    return TOL.discretization(g, coupling * _annihilation_scale(f, g))


# -- spectra -----------------------------------------------------------------


def dirichlet_eigenvalues(h: LinOp, k: int) -> np.ndarray:
    """k lowest eigenvalues of h under Dirichlet truncation (end nodes dropped).

    Trimming the first/last row and column leaves exactly the central-stencil
    matrix with implicit zeros outside the domain.  That band must be real and
    tridiagonal with off-diagonal products u_i l_i >= 0, as it is for H1/H2,
    H3/H4 and H_BS.  It is then diagonally similar to the symmetric band with
    off-diagonal sqrt(u_i l_i) (Wilkinson 1965), so its spectrum is real and
    comes from one symmetric tridiagonal solve; anything else is refused.
    """
    trim = slice(1, h.n - 1)
    offsets, a = h.principal_bands(trim)
    dim = h.n - 2
    if k < 1 or k > dim:
        raise ValueError(f"k must be in 1..{dim}, got {k}")
    band = dict(zip(offsets, a))
    tol = TOL.rounding(h.n, max(1.0, float(np.max(np.abs(a), initial=0.0))))
    if (float(np.max(np.abs(a.imag), initial=0.0)) > tol
            or any(np.any(d) for o, d in band.items() if abs(o) > 1)):
        raise ValueError("operator is not a real tridiagonal band; its spectrum need not be real")
    zero = np.zeros(dim)
    products = band.get(1, zero).real[1:] * band.get(-1, zero).real[:-1]
    if np.any(products < 0):
        raise ValueError("operator has a negative off-diagonal product; its spectrum need not be real")
    # the whole spectrum needs no index selection (bisection costs O(dim^2))
    select = {"select": "a"} if k == dim else {"select": "i", "select_range": (0, k - 1)}
    return eigh_tridiagonal(band.get(0, zero).real, np.sqrt(products), eigvals_only=True, **select)


@dataclass(frozen=True)
class PairingReport:
    """Spectral pairing of two partner Hamiltonians.

    Zero modes (|lambda| below the zero threshold) are set aside; the
    remaining eigenvalues are matched positionally after sorting.  Tail
    entries are nonzero eigenvalues whose partner falls outside the computed
    window (an artifact of asking for the same count k from both spectra).
    """

    eigenvalues_a: np.ndarray
    eigenvalues_b: np.ndarray
    pairs: tuple[tuple[float, float], ...]
    max_pair_gap: float
    zero_modes: tuple[int, int]
    tail_a: tuple[float, ...]
    tail_b: tuple[float, ...]
    pair_tol: float
    zero_threshold: float

    @property
    def all_paired(self) -> bool:
        return self.max_pair_gap <= self.pair_tol


ZERO_MODE_RATIO = 1e-6  # |lambda| below this fraction of the largest eigenvalue counts as a zero mode


def partner_spectra(h1: LinOp, h2: LinOp, k: int, pair_tol: float = 1e-3) -> PairingReport:
    """k lowest eigenvalues of each partner plus the isospectrality pairing.

    The zero-mode threshold is floored by ``pair_tol``: a discretized zero
    mode sits at O(h^2) rather than exactly at zero, and anything within the
    pairing tolerance of zero is indistinguishable from a zero mode at the
    resolution of this check.  Partners must be Hermitian (H1/H2-type) on the
    Dirichlet block, where the one-sided boundary rows are trimmed.
    """
    if not 0.0 < pair_tol < np.inf:
        raise ValueError(f"pair_tol must be finite and > 0, got {pair_tol}")
    if k > h1.n // 4:
        raise ValueError(f"k = {k} too large for grid size {h1.n} (need k <= n/4)")
    trim = slice(1, h1.n - 1)  # the Dirichlet block that dirichlet_eigenvalues solves
    for h in (h1, h2):
        if (h - h.adjoint()).block_max_abs(trim) > TOL.rounding(h.n, max(1.0, h.max_abs())):
            raise ValueError("partner spectra need Hermitian (H1/H2-type) operators")
    ea = np.sort(dirichlet_eigenvalues(h1, k))
    eb = np.sort(dirichlet_eigenvalues(h2, k))
    top = max(float(np.max(np.abs(ea))), float(np.max(np.abs(eb))), 1e-300)
    zt = max(ZERO_MODE_RATIO * top, pair_tol)
    nz_a = ea[np.abs(ea) >= zt]
    nz_b = eb[np.abs(eb) >= zt]
    m = min(len(nz_a), len(nz_b))
    pairs = tuple((float(x), float(y)) for x, y in zip(nz_a[:m], nz_b[:m]))
    gap = max((abs(x - y) for x, y in pairs), default=0.0)
    return PairingReport(
        eigenvalues_a=ea,
        eigenvalues_b=eb,
        pairs=pairs,
        max_pair_gap=float(gap),
        zero_modes=(len(ea) - len(nz_a), len(eb) - len(nz_b)),
        tail_a=tuple(float(v) for v in nz_a[m:]),
        tail_b=tuple(float(v) for v in nz_b[m:]),
        pair_tol=pair_tol,
        zero_threshold=zt,
    )


@dataclass(frozen=True)
class RealSpectrumReport:
    """Spectrum comparison of a similarity-built non-Hermitian Hamiltonian."""

    label: str
    max_sorted_diff_rel: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_sorted_diff_rel <= self.tolerance


# relative tolerance of the similarity spectra, for every f that exp(+-f) admits
SIMILARITY_REL_TOL = 1e-8


def real_spectrum_check(
    g: Grid1D, f: FunctionSpec, beta: float
) -> tuple[RealSpectrumReport, RealSpectrumReport]:
    """Verify that similarity-built H4 and H3 share the real spectrum of b^2 P^2.

    H4 = diag(e^f) b^2 P^2 diag(e^-f) and H3 = diag(e^-f) b^2 P^2 diag(e^f)
    under Dirichlet truncation.  Each whole spectrum comes from
    :func:`dirichlet_eigenvalues`, and the sorted lists are compared against
    the symmetric reference, relative to its spectral radius.  No imaginary
    part is reported: a band whose spectrum could be complex is refused.
    """
    e = np.exp(f.exponent_values(g))
    p2 = (beta * beta) * momentum_squared(g)
    ref = dirichlet_eigenvalues(p2, g.n - 2)
    radius = max(float(np.max(np.abs(ref))), 1e-300)
    reports = []
    for label, s in (("H4", e), ("H3", 1.0 / e)):
        eig = dirichlet_eigenvalues(p2.similarity(s), g.n - 2)
        diff = float(np.max(np.abs(eig - ref))) / radius
        reports.append(RealSpectrumReport(label, diff, SIMILARITY_REL_TOL))
    return reports[0], reports[1]
