"""Supercharges, superhamiltonians and the machine-verified SUSY algebra.

Block operators keep only their nonzero blocks, keyed by (row, column), so
nilpotency (Q^2 = 0) and block-diagonality of the anticommutators are
structural facts, not numerical ones.  The diagonal content of the
superhamiltonians is *measured* against the four compositional Hamiltonians
rather than assumed: direct block multiplication of the supercharge matrices
yields diag(H2, H1, H3, H3) for {Q1, Q2} and diag(H1, H2, H4, H4) for
{Q3, Q4}, and the ground-state vectors (e^-f, e^f, e^-f, e^-f) and
(e^f, e^-f, e^f, e^f) annihilate exactly that ordering.

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

from . import tolerances as TOL
from .grid import Grid1D
from .hamiltonians import HamiltonianPair, check_coupling
from .operators import FunctionSpec, LinOp, deformed_momentum


@dataclass(frozen=True, eq=False)
class BlockOp:
    """4 x 4 block matrix of LinOps on a shared grid.

    ``blocks`` maps (row, column) to a nonzero block; an absent key is a zero
    block.  Every sum runs over the keys in ascending order.  The 2x2 sector
    of ordinary SUSY QM is the top-left corner: Q1 at beta = 0.
    """

    blocks: dict[tuple[int, int], LinOp]
    grid: Grid1D

    def __post_init__(self):
        if not all(0 <= i < 4 and 0 <= j < 4 for i, j in self.blocks):
            raise ValueError("blocks must sit in the 4x4 layout")
        if any(b.grid != self.grid for b in self.blocks.values()):
            raise ValueError("all blocks must share the block operator's grid")

    @property
    def n(self) -> int:
        return self.grid.n

    def block(self, i: int, j: int) -> LinOp | None:
        return self.blocks.get((i, j))

    def __matmul__(self, other: "BlockOp") -> "BlockOp":
        out = {}
        for (i, k), a in sorted(self.blocks.items()):
            for (row, j), b in sorted(other.blocks.items()):
                if row == k:
                    out[i, j] = out[i, j] + (a @ b) if (i, j) in out else a @ b
        return BlockOp(out, self.grid)

    def __add__(self, other: "BlockOp") -> "BlockOp":
        out = dict(self.blocks)
        for key, b in other.blocks.items():
            out[key] = out[key] + b if key in out else b
        return BlockOp(out, self.grid)

    def __sub__(self, other: "BlockOp") -> "BlockOp":
        out = dict(self.blocks)
        for key, b in other.blocks.items():
            out[key] = out[key] - b if key in out else -b
        return BlockOp(out, self.grid)

    def __rmul__(self, scalar) -> "BlockOp":
        return BlockOp({key: scalar * b for key, b in self.blocks.items()}, self.grid)

    def adjoint(self) -> "BlockOp":
        return BlockOp({(j, i): b.adjoint() for (i, j), b in self.blocks.items()}, self.grid)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        v = np.asarray(vec).reshape(4, self.n)
        out = np.zeros_like(v, dtype=np.complex128)
        for (i, j), b in sorted(self.blocks.items()):
            out[i] += b.apply(v[j])
        return out.reshape(-1)

    @property
    def structurally_zero(self) -> bool:
        return not self.blocks

    @property
    def structurally_block_diagonal(self) -> bool:
        return all(i == j for i, j in self.blocks)

    def max_abs(self) -> float:
        return max((b.max_abs() for _, b in sorted(self.blocks.items())), default=0.0)


def block_commutator(a: BlockOp, b: BlockOp) -> BlockOp:
    return (a @ b) - (b @ a)


def block_anticommutator(a: BlockOp, b: BlockOp) -> BlockOp:
    return (a @ b) + (b @ a)


# -- supercharges ------------------------------------------------------------


def supercharges_4x4(
    g: Grid1D, f: FunctionSpec, alpha: float, beta: float
) -> tuple[BlockOp, BlockOp, BlockOp, BlockOp]:
    """The four 4x4 supercharges; all are structurally nilpotent.

    beta = 0 leaves the beta blocks absent: Q1 is then the 2x2 supercharge of
    ordinary SUSY QM, its one block alpha P_f at (0, 1).  {Q1, Q2} and
    {Q3, Q4} are the superhamiltonians H and H~, whose diagonal content
    :func:`identify_blocks` measures.
    """
    check_coupling(alpha, "alpha", allow_zero=False)
    check_coupling(beta, "beta", allow_zero=True)
    pf = deformed_momentum(g, f)
    pfd = pf.adjoint()
    apf, apfd = alpha * pf, alpha * pfd
    upper = ({(0, 1): apf}, {(1, 0): apfd}, {(0, 1): apfd}, {(1, 0): apf})
    if beta > 0:
        bpf, bpfd = beta * pf, beta * pfd
        lower = ({(2, 3): bpfd}, {(3, 2): bpfd}, {(2, 3): bpf}, {(3, 2): bpf})
    else:
        lower = ({}, {}, {}, {})
    return tuple(BlockOp(a | b, g) for a, b in zip(upper, lower))


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
    for i in range(4):
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


# -- ground states -----------------------------------------------------------


def _norm(v: np.ndarray) -> float:
    """2-norm by numpy's pairwise sum: np.linalg.norm's BLAS dot can wait on idle BLAS threads."""
    r = np.ascontiguousarray(v).view(np.float64)  # a complex entry as its two real parts
    return float(np.sqrt(np.sum(r * r)))


@dataclass(frozen=True, eq=False)
class GroundStateReport:
    """Normalized zero-mode candidate, H applied to it, and its residuals.

    ``residual`` is the 2-norm of H state over the interior rows of each slot
    (the boundary rows of a product operator carry one-sided-stencil noise
    that converges slower than the O(h^2) of interest).
    """

    state: np.ndarray
    action: np.ndarray
    grid: Grid1D

    @property
    def residual(self) -> float:
        return self.window_residual(0.0)

    def window_residual(self, margin: float) -> float:
        """The residual without a further physical width ``margin`` at each domain end.

        Convergence studies across grid refinements need it: for growing
        e^{|f|} the state mass sits at the boundary, and the interior's fixed
        index margin alone creeps toward it as h shrinks.
        """
        g = self.grid
        s = g.interior()
        x = g.nodes[s]
        keep = (x >= g.x_min + margin) & (x <= g.x_max - margin)
        return _norm(self.action.reshape(4, g.n)[:, s][:, keep])


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


def ground_states(f: FunctionSpec, qa: BlockOp, qb: BlockOp) -> GroundStateReport:
    """The 4-vector annihilated by H = {qa, qb}, with H applied, on the supercharges' grid.

    Slots follow the measured block ordering of {Q1, Q2}, diag(H2, H1, H3, H3):
    (e^-f, e^f, e^-f, e^-f).  ``f`` must be the function that {qa, qb} is
    H of.  H~ = {Q3, Q4} of f is the dual H of -f, so its one call is
    ``ground_states(-f, q3, q4)``, state (e^f, e^-f, e^f, e^f).
    Each slot carries equal weight before global normalization.
    """
    g = qa.grid
    fv = f.exponent_values(g)

    def unit(v):
        norm = _norm(v)
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("ground-state slot sample is degenerate (zero or non-finite)")
        return v / norm

    plus, minus = unit(np.exp(fv)), unit(np.exp(-fv))
    psi = np.concatenate([minus, plus, minus, minus]) / 2.0
    return GroundStateReport(psi, qa.apply(qb.apply(psi)) + qb.apply(qa.apply(psi)), g)


def ground_state_tolerance(g: Grid1D, f: FunctionSpec, alpha: float, beta: float) -> float:
    coupling = max(1.0, alpha * alpha, beta * beta)
    return TOL.discretization(g, coupling * _annihilation_scale(f, g))


# -- spectra -----------------------------------------------------------------


def dirichlet_eigenvalues(h: LinOp, k: int) -> np.ndarray:
    """k lowest eigenvalues of h under Dirichlet truncation (end nodes dropped).

    Trimming the first/last row and column leaves exactly the central-stencil
    matrix with implicit zeros outside the domain.  That band must be real and
    tridiagonal with finite off-diagonal products u_i l_i >= 0, as it is for
    H1/H2, H3/H4 and H_BS.  It is then diagonally similar to the symmetric
    band with off-diagonal sqrt(u_i l_i) (Wilkinson 1965), so its spectrum is
    real and comes from one symmetric tridiagonal solve; anything else is
    refused.
    """
    dim = h.n - 2
    if k < 1 or k > dim:
        raise ValueError(f"k must be in 1..{dim}, got {k}")
    lower, main, upper = h.tridiagonal(slice(1, h.n - 1))
    with np.errstate(over="ignore"):
        products = upper * lower
    if not np.all(np.isfinite(products)):
        peak = max(float(np.max(np.abs(upper))), float(np.max(np.abs(lower))))
        raise ValueError(f"operator off-diagonal entries reach {peak:.3g}, and their products "
                         "u_i l_i must be finite")
    if np.any(products < 0):
        raise ValueError("operator has a negative off-diagonal product; its spectrum need not be real")
    # the whole spectrum needs no index selection (bisection costs O(dim^2))
    select = {"select": "a"} if k == dim else {"select": "i", "select_range": (0, k - 1)}
    return eigh_tridiagonal(main, np.sqrt(products), eigvals_only=True, **select)


@dataclass(frozen=True)
class PairingReport:
    """Spectral pairing of two partner Hamiltonians.

    Zero modes (|lambda| below the zero threshold) are set aside; the
    remaining eigenvalues are matched positionally after sorting.  A nonzero
    eigenvalue whose partner falls outside the computed window (an artifact of
    asking for the same count k from both spectra) is left unpaired.
    ``max_pair_gap`` is None when no pair is left to compare, and the
    pairing then fails: a check over no pair shows nothing.  ``paired`` flags
    each row of ``eigenvalues_a`` whose pair lies within ``pair_tol``.
    """

    eigenvalues_a: np.ndarray
    eigenvalues_b: np.ndarray
    paired: np.ndarray
    max_pair_gap: float | None
    zero_modes: tuple[int, int]
    pair_tol: float

    @property
    def all_paired(self) -> bool:
        return self.max_pair_gap is not None and self.max_pair_gap <= self.pair_tol


ZERO_MODE_RATIO = 1e-6  # |lambda| below this fraction of the largest eigenvalue counts as a zero mode


def partner_spectra(h1: LinOp, h2: LinOp, k: int, pair_tol: float) -> PairingReport:
    """k lowest eigenvalues of each partner plus the isospectrality pairing.

    The zero-mode threshold is floored by ``pair_tol``: a discretized zero
    mode sits at O(h^2) rather than exactly at zero, and anything within the
    pairing tolerance of zero is indistinguishable from a zero mode at the
    resolution of this check.
    """
    if not 0.0 < pair_tol < np.inf:
        raise ValueError(f"pair_tol must be finite and > 0, got {pair_tol}")
    if k > h1.n // 4:
        raise ValueError(f"k = {k} too large for grid size {h1.n} (need k <= n/4)")
    ea = np.sort(dirichlet_eigenvalues(h1, k))
    eb = np.sort(dirichlet_eigenvalues(h2, k))
    top = max(float(np.max(np.abs(ea))), float(np.max(np.abs(eb))), 1e-300)
    zt = max(ZERO_MODE_RATIO * top, pair_tol)
    nonzero_a = np.abs(ea) >= zt
    nz_a = ea[nonzero_a]
    nz_b = eb[np.abs(eb) >= zt]
    pairs = tuple((float(x), float(y)) for x, y in zip(nz_a, nz_b))
    gaps = [abs(x - y) for x, y in pairs]
    # the H1 members of the pairs are the nonzero H1 eigenvalues, in order
    paired = np.zeros(len(ea), dtype=bool)
    paired[np.flatnonzero(nonzero_a)[: len(pairs)]] = [gap <= pair_tol for gap in gaps]
    return PairingReport(
        eigenvalues_a=ea,
        eigenvalues_b=eb,
        paired=paired,
        max_pair_gap=max(gaps, default=None),
        zero_modes=(len(ea) - len(nz_a), len(eb) - len(nz_b)),
        pair_tol=pair_tol,
    )
