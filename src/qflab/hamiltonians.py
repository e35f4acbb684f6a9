"""The four quadratic Hamiltonians built from the deformed momentum.

:func:`closed_form` builds each one from its expanded closed form in terms of
P^2 = -D2, diag(f'), diag(f'') (H1/H2 pick up +-f'' and f'^2; H3/H4 pick up
the first-order term -+2i f' P together with -+f'' and -f'^2).
:func:`build_all` adds the independent construction the algebra checks
compare it with: the matrix product of deformed-momentum factors
(H1 = a^2 Pf+ Pf, H2 = a^2 Pf Pf+, H3 = b^2 Pf+ Pf+, H4 = b^2 Pf Pf).

H1 and H2 are Hermitian on the interior block; H3 and H4 are strictly
non-Hermitian whenever f' is not identically zero.  Both couplings enter
squared (a^2, b^2), keeping the four constructions dimensionally consistent.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid1D
from .operators import (
    FunctionSpec,
    LinOp,
    action_difference,
    deformed_momentum,
    derivative_matrices,
    diagonal,
    momentum_operator,
    momentum_squared,
)

# signs of the first-order term 2i f' P, of f'' and of f'^2 in each closed form
_SIGNS = {
    "H1": (0.0, +1.0, +1.0),
    "H2": (0.0, -1.0, +1.0),
    "H3": (-1.0, -1.0, -1.0),
    "H4": (+1.0, +1.0, -1.0),
}


@dataclass(frozen=True, eq=False)
class HamiltonianPair:
    """One Hamiltonian built compositionally and from its closed form."""

    compositional: LinOp
    closed_form: LinOp

    def agreement(self) -> float:
        """Action difference of the two members on the smooth test corpus."""
        return action_difference(self.compositional, self.closed_form)


def check_coupling(value: float, name: str, allow_zero: bool):
    """Refuse a coupling below 0, at 0 unless ``allow_zero``, or whose square overflows."""
    if value < 0 or (value == 0 and not allow_zero):
        raise ValueError(f"{name} must be {'>= 0' if allow_zero else '> 0'}, got {value}")
    if not value * value < math.inf:  # the coupling enters squared
        raise ValueError(f"{name}**2 must be finite, got {name}={value}")


def closed_form(g: Grid1D, f: FunctionSpec, label: str, coupling: float) -> LinOp:
    """c^2 (P^2 + s1 2i f' P + s2 f'' + s3 f'^2) with the signs of ``label``.

    The coupling c is alpha > 0 for the Hermitian H1, H2 and beta >= 0 for
    the non-Hermitian H3, H4.  H1 = a^2 (P^2 + f'' + f'^2),
    H2 = a^2 (P^2 - f'' + f'^2), H3 = b^2 (P^2 - 2i f' P - f'' - f'^2),
    H4 = b^2 (P^2 + 2i f' P + f'' - f'^2).
    """
    s_first, s_fpp, s_fp2 = _SIGNS[label]
    check_coupling(coupling, "beta" if s_first else "alpha", allow_zero=bool(s_first))
    fp = f.derivative_values(g)
    fpp = f.second_derivative_values(g)
    op = momentum_squared(g)
    if s_first:
        op = op + s_first * momentum_operator(g).scale_rows(2j * fp)
    return coupling * coupling * (op + diagonal(g, s_fpp * fpp + s_fp2 * fp**2))


def build_all(g: Grid1D, f: FunctionSpec, alpha: float, beta: float) -> dict[str, HamiltonianPair]:
    """H1..H4 of f, each as its momentum product and its closed form."""
    pf = deformed_momentum(g, f)
    pfd = pf.adjoint()
    factors = {"H1": (alpha, pfd, pf), "H2": (alpha, pf, pfd), "H3": (beta, pfd, pfd), "H4": (beta, pf, pf)}
    # the closed forms check the couplings before any product is formed
    closed = {label: closed_form(g, f, label, c) for label, (c, _, _) in factors.items()}
    return {label: HamiltonianPair(c * c * (a @ b), closed[label]) for label, (c, a, b) in factors.items()}


def build_from_superpotential(g: Grid1D, w: FunctionSpec, alpha: float) -> tuple[LinOp, LinOp]:
    """Closed-form partners H1 = a^2 (P^2 + W' + W^2), H2 = a^2 (P^2 - W' + W^2).

    The deformation function is the antiderivative f(x) = integral_0^x W.
    For the harmonic superpotential W(x) = x these are the shifted oscillators
    with spectra 2m+2 and 2m (an exact zero mode in H2).  A W whose W^2
    overflows on the grid is refused before any operator is built, and so is
    an alpha for which alpha^2 (max|P^2| + max|W'| + max W^2), a bound on the
    partners' entries, overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite W is refused just below
        w_max = w.max_abs(g)
    if not w_max * w_max < math.inf:  # the partners carry W^2
        raise ValueError(f"the superpotential W reaches {w_max:.3g} on the grid, and W^2 must be finite")
    f = w.antiderivative(g)
    check_coupling(alpha, "alpha", allow_zero=False)
    w_prime_max = float(np.max(np.abs(f.second_derivative_values(g))))
    # P^2 = -D2, so max|P^2| is the largest entry of the cached D2 stencil
    scale = derivative_matrices(g)[1].max_abs() + w_prime_max + w_max * w_max
    if not alpha * alpha * scale < math.inf:
        raise ValueError(f"alpha={alpha} overflows the partners: alpha**2 * (max|P^2| + max|W'| + max W^2) "
                         f"= {alpha:.3g}**2 * {scale:.3g} must be finite")
    return closed_form(g, f, "H1", alpha), closed_form(g, f, "H2", alpha)


def nonhermitian_defect_floor(g: Grid1D, f: FunctionSpec, beta: float) -> float:
    """Exact lower bound for the interior Hermiticity defect of H3/H4.

    The defect comes entirely from the first-order term: entry (j, j+1) of
    A - A^dagger equals -+ b^2 (f'_j + f'_{j+1}) / h, so the bound is tight
    over the off-diagonal pairs inside the interior block.  Returns 0 for
    constant f (the Hamiltonians are then Hermitian).
    """
    fp = f.derivative_values(g)
    s = g.interior()
    j = np.arange(s.start, s.stop - 1)
    if len(j) == 0:
        return 0.0
    bound = float(np.max(np.abs(fp[j] + fp[j + 1]))) * beta * beta / g.h
    return 0.99 * bound
