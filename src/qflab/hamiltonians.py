"""The four quadratic Hamiltonians built from the deformed momentum.

Each is constructed two independent ways and shipped as a pair:

* compositionally, as a matrix product of deformed-momentum factors
  (H1 = a^2 Pf+ Pf, H2 = a^2 Pf Pf+, H3 = b^2 Pf+ Pf+, H4 = b^2 Pf Pf);
* from the expanded closed form in terms of P^2 = -D2, diag(f'), diag(f'')
  (H1/H2 pick up +-f'' and f'^2; H3/H4 pick up the first-order term
  -+2i f' P together with -+f'' and -f'^2).

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
    diagonal,
    momentum_operator,
    momentum_squared,
)


@dataclass(frozen=True, eq=False)
class HamiltonianPair:
    """One Hamiltonian built compositionally and from its closed form."""

    compositional: LinOp
    closed_form: LinOp
    label: str
    coupling: float

    @property
    def grid(self) -> Grid1D:
        return self.compositional.grid

    def agreement(self) -> float:
        """Action difference of the two members on the smooth test corpus."""
        return action_difference(self.compositional, self.closed_form)


def _check_coupling(value: float, name: str, allow_zero: bool):
    if value < 0 or (value == 0 and not allow_zero):
        raise ValueError(f"{name} must be {'>= 0' if allow_zero else '> 0'}, got {value}")
    if not value * value < math.inf:  # the coupling enters squared
        raise ValueError(f"{name}**2 must be finite, got {name}={value}")


def _hermitian_pair(g: Grid1D, f: FunctionSpec, alpha: float, sign: float, label: str) -> HamiltonianPair:
    pf = deformed_momentum(g, f)
    comp = (pf.adjoint() @ pf) if sign > 0 else (pf @ pf.adjoint())
    fpp = f.second_derivative_values(g)
    fp = f.derivative_values(g)
    closed = momentum_squared(g) + diagonal(g, sign * fpp + fp**2)
    a2 = alpha * alpha
    return HamiltonianPair(a2 * comp, a2 * closed, label, alpha)


def _nonhermitian_pair(g: Grid1D, f: FunctionSpec, beta: float, sign: float, label: str) -> HamiltonianPair:
    pf = deformed_momentum(g, f)
    comp = (pf @ pf) if sign > 0 else (pf.adjoint() @ pf.adjoint())
    fp = f.derivative_values(g)
    fpp = f.second_derivative_values(g)
    first_order = momentum_operator(g).scale_rows(2j * fp)
    closed = momentum_squared(g) + sign * first_order + diagonal(g, sign * fpp - fp**2)
    b2 = beta * beta
    return HamiltonianPair(b2 * comp, b2 * closed, label, beta)


def build_h1(g: Grid1D, f: FunctionSpec, alpha: float) -> HamiltonianPair:
    """H1 = a^2 Pf+ Pf = a^2 (P^2 + f'' + f'^2): Hermitian."""
    _check_coupling(alpha, "alpha", allow_zero=False)
    return _hermitian_pair(g, f, alpha, +1.0, "H1")


def build_h2(g: Grid1D, f: FunctionSpec, alpha: float) -> HamiltonianPair:
    """H2 = a^2 Pf Pf+ = a^2 (P^2 - f'' + f'^2): Hermitian, dual of H1 under f -> -f."""
    _check_coupling(alpha, "alpha", allow_zero=False)
    return _hermitian_pair(g, f, alpha, -1.0, "H2")


def build_h3(g: Grid1D, f: FunctionSpec, beta: float) -> HamiltonianPair:
    """H3 = b^2 Pf+ Pf+ = b^2 (P^2 - 2i f' P - f'' - f'^2): non-Hermitian."""
    _check_coupling(beta, "beta", allow_zero=True)
    return _nonhermitian_pair(g, f, beta, -1.0, "H3")


def build_h4(g: Grid1D, f: FunctionSpec, beta: float) -> HamiltonianPair:
    """H4 = b^2 Pf Pf = b^2 (P^2 + 2i f' P + f'' - f'^2): non-Hermitian, dual of H3."""
    _check_coupling(beta, "beta", allow_zero=True)
    return _nonhermitian_pair(g, f, beta, +1.0, "H4")


def build_all(g: Grid1D, f: FunctionSpec, alpha: float, beta: float) -> dict[str, HamiltonianPair]:
    return {
        "H1": build_h1(g, f, alpha),
        "H2": build_h2(g, f, alpha),
        "H3": build_h3(g, f, beta),
        "H4": build_h4(g, f, beta),
    }


def build_from_superpotential(
    g: Grid1D, w: FunctionSpec, alpha: float
) -> tuple[HamiltonianPair, HamiltonianPair]:
    """Partner Hamiltonians H1 = a^2 (P^2 + W' + W^2), H2 = a^2 (P^2 - W' + W^2).

    The deformation function is the antiderivative f(x) = integral_0^x W, so
    the compositional members coincide with build_h1/build_h2 applied to f.
    For the harmonic superpotential W(x) = x these are the shifted oscillators
    with spectra 2m+2 and 2m (an exact zero mode in H2).
    """
    f = w.antiderivative(g)
    return build_h1(g, f, alpha), build_h2(g, f, alpha)


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
