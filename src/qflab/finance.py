"""Quantum-finance Hamiltonians, their deformed-momentum identification, and
PDE option pricing.

In log-price coordinates x = ln S the pricing generator is

    H_BS = -(sigma^2/2) d2/dx2 + (sigma^2/2 - r) d/dx + r,

a non-Hermitian operator.  The candidates H_I = b^2 (P^2 + 2i f' P) + V and
H_II = b^2 (P^2 - 2i f' P) + V (built from H4/H3 plus their compensating
potentials) reproduce it with b^2 = sigma^2/2 and f' = (sigma^2/2 - r)/sigma^2.
Because H_I(f) and H_II(-f) are the *same* matrix, the four (label, sign)
candidates collapse into two sign branches; exactly one branch matches H_BS,
and the measured resolution under P = -i d/dx is the +2i f' P branch, i.e.
(H_I, +f).  ``map_to_deformed`` measures this rather than transcribing it.

Pricing integrates dC/dtau = -H C backward from the payoff by Crank-Nicolson
with two fully-implicit start-up steps to damp the payoff-kink oscillation.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.sparse.linalg import splu

from .grid import Grid1D
from .hamiltonians import closed_form
from .operators import FunctionSpec, LinOp, derivative_matrices, diagonal, identity
from .tolerances import DEFAULT as TOL, EPS

PAYOFF_KINDS = ("european_call", "european_put", "down_and_out_call")

# exp(x) overflows float64 above this log-price
MAX_LOG_PRICE = math.log(np.finfo(float).max)
# fully-implicit steps before Crank-Nicolson, damping the payoff-kink oscillation
RANNACHER_STEPS = 2


def check_discount(r: float, maturity: float) -> None:
    """Refuse a rate and horizon whose discount factor exp(-r T) overflows float64."""
    if not -r * maturity < MAX_LOG_PRICE:
        raise ValueError(f"-rate*maturity = {-r * maturity:.6g} must be below {MAX_LOG_PRICE:.6g}, "
                         f"where the discount factor overflows; got rate={r}, maturity={maturity}")


@dataclass(frozen=True)
class MarketParams:
    """Volatility, short rate and (for the generalized equations) a potential V(x)."""

    sigma: float
    r: float
    potential: FunctionSpec | None = None

    def __post_init__(self):
        if not math.isfinite(self.sigma) or not math.isfinite(self.r):
            raise ValueError(f"sigma and r must be finite, got sigma={self.sigma}, r={self.r}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not 0 < self.sigma * self.sigma < math.inf:
            raise ValueError(f"sigma**2 must be finite and > 0, got sigma={self.sigma}")
        if not abs(self.r) < MAX_LOG_PRICE:
            raise ValueError(f"rate r = {self.r} must lie within +-{MAX_LOG_PRICE:.6g} per year, "
                             f"where the one-year factor exp(r) or exp(-r) overflows")


@dataclass(frozen=True)
class OptionContract:
    payoff_kind: str
    strike: float
    maturity: float
    barrier: float | None = None

    def __post_init__(self):
        if self.payoff_kind not in PAYOFF_KINDS:
            raise ValueError(f"payoff_kind must be one of {PAYOFF_KINDS}")
        barrier = ("barrier",) if self.payoff_kind == "down_and_out_call" else ()
        for name in ("strike", "maturity", *barrier):
            value = getattr(self, name)
            if value is None or not 0 < value < math.inf:
                raise ValueError(f"{self.payoff_kind} needs a finite {name} > 0, got {value}")

    def payoff(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.payoff_kind == "european_put":
            return np.maximum(self.strike - s, 0.0)
        return np.maximum(s - self.strike, 0.0)


# -- Hamiltonians ------------------------------------------------------------


def _generator(g: Grid1D, mp: MarketParams, drift, source) -> LinOp:
    """-(sigma^2/2) D2 + (sigma^2/2 - V) D1 + diag(U) for drift rate V and source U."""
    d1, d2 = derivative_matrices(g)
    half_var = 0.5 * mp.sigma**2
    ones = np.ones(g.n)
    return -half_var * d2 + d1.scale_rows((half_var - drift) * ones) + diagonal(g, source * ones)


def bs_hamiltonian(g: Grid1D, mp: MarketParams) -> LinOp:
    """H_BS = -(sigma^2/2) D2 + (sigma^2/2 - r) D1 + r I in log-price x."""
    return _generator(g, mp, mp.r, mp.r)


def bsg_hamiltonian(g: Grid1D, mp: MarketParams) -> LinOp:
    """Generalized form: the potential V(x) replaces r in drift and source."""
    if mp.potential is None:
        raise ValueError("bsg_hamiltonian needs MarketParams.potential")
    v = mp.potential.values(g)
    return _generator(g, mp, v, v)


def bsb_hamiltonian(g: Grid1D, mp: MarketParams, v: FunctionSpec) -> LinOp:
    """Barrier form: constant drift sigma^2/2 - r with potential term diag(V)."""
    return _generator(g, mp, mp.r, v.values(g))


# -- identification ----------------------------------------------------------


class DeformationMatchError(RuntimeError):
    """No candidate (or an inconsistent set of candidates) matched the target."""


@dataclass(frozen=True, eq=False)
class DeformationMapping:
    """Measured identification of a finance Hamiltonian with H_I/H_II.

    ``sign`` is the orientation of the paper-form f in the canonical candidate
    (always +1); ``matches`` keeps the complete list of (label, sign) candidates
    that reproduced the target, since H_I(f) and H_II(-f) coincide as matrices.
    """

    beta: float
    f: FunctionSpec
    v2: FunctionSpec
    sign: int
    which_hamiltonian: str
    residual: float
    tolerance: float
    kind: str
    matches: tuple[tuple[str, int], ...]


def _candidate(g: Grid1D, f: FunctionSpec, beta: float, v2: np.ndarray, which: str) -> LinOp:
    b2 = beta * beta
    fp = f.derivative_values(g)
    fpp = f.second_derivative_values(g)
    if which == "H_I":
        base = closed_form(g, f, "H4", beta)
        u = -b2 * (fpp - fp**2) + v2
    else:
        base = closed_form(g, f, "H3", beta)
        u = b2 * (fpp + fp**2) + v2
    return base + diagonal(g, u)


def map_to_deformed(mp: MarketParams, g: Grid1D, kind: str = "auto") -> DeformationMapping:
    """Measure which of the two sign branches, H_I(f) or H_II(f), equals the target.

    ``matches`` lists both (label, sign) twins of every matching branch, in
    the order (H_I, +1), (H_I, -1), (H_II, +1), (H_II, -1).

    kind: 'bs' (target H_BS, f linear from r), 'bsg' (target H_BSG, f from the
    integral of (sigma^2/2 - V)/sigma^2), 'bsb' (target H_BSB, f as in 'bs'
    with the potential V on the diagonal), or 'auto' (bsg when a potential is
    present, else bs).
    """
    if kind == "auto":
        kind = "bsg" if mp.potential is not None else "bs"
    if kind not in ("bs", "bsg", "bsb"):
        raise ValueError(f"kind must be bs|bsg|bsb|auto, got {kind!r}")

    sig2 = mp.sigma**2
    beta = math.sqrt(0.5 * sig2)
    if kind == "bs":
        f = FunctionSpec.polynomial([0.0, (0.5 * sig2 - mp.r) / sig2])
        v2 = FunctionSpec.polynomial([mp.r])
        target = bs_hamiltonian(g, mp)
    elif kind == "bsg":
        if mp.potential is None:
            raise ValueError("bsg identification needs MarketParams.potential")
        v2 = mp.potential
        if v2.is_polynomial:
            integrand = FunctionSpec.polynomial(
                np.polynomial.polynomial.polysub(
                    [0.5 * sig2], list(v2.coefficients)
                ) / sig2
            )
        else:
            integrand = FunctionSpec.tabulated((0.5 * sig2 - v2.values(g)) / sig2)
        f = integrand.antiderivative(g)
        target = bsg_hamiltonian(g, mp)
    else:
        if mp.potential is None:
            raise ValueError("bsb identification needs MarketParams.potential as V(x)")
        f = FunctionSpec.polynomial([0.0, (0.5 * sig2 - mp.r) / sig2])
        v2 = mp.potential
        target = bsb_hamiltonian(g, mp, v2)

    fp, fpp = f.derivative_values(g), f.second_derivative_values(g)
    fp_max = float(np.max(np.abs(fp)))
    if not fp_max * fp_max < math.inf:  # the candidates carry f'^2
        raise ValueError(f"sigma={mp.sigma} is too small to identify: f' = (sigma^2/2 - V)/sigma^2 "
                         f"reaches {fp_max:.3g}, and f'^2 must be finite")
    v2_vals = v2.values(g)
    # the candidates cancel the diagonal terms b^2 (f'' -+ f'^2) of their base
    # Hamiltonian, so their rounding scales with those terms too
    cancelled = beta * beta * float(np.max(np.abs(fpp) + fp * fp))
    target_tol = TOL.round_coeff * EPS * max(target.max_abs(), 1.0)
    tol = TOL.round_coeff * EPS * max(target.max_abs(), cancelled, 1.0)
    # branch +1 is H_I(f) = H_II(-f), branch -1 is H_II(f) = H_I(-f): one
    # matrix per branch, measured once
    candidates = {which: _candidate(g, f, beta, v2_vals, which) for which in ("H_I", "H_II")}
    # the two sign branches differ by 4i b^2 f' P
    branch_gap = (candidates["H_I"] - candidates["H_II"]).max_abs()
    if tol >= branch_gap > target_tol:
        raise ValueError(f"sigma={mp.sigma} is too small to identify: the rounding of the "
                         f"cancelled terms b^2 f'^2 ({tol:.3g}) reaches the gap between the "
                         f"sign branches ({branch_gap:.3g})")
    residuals = {which: (cand - target).max_abs() for which, cand in candidates.items()}
    # (label, sign) lies on branch (+1 for H_I, -1 for H_II) * sign, i.e. it
    # equals the paper-f candidate of that label or of the other one
    twin = {("H_I", +1): "H_I", ("H_I", -1): "H_II", ("H_II", +1): "H_II", ("H_II", -1): "H_I"}
    matches = [key for key, which in twin.items() if residuals[which] <= tol]

    if not matches:
        raise DeformationMatchError(
            f"no (H_I/H_II, +-f) candidate matched the {kind} Hamiltonian "
            f"(this indicates an implementation fault)"
        )

    # both sign branches matching is legitimate only when the branches are the
    # same matrix (f' negligible, e.g. sigma^2 = 2r), else a fault
    if len(matches) == 4 and branch_gap > tol:
        raise DeformationMatchError(
            f"candidates from both sign branches matched while the branches "
            f"differ by {branch_gap:.3g}: {matches}"
        )

    # Canonical representative: the paper's printed label H_II if it matches
    # with the paper's f, otherwise H_I with the paper's f (the measured
    # resolution under P = -i d/dx).
    which = "H_II" if residuals["H_II"] <= tol else "H_I"
    return DeformationMapping(
        beta=beta,
        f=f,
        v2=v2,
        sign=+1,
        which_hamiltonian=which,
        residual=residuals[which],
        tolerance=tol,
        kind=kind,
        matches=tuple(matches),
    )


# -- closed form -------------------------------------------------------------


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def closed_form_price(mp: MarketParams, contract: OptionContract, spot: float) -> float:
    """Lognormal closed form of a European call or put through the error function."""
    if contract.payoff_kind == "down_and_out_call":
        raise ValueError("no closed form for barrier contracts")
    if spot <= 0:
        raise ValueError(f"spot must be > 0, got {spot}")
    r, sigma, strike, maturity = mp.r, mp.sigma, contract.strike, contract.maturity
    check_discount(r, maturity)
    call = contract.payoff_kind == "european_call"
    disc = math.exp(-r * maturity)
    vol = sigma * math.sqrt(maturity)
    if vol < 1e-12:
        # discounted deterministic forward, s0 e^{rT} e^{-rT} - K e^{-rT}, never formed
        intrinsic = spot - strike * disc
        return max(intrinsic, 0.0) if call else max(-intrinsic, 0.0)
    d1 = (math.log(spot / strike) + (r + 0.5 * sigma**2) * maturity) / vol
    d2 = d1 - vol
    if call:
        return spot * _norm_cdf(d1) - strike * disc * _norm_cdf(d2)
    return strike * disc * _norm_cdf(-d2) - spot * _norm_cdf(-d1)


# -- PDE pricer --------------------------------------------------------------


def pde_tolerance(price: float) -> float:
    """Gate on a PDE price: max(1e-2, 0.2 % of |price|)."""
    return max(1e-2, 2e-3 * abs(price))


@dataclass(frozen=True, eq=False)
class PriceCurve:
    """C(0, x) over the grid with run diagnostics."""

    grid: Grid1D
    values: np.ndarray
    diagnostics: dict

    def price_at(self, s0: float) -> float:
        """Cubic interpolation of the curve at spot s0 (off-node allowed)."""
        return float(CubicSpline(self.grid.nodes, self.values)(math.log(s0)))

    def to_csv(self, path) -> None:
        x = self.grid.nodes
        with open(path, "w", newline="") as fh:
            fh.write("x,S,C\n")
            for xi, ci in zip(x, self.values):
                fh.write(f"{xi:.17g},{math.exp(xi):.17g},{ci:.17g}\n")


def _boundary_values(contract: OptionContract, mp: MarketParams, g: Grid1D):
    """Asymptotic Dirichlet data (C at x_min, C at x_max) as a function of tau."""
    s_lo, s_hi, k = math.exp(g.x_min), math.exp(g.x_max), contract.strike
    if contract.payoff_kind == "european_put":
        return lambda tau: (k * math.exp(-mp.r * tau) - s_lo, 0.0)
    return lambda tau: (0.0, s_hi - k * math.exp(-mp.r * tau))


def price_pde(h: LinOp, contract: OptionContract, mp: MarketParams, g: Grid1D, steps: int) -> PriceCurve:
    """Backward Hamiltonian evolution dC/dtau = -H C from the contract's payoff.

    Crank-Nicolson with ``RANNACHER_STEPS`` fully-implicit start-up steps.  The
    boundary rows hold the contract's asymptotic Dirichlet data, and a barrier
    contract knocks out: C = 0 at nodes with x <= ln(barrier) after every step
    (nearest-node placement).  The two step matrices are factored once by a
    sparse LU, whatever the operator's band structure.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not g.x_max < MAX_LOG_PRICE:
        raise ValueError(f"grid x_max = {g.x_max:.6g} must be below {MAX_LOG_PRICE:.6g}, where "
                         f"exp(x_max) overflows; the default grid grows with strike, spot and "
                         f"sigma*sqrt(maturity)")

    if float(np.max(np.abs(h.entries.imag))) > TOL.rounding(g.n, max(1.0, h.max_abs())):
        raise ValueError("pricing Hamiltonian must be real-valued")

    check_discount(mp.r, contract.maturity)
    x = g.nodes
    c = contract.payoff(np.exp(x))
    boundary = _boundary_values(contract, mp, g)
    barrier_index = None
    if contract.payoff_kind == "down_and_out_call":
        barrier_index = int(np.searchsorted(x, math.log(contract.barrier), side="right"))
        c[:barrier_index] = 0.0

    dt = contract.maturity / steps
    payoff_max = float(np.max(np.abs(c)))
    running_max = payoff_max
    rann = min(RANNACHER_STEPS, steps)

    ends = np.zeros(g.n)
    ends[[0, -1]] = 1.0

    def system(coef):
        # Dirichlet rows: C = boundary data at both ends
        return (identity(g) + coef * h).scale_rows(1.0 - ends) + diagonal(g, ends)

    a_ie, a_cn = system(dt), system(0.5 * dt)
    # reported as "banded": true when the step matrix is tridiagonal (every
    # Black-Scholes operator); the sparse LU below serves either way
    tridiagonal = all(abs(o) <= 1 or not np.any(d) for o, d in zip(a_ie.offsets, a_ie.entries))
    lu_ie, lu_cn = (splu(a.to_sparse().real.tocsc(), permc_spec="NATURAL") for a in (a_ie, a_cn))
    h_real = h.to_sparse().real.tocsr()

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite curve is refused below
        for j in range(1, steps + 1):
            implicit = j <= rann
            rhs = c.copy() if implicit else c - 0.5 * dt * (h_real @ c)
            rhs[0], rhs[-1] = boundary(j * dt)
            c = (lu_ie if implicit else lu_cn).solve(rhs)
            if barrier_index:
                c[:barrier_index] = 0.0
            running_max = max(running_max, float(np.max(np.abs(c))))
    if not np.all(np.isfinite(c)):
        raise ValueError(f"PDE values overflow float64 on the grid [{g.x_min:.6g}, {g.x_max:.6g}]; "
                         f"the payoff grows as exp(x_max), so lower x_max")
    ln_k = math.log(contract.strike)
    width = 6.0 * mp.sigma * math.sqrt(contract.maturity)
    if g.x_max < ln_k + width or g.x_min > ln_k - width:
        warnings.warn(
            f"grid [{g.x_min:.3g}, {g.x_max:.3g}] narrower than ln K +- 6 sigma sqrt(T); "
            f"boundary data will bias the price",
            stacklevel=2,
        )

    return PriceCurve(
        grid=g,
        values=c,
        diagnostics={
            "steps": steps,
            "rannacher_steps": rann,
            "banded": tridiagonal,
            "payoff_max": payoff_max,
            "max_abs": running_max,
            "barrier_index": barrier_index,
        },
    )


def default_pricing_grid(contract: OptionContract, mp: MarketParams, spot: float, n: int = 2001) -> Grid1D:
    """Log-price grid centered on the strike, wide enough for payoff decay."""
    ln_k = math.log(contract.strike)
    half = max(5.0, abs(math.log(spot) - ln_k) + 8.0 * mp.sigma * math.sqrt(contract.maturity))
    return Grid1D(ln_k - half, ln_k + half, n)
