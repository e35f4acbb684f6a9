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
The default grid puts the payoff kink at a cell midpoint, and a down-and-out
call's grid starts at its barrier, held at 0 as Dirichlet data, so the price
converges at second order and ceil(n/4) steps suffice for every contract.
The closed forms cover the call, the put and the continuously monitored
down-and-out call.
H_BS commutes with translations in x, so a call's or put's curve on its
default grid is K times the unit-strike curve moved by ln K; that unit curve
is solved once and cached, so a strike ladder solves once per payoff kind.
Both step matrices are tridiagonal, read from H's band by
``LinOp.tridiagonal`` and factored once by LAPACK's tridiagonal LU.  The
price at a spot is read off the curve by the Lagrange cubic through the four
nodes around it, O(h^4) and below the solve's O(h^2).
"""

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from . import tolerances as TOL
from .grid import Grid1D
from .hamiltonians import closed_form
from .operators import FunctionSpec, LinOp, derivative_matrices, diagonal, identity

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
        value = self.strike - s if self.payoff_kind == "european_put" else s - self.strike
        return np.maximum(value, 0.0, out=value)  # in place: one new array per call


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


def map_to_deformed(mp: MarketParams, g: Grid1D, kind: str) -> DeformationMapping:
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
        if mp.potential is not None:
            raise ValueError("bs identification takes no potential V(x): use kind bsg or bsb for one")
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
    target_tol = TOL.ROUND_COEFF * TOL.EPS * max(target.max_abs(), 1.0)
    tol = TOL.ROUND_COEFF * TOL.EPS * max(target.max_abs(), cancelled, 1.0)
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


def _log_norm_cdf(x: float) -> float:
    """ln N(x), finite where N(x) underflows: below -30 by the Mills-ratio series."""
    if x > -30.0:
        return math.log(0.5 * math.erfc(-x / math.sqrt(2.0)))
    s = 1.0 / (x * x)  # the series' sixth term is below 1e-13 of the first here
    series = 1.0 - s * (1.0 - 3.0 * s * (1.0 - 5.0 * s * (1.0 - 7.0 * s * (1.0 - 9.0 * s))))
    return -0.5 * x * x - math.log(-x) - 0.5 * math.log(2.0 * math.pi) + math.log(series)


def closed_form_price(mp: MarketParams, contract: OptionContract, spot: float) -> float:
    """Lognormal closed form of a European call or put, or of a continuously monitored
    down-and-out call, through the error function.

    The down-and-out call is 0 at a spot at or below the barrier B.  Above it,
    it is the call paying above max(B, K) less its image under S -> B^2/S,
    scaled by (B/S)^(2 lambda - 2) with lambda = (r + sigma^2/2)/sigma^2:
    Merton (Bell J. Econ. 4, 1973) for B <= K, Reiner & Rubinstein (Risk 4,
    1991) for B > K.  Each image term is at most S or K e^{-rT}, so it is formed
    as one exponential of (B/S)'s power plus ln N, which neither overflows
    nor underflows where the two factors alone would.  A price that is not
    finite, for any contract, is refused.
    """
    if spot <= 0:
        raise ValueError(f"spot must be > 0, got {spot}")
    r, sigma, strike, maturity = mp.r, mp.sigma, contract.strike, contract.maturity
    check_discount(r, maturity)
    barrier = contract.barrier if contract.payoff_kind == "down_and_out_call" else None
    call = contract.payoff_kind != "european_put"
    disc = math.exp(-r * maturity)
    vol = sigma * math.sqrt(maturity)
    if vol < 1e-12:
        # discounted deterministic forward, s0 e^{rT} e^{-rT} - K e^{-rT}, never formed
        intrinsic = spot - strike * disc
        # its path S e^{rt} is lowest at t = 0 or, for r < 0, at T
        knocked = barrier is not None and spot * math.exp(min(r, 0.0) * maturity) <= barrier
        price = 0.0 if knocked else max(intrinsic if call else -intrinsic, 0.0)
    elif barrier is None:
        d1 = (math.log(spot / strike) + (r + 0.5 * sigma**2) * maturity) / vol
        d2 = d1 - vol
        if call:
            price = spot * _norm_cdf(d1) - strike * disc * _norm_cdf(d2)
        else:
            price = strike * disc * _norm_cdf(-d2) - spot * _norm_cdf(-d1)
    elif spot <= barrier:
        price = 0.0
    else:
        low = max(barrier, strike)  # the call pays only above low: the payoff there, or the barrier
        drift = (r + 0.5 * sigma**2) * maturity
        ln_bs = math.log(barrier / spot)
        d1 = (math.log(spot / low) + drift) / vol
        y = (ln_bs + math.log(barrier / low) + drift) / vol  # d1 at the image B^2/S
        power = 2.0 * (r / sigma**2 + 0.5) * ln_bs  # ln (B/S)^(2 lambda)
        price = (spot * _norm_cdf(d1) - strike * disc * _norm_cdf(d1 - vol)
                 - spot * math.exp(power + _log_norm_cdf(y))
                 + strike * disc * math.exp(power - 2.0 * ln_bs + _log_norm_cdf(y - vol)))
    if not math.isfinite(price):
        raise ValueError(f"the {contract.payoff_kind} closed form is {price} at spot={spot:.6g}, "
                         f"strike={strike:.6g}, sigma={sigma:.6g}, rate={r:.6g}, maturity={maturity:.6g}: "
                         f"its terms overflow float64")
    return price


# -- PDE pricer --------------------------------------------------------------


def pde_tolerance(price: float) -> float:
    """Gate on a PDE price: max(1e-2, 0.2 % of |price|)."""
    return max(1e-2, 2e-3 * abs(price))


@dataclass(frozen=True, eq=False)
class PriceCurve:
    """C(0, x) over the grid with run diagnostics; C is 0 at and below ``zero_below``
    (a down-and-out call's ln B), between nodes too."""

    grid: Grid1D
    values: np.ndarray
    diagnostics: dict
    zero_below: float = -math.inf

    def price_at(self, s0: float) -> float:
        """The Lagrange cubic through the four nodes around ln s0 (off-node allowed); refused if not finite.

        For x_i <= ln s0 < x_{i+1} the nodes are i-1..i+2, clipped to the
        grid and, for a barrier, to start no lower than its last knocked-out
        node, so the end cells read one-sided and the kink at the barrier
        stays outside.  A knocked-out spot reads 0.  The cubic is summed in
        Python floats, which overflow to inf or nan without a warning.
        """
        xv = math.log(s0)
        if xv <= self.zero_below:
            return 0.0
        g = self.grid
        x = g.nodes
        first = max(int(np.count_nonzero(_knocked_out(g, self.zero_below))) - 1, 0)
        lo = min(max(int(np.searchsorted(x, xv, side="right")) - 2, first), g.n - 4)  # i - 1, clipped
        xs, ys = x[lo:lo + 4].tolist(), self.values[lo:lo + 4].tolist()
        price = sum(ys[j] * math.prod((xv - xs[k]) / (xs[j] - xs[k]) for k in range(4) if k != j)
                    for j in range(4))
        if not math.isfinite(price):
            raise ValueError(f"PDE price at spot {s0:.6g} is {price}: the grid [{g.x_min:.6g}, {g.x_max:.6g}] "
                             f"with n={g.n} does not resolve ln S = {xv:.6g}")
        return price

    def to_csv(self, path) -> None:
        x = self.grid.nodes
        with open(path, "w", newline="") as fh:
            fh.write("x,S,C\n")
            for xi, ci in zip(x, self.values):
                fh.write(f"{xi:.17g},{math.exp(xi):.17g},{ci:.17g}\n")


def _knocked_out(g: Grid1D, ln_b: float) -> np.ndarray:
    """The nodes at or below ln B, to rounding: a node the default grid builds on ln B is on it."""
    return g.nodes <= ln_b + TOL.rounding(g.n, max(abs(g.x_min), abs(g.x_max)))


def _boundary_values(contract: OptionContract, mp: MarketParams, g: Grid1D):
    """Asymptotic Dirichlet data (C at x_min, C at x_max) as a function of tau."""
    s_lo, s_hi, k = math.exp(g.x_min), math.exp(g.x_max), contract.strike
    if contract.payoff_kind == "down_and_out_call" and g.x_max <= math.log(contract.barrier):
        return lambda tau: (0.0, 0.0)  # the barrier knocks out the whole grid
    if contract.payoff_kind == "european_put":
        return lambda tau: (k * math.exp(-mp.r * tau) - s_lo, 0.0)
    return lambda tau: (0.0, s_hi - k * math.exp(-mp.r * tau))


def price_pde(h: LinOp, contract: OptionContract, mp: MarketParams, steps: int) -> PriceCurve:
    """Backward Hamiltonian evolution dC/dtau = -H C from the contract's payoff, on h's grid.

    Crank-Nicolson with ``RANNACHER_STEPS`` fully-implicit start-up steps.  The
    boundary rows hold the contract's asymptotic Dirichlet data, and a barrier
    contract's knock-out is Dirichlet data 0 on every node at or below
    ln(barrier), to rounding (Zvan, Vetzal & Forsyth, J. Econ. Dyn. Control 24,
    2000): on the default grid that is node 0 alone, which sits on ln(barrier).
    With the Dirichlet rows replaced, each step matrix A = I + theta dt H is a
    real tridiagonal band (any other is refused), factored once by LAPACK's
    ``dgttrf``.  A Crank-Nicolson step solves A y = w and sets C' = 2y - C,
    since (I - dt H / 2) C = (2I - A) C; w is C except on the Dirichlet rows,
    which hold (data + C) / 2.  A knocked-out row starts at 0 and holds data 0,
    so it needs no work in the steps.
    """
    g = h.grid
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not g.x_max < MAX_LOG_PRICE:
        raise ValueError(f"grid x_max = {g.x_max:.6g} must be below {MAX_LOG_PRICE:.6g}, where "
                         f"exp(x_max) overflows; the default grid grows with strike, spot and "
                         f"sigma*sqrt(maturity)")

    check_discount(mp.r, contract.maturity)
    x = g.nodes
    c = contract.payoff(np.exp(x))
    boundary = _boundary_values(contract, mp, g)
    ends = np.zeros(g.n)
    ends[[0, -1]] = 1.0
    zero_below = -math.inf
    if contract.payoff_kind == "down_and_out_call":
        zero_below = math.log(contract.barrier)
        knocked = _knocked_out(g, zero_below)
        c[knocked] = 0.0
        ends[knocked] = 1.0

    dt = contract.maturity / steps
    rann = min(RANNACHER_STEPS, steps)

    def factor(coef):
        # Dirichlet rows: C = boundary data at both ends and 0 on knocked-out nodes
        a = (identity(g) + coef * h).scale_rows(1.0 - ends) + diagonal(g, ends)
        *lu, info = dgttrf(*a.tridiagonal())
        if info != 0:
            raise ValueError(f"the step matrix I + {coef:.3g} H is singular (LAPACK dgttrf info={info})")
        return lu

    lu_ie, lu_cn = factor(dt), factor(0.5 * dt)

    w = np.empty(g.n)  # the right-hand side; a Crank-Nicolson step solves it in place
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite curve is refused below
        for j in range(1, steps + 1):
            lo, hi = boundary(j * dt)
            np.copyto(w, c)
            if j <= rann:
                w[0], w[-1] = lo, hi
                c, _ = dgttrs(*lu_ie, w)
            else:
                w[0], w[-1] = 0.5 * (lo + c[0]), 0.5 * (hi + c[-1])
                y, _ = dgttrs(*lu_cn, w, overwrite_b=True)
                y *= 2.0
                np.subtract(y, c, out=c)
    if not np.all(np.isfinite(c)):
        raise ValueError(f"PDE values overflow float64 on the grid [{g.x_min:.6g}, {g.x_max:.6g}]; "
                         f"the payoff grows as exp(x_max), so lower x_max")
    if _narrow(g, contract, mp):
        warnings.warn(
            f"grid [{g.x_min:.3g}, {g.x_max:.3g}] narrower than ln K +- 6 sigma sqrt(T); "
            f"boundary data will bias the price",
            stacklevel=2,
        )

    # every step matrix is tridiagonal
    return PriceCurve(grid=g, values=c, diagnostics={"banded": True}, zero_below=zero_below)


def _narrow(g: Grid1D, contract: OptionContract, mp: MarketParams) -> bool:
    """Whether g misses ln K +- 6 sigma sqrt(T), where boundary data bias the price.

    A grid that starts at or below a barrier holds exact data there, so only
    its top edge is checked.
    """
    ln_k = math.log(contract.strike)
    width = 6.0 * mp.sigma * math.sqrt(contract.maturity)
    lower = ln_k - width
    if contract.payoff_kind == "down_and_out_call":
        lower = max(lower, math.log(contract.barrier))
    return g.x_max < ln_k + width or g.x_min > lower


def _half_width(contract: OptionContract, mp: MarketParams, spot: float) -> float:
    """Half-width of the default grid about ln K: |ln S - ln K| + 8 sigma sqrt(T), at least 5."""
    ln_k = math.log(contract.strike)
    return max(5.0, abs(math.log(spot) - ln_k) + 8.0 * mp.sigma * math.sqrt(contract.maturity))


def _offset_grid(centre: float, half: float, n: int) -> Grid1D:
    """The call's or put's default grid about ``centre`` (ln K, or 0 for the unit strike)."""
    shift = half / (n - 1) if n % 2 else 0.0  # h/2 puts the centre at a cell midpoint
    return Grid1D(centre - half + shift, centre + half + shift, n)


def default_pricing_grid(contract: OptionContract, mp: MarketParams, spot: float, n: int) -> Grid1D:
    """Log-price grid around the strike, wide enough for payoff decay.

    half = |ln S - ln K| + 8 sigma sqrt(T), at least 5.  The payoff kink ln K
    sits at a cell midpoint, where the node values carry no kink and the PDE
    error falls (Pooley, Vetzal & Forsyth, J. Comput. Finance 6(4), 2003).

    A call's or put's grid spans ln K +- half: an odd-n grid centred on ln K
    moves up by h/2, and an even-n one already has ln K midway.  The offsets
    from ln K depend on (half, n) alone, so the same offsets about 0 are the
    unit-strike grid of ``price_by_translation``.

    A down-and-out call's grid starts at the barrier, node 0 = ln B, which
    ``price_pde`` holds at 0 (Zvan, Vetzal & Forsyth, J. Econ. Dyn. Control
    24, 2000), and ends at or above ln K + half.  h is the smallest spacing
    that reaches there and, when ln K lies more than h/2 above ln B, puts
    ln K at a cell midpoint.  A spot at or below the barrier, where the price
    is 0, is reached by whole cells below ln B, which ``price_pde`` holds at
    0 too.  ln B is clipped to ln K +- half, the call's own grid: a barrier
    below it knocks out no price the grid resolves, and one above it all.
    """
    half = _half_width(contract, mp, spot)
    ln_k = math.log(contract.strike)
    if contract.payoff_kind != "down_and_out_call":
        return _offset_grid(ln_k, half, n)
    ln_b = min(max(math.log(contract.barrier), ln_k - half), ln_k + half)
    below, above = max(0.0, ln_b - math.log(spot)), ln_k + half - ln_b
    cells = min(math.ceil((n - 1) * below / (below + above)), n - 2)  # cells below ln B
    h = max(below / cells if cells else 0.0, above / (n - 1 - cells))
    if ln_k - ln_b > h / 2:  # the smallest h' >= h with (ln K - ln B)/h' - 1/2 a whole number
        h = (ln_k - ln_b) / (math.floor((ln_k - ln_b) / h - 0.5) + 0.5)
    return Grid1D(ln_b - cells * h, ln_b + (n - 1 - cells) * h, n)


@functools.lru_cache(maxsize=2)
def _unit_curve(payoff_kind: str, sigma: float, r: float, maturity: float, half: float, n: int,
                steps: int) -> PriceCurve:
    # one entry per payoff kind: a strike ladder alternates calls and puts
    mp = MarketParams(sigma, r)
    g = _offset_grid(0.0, half, n)
    curve = price_pde(bs_hamiltonian(g, mp), OptionContract(payoff_kind, 1.0, maturity), mp, steps)
    curve.values.flags.writeable = False
    return curve


def price_by_translation(contract: OptionContract, mp: MarketParams, spot: float, n: int,
                         steps: int) -> PriceCurve:
    """The curve on ``default_pricing_grid``: a call's or put's as C_K(x) = K c_1(x - ln K).

    H_BS has constant coefficients in x = ln S, so it commutes with
    translations, and the payoff and Dirichlet data of strike K are K times
    those of strike 1, moved by ln K: Black-Scholes prices are homogeneous
    in (S, K) (Merton, Bell J. Econ. 4, 1973).  The unit-strike curve c_1 is
    solved by ``price_pde`` on the offsets of the strike-K grid and cached,
    keyed on (payoff kind, sigma, r, T, half-width, n, steps), one entry per
    payoff kind, so a strike ladder priced in one process solves once per
    kind.  The cached values are read-only; each call scales a copy.

    The cached curve serves only a call or put whose direct solve would pass
    every check of ``price_pde`` on the strike-K grid without a warning, and
    whose unit solve does too.  Every other contract, a barrier among them,
    is solved directly on its ``default_pricing_grid``, so it refuses and
    warns exactly as ``price_pde`` does.
    """
    half = _half_width(contract, mp, spot)
    g = default_pricing_grid(contract, mp, spot, n)
    unit = replace(contract, strike=1.0)
    if (contract.barrier is None and g.x_max < MAX_LOG_PRICE and not _narrow(g, contract, mp)
            and not _narrow(_offset_grid(0.0, half, n), unit, mp)):
        try:
            c1 = _unit_curve(contract.payoff_kind, mp.sigma, mp.r, contract.maturity, half, n, steps)
        except ValueError:
            pass  # a unit refusal says nothing of strike K: its own solve below decides
        else:
            k = contract.strike
            with np.errstate(over="ignore"):  # a curve that overflows is solved directly below
                values = k * c1.values
            if np.all(np.isfinite(values)):
                return PriceCurve(grid=g, values=values, diagnostics=dict(c1.diagnostics))
    return price_pde(bs_hamiltonian(g, mp), contract, mp, steps)


def default_pricing_steps(n: int) -> int:
    """Time steps on an n-node ``default_pricing_grid``: ceil(n/4), for every contract.

    With the kink at a cell midpoint, and a barrier on node 0 as Dirichlet
    data, the time error of ceil(n/4) Crank-Nicolson steps stays far below
    the space error of n nodes; a grid that need not put them there takes n
    steps.
    """
    return -(-n // 4)
