"""Command-line entry point: verification suites, spectra and pricing.

Subcommands: verify-algebra, spectrum, price, identify.  Each ``cmd_*`` builds
and returns its ``RunReport``; :func:`main` times the run, writes the JSON,
prints the summary and the wall time, and exits: 0 all checks passed, 1 at
least one check failed, 2 usage error.  A report's ``parameters`` are the
parsed flags, minus the output paths, with price's resolved grid, steps and
barrier, so its bytes depend only on the flags and the seed (wall time is
printed, but serialized as null).  The argparse tree is built once per
process, on the first call of :func:`main`.

``price`` runs its pricers one after another on the calling thread: the
closed form, the PDE, then the Monte Carlo, so a PDE refusal ends the run
before any normal is drawn.
"""

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import finance, hamiltonians, montecarlo, operators, susy
from . import tolerances as TOL
from .grid import Grid1D
from .operators import FunctionSpec

SCHEMA_VERSION = 1


@dataclass
class RunReport:
    command: str
    parameters: dict
    checks: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)

    def add(self, name: str, measured: float, tolerance: float | None, passed: bool):
        self.checks.append(
            {
                "name": name,
                "measured": None if measured is None else float(measured),
                "tolerance": None if tolerance is None else float(tolerance),
                "pass": bool(passed),
            }
        )

    @property
    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json_bytes(self) -> bytes:
        # wall_time is serialized as null: reports must be byte-identical
        # across repeated invocations with the same flags and seed
        doc = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "parameters": self.parameters,
            "checks": self.checks,
            "artifacts": self.artifacts,
            "wall_time": None,
        }
        return (json.dumps(doc, indent=2) + "\n").encode()


def _use_color() -> bool:
    return sys.stdout.isatty() and "NO_COLOR" not in os.environ


def _status(passed: bool) -> str:
    word = "PASS" if passed else "FAIL"
    if _use_color():
        return f"\x1b[32m{word}\x1b[0m" if passed else f"\x1b[31m{word}\x1b[0m"
    return word


def _finish(report: RunReport, json_path: str | None, started: float) -> int:
    """Write the JSON report, print the checks, artifacts and wall time; the exit code."""
    wall_time = time.perf_counter() - started
    if json_path:
        with open(json_path, "wb") as fh:
            fh.write(report.to_json_bytes())
    for c in report.checks:
        measured = "-" if c["measured"] is None else f"{c['measured']:.6g}"
        tol = "report-only" if c["tolerance"] is None else f"{c['tolerance']:.6g}"
        passed = c["pass"] if c["tolerance"] is not None else True
        print(f"  {_status(passed)}  {c['name']}: measured={measured} tolerance={tol}")
    for a in report.artifacts:
        print(f"  wrote {a}")
    print(f"  wall time: {wall_time:.3f} s")
    return 0 if report.all_passed else 1


def _parameters(args, **resolved) -> dict:
    """The parameters a report records: every parsed flag but the output paths,
    in parser order, each replaced by its resolved value where one is given."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func", "json", "csv")}
    return flags | resolved


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _grid_from_args(args) -> Grid1D:
    return Grid1D(args.xmin, args.xmax, args.n)


# -- verify-algebra ----------------------------------------------------------


def refined_ratio(coarse: float, finer) -> float | None:
    """Ratio of successive O(h^2) residuals as h halves, re-taken while it lies off 4 +- 0.5.

    ``finer`` yields the residual on each grid of half the previous h and is
    read only as far as needed: a pre-asymptotic first ratio is re-taken on
    at most two finer grids, and the last ratio is returned, so an error
    whose ratios settle elsewhere (towards 2 for a first-order error) still
    fails.  A finer residual of 0 carries no ratio and ends the refinement;
    None when the first one is 0.
    """
    ratio = None
    for fine in itertools.islice(finer, 3):
        if not fine > 0:
            break
        ratio = coarse / fine
        if abs(ratio - 4.0) <= 0.5:
            break
        coarse = fine
    return ratio


def cmd_verify_algebra(args) -> RunReport:
    g = _grid_from_args(args)
    if g.n < 9:
        raise ValueError(f"verify-algebra needs n >= 9, got n={g.n}: "
                         f"its checks compare the interior block 4..n-5, which is empty below that")
    f = FunctionSpec.parse(args.f)
    f_scale = f.derivative_scale(g)  # refuses an f the tolerance models cannot hold
    alpha, beta = args.alpha, args.beta
    report = RunReport("verify-algebra", _parameters(args))

    x_op = operators.position_operator(g)
    pf = operators.deformed_momentum(g, f)
    safe = f.max_abs(g) <= operators.MAX_SAFE_EXPONENT
    pairs = hamiltonians.build_all(g, f, alpha, beta)  # refuses a coupling whose square overflows
    # the SUSY checks multiply up to three coupled momenta and scale their bounds by n
    scale = max(alpha, beta, 1.0) * max(pf.max_abs(), 1.0)
    if not scale * scale * scale * scale * g.n < math.inf:
        raise ValueError(f"alpha={alpha}, beta={beta} overflow the operator products: "
                         f"(max(alpha, beta, 1) * max|P_f| = {scale:.3g})**4 * n = {g.n} is not finite")

    for name, op in (("commutator_x_x_zero", x_op), ("commutator_pf_pf_zero", pf)):
        c = operators.commutator(op, op).max_abs()
        report.add(name, c, 0.0, c == 0.0)

    defect = operators.canonical_commutator_defect(g, f)
    tol = TOL.discretization(g, f_scale)
    report.add("canonical_commutator", defect, tol, defect <= tol)

    # the refinement checks evaluate f on a finer grid, where a table has no samples
    g_fine = Grid1D(g.x_min, g.x_max, 2 * g.n - 1)
    if f.is_polynomial:
        ratio = defect / operators.canonical_commutator_defect(g_fine, f)
        report.add("canonical_refinement_ratio_dev", abs(ratio - 4.0), 0.5, abs(ratio - 4.0) <= 0.5)

    if safe:
        sim = operators.deformed_momentum_by_similarity(g, f)
        agreement = operators.action_difference(pf, sim)
        tol_sim = TOL.discretization(g, f_scale**2)
        report.add("similarity_construction_agreement", agreement, tol_sim, agreement <= tol_sim)

    tol_pair = TOL.discretization(g, max(alpha, beta) ** 2 * f_scale**2)
    for label, pair in pairs.items():
        agreement = pair.agreement()
        report.add(f"{label.lower()}_agreement", agreement, tol_pair, agreement <= tol_pair)
    for label in ("H1", "H2"):
        d = operators.hermiticity_defect(pairs[label].closed_form)
        tol_h = TOL.rounding(g.n, pairs[label].closed_form.max_abs())
        report.add(f"{label.lower()}_hermitian_defect", d, tol_h, d <= tol_h)
    floor = hamiltonians.nonhermitian_defect_floor(g, f, beta)
    for label in ("H3", "H4"):
        d = operators.hermiticity_defect(pairs[label].closed_form)
        if floor > 0:
            report.add(f"{label.lower()}_nonhermitian_defect_floor", d, floor, d >= floor)
        else:
            tol_h = TOL.rounding(g.n, pairs[label].closed_form.max_abs())
            report.add(f"{label.lower()}_hermitian_for_constant_f", d, tol_h, d <= tol_h)

    # the duality f -> -f permutes (H1, H2, H3, H4) -> (H2, H1, H4, H3) and maps H to H~
    neg = -f
    dual = max(
        (hamiltonians.closed_form(g, neg, a, c) - pairs[b].closed_form).max_abs()
        for a, b, c in (("H1", "H2", alpha), ("H2", "H1", alpha), ("H3", "H4", beta), ("H4", "H3", beta))
    )
    report.add("duality_closed_form_residual", dual, 0.0, dual == 0.0)

    def nilpotent(name, q):
        sq = q @ q
        zero = sq.structurally_zero
        report.add(f"{name}_nilpotent", 0.0 if zero else sq.max_abs(), 0.0, zero)

    def commutes(name, q, h):
        c = susy.block_commutator(q, h).max_abs()
        tol_c = TOL.rounding(g.n, q.max_abs() * h.max_abs())
        report.add(name, c, tol_c, c <= tol_c)

    def block_content(name, h, expected):
        # ``name`` may hold a "{}" slot for the measured labels
        ident = susy.identify_blocks(h, pairs)
        passed = ident.matched and all(e in t for e, t in zip(expected, ident.ties))
        report.add(name.format("_".join(ident.labels).lower()), max(ident.residuals),
                   ident.tolerance, passed)

    q1, q2, q3, q4 = susy.supercharges_4x4(g, f, alpha, beta)
    # the 2x2 sector of ordinary SUSY QM: Q1's corner alpha P_f at (0, 1), Q1 at beta = 0
    q = susy.BlockOp({(0, 1): q1.block(0, 1)}, g)
    nilpotent("q2x2", q)
    h2x2 = susy.block_anticommutator(q, q.adjoint())
    report.add("h2x2_block_diagonal", 0.0, 0.0, h2x2.structurally_block_diagonal)
    commutes("commutator_q_h_zero", q, h2x2)
    anti = susy.block_anticommutator(q, h2x2).max_abs()
    report.add("anticommutator_q_h_magnitude", anti, None, True)

    for name, qi in (("q1", q1), ("q2", q2), ("q3", q3), ("q4", q4)):
        nilpotent(name, qi)

    h = susy.block_anticommutator(q1, q2)
    report.add("h_block_diagonal", 0.0, 0.0, h.structurally_block_diagonal)
    block_content("h_block_content_{}", h, ("H2", "H1", "H3", "H3"))
    htilde = susy.block_anticommutator(q3, q4)
    report.add("htilde_block_diagonal", 0.0, 0.0, htilde.structurally_block_diagonal)
    block_content("htilde_block_content_{}", htilde, ("H1", "H2", "H4", "H4"))
    for name, qi, ham in (("q1", q1, h), ("q2", q2, h), ("q3", q3, htilde), ("q4", q4, htilde)):
        commutes(f"conserved_charge_{name}", qi, ham)

    h_neg = susy.block_anticommutator(*susy.supercharges_4x4(g, neg, alpha, beta)[:2])
    block_content("duality_maps_h_to_htilde", h_neg, ("H1", "H2", "H4", "H4"))

    if safe:
        # H~ = {Q3, Q4} of f is the dual H of -f
        gs, gs_tilde = susy.ground_states(f, q1, q2), susy.ground_states(neg, q3, q4)
        tol_gs = susy.ground_state_tolerance(g, f, alpha, beta)
        for name, rep in (("h", gs), ("htilde", gs_tilde)):
            residual = rep.residual
            report.add(f"ground_state_residual_{name}", residual, tol_gs, residual <= tol_gs)
        if f.is_polynomial:
            # convergence comparison on a fixed physical window (see
            # GroundStateReport.window_residual); residuals at rounding noise (e.g.
            # f = 0, where annihilation is exact) carry no convergence information
            margin = 4.0 * g.h

            def finer_residuals():
                grid = g
                while True:
                    grid = Grid1D(grid.x_min, grid.x_max, 2 * grid.n - 1)
                    fine_q1, fine_q2, _, _ = susy.supercharges_4x4(grid, f, alpha, beta)
                    yield susy.ground_states(f, fine_q1, fine_q2).window_residual(margin)

            coarse = gs.window_residual(margin)
            noisy = coarse <= TOL.rounding(g.n, pf.max_abs() ** 2)
            r = None if noisy else refined_ratio(coarse, finer_residuals())
            if r is not None:
                report.add("ground_state_refinement_ratio_dev", abs(r - 4.0), 0.5, abs(r - 4.0) <= 0.5)
    return report


# -- spectrum ----------------------------------------------------------------


def cmd_spectrum(args) -> RunReport:
    g = _grid_from_args(args)
    w = FunctionSpec.parse(args.w)
    report = RunReport("spectrum", _parameters(args))
    h1, h2 = hamiltonians.build_from_superpotential(g, w, args.alpha)
    pairing = susy.partner_spectra(h1, h2, args.k, args.pair_tol)
    report.add("partner_pairing_gap", pairing.max_pair_gap, pairing.pair_tol, pairing.all_paired)
    report.add("unpaired_zero_modes", sum(pairing.zero_modes), None, True)

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write("index,lambda_h1,lambda_h2,paired\n")
            rows = zip(pairing.eigenvalues_a, pairing.eigenvalues_b, pairing.paired)
            for i, (la, lb, paired) in enumerate(rows):
                fh.write(f"{i},{_fmt(la)},{_fmt(lb)},{int(paired)}\n")
        report.artifacts.append(args.csv)

    print(f"  lambda(H1): {np.array2string(pairing.eigenvalues_a, precision=6)}")
    print(f"  lambda(H2): {np.array2string(pairing.eigenvalues_b, precision=6)}")
    print(f"  zero modes: H1={pairing.zero_modes[0]} H2={pairing.zero_modes[1]}")
    return report


# -- price -------------------------------------------------------------------


def cmd_price(args) -> RunReport:
    kind = {"call": "european_call", "put": "european_put", "do-call": "down_and_out_call"}[args.payoff]
    contract = finance.OptionContract(
        kind, args.strike, args.maturity,
        barrier=args.barrier if kind == "down_and_out_call" else None,
    )
    mp = finance.MarketParams(args.sigma, args.rate)
    if not 0.0 < args.spot < math.inf:
        raise ValueError(f"--spot must be finite and > 0, got {args.spot}")
    if args.steps < 0:
        raise ValueError(f"--steps must be >= 0 (0 picks the default), got {args.steps}")
    run_pde, run_mc = args.method in ("pde", "all"), args.method in ("mc", "all")
    if args.csv and not run_pde:
        raise ValueError(f"--csv writes the PDE price curve, which --method {args.method} does not price")
    if (args.xmin is None) != (args.xmax is None):
        raise ValueError("--xmin and --xmax set the grid together: give both or neither")
    if args.xmin is None:
        g = finance.default_pricing_grid(contract, mp, args.spot, args.n)
        default_steps = finance.default_pricing_steps(g.n)
    else:
        # a user grid need not put ln K at a cell midpoint or ln B on a node, which
        # the fewer steps rely on
        g = Grid1D(args.xmin, args.xmax, args.n)
        default_steps = g.n
    steps = args.steps if args.steps else default_steps
    report = RunReport("price", _parameters(args, barrier=contract.barrier, xmin=g.x_min, xmax=g.x_max,
                                            steps=steps))

    prices: dict[str, float] = {}

    if args.method in ("closed", "all"):
        prices["closed"] = finance.closed_form_price(mp, contract, args.spot)
    if run_mc:
        montecarlo.check_draws(args.paths, args.seed)  # refused before any PDE work
    # the PDE runs before the Monte Carlo, so that its refusal wins when both refuse
    if run_pde:
        if args.xmin is None:
            curve = finance.price_by_translation(contract, mp, args.spot, g.n, steps)
        else:
            curve = finance.price_pde(finance.bs_hamiltonian(g, mp), contract, mp, steps)
        prices["pde"] = curve.price_at(args.spot)
        if args.method == "pde":
            # --method all gates the PDE against the closed form instead
            finance.check_no_arbitrage(mp, contract, args.spot, prices["pde"])
    if run_mc:
        est = montecarlo.feynman_kac_estimate(mp, contract, args.spot, args.paths, args.seed)
        prices["mc"], mc_se = est.mean, est.std_error
    if args.csv:
        curve.to_csv(args.csv)
        report.artifacts.append(args.csv)

    for name, value in prices.items():
        label = f"price_{name}"
        se = f" (std error {mc_se:.6g})" if name == "mc" else ""
        print(f"  {label}: {value:.6f}{se}")
        report.parameters.setdefault("prices", {})[name] = value

    if args.method == "all":
        gap = abs(prices["pde"] - prices["closed"])
        tol = finance.pde_tolerance(prices["closed"])
        report.add("pde_vs_closed", gap, tol, gap <= tol)
        gap_mc = abs(prices["mc"] - prices["closed"])
        # floored at rounding, so that a standard error of 0 leaves a gate
        tol_mc = max(3.0 * mc_se, TOL.rounding(args.paths, abs(prices["closed"])))
        report.add("mc_vs_closed_3se", gap_mc, tol_mc, gap_mc <= tol_mc)
        if contract.barrier is not None:
            _, vanilla = finance.no_arbitrage_bounds(mp, contract, args.spot)
            tol = finance.pde_tolerance(vanilla)
            report.add("barrier_below_vanilla", prices["pde"] - vanilla, tol, prices["pde"] <= vanilla + tol)
    return report


# -- identify ----------------------------------------------------------------


def cmd_identify(args) -> RunReport:
    g = _grid_from_args(args)
    potential = FunctionSpec.parse(args.v) if args.v else None
    mp = finance.MarketParams(args.sigma, args.rate, potential)
    report = RunReport("identify", _parameters(args))
    try:
        mapping = finance.map_to_deformed(mp, g, kind=args.kind)
    except finance.DeformationMatchError as exc:
        print(f"  identification failed: {exc}", file=sys.stderr)
        report.add("identification", math.inf, 0.0, False)
        return report

    print(f"  matched: {mapping.which_hamiltonian} with sign {mapping.sign:+d} "
          f"(all matches: {list(mapping.matches)})")
    print(f"  beta^2 = {mapping.beta**2:.17g}, residual = {mapping.residual:.3g}")
    report.parameters["which_hamiltonian"] = mapping.which_hamiltonian
    report.parameters["sign"] = mapping.sign
    report.parameters["matches"] = [list(m) for m in mapping.matches]
    report.add("identification_residual", mapping.residual, mapping.tolerance,
               mapping.residual <= mapping.tolerance)
    return report


# -- parser ------------------------------------------------------------------


def _add_grid_flags(p, xmin, xmax, n):
    p.add_argument("--xmin", type=float, default=xmin)
    p.add_argument("--xmax", type=float, default=xmax)
    p.add_argument("--n", type=int, default=n)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once: parsing reads it and changes nothing, and no default is mutable."""
    parser = argparse.ArgumentParser(
        prog="qflab",
        description="Deformed-momentum quantum mechanics and quantum-finance laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-algebra", help="run the operator and SUSY invariant suite")
    p.add_argument("--f", default="poly:0", help="deformation function (poly:c0,c1,... or table:path)")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    _add_grid_flags(p, -5.0, 5.0, 501)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_verify_algebra)

    p = sub.add_parser("spectrum", help="partner spectra from a superpotential")
    p.add_argument("--w", default="poly:0,1", help="superpotential W")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--pair-tol", type=float, default=1e-3, dest="pair_tol")
    _add_grid_flags(p, -10.0, 10.0, 2001)
    p.add_argument("--csv", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("price", help="price an option by PDE, Monte Carlo and closed form")
    p.add_argument("--payoff", choices=("call", "put", "do-call"), default="call")
    p.add_argument("--strike", type=float, default=100.0)
    p.add_argument("--barrier", type=float, default=80.0)
    p.add_argument("--maturity", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--rate", type=float, default=0.05)
    p.add_argument("--spot", type=float, default=100.0)
    p.add_argument("--method", choices=("pde", "mc", "closed", "all"), default="all")
    p.add_argument("--paths", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    _add_grid_flags(p, None, None, 2001)
    p.add_argument("--steps", type=int, default=0,
                   help="time steps (0 = n/4 rounded up on the default grid, else n)")
    p.add_argument("--csv", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("identify", help="match a finance Hamiltonian to H_I/H_II")
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--rate", type=float, default=0.05)
    p.add_argument("--v", default=None, help="potential V(x) for the generalized/barrier forms")
    p.add_argument("--kind", choices=("auto", "bs", "bsg", "bsb"), default="auto")
    _add_grid_flags(p, -3.0, 3.0, 601)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_identify)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    # warnings reach stderr as one line each, without the source location
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return _finish(args.func(args), args.json, started)
        except (ValueError, MemoryError) as exc:  # MemoryError: an array that cannot be allocated
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
