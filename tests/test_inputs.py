"""Invalid inputs are refused where they enter: exit 2, one line, no traceback."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qflab import finance
from qflab.cli import main
from qflab.finance import MarketParams, OptionContract, bs_hamiltonian, map_to_deformed, price_pde
from qflab.grid import Grid1D
from qflab.hamiltonians import build_from_superpotential
from qflab.montecarlo import feynman_kac_estimate
from qflab.operators import FunctionSpec
from qflab.susy import dirichlet_eigenvalues

SMALL_PRICE = ("price", "--n", "101", "--steps", "50", "--paths", "64")
SPOT_ABOVE_THE_GRID = ("--xmin", "3", "--xmax", "709", "--n", "1001", "--spot", "1.7e308")
# cells 5e146 wide: the read-off at ln S is finite nonsense
COARSE_GRID = ("--xmin=-1e150", "--xmax=10")


def run_main(argv) -> int:
    """Exit code of an in-process CLI call; argparse usage errors exit through SystemExit."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--seed", "-1"), "seed"),
        (("--seed", str(2**64)), "seed"),
        (("--paths", "1"), "paths"),
        (("--spot", "-5"), "--spot"),
        (("--rate", "inf"), "r"),
        (("--sigma", "nan"), "sigma"),
        (("--strike", "nan"), "strike"),
        (("--strike", "inf"), "strike"),
        (("--maturity", "nan"), "maturity"),
        (("--maturity", "inf"), "maturity"),
        (("--payoff", "do-call", "--barrier", "nan"), "barrier"),
        (("--payoff", "do-call", "--barrier", "inf"), "barrier"),
        (("--sigma", "1e200"), "sigma"),
        (("--sigma", "1e-200"), "sigma"),
        (("--strike", "1e300"), "x_max"),
        (("--maturity", "1e300"), "x_max"),
        (("--xmin", "0", "--xmax", "800"), "x_max"),
        (("--xmin", "700", "--xmax", "709.7"), "x_max"),
        (("--rate", "1e300", "--sigma", "1e-13", "--method", "closed"), "rate"),
        (("--rate", "1e300"), "rate"),
        (("--rate", "1e300", "--method", "mc"), "rate"),
        (("--rate", "-1", "--maturity", "1000", "--method", "pde"), "rate"),
        (("--rate", "-1", "--maturity", "1000", "--method", "closed"), "rate"),
        (("--rate", "-1", "--maturity", "1000", "--method", "mc"), "rate"),
        (("--rate", "700", "--method", "mc"), "drift"),
        (("--spot", "1e300"), "spot"),
        (("--spot", "1e300", "--method", "mc"), "spot"),
        # the read-off above the grid's top multiplies values near 1e308 and overflows
        (("--method", "pde", *SPOT_ABOVE_THE_GRID), "does not resolve"),
        (("--method", "all", *SPOT_ABOVE_THE_GRID), "does not resolve"),
        (("--method", "mc", "--csv", "curve.csv"), "--csv"),
        (("--method", "closed", "--csv", "curve.csv"), "--csv"),
        (("--steps", "-5"), "--steps must be >= 0"),
        (("--method", "pde", "--steps", "-5"), "--steps must be >= 0"),
        (("--method", "closed", "--steps", "-5"), "--steps must be >= 0"),
        (("--method", "mc", "--steps", "-5"), "--steps must be >= 0"),
        (("--payoff", "do-call", "--steps", "-1"), "--steps must be >= 0"),
        (("--method", "pde", "--xmin", "2"), "give both or neither"),
        (("--xmax", "7"), "give both or neither"),
        (("--method", "mc", "--xmin", "2"), "give both or neither"),
        (("--strike", "1e307", "--spot", "1e307", "--method", "pde"), "x_max"),  # a unit curve fits
        (("--method", "mc", "--paths", "1000000000000"), "Unable to allocate"),
        (("--payoff", "do-call", "--barrier", "80", "--method", "all", "--paths", "1000000000000"),
         "Unable to allocate"),
        (("--payoff", "do-call", "--paths", "3"), "needs two antithetic pairs, got 3"),
        (("--payoff", "do-call", "--method", "mc", "--paths", "2"), "needs two antithetic pairs, got 2"),
        # a contract priced by --method pde alone is held to its no-arbitrage bounds
        (("--method", "pde", "--n", "4", "--steps", "0"), "PDE price -641.1 at spot 100 lies outside"),
        (("--method", "pde", "--n", "5", "--steps", "0"), "PDE price -118.633 at spot 100 lies outside"),
        (("--method", "pde", *COARSE_GRID), "lies outside the no-arbitrage bounds [4.87706, 100]"),
        (("--payoff", "put", "--strike", "0.001", "--spot", "0.001", "--rate", "-708", "--method", "pde"),
         "no-arbitrage bounds [3.02338e+304, 3.02338e+304]"),
        # a down-and-out call lies between 0 and its call without the barrier
        (("--payoff", "do-call", "--method", "pde", "--n", "4", "--steps", "0"),
         "PDE price 230.76 at spot 100 lies outside the no-arbitrage bounds [0, 10.4506]"),
        (("--payoff", "do-call", "--method", "pde", "--n", "6", "--steps", "0"),
         "PDE price 28.9216 at spot 100 lies outside the no-arbitrage bounds [0, 10.4506]"),
        (("--payoff", "do-call", "--method", "pde", "--n", "8", "--steps", "0"),
         "PDE price 16.0559 at spot 100 lies outside the no-arbitrage bounds [0, 10.4506]"),
        # every contract's standard error needs two antithetic pairs
        (("--paths", "2"), "needs two antithetic pairs, got 2"),
        (("--payoff", "put", "--method", "mc", "--paths", "3"), "needs two antithetic pairs, got 3"),
    ],
)
def test_price_rejects_bad_flag(capsys, argv, flag):
    assert run_main((*SMALL_PRICE, *argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err and "Traceback" not in err


def test_a_grid_too_coarse_for_the_spot_fails_the_closed_form_gate(capsys, tmp_path):
    # --method pde alone refuses this price outside its no-arbitrage bounds (above)
    report = tmp_path / "report.json"
    assert run_main((*SMALL_PRICE, *COARSE_GRID, "--method", "all", "--json", str(report))) == 1
    checks = json.loads(report.read_text())["checks"]
    assert [c["name"] for c in checks if not c["pass"]] == ["pde_vs_closed"]


# half-width 5 about ln K, as at strike 100 and spot 100: the same unit-strike
# curve, but a strike-K grid whose x_max = ln(1e307) + 5 overflows
HUGE_STRIKE = (*SMALL_PRICE, "--strike", "1e307", "--spot", "1e307", "--method", "pde")


def test_price_refuses_x_max_after_a_cache_hit_as_on_a_cold_cache(capsys):
    assert run_main(HUGE_STRIKE) == 2
    cold = capsys.readouterr().err
    assert cold.startswith("error: grid x_max = 711.9") and cold.count("\n") == 1
    for _ in range(2):  # a miss, then a hit
        assert run_main((*SMALL_PRICE, "--method", "pde")) == 0
    assert finance._unit_curve.cache_info()[:2] == (1, 1)  # (hits, misses)
    capsys.readouterr()
    assert run_main(HUGE_STRIKE) == 2
    assert capsys.readouterr().err == cold


SMALL_SPECTRUM = ("spectrum", "--n", "201")


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "-inf"])
def test_spectrum_rejects_bad_pair_tol(capsys, value):
    assert run_main((*SMALL_SPECTRUM, f"--pair-tol={value}")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "pair_tol" in err and "Traceback" not in err


@pytest.mark.parametrize("n", [3, 5, 8])
def test_verify_algebra_rejects_a_grid_without_interior(capsys, n):
    assert run_main(("verify-algebra", "--n", str(n))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"n={n}" in err and "n >= 9" in err and "Traceback" not in err


def test_verify_algebra_runs_the_smallest_grid_with_interior():
    assert run_main(("verify-algebra", "--n", "9")) == 0


@pytest.mark.parametrize("spec", ["poly:nan", "poly:0,inf", "poly:1,-inf"])
def test_verify_algebra_rejects_non_finite_polynomial(capsys, spec):
    assert run_main(("verify-algebra", "--f", spec, "--n", "41")) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["poly:0,1e300", "poly:0,0,1e200"])
def test_verify_algebra_rejects_overflowing_f(capsys, spec):
    assert run_main(("verify-algebra", "--f", spec, "--n", "101")) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "derivative scale of f" in err


@pytest.mark.parametrize("argv", [("--alpha", "1e300"), ("--beta", "1e300"), ("--alpha", "nan"),
                                  ("--beta", "inf")])
def test_verify_algebra_rejects_overflowing_coupling(capsys, argv):
    assert run_main(("verify-algebra", "--n", "41", *argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{argv[0][2:]}**2 must be finite" in err and "Traceback" not in err


OVERFLOWING_PRODUCTS = (("--beta", "1e150"), ("--alpha", "1e150"),
                        ("--alpha", "1e100", "--f", "poly:0,0,0.5"))


@pytest.mark.parametrize("argv", OVERFLOWING_PRODUCTS)
def test_verify_algebra_rejects_coupling_whose_products_overflow(capsys, argv):
    # the squares are finite, but the SUSY checks' products and bounds are not
    assert run_main(("verify-algebra", "--n", "41", *argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflow the operator products" in err and "Traceback" not in err


def test_verify_algebra_runs_a_large_coupling_whose_products_fit():
    assert run_main(("verify-algebra", "--n", "41", "--alpha", "1e75", "--beta", "1e75")) == 0


@pytest.mark.parametrize("argv", [("--rate", "inf"), ("--sigma=-inf",), ("--rate", "nan"),
                                  ("--sigma", "1e200"), ("--sigma", "1e-200"), ("--sigma", "1e-150")])
def test_identify_rejects_non_finite_market(capsys, argv):
    assert run_main(("identify", "--n", "41", *argv)) == 2
    assert "must be finite" in capsys.readouterr().err


def test_identify_refuses_a_potential_for_plain_black_scholes(capsys):
    # H_BS has no V(x): a potential is read by bsg or bsb, and bs would drop it
    assert run_main(("identify", "--n", "41", "--kind", "bs", "--v", "poly:0.1")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bsg" in err and "bsb" in err


@pytest.mark.parametrize("n", [41, 601])
@pytest.mark.parametrize("sigma", [3e-3, 3e-4, 1e-6, 1e-8])
def test_identify_resolves_small_sigma(n, sigma):
    # the candidates cancel b^2 f'^2 ~ r^2 / (2 sigma^2); the tolerance follows it
    assert run_main(("identify", "--n", str(n), "--sigma", repr(sigma))) == 0
    mapping = map_to_deformed(MarketParams(sigma, 0.05), Grid1D(-3.0, 3.0, n), kind="auto")
    assert (mapping.which_hamiltonian, mapping.sign) == ("H_I", 1)
    assert mapping.matches == (("H_I", 1), ("H_II", -1))


@pytest.mark.parametrize("n", ["41", "601"])
def test_identify_refuses_sigma_whose_sign_branches_it_cannot_resolve(capsys, n):
    assert run_main(("identify", "--n", n, "--sigma", "1e-10")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too small to identify" in err and "sign branches" in err


TINY_OR_HUGE_SPACING = [
    ("verify-algebra", "--xmin", "0", "--xmax", "1e-200", "--n", "41"),
    ("identify", "--xmin", "0", "--xmax", "1e-170"),
    ("spectrum", "--xmin=-1e160", "--xmax=1e160"),
    ("price", "--method", "pde", "--xmin=-1e308", "--xmax=5"),
]


@pytest.mark.parametrize("argv", TINY_OR_HUGE_SPACING)
def test_grid_refuses_a_spacing_its_stencils_cannot_hold(capsys, argv):
    assert run_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "h**2 and 1/h**2 must be finite and nonzero" in err


@pytest.mark.parametrize("argv", [("verify-algebra", "--xmax", "inf"), ("spectrum", "--xmin=-inf"),
                                  ("identify", "--xmax", "inf"),
                                  ("price", "--method", "pde", "--xmin", "1", "--xmax", "inf")])
def test_grid_refuses_non_finite_bounds(capsys, argv):
    assert run_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "grid bounds must be finite" in err


@pytest.mark.parametrize("argv", [("verify-algebra", "--n", "41", "--f"), ("spectrum", "--n", "201", "--w"),
                                  ("identify", "--n", "41", "--v")], ids=["f", "w", "v"])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unreadable_table_is_a_usage_error(capsys, tmp_path, argv, target):
    path = tmp_path / "missing.csv" if target == "missing" else tmp_path
    assert run_main((*argv, f"table:{path}")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read table '{path}'") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("--w", "poly:0,1e200"), ("--w", "poly:1e200"),
                                  ("--w", "poly:0,1e160", "--k", "2"),
                                  ("--w", "poly:0,0,0,0,0,0,0,0,0,1e305")])  # W itself overflows
def test_spectrum_refuses_a_superpotential_whose_square_overflows(capsys, argv):
    assert run_main(("spectrum", *argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "the superpotential W reaches" in err and "W^2 must be finite" in err
    assert "warning:" not in err


OVERFLOWING_PARTNERS = ("spectrum", "--w", "poly:0,1", "--alpha", "1e150", "--n", "201")
# alpha^2 (max|P^2| + max|W'| + max W^2) = 1e306 * 601 overflows the entries themselves
OVERFLOWING_ENTRIES = ("spectrum", "--w", "poly:0,1", "--alpha", "1e153", "--n", "201")


def test_spectrum_refuses_partners_whose_off_diagonal_products_overflow(capsys):
    # the entries of H1, H2 fit, but the products u_i l_i of the symmetrized band do not
    assert run_main(OVERFLOWING_PARTNERS) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "products u_i l_i must be finite" in err
    assert "warning:" not in err


def test_spectrum_refuses_a_coupling_whose_partner_entries_overflow(capsys):
    assert run_main(OVERFLOWING_ENTRIES) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: alpha=1e+153 overflows the partners") and err.count("\n") == 1
    assert "warning:" not in err


def test_spectrum_runs_hermitian_partners_on_a_small_grid(capsys):
    # H1 and H2 are Hermitian on the Dirichlet block that is solved
    assert run_main(("spectrum", "--k", "1", "--n", "8")) != 2
    assert "error" not in capsys.readouterr().err


def test_library_constructors_reject_the_same_inputs():
    mp, call = MarketParams(0.2, 0.05), OptionContract("european_call", 100.0, 1.0)
    with pytest.raises(ValueError, match="seed"):
        feynman_kac_estimate(mp, call, 100.0, 4, -1)
    with pytest.raises(ValueError, match="seed"):
        feynman_kac_estimate(mp, call, 100.0, 4, 2**64)
    feynman_kac_estimate(mp, call, 100.0, 4, 2**64 - 1)
    with pytest.raises(ValueError, match="paths"):
        feynman_kac_estimate(mp, call, 100.0, 3, 0)
    with pytest.raises(ValueError, match="finite"):
        FunctionSpec.polynomial([0.0, math.nan])
    with pytest.raises(ValueError, match="finite"):
        FunctionSpec.tabulated([0.0, math.inf, 1.0])
    for sigma, r in ((math.inf, 0.05), (0.2, math.inf), (math.nan, 0.05), (0.2, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            MarketParams(sigma, r)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite strike"):
            OptionContract("european_call", bad, 1.0)
        with pytest.raises(ValueError, match="finite maturity"):
            OptionContract("european_put", 100.0, bad)
        with pytest.raises(ValueError, match="finite barrier"):
            OptionContract("down_and_out_call", 100.0, 1.0, barrier=bad)
    for sigma in (1e200, 1e-200):
        with pytest.raises(ValueError, match="sigma"):
            MarketParams(sigma, 0.05)
    with pytest.raises(ValueError, match=r"W\^2 must be finite"):
        build_from_superpotential(Grid1D(-10, 10, 21), FunctionSpec.polynomial([0.0, 1e200]), 1.0)
    with pytest.raises(ValueError, match="bsg or bsb"):
        map_to_deformed(MarketParams(0.2, 0.05, FunctionSpec.polynomial([0.1])), Grid1D(-3, 3, 41), kind="bs")
    with pytest.raises(ValueError, match="overflows the partners"):
        build_from_superpotential(Grid1D(-10, 10, 201), FunctionSpec.polynomial([0.0, 1.0]), 1e153)
    h1, _ = build_from_superpotential(Grid1D(-10, 10, 201), FunctionSpec.polynomial([0.0, 1.0]), 1e150)
    with pytest.raises(ValueError, match="u_i l_i must be finite"):
        dirichlet_eigenvalues(h1, 2)
    mp, g = MarketParams(0.2, 0.05), Grid1D(0.0, 800.0, 101)
    with pytest.raises(ValueError, match="x_max"):
        price_pde(bs_hamiltonian(g, mp), OptionContract("european_call", 100.0, 1.0), mp, 10)


EDGE = ("nan", "inf", "-1", "0", "1")
PRICE_FLAGS = ("--seed", "--paths", "--spot", "--sigma", "--rate",
               "--strike", "--maturity", "--barrier")


@st.composite
def edge_commands(draw):
    command = draw(st.sampled_from(("price", "verify-algebra", "identify", "spectrum")))
    if command == "price":
        payoff = draw(st.sampled_from(("call", "put", "do-call")))
        method = draw(st.sampled_from(("pde", "mc", "closed", "all")))
        flags = draw(st.dictionaries(st.sampled_from(PRICE_FLAGS), st.sampled_from(EDGE),
                                     min_size=1))
        argv = [*SMALL_PRICE, "--payoff", payoff, "--method", method]
    elif command == "verify-algebra":
        coeffs = draw(st.lists(st.sampled_from(EDGE), min_size=1, max_size=3))
        flags = {"--f": "poly:" + ",".join(coeffs)}
        argv = ["verify-algebra", "--n", draw(st.sampled_from(("21", "41")))]
    elif command == "spectrum":
        flags = draw(st.dictionaries(st.sampled_from(("--pair-tol", "--k", "--alpha")),
                                     st.sampled_from(EDGE), min_size=1))
        argv = list(SMALL_SPECTRUM)
    else:
        flags = draw(st.dictionaries(st.sampled_from(("--sigma", "--rate")),
                                     st.sampled_from(EDGE), min_size=1))
        argv = ["identify", "--n", "41"]
    for flag, value in flags.items():
        argv += [flag, value]
    return argv


@given(edge_commands())
@example([*SMALL_PRICE, "--maturity", "nan"])
@example([*SMALL_PRICE, "--method", "pde", "--maturity", "inf"])
@example([*SMALL_PRICE, "--strike", "1e300"])
@example([*SMALL_PRICE, "--method", "pde", "--maturity", "1e300"])
@example([*SMALL_PRICE, "--xmin", "0", "--xmax", "800"])
@example([*SMALL_PRICE, "--sigma", "1e200"])
@example(["identify", "--n", "41", "--sigma", "1e200"])
@example(["identify", "--n", "41", "--sigma", "1e-200"])
@example(["verify-algebra", "--n", "101", "--f", "poly:0,1e300"])
@example(["verify-algebra", "--n", "101", "--f", "poly:0,0,1e200"])
@example([*SMALL_PRICE, "--rate", "1e300", "--sigma", "1e-13", "--method", "closed"])
@example([*SMALL_PRICE, "--xmin", "700", "--xmax", "709.7"])
@example([*SMALL_PRICE, "--rate", "1e300"])
@example([*SMALL_PRICE, "--spot", "1e300"])
@example([*SMALL_PRICE, "--rate", "1e300", "--method", "mc"])
@example([*SMALL_PRICE, "--spot", "1e300", "--method", "mc"])
@example([*SMALL_PRICE, "--rate", "-1", "--maturity", "1000", "--method", "closed"])
@example(["verify-algebra", "--n", "41", "--alpha", "1e300"])
@example(["verify-algebra", "--n", "41", "--beta", "1e300"])
@example(["identify", "--n", "41", "--sigma", "1e-150"])
@example(["identify", "--n", "41", "--sigma", "3e-3"])
@example(["identify", "--sigma", "3e-4"])
@example(["identify", "--n", "41", "--sigma", "1e-10"])
@example(["verify-algebra", "--n", "41", *OVERFLOWING_PRODUCTS[0]])
@example(["verify-algebra", "--n", "41", *OVERFLOWING_PRODUCTS[1]])
@example(["verify-algebra", "--n", "41", *OVERFLOWING_PRODUCTS[2]])
@example([*SMALL_SPECTRUM, "--pair-tol", "nan"])
@example([*SMALL_SPECTRUM, "--pair-tol", "-1"])
@example([*SMALL_SPECTRUM, "--pair-tol", "inf"])
@example(["verify-algebra", "--n", "5"])
@example(["verify-algebra", "--n", "8"])
@example([*SMALL_PRICE, "--method", "all", "--paths", "1"])
@example([*SMALL_PRICE, "--method", "all", "--seed", "-1"])
@example(["verify-algebra", "--xmin", "0", "--xmax", "1e-200", "--n", "41"])
@example(["spectrum", "--xmin=-1e160", "--xmax=1e160"])
@example([*SMALL_PRICE, "--method", "pde", "--xmin=-1e308", "--xmax=5"])
@example(["identify", "--n", "41", "--xmax", "inf"])
@example(["price", "--method", "pde", "--xmin=-1e150", "--xmax=5", "--n", "101", "--steps", "10"])
@example([*SMALL_PRICE, "--method", "all", *COARSE_GRID])
@example([*SMALL_PRICE, "--method", "all", "--xmin", "0", "--xmax", "1e-120"])
@example([*SMALL_PRICE, "--method", "all", *SPOT_ABOVE_THE_GRID])
@example([*SMALL_PRICE, "--method", "mc", "--csv", "curve.csv"])
@example([*SMALL_PRICE, "--method", "closed", "--steps", "-5"])
@example([*SMALL_PRICE, "--method", "pde", "--xmin", "2"])
@example(["spectrum", "--w", "poly:0,1e200"])
@example(list(OVERFLOWING_PARTNERS))
@example(list(OVERFLOWING_ENTRIES))
@example(list(HUGE_STRIKE))
@example(["identify", "--n", "41", "--kind", "bs", "--v", "poly:0.1"])
@example([*SMALL_PRICE, "--method", "mc", "--paths", "1000000000000"])
@example([*SMALL_PRICE, "--payoff", "do-call", "--barrier", "80", "--method", "all",
          "--paths", "1000000000000"])
@example([*SMALL_PRICE, "--payoff", "do-call", "--method", "all", "--paths", "3"])
@example([*SMALL_PRICE, "--payoff", "call", "--paths", "3"])
@example(["price", "--method", "pde", "--n", "4"])
@example(["price", "--method", "pde", "--n", "5"])
@example(["price", "--payoff", "do-call", "--method", "pde", "--n", "4"])
@example(["price", "--payoff", "do-call", "--method", "pde", "--n", "6"])
@example(["price", "--payoff", "do-call", "--method", "pde", "--n", "8"])
@example(["price", "--payoff", "put", "--strike", "0.001", "--spot", "0.001", "--rate", "-708",
          "--method", "pde", "--n", "101"])
@settings(max_examples=60, deadline=None)
def test_edge_values_end_in_an_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        code = run_main([*argv, "--json", str(report)])
        assert code in (0, 1, 2)
        if code == 2:
            return
        # no empty gate: every number a check reports is finite or null
        for check in json.loads(report.read_text())["checks"]:
            for key in ("measured", "tolerance"):
                assert check[key] is None or math.isfinite(check[key]), (argv, check)
