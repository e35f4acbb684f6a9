import itertools
import json
import math
import subprocess
import sys
import threading

import numpy as np
import pytest
from conftest import SRC, run_cli as run

from qflab import cli, finance, hamiltonians, montecarlo, operators, susy
from qflab.cli import build_parser, main


def test_usage_errors_exit_2():
    assert run().returncode == 2
    assert run("price", "--method", "bogus").returncode == 2
    assert run("verify-algebra", "--f", "spline:1").returncode == 2
    assert run("verify-algebra", "--n", "2").returncode == 2


def test_the_parser_is_built_once_and_keeps_no_flag_between_calls(capsys, tmp_path):
    cli.build_parser.cache_clear()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["price", "--method", "closed", "--strike", "90", "--json", str(first)]) == 0
    assert main(["price", "--method", "closed", "--json", str(second)]) == 0
    assert cli.build_parser.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert json.loads(second.read_text())["parameters"]["strike"] == 100.0


def test_monitoring_is_an_unknown_flag(capsys):
    # the Monte Carlo prices the continuously monitored barrier: there are no monitoring dates to set
    with pytest.raises(SystemExit) as exc:
        main(["price", "--payoff", "do-call", "--monitoring", "250"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --monitoring 250" in capsys.readouterr().err


def test_verify_algebra_passes(tmp_path):
    out = tmp_path / "report.json"
    res = run(
        "verify-algebra", "--f", "poly:0,1", "--alpha", "1", "--beta", "1",
        "--xmin", "-5", "--xmax", "5", "--n", "301", "--json", str(out),
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["command"] == "verify-algebra"
    assert doc["wall_time"] is None
    assert all(c["pass"] for c in doc["checks"])
    names = [c["name"] for c in doc["checks"]]
    assert "h_block_content_h2|h1_h1|h2_h3_h3" in names or any(
        n.startswith("h_block_content") for n in names
    )
    assert "NO_COLOR" not in res.stdout and "\x1b[" not in res.stdout


# per subcommand: flags that keep its run small, and the keys its report adds after the flags
RECORDED_RUNS = {
    "verify-algebra": (("--n", "41"), []),
    "spectrum": (("--n", "201", "--k", "2"), []),
    "price": (("--method", "closed"), ["prices"]),
    "identify": (("--n", "41"), ["which_hamiltonian", "sign", "matches"]),
}


@pytest.mark.parametrize("command", sorted(RECORDED_RUNS))
def test_a_report_records_every_flag_but_the_output_paths(capsys, tmp_path, command):
    # a flag that must stay out of the report bytes is excluded here on purpose
    flags = [k for k in vars(build_parser().parse_args([command]))
             if k not in ("command", "func", "json", "csv")]
    argv, results = RECORDED_RUNS[command]
    out = tmp_path / "report.json"
    assert main([command, *argv, "--json", str(out)]) in (0, 1)
    assert list(json.loads(out.read_text())["parameters"]) == flags + results


def test_verify_algebra_accepts_a_table(tmp_path):
    n = 301
    path, out = tmp_path / "f.txt", tmp_path / "report.json"
    np.savetxt(path, np.linspace(-5.0, 5.0, n) ** 2 / 2)
    assert main(["verify-algebra", "--f", f"table:{path}", "--n", str(n), "--json", str(out)]) == 0
    names = [c["name"] for c in json.loads(out.read_text())["checks"]]
    # a table has no samples on the refined grid: only the two refinement checks are left out
    assert not [name for name in names if "refinement" in name]
    assert "canonical_commutator" in names and "ground_state_residual_htilde" in names


@pytest.mark.parametrize("module", ["qflab", "qflab.grid"])
def test_import_loads_no_scipy(module):
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)})
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# scipy's own base, which every ``import scipy.<subpackage>`` loads
SCIPY_BASE = {"_lib", "__config__", "version", "_distributor_init", "_cyutility"}


def loaded_scipy_subpackages(code):
    """Top-level scipy subpackages in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    code += "\nprint(json.dumps(sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})))"
    res = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], capture_output=True,
                         text=True, env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)})
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stdout.splitlines()[-1]))


def test_cli_import_loads_only_linalg_of_scipy():
    assert loaded_scipy_subpackages("import qflab.cli") <= {"linalg"} | SCIPY_BASE


@pytest.mark.parametrize("argv", [
    ["verify-algebra", "--f", "table:{path}"],
    ["spectrum", "--w", "table:{path}", "--k", "3"],  # antiderivative of a table
    ["identify", "--kind", "bsg", "--v", "table:{path}"],  # antiderivative of a table
], ids=["verify-algebra", "spectrum", "identify"])
def test_table_runs_load_no_scipy_integrate(tmp_path, argv):
    path = tmp_path / "f.txt"
    np.savetxt(path, 0.02 + np.linspace(-5.0, 5.0, 301) ** 2 / 200)
    argv = [a.format(path=path) for a in argv] + ["--n", "301", "--xmin", "-5", "--xmax", "5"]
    loaded = loaded_scipy_subpackages(f"from qflab.cli import main\nassert main({argv!r}) == 0")
    assert "integrate" not in loaded
    assert loaded <= {"linalg"} | SCIPY_BASE


def test_spectrum_csv_and_failure_exit(tmp_path):
    csv = tmp_path / "eig.csv"
    res = run(
        "spectrum", "--w", "poly:0,1", "--k", "4", "--n", "801",
        "--xmin", "-8", "--xmax", "8", "--csv", str(csv),
    )
    assert res.returncode == 0, res.stderr
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "index,lambda_h1,lambda_h2,paired"
    assert len(rows) == 5
    # impossible pairing tolerance forces a check failure -> exit 1
    res = run(
        "spectrum", "--w", "poly:0,1", "--k", "4", "--n", "801",
        "--xmin", "-8", "--xmax", "8", "--pair-tol", "1e-12",
    )
    assert res.returncode == 1


@pytest.mark.parametrize("n, k, exit_code, paired", [
    ("201", "6", 1, ["0"] * 6),  # every pair's gap exceeds 1e-3
    ("8", "2", 1, ["0"] * 2),  # gap 2: H1 and H2 share no eigenvalue at this resolution
    ("801", "4", 0, ["1", "1", "1", "0"]),  # H1's top value has no computed partner
])
def test_spectrum_csv_marks_a_row_paired_by_its_own_gap(capsys, tmp_path, n, k, exit_code, paired):
    csv = tmp_path / "eig.csv"
    grid = ("--xmin", "-8", "--xmax", "8") if n == "801" else ()
    assert main(["spectrum", "--n", n, "--k", k, *grid, "--csv", str(csv)]) == exit_code
    assert [row.split(",")[3] for row in csv.read_text().splitlines()[1:]] == paired


def test_spectrum_fails_a_pairing_that_compares_no_pair(capsys, tmp_path):
    # at alpha = 0.01 every eigenvalue but H1's top one lies below pair_tol, a zero mode
    out = tmp_path / "report.json"
    argv = ["spectrum", "--w", "poly:0,1", "--alpha", "0.01", "--n", "2001", "--json", str(out)]
    assert main(argv) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["partner_pairing_gap"]["measured"] is None
    assert checks["partner_pairing_gap"]["pass"] is False
    assert checks["unpaired_zero_modes"]["measured"] == 11


def test_identify_reports_match(tmp_path):
    out = tmp_path / "id.json"
    res = run("identify", "--sigma", "0.2", "--rate", "0.05", "--json", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert doc["parameters"]["which_hamiltonian"] == "H_I"
    assert doc["parameters"]["sign"] == 1
    assert doc["checks"][0]["pass"]


def test_identify_degenerate_label():
    res = run("identify", "--sigma", "0.2", "--rate", "0.02")
    assert res.returncode == 0
    assert "H_II" in res.stdout


def test_identify_generalized():
    res = run("identify", "--sigma", "0.3", "--v", "poly:0.05,0.01")
    assert res.returncode == 0, res.stderr
    assert "H_I" in res.stdout


def test_price_closed_worthless_put():
    res = run(
        "price", "--payoff", "put", "--strike", "1e-8", "--spot", "100",
        "--method", "closed",
    )
    assert res.returncode == 0, res.stderr
    price = float(res.stdout.split("price_closed:")[1].split()[0])
    assert price <= 1e-10


def test_price_closed_prices_the_barrier():
    # the continuously monitored down-and-out call (Merton 1973)
    res = run("price", "--payoff", "do-call", "--method", "closed")
    assert res.returncode == 0, res.stderr
    assert "price_closed: 10.351345\n" in res.stdout


def test_the_barrier_benchmark_prints_no_warning(capsys):
    # its grid starts at the barrier, where the Dirichlet data are exact
    assert main(["price", "--payoff", "do-call", "--barrier", "80", "--method", "all", "--paths", "2000"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("barrier", ["100", "100.1", "120"])
def test_a_spot_at_or_below_the_barrier_prices_0_on_the_default_grid(tmp_path, capsys, barrier):
    out = tmp_path / "report.json"
    for method in ("closed", "pde", "mc"):
        assert main(["price", "--payoff", "do-call", "--barrier", barrier, "--method", method,
                     "--paths", "2000", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["parameters"]["prices"] == {"closed": 0.0, method: 0.0}
    assert doc["parameters"]["xmin"] <= math.log(100.0)


def test_barrier_overflow_is_refused_without_a_warning():
    # ln S(T) of an overflowed S(T) is inf, and its weight 1: only the refusal prints
    res = run("price", "--payoff", "do-call", "--barrier", "80", "--method", "mc", "--paths", "5000",
              "--spot", "1e308", "--rate", "5")
    assert res.returncode == 2
    assert res.stderr == ("error: Monte Carlo estimate inf +- nan is not finite: the discounted payoffs "
                          "overflow float64 at spot=1e+308, drift=5, sigma=0.2, T=1\n")


def test_price_all_methods_small(tmp_path):
    csv = tmp_path / "curve.csv"
    res = run(
        "price", "--payoff", "call", "--strike", "100", "--spot", "100",
        "--sigma", "0.2", "--rate", "0.05", "--maturity", "1",
        "--method", "all", "--paths", "100000", "--n", "1001", "--steps", "1000",
        "--csv", str(csv),
    )
    assert res.returncode == 0, res.stderr
    assert csv.exists()
    assert "price_closed: 10.450584" in res.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("identify", "--sigma", "0.2", "--rate", "0.05"),
        ("price", "--method", "mc", "--paths", "20000", "--seed", "7"),
        ("verify-algebra", "--f", "poly:0,0,0.5", "--n", "201"),
    ],
)
def test_json_reports_byte_reproducible(tmp_path, args):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(*args, "--json", str(a)).returncode == 0
    assert run(*args, "--json", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


SMALL_ALL = ("price", "--method", "all", "--paths", "2000", "--n", "401", "--steps", "200")


def count_calls(monkeypatch, *functions) -> dict[str, int]:
    """Count calls of ``functions`` through every qflab module namespace that holds them."""
    counts = dict.fromkeys((fn.__name__ for fn in functions), 0)
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("qflab") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    return counts


@pytest.mark.parametrize("argv", [("--payoff", "do-call"), ("--payoff", "do-call", "--xmin", "3", "--xmax", "6"),
                                  ("--payoff", "call")], ids=["do-call", "do-call-user-grid", "call"])
def test_price_all_runs_each_pricer_once(monkeypatch, capsys, argv):
    # every contract's Monte Carlo reads one terminal sample
    counts = count_calls(monkeypatch, montecarlo.sample_terminal, finance.price_pde)
    assert main([*SMALL_ALL, *argv, "--barrier", "80"]) == 0
    assert counts == {"sample_terminal": 1, "price_pde": 1}


def test_the_barrier_monte_carlo_gate_does_not_depend_on_the_grid(tmp_path, capsys):
    # the Monte Carlo and the closed form do not depend on n, so neither does their gate
    gates = []
    for n in ("401", "801"):
        out = tmp_path / f"{n}.json"
        assert main(["price", "--method", "all", "--payoff", "do-call", "--paths", "2000", "--n", n,
                     "--json", str(out)]) == 0
        gates.append(next(c for c in json.loads(out.read_text())["checks"] if c["name"] == "mc_vs_closed_3se"))
    assert gates[0] == gates[1]


@pytest.mark.parametrize("barrier", ["99.5", "99.9"])
def test_a_barrier_next_to_the_spot_passes_every_gate(tmp_path, capsys, barrier):
    # the Monte Carlo prices the continuously monitored contract, as the PDE and the closed form do
    out = tmp_path / "report.json"
    assert main(["price", "--payoff", "do-call", "--spot", "100", "--barrier", barrier, "--method", "all",
                 "--paths", "200000", "--json", str(out)]) == 0
    names = [c["name"] for c in json.loads(out.read_text())["checks"]]
    assert names == ["pde_vs_closed", "mc_vs_closed_3se"]


@pytest.mark.parametrize("barrier", ["1", "10", "30"])
def test_a_far_barrier_stays_below_the_vanilla_call_within_the_pde_tolerance(tmp_path, capsys, barrier):
    # the PDE price lies above the barrier-free call by its own error, 1.4e-6 to 1.4e-5 here; the
    # closed form lies below that call, so its gate bounds the PDE price by the call plus the tolerance
    out = tmp_path / "report.json"
    assert main(["price", "--method", "all", "--payoff", "do-call", "--barrier", barrier,
                 "--paths", "20000", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    gate = next(c for c in doc["checks"] if c["name"] == "pde_vs_closed")
    prices = doc["parameters"]["prices"]
    vanilla = finance.closed_form_price(finance.MarketParams(0.2, 0.05),
                                        finance.OptionContract("european_call", 100.0, 1.0), 100.0)
    assert gate["pass"] and prices["closed"] <= vanilla < prices["pde"] <= vanilla + gate["tolerance"]


def test_a_strike_ladder_draws_once(monkeypatch, capsys, tmp_path):
    ladder = [("call", "90"), ("put", "90"), ("call", "110"), ("put", "110")]

    def run_ladder(folder, clear) -> list[bytes]:
        folder.mkdir()
        for i, (payoff, strike) in enumerate(ladder):
            if clear:
                montecarlo._terminal_sample.cache_clear()
            assert main([*SMALL_ALL, "--payoff", payoff, "--strike", strike,
                         "--json", str(folder / f"{i}.json")]) == 0
        return [(folder / f"{i}.json").read_bytes() for i in range(len(ladder))]

    counts = count_calls(monkeypatch, montecarlo.standard_normals)
    shared = run_ladder(tmp_path / "shared", clear=False)
    assert counts == {"standard_normals": 1}
    assert shared == run_ladder(tmp_path / "fresh", clear=True)
    assert counts == {"standard_normals": 1 + len(ladder)}


def test_a_strike_ladder_solves_once_per_payoff_kind(monkeypatch, capsys, tmp_path):
    # the ten contracts of the vanilla benchmark, in two orders, each from empty caches
    ladder = [(payoff, strike) for payoff in ("call", "put") for strike in ("80", "90", "100", "110", "120")]

    def run_ladder(folder, order) -> dict:
        folder.mkdir()
        montecarlo._terminal_sample.cache_clear()
        finance._unit_curve.cache_clear()
        for payoff, strike in order:
            out = folder / f"{payoff}{strike}.json"
            assert main([*SMALL_ALL, "--payoff", payoff, "--strike", strike, "--json", str(out)]) == 0
        return {p.name: p.read_bytes() for p in folder.iterdir()}

    counts = count_calls(monkeypatch, finance.price_pde)
    forward = run_ladder(tmp_path / "forward", ladder)
    assert counts == {"price_pde": 2}
    assert run_ladder(tmp_path / "shuffled", ladder[::-3] + ladder[1::3] + ladder[2::3]) == forward


NARROW_DEFAULT = ("price", "--method", "pde", "--n", "5", "--sigma", "0.9")


def test_the_narrow_grid_warning_prints_once_per_solve_after_a_cache_hit(monkeypatch, capsys):
    # half-width 7.2 and n = 5 give the same unit-strike curve at either strike;
    # the rounding of ln 100 + offset leaves only the strike-100 grid narrow
    # n = 5 does not resolve the call, so each run then fails its closed-form gate
    counts = count_calls(monkeypatch, finance.price_pde)
    for _ in range(2):  # a miss, then a hit
        assert main([*NARROW_DEFAULT, "--strike", "10", "--spot", "10"]) == 1
        assert capsys.readouterr().err == ""
    assert counts == {"price_pde": 1}
    for _ in range(2):
        assert main([*NARROW_DEFAULT, "--strike", "100", "--spot", "100"]) == 1
        assert capsys.readouterr().err == ("warning: grid [-0.795, 13.6] narrower than ln K +- 6 sigma "
                                           "sqrt(T); boundary data will bias the price\n")
    assert counts == {"price_pde": 3}  # a narrow grid is solved directly


@pytest.mark.parametrize("argv, steps", [
    (("--xmin", "2", "--xmax", "7", "--n", "401"), 401),
    (("--xmin", "4", "--xmax", "5", "--n", "201", "--payoff", "put"), 201),
    (("--xmin", "2", "--xmax", "7", "--n", "401", "--steps", "30"), 30),
    (("--n", "401"), 101),
])
def test_only_the_default_grid_takes_a_quarter_of_the_steps(capsys, tmp_path, argv, steps):
    # ln K sits at a cell midpoint only on the default grid
    out = tmp_path / "report.json"
    assert main(["price", "--method", "pde", *argv, "--json", str(out)]) == 0
    assert json.loads(out.read_text())["parameters"]["steps"] == steps


def count_products(monkeypatch) -> list:
    """One entry per operator product formed after the call."""
    matmul, products = operators.LinOp.__matmul__, []
    monkeypatch.setattr(operators.LinOp, "__matmul__",
                        lambda a, b: products.append(1) or matmul(a, b))
    return products


def test_verify_algebra_builds_each_hamiltonian_once(monkeypatch):
    counts = count_calls(monkeypatch, hamiltonians.build_all)
    products = count_products(monkeypatch)
    assert main(["verify-algebra", "--f", "poly:0,0,0.5", "--n", "101"]) == 0
    # H1..H4 of f once; the duality check reads only the closed forms of -f
    assert counts == {"build_all": 1}
    assert len(products) == 46


@pytest.mark.parametrize("beta", ["1", "0"])
def test_verify_algebra_builds_each_supercharge_set_once(monkeypatch, capsys, beta):
    built, supercharges_4x4 = [], susy.supercharges_4x4
    grids, report = [], susy.GroundStateReport

    def recorded(g, f, alpha, b):
        built.append((g.n, f.coefficients, b))
        return supercharges_4x4(g, f, alpha, b)

    monkeypatch.setattr(susy, "supercharges_4x4", recorded)
    monkeypatch.setattr(susy, "GroundStateReport",
                        lambda state, action, g: grids.append(g.n) or report(state, action, g))
    assert main(["verify-algebra", "--f", "poly:0,0,0.5", "--n", "101", "--beta", beta]) == 0
    # the 2x2 sector is the corner of Q1, and the ground states read the supercharges built
    assert len(built) == len(set(built)), built
    assert {b for _, _, b in built} == {float(beta)}, built
    # H and H~ on g; the refinement ratio reads H's window alone on the refined grid
    assert grids == [101, 101, 201]


@pytest.mark.parametrize("argv,grids,ratio", [
    # pre-asymptotic grids: ratios 4.58, 4.12 and 2.89, 3.35, 3.65 as h halves
    (("--f", "poly:0,0,0.5", "--n", "41", "--alpha", "2", "--beta", "0.5"), [41, 41, 81, 161], 4.12),
    (("--f", "poly:0.3,1,0.7,0.1", "--n", "201"), [201, 201, 401, 801, 1601], 3.65),
])
def test_a_pre_asymptotic_ground_state_ratio_is_taken_again_on_finer_grids(
        monkeypatch, capsys, tmp_path, argv, grids, ratio):
    built, report = [], susy.GroundStateReport
    monkeypatch.setattr(susy, "GroundStateReport",
                        lambda state, action, g: built.append(g.n) or report(state, action, g))
    out = tmp_path / "report.json"
    assert main(["verify-algebra", *argv, "--json", str(out)]) == 0
    assert built == grids
    check, = (c for c in json.loads(out.read_text())["checks"]
              if c["name"] == "ground_state_refinement_ratio_dev")
    assert check["pass"] and check["measured"] == pytest.approx(abs(ratio - 4.0), abs=0.01)


def test_the_refined_ratio_still_fails_a_first_order_error():
    read = []

    def finer():  # ratios 2.4, 2.2, 2.1, 2.05, ... tend to 2, a first-order error's
        residual = 1.0
        for k in itertools.count():
            residual /= 2.0 + 0.4 / 2**k
            read.append(residual)
            yield residual

    ratio = cli.refined_ratio(1.0, finer())
    assert len(read) == 3 and ratio == pytest.approx(2.1) and abs(ratio - 4.0) > 0.5
    # a ratio inside 4 +- 0.5 reads one finer grid; a vanishing residual carries no ratio
    assert cli.refined_ratio(1.0, iter([0.25, 0.0])) == 4.0
    assert cli.refined_ratio(1.0, iter([0.0, 0.25])) is None
    assert cli.refined_ratio(1.0, iter([0.5, 0.0])) == 2.0


@pytest.mark.parametrize("argv", [("spectrum", "--n", "801", "--k", "2"), ("identify", "--n", "41")])
def test_spectrum_and_identify_form_no_products(monkeypatch, capsys, argv):
    # both read closed forms only
    products = count_products(monkeypatch)
    assert main(list(argv)) == 0
    assert products == []


def test_zero_commutator_checks_read_their_measurement(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(operators, "commutator", lambda a, b: operators.identity(a.grid))
    out = tmp_path / "report.json"
    main(["verify-algebra", "--n", "41", "--json", str(out)])
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    for name in ("commutator_x_x_zero", "commutator_pf_pf_zero"):
        assert checks[name]["measured"] == 1.0
        assert checks[name]["pass"] is False


@pytest.mark.parametrize("payoff", ["call", "do-call"])
@pytest.mark.parametrize("flag,message", [
    # every standard error comes from antithetic pairs, so 1 or 3 paths are too few
    (("--paths", "1"), "error: paths must be >= 4 for a standard error, which needs two antithetic "
                       "pairs, got 1\n"),
    (("--paths", "3"), "error: paths must be >= 4 for a standard error, which needs two antithetic "
                       "pairs, got 3\n"),
    (("--seed", "-1"), "error: seed must be in [0, 2**64)"),
], ids=["paths-1", "paths", "seed"])
def test_price_all_refuses_paths_and_seed_before_the_pde(monkeypatch, capsys, payoff, flag, message):
    counts = count_calls(monkeypatch, finance.price_pde)
    assert main(["price", "--payoff", payoff, "--method", "all", "--n", "101", "--steps", "50", *flag]) == 2
    assert counts == {"price_pde": 0}
    assert capsys.readouterr().err.startswith(message)


# S(T) overflows, so the Monte Carlo refuses its payoffs, and the PDE refuses the grid
BOTH_REFUSE = (*SMALL_ALL, "--payoff", "do-call", "--maturity", "1e300")


@pytest.mark.parametrize("argv,code", [
    (SMALL_ALL, 0),
    ((*SMALL_ALL, "--xmin", "3", "--xmax", "800"), 2),  # the PDE refuses
    ((*BOTH_REFUSE, "--method", "mc"), 2),  # the Monte Carlo refuses
    (BOTH_REFUSE, 2),
], ids=["passes", "pde-refuses", "mc-refuses", "both-refuse"])
def test_price_leaves_no_thread_running(capsys, argv, code):
    before = threading.active_count()
    assert main(list(argv)) == code
    assert threading.active_count() == before


def test_a_pde_refusal_wins_over_a_monte_carlo_refusal(capsys):
    assert main([*BOTH_REFUSE, "--method", "mc"]) == 2
    # S(T) overflows to inf, and the discount factor exp(-rT) underflows to 0
    assert capsys.readouterr().err.startswith("error: Monte Carlo estimate nan +- nan is not finite")
    assert main(list(BOTH_REFUSE)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid x_max = ") and err.count("\n") == 1


def test_a_pde_refusal_draws_no_normals(monkeypatch, capsys):
    # the PDE runs first, so its refusal ends the run before the Monte Carlo starts
    def price_pde(*args, **kwargs):
        raise ValueError("the PDE refuses")

    montecarlo._terminal_sample.cache_clear()
    counts = count_calls(monkeypatch, montecarlo.feynman_kac_estimate, montecarlo.standard_normals)
    monkeypatch.setattr(finance, "price_pde", price_pde)
    for payoff in ("call", "do-call"):
        assert main(["price", "--payoff", payoff, "--method", "all", "--paths", "200000"]) == 2
        assert capsys.readouterr().err == "error: the PDE refuses\n"
    assert counts == {"feynman_kac_estimate": 0, "standard_normals": 0}


def test_price_runs_both_pricers_on_the_calling_thread(monkeypatch, capsys):
    seen = {}
    for module, fn in ((finance, finance.price_pde), (montecarlo, montecarlo.feynman_kac_estimate)):
        def recorded(*args, _fn=fn, **kwargs):
            seen[_fn.__name__] = threading.current_thread(), np.geterr()["divide"]
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, fn.__name__, recorded)
    with np.errstate(divide="ignore"):
        assert main(list(SMALL_ALL)) == 0
    caller = (threading.current_thread(), "ignore")
    assert seen == {"price_pde": caller, "feynman_kac_estimate": caller}


NARROW_GRID = ("price", "--xmin", "4", "--xmax", "5.2", "--n", "201", "--steps", "50")
NARROW_WARNING = ("warning: grid [4, 5.2] narrower than ln K +- 6 sigma sqrt(T); "
                  "boundary data will bias the price\n")


@pytest.mark.parametrize("argv,count", [
    (("--method", "pde"), 1),
    (("--payoff", "do-call", "--method", "all", "--paths", "2000"), 1),
])
def test_warnings_reach_stderr_as_one_line_each(argv, count):
    res = run(*NARROW_GRID, *argv)
    assert res.returncode == 0, res.stderr
    assert res.stderr == NARROW_WARNING * count


@pytest.mark.parametrize("payoff", ["call", "do-call"])
def test_price_all_reports_the_pde_and_mc_prices(tmp_path, payoff):
    small = ("price", "--payoff", payoff, "--paths", "2000", "--n", "401", "--steps", "200")
    prices = {}
    for method in ("all", "pde", "mc"):
        out = tmp_path / f"{method}.json"
        assert main([*small, "--method", method, "--json", str(out)]) == 0
        prices[method] = json.loads(out.read_text())["parameters"]["prices"]
    assert prices["all"]["pde"] == prices["pde"]["pde"]
    assert prices["all"]["mc"] == prices["mc"]["mc"]


@pytest.mark.parametrize("payoff", ["call", "put", "do-call"])
@pytest.mark.parametrize("method", ["closed", "pde", "mc", "all"])
def test_every_numerical_price_is_gated_against_the_closed_form(tmp_path, capsys, method, payoff):
    # --method picks the numerical pricers; the closed form is always formed, and gates each of them
    out = tmp_path / "report.json"
    assert main([*SMALL_ALL, "--method", method, "--payoff", payoff, "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    pricers = {"closed": [], "pde": ["pde"], "mc": ["mc"], "all": ["pde", "mc"]}[method]
    assert list(doc["parameters"]["prices"]) == ["closed", *pricers]
    gates = {"pde": "pde_vs_closed", "mc": "mc_vs_closed_3se"}
    assert [c["name"] for c in doc["checks"]] == [gates[p] for p in pricers]


@pytest.mark.parametrize("argv,passed", [
    # the four paths end far below the strike: every payoff is 0, so the standard error is 0
    (("--paths", "4", "--strike", "300"), False),
    (("--sigma", "1e-17", "--paths", "1000", "--n", "401", "--steps", "200"), True),  # exact draws
], ids=["zero-payoffs", "zero-volatility"])
def test_mc_gate_is_floored_at_rounding(tmp_path, capsys, argv, passed):
    out = tmp_path / "report.json"
    assert main(["price", "--method", "all", *argv, "--json", str(out)]) != 2
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["mc_vs_closed_3se"]["tolerance"] > 0
    assert checks["mc_vs_closed_3se"]["pass"] is passed
