import json
import subprocess
import sys

import numpy as np
import pytest
from conftest import SRC, run_cli as run

from qflab import finance, hamiltonians, montecarlo, operators
from qflab.cli import main


def test_usage_errors_exit_2():
    assert run().returncode == 2
    assert run("price", "--method", "bogus").returncode == 2
    assert run("verify-algebra", "--f", "spline:1").returncode == 2
    assert run("verify-algebra", "--n", "2").returncode == 2


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


def test_price_closed_rejects_barrier():
    res = run("price", "--payoff", "do-call", "--method", "closed")
    assert res.returncode == 2
    assert res.stderr == "error: no closed form for barrier contracts\n"


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


SMALL_BARRIER = ("price", "--payoff", "do-call", "--barrier", "80", "--method", "all",
                 "--paths", "2000", "--n", "201", "--steps", "100")


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


def test_barrier_price_draws_once_and_solves_two_pdes(monkeypatch):
    counts = count_calls(monkeypatch, montecarlo.knockout_terminal, finance.price_pde)
    assert main(list(SMALL_BARRIER)) == 0
    assert counts == {"knockout_terminal": 1, "price_pde": 2}


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
@pytest.mark.parametrize("flag,message", [(("--paths", "1"), "error: paths must be >= 2"),
                                          (("--seed", "-1"), "error: seed must be in [0, 2**64)")],
                         ids=["paths", "seed"])
def test_price_all_refuses_paths_and_seed_before_the_pde(monkeypatch, capsys, payoff, flag, message):
    counts = count_calls(monkeypatch, finance.price_pde)
    assert main(["price", "--payoff", payoff, "--method", "all", "--n", "101", "--steps", "50", *flag]) == 2
    assert counts == {"price_pde": 0}
    assert capsys.readouterr().err.startswith(message)


NARROW_GRID = ("price", "--xmin", "4", "--xmax", "5.2", "--n", "201", "--steps", "50")
NARROW_WARNING = ("warning: grid [4, 5.2] narrower than ln K +- 6 sigma sqrt(T); "
                  "boundary data will bias the price\n")


@pytest.mark.parametrize("argv,count", [
    (("--method", "pde"), 1),
    (("--payoff", "do-call", "--method", "all", "--paths", "2000"), 2),  # two PDE solves
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


@pytest.mark.parametrize("argv,passed", [
    (("--paths", "3"), False),  # every payoff is 0, so the standard error is 0
    (("--sigma", "1e-17", "--paths", "1000", "--n", "401", "--steps", "200"), True),  # exact draws
], ids=["zero-payoffs", "zero-volatility"])
def test_mc_gate_is_floored_at_rounding(tmp_path, capsys, argv, passed):
    out = tmp_path / "report.json"
    assert main(["price", "--method", "all", *argv, "--json", str(out)]) != 2
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["mc_vs_closed_3se"]["tolerance"] > 0
    assert checks["mc_vs_closed_3se"]["pass"] is passed
