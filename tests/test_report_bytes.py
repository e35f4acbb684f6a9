"""Golden report bytes: one small ``--json`` run per CLI path, compared byte for byte.

Each command below runs in-process, and its JSON report must equal
``tests/data/<name>.json`` exactly, with exit code 0.  No command writes a
CSV or reads a ``table:`` file, so the reports hold no file path and their
bytes do not depend on where the checkout lives.

A change that alters a report on purpose states the diff and regenerates the
goldens from the changed code, from the root of the checkout:

    PYTHONPATH=src python tests/test_report_bytes.py

and commits the rewritten files under ``tests/data/`` in the same change.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from qflab.cli import main

DATA = Path(__file__).resolve().parent / "data"
SMALL_PRICE = ("--method", "all", "--paths", "2000", "--n", "401", "--steps", "200")
COMMANDS = {
    "verify_poly": ("verify-algebra", "--f", "poly:0,0,0.5", "--n", "201"),
    "spectrum": ("spectrum", "--w", "poly:0,1", "--k", "4", "--n", "801", "--xmin", "-8", "--xmax", "8"),
    "price_call": ("price", "--payoff", "call", *SMALL_PRICE),
    "price_do_call": ("price", "--payoff", "do-call", *SMALL_PRICE),
    "identify": ("identify",),
    "identify_h_ii": ("identify", "--sigma", "0.2", "--rate", "0.02"),
    "identify_bsg": ("identify", "--kind", "bsg", "--sigma", "0.3", "--rate", "0", "--v", "poly:0.05,0.01"),
    "identify_bsb": ("identify", "--kind", "bsb", "--v", "poly:0.05,0.01"),
    "price_put_closed": ("price", "--payoff", "put", "--method", "closed"),
    "price_forward": ("price", "--method", "closed", "--sigma", "1e-13", "--strike", "90"),
}


def report_bytes(argv, out: Path) -> tuple[int, bytes]:
    """Exit code and JSON report bytes of one in-process run."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--json", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_bytes_match_golden(tmp_path, name):
    code, got = report_bytes(COMMANDS[name], tmp_path / "report.json")
    assert code == 0
    assert got == (DATA / f"{name}.json").read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS.items():
            code, got = report_bytes(argv, Path(tmp) / "report.json")
            if code != 0:
                sys.exit(f"{name}: exit code {code}, golden not written")
            (DATA / f"{name}.json").write_bytes(got)
            print(f"wrote {DATA / name}.json")
