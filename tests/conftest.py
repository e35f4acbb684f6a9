"""Shared test helpers: the command line in a child process, and dense references.

:func:`run_cli` starts the command line in a child process.  The child runs
``python -m qflab.cli`` on this checkout's ``src/``: its ``PYTHONPATH`` starts
with that directory, so the code under test is imported even where qflab is
not installed, or where an older copy is.  The rest of the environment stays
minimal, so colouring and report bytes do not depend on the caller's shell.

:func:`from_dense`, :func:`toarray` and :func:`to_matrix` convert between the
package's banded operators and dense numpy matrices, so that tests can check
the band algebra against plain dense algebra.

:func:`both_ground_states` is the one place the tests form H~'s ground state
as the dual H of -f.

Every test starts with empty terminal-sample and unit-strike curve caches, so
that no result, draw count or solve count depends on which test ran before it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qflab import finance, montecarlo
from qflab.operators import LinOp
from qflab.susy import ground_states, supercharges_4x4

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def empty_caches():
    montecarlo._terminal_sample.cache_clear()
    finance._unit_curve.cache_clear()


def run_cli(*args, timeout=300):
    """Run the CLI with ``args``; fail outright if the child cannot import qflab.

    A missing package would otherwise show up as exit code 1, which is also
    the CLI's "a check failed" code.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "qflab.cli", *args], capture_output=True, text=True,
        timeout=timeout, env={"PATH": "/usr/bin:/bin", "NO_COLOR": "1", "PYTHONPATH": path},
    )
    if "No module named 'qflab'" in res.stderr:
        pytest.fail(f"the child could not import qflab from {SRC}: "
                    f"{res.stderr.strip().splitlines()[-1]}", pytrace=False)
    return res


def from_dense(matrix, g):
    """Band storage of a dense square matrix: every diagonal holding a nonzero."""
    m = np.asarray(matrix, dtype=np.complex128)
    assert m.shape == (g.n, g.n), (m.shape, g.n)
    offsets = [o for o in range(1 - g.n, g.n) if np.any(np.diagonal(m, o))]
    data = np.zeros((len(offsets), g.n), dtype=np.complex128)
    for row, o in zip(data, offsets):
        row[max(o, 0) : max(o, 0) + g.n - abs(o)] = np.diagonal(m, o)
    return LinOp(data, tuple(offsets), g)


def toarray(op) -> np.ndarray:
    """Dense n x n export of a ``LinOp``: diagonal o holds ``entries[k, j]`` at column j."""
    dense = np.zeros((op.n, op.n), dtype=np.complex128)
    for o, band in zip(op.offsets, op.entries):
        dense += np.diag(band[max(o, 0) : op.n + min(o, 0)], o)
    return dense


def to_matrix(q) -> np.ndarray:
    """Dense (4 n) x (4 n) export of a ``BlockOp``; an absent block is zero."""
    z = np.zeros((q.n, q.n), dtype=np.complex128)
    return np.block([[toarray(q.blocks[i, j]) if (i, j) in q.blocks else z for j in range(4)]
                     for i in range(4)])


def both_ground_states(g, f, alpha, beta):
    """The reports of H = {Q1, Q2} and of H~ = {Q3, Q4} of f, H~'s as the dual H of -f."""
    q1, q2, q3, q4 = supercharges_4x4(g, f, alpha, beta)
    return ground_states(f, q1, q2), ground_states(-f, q3, q4)
