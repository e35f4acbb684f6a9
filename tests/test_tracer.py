"""The benchmark's tracer (``perfbench/layers.py``) still fits the package.

``install`` wraps qflab's functions and operator methods by name, so a rename
or a deleted name silently drops a span and zeroes its per-layer metrics.
One small command per subcommand runs traced in a child process, and every
span the metrics read must appear.
"""

import json
import subprocess
import sys

from conftest import SRC

PERFBENCH = SRC.parent / "perfbench"

COMMANDS = [
    ["verify-algebra", "--n", "41"],
    ["spectrum", "--n", "801", "--k", "2"],
    ["price", "--payoff", "do-call", "--method", "all", "--paths", "2000", "--n", "201",
     "--steps", "100"],
    ["identify", "--n", "41"],
    ["price", "--payoff", "call", "--method", "mc", "--paths", "2000"],
]

CHILD = """
import contextlib, io, json, sys
import layers
from qflab.cli import main

tracer = layers.Tracer()
layers.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
metrics = layers.layer_metrics(tracer.spans, tracer.linop_bytes)
print(json.dumps({"codes": codes, "spans": sorted({s.name for s in tracer.spans}),
                  "metrics": metrics}))
"""

SPANS = ("operators.LinOp.__matmul__", "susy.BlockOp.__matmul__", "finance.price_pde",
         "montecarlo.standard_normals", "susy.dirichlet_eigenvalues")


def test_tracer_records_every_span_its_metrics_read():
    res = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(COMMANDS)], capture_output=True, text=True,
        timeout=300, env={"PATH": "/usr/bin:/bin", "PYTHONPATH": f"{SRC}:{PERFBENCH}"},
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["codes"] == [0, 0, 0, 0, 0]
    assert set(SPANS) <= set(out["spans"]), sorted(set(SPANS) - set(out["spans"]))
    m = out["metrics"]
    assert m["operators.matmul_calls"] > 0
    assert m["finance.price_pde_calls"] == 1
    # the barrier's 1000 terminal draws, one a pair of its 2000 paths; the
    # call that follows reads the same cached sample
    assert m["montecarlo.draws"] == 1_000
    assert m["montecarlo.unique_draw_ratio"] == 1.0
