"""Every qflab name the benchmark's tracer (``perfbench/layers.py``) reads resolves, but the stale ones.

``layers.install`` wraps qflab's functions and operator methods by name, and
``layers.layer_metrics`` sums spans by name, so a deleted or renamed function
leaves a name that matches no span and reads 0, silently.  ``STALE`` pins the
names that match nothing today; deleting a name perfbench reads shows up as a
change to it.
"""

import ast
import importlib
import sys

from conftest import SRC

PERFBENCH = SRC.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))  # perfbench's modules import each other by bare name

import layers  # noqa: E402

STALE = {
    "grid.derivative_matrices",  # moved to operators; the grid.* metrics read 0
    "hamiltonians.build_h1",
    "hamiltonians.build_h2",
    "hamiltonians.build_h3",
    "hamiltonians.build_h4",
    "montecarlo.knockout_terminal",  # the knock-out walk; the barrier reads the terminal sample
    "montecarlo.raw_uint64",
    "operators.adjoint",
    "susy.real_spectrum_check",
    "susy.supercharge_2x2",
    "susy.superhamiltonian_2x2",
}


def span_names() -> set[str]:
    """The qflab span names of the upper-case constants and of every ``inclusive({...})`` literal."""
    names = set()
    for key, value in vars(layers).items():
        if key.isupper() and isinstance(value, (str, set, frozenset)):
            names |= {value} if isinstance(value, str) else set(value)
    for node in ast.walk(ast.parse((PERFBENCH / "layers.py").read_text())):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "inclusive"
                and isinstance(node.args[0], ast.Set)):
            names |= {e.value for e in node.args[0].elts if isinstance(e, ast.Constant)}
    return {n for n in names if n.split(".")[0] in layers.LAYERS}


def resolves(name: str) -> bool:
    layer, *path = name.split(".")
    obj = importlib.import_module(f"qflab.{layer}")
    for part in path:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return callable(obj)


def test_every_span_name_resolves_but_the_stale_ones():
    names = span_names()
    assert {"susy.ground_states", "susy.supercharges_4x4", "finance.price_pde"} <= names
    assert {n for n in names if not resolves(n)} == STALE


def test_the_wrapped_methods_are_in_their_class_dicts():
    from qflab.operators import LinOp
    from qflab.susy import BlockOp

    for cls, methods in ((LinOp, layers.LINOP_METHODS), (BlockOp, layers.BLOCKOP_METHODS)):
        assert [m for m in methods if m not in cls.__dict__] == [], cls.__name__
