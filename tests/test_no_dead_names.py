"""Every name and every parameter ``src/qflab`` defines is used in ``src/qflab``.

A top-level function, class or upper-case constant, or a method other than a
dunder, whose only occurrence in the package is its own definition is carried
for the tests alone.  Such code belongs in the tests (see ``conftest.py``'s
dense references), or nowhere.  Occurrences are matched by name: a top-level
name counts as used when it is read as a variable, an attribute or an import,
and a method only when an attribute of its name is read anywhere in the
package, so a local variable that shares a method's name does not keep it.

The same holds one level down.  For each function the package calls by name
(``f(...)`` or ``x.f(...)``), a parameter that no call in the package passes
is settable by the tests alone, and a default that every call overrides
restates its callers.  Callbacks that the package only references, such as
the ``cmd_*`` subcommands and ``_show_warning``, have no call to read and are
not scanned.
"""

import ast

from conftest import SRC

PACKAGE = SRC / "qflab"
ALLOWED_PARAMETERS = {
    # no src call passes it, since every stream is drawn whole, but
    # perfbench/layers.py binds every standard_normals call and keys its
    # unique-draw count by call["start"]
    "montecarlo.standard_normals.start",
    # no src call passes it either, since every sample is stream 0, but
    # perfbench/layers.py binds it too and keys its unique draws by (seed, stream)
    "montecarlo.standard_normals.stream",
    # the console script ``qflab = qflab.cli:main`` calls main() without
    # arguments; argparse then reads sys.argv
    "cli.main.argv",
}


def defined_and_unused(trees) -> tuple[dict[str, str], list[str]]:
    """({name: "<module>.<qualified name>"} of the definitions, the sorted unused ones)."""
    defined, methods, names, attributes = {}, set(), set(), set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = f"{module}.{node.name}"
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name) and t.id.isupper():
                        defined[t.id] = f"{module}.{t.id}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        defined[item.name] = f"{module}.{node.name}.{item.name}"
                        methods.add(item.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    unused = sorted(where for name, where in defined.items()
                    if name not in attributes and (name in methods or name not in names))
    return defined, unused


def test_every_name_in_src_has_a_caller_in_src():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    defined, unused = defined_and_unused(trees)
    assert len(defined) > 50  # the scan sees the package
    assert unused == []


def _signatures(trees) -> dict[str, list[tuple[str, list[str], set[str]]]]:
    """{name: [("<module>.<qualified name>", parameters, those with a default)]} of every def.

    A leading ``self`` or ``cls`` is dropped: calls by attribute bind it.
    """
    found: dict[str, list] = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                where = f"{prefix}.{node.name}"
                if isinstance(node, ast.FunctionDef):
                    a = node.args
                    positional = [x.arg for x in a.posonlyargs + a.args]
                    defaults = set(positional[len(positional) - len(a.defaults):])
                    defaults |= {k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
                    if positional[:1] in (["self"], ["cls"]):
                        positional = positional[1:]
                    params = positional + [k.arg for k in a.kwonlyargs]
                    found.setdefault(node.name, []).append((where, params, defaults))
                visit(node.body, where)

    for module, tree in trees.items():
        visit(tree.body, module)
    return found


def unpassed_parameters(trees) -> list[str]:
    """Sorted "<def>.<parameter>: <why>" for parameters no call passes and defaults no call uses."""
    signatures = _signatures(trees)
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in signatures:
                    calls.setdefault(name, []).append(node)
    flagged = []
    for name, nodes in calls.items():
        for where, params, defaults in signatures[name]:
            passed, omitted = set(), set()
            for call in nodes:
                if any(isinstance(a, ast.Starred) for a in call.args) or any(
                        k.arg is None for k in call.keywords):
                    passed |= set(params)  # *args or **kwargs: assume every parameter
                    continue
                given = set(params[: len(call.args)]) | {k.arg for k in call.keywords}
                passed |= given
                omitted |= set(params) - given
            flagged += [f"{where}.{p}: no call passes it" for p in params if p not in passed]
            flagged += [f"{where}.{p}: every call overrides its default"
                        for p in sorted(defaults & passed - omitted)]
    return sorted(flagged)


def test_every_parameter_in_src_is_passed_and_every_default_used():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    assert len(_signatures(trees)) > 50  # the scan sees the package
    assert [f for f in unpassed_parameters(trees) if f.split(":")[0] not in ALLOWED_PARAMETERS] == []


def test_the_parameter_scan_flags_a_test_only_parameter_and_a_restated_default():
    tree = ast.parse(
        "def f(a, b=1, c=2):\n    pass\n"
        "def g(x, y=0):\n    f(x, c=3)\n"
        "g(1, 2)\n"
        "g(1)\n"
    )
    assert unpassed_parameters({"m": tree}) == [
        "m.f.b: no call passes it",
        "m.f.c: every call overrides its default",
    ]
