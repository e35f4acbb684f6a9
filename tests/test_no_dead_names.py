"""Every name ``src/qflab`` defines is used somewhere in ``src/qflab``.

A top-level function, class or upper-case constant, or a method other than a
dunder, whose only occurrence in the package is its own definition is carried
for the tests alone.  Such code belongs in the tests (see ``conftest.py``'s
dense references), or nowhere.  Occurrences are matched by name: a top-level
name counts as used when it is read as a variable, an attribute or an import,
and a method only when an attribute of its name is read anywhere in the
package, so a local variable that shares a method's name does not keep it.
"""

import ast

from conftest import SRC

PACKAGE = SRC / "qflab"
# a library check that no subcommand runs yet, and the verdict of its report;
# the verify-algebra real-spectrum checks are meant to call it, or both go
ALLOWED = {"susy.real_spectrum_check", "susy.RealSpectrumReport.passed"}


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
    assert [where for where in unused if where not in ALLOWED] == []
