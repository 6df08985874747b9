"""The package imports the standard library and itself, nothing else."""

import ast
import sys
from pathlib import Path

import ramify

SOURCES = sorted(Path(ramify.__file__).parent.glob("*.py"))


def test_package_imports_only_the_standard_library_and_itself():
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            elif isinstance(node, ast.ImportFrom):
                # one dot: a sibling module of ramify, never above the package
                assert node.level == 1, (path.name, node.lineno)
                continue
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names, (path.name, node.lineno, root)


def test_no_module_reaches_for_a_private_name_of_a_sibling():
    # each rule has one owner: a helper another module needs is public there,
    # so a _private name never crosses a module boundary, by import or by
    # attribute of an imported sibling
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [alias.name for alias in node.names]
                assert not [name for name in names if name.startswith("_")], (
                    path.name, node.lineno, names
                )
                if node.module is None:
                    siblings.update(alias.asname or alias.name for alias in node.names)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
            ):
                assert not node.attr.startswith("_"), (path.name, node.lineno, node.attr)


def _callers(name):
    """(module, function) of each call of ``name`` in the package, which only calls it."""
    users = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if name in (getattr(node, "id", None), getattr(node, "attr", None)):
                call = parents[node]
                assert isinstance(call, ast.Call) and call.func is node, (path.name, node.lineno)
                fn = call
                while fn is not None and not isinstance(fn, ast.FunctionDef):
                    fn = parents.get(fn)
                assert fn is not None, (path.name, node.lineno)
                users.add((path.stem, fn.name))
    return users


def test_every_verdict_reaches_the_engine_through_violations():
    # one route to every validity verdict and report: in the package only
    # ``validity.violations`` and the pair check it memoises name the engine,
    # and only to call it
    assert _callers("_condition_violations") == {
        ("validity", "violations"), ("validity", "_weak_violations")
    }


def test_only_the_polygon_plan_computes_a_binomial_residue():
    # one home for the residue relation: the analyzer, the residue system and
    # search, and the templates read beta(b, x) off a plan step, so only
    # ``polygons.polygon_plan`` calls ``binomials.beta``
    assert _callers("beta") == {("polygons", "polygon_plan")}
