"""The package imports the standard library and itself, nothing else."""

import ast
import dataclasses
import sys
from pathlib import Path

import ramify
from ramify.binomials import BinomialContext

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


def _users(name, calls=False):
    """(module, function) of each use of ``name`` in the package, as a variable or an
    attribute; with ``calls``, each use must be a call."""
    users = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if name in (getattr(node, "id", None), getattr(node, "attr", None)):
                fn = parents[node]
                assert not calls or isinstance(fn, ast.Call) and fn.func is node, (
                    path.name, node.lineno)
                while fn is not None and not isinstance(fn, ast.FunctionDef):
                    fn = parents.get(fn)
                assert fn is not None, (path.name, node.lineno)
                users.add((path.stem, fn.name))
    return users


def _callers(name):
    """(module, function) of each call of ``name`` in the package, which only calls it."""
    return _users(name, calls=True)


def test_every_verdict_reaches_the_engine_through_violations():
    # one closed-form evaluation decides every validity report and every
    # search verdict: ``violations``, and the hull search's candidate columns,
    # which only the hull search asks for
    assert _callers("_found") == {("validity", "violations"), ("validity", "passing_column")}
    assert _callers("passing_column") == {("enumeration", "search")}
    # only ``polygons.least_ordinates`` rounds a polygon's value at a p-power,
    # for the checks, the depth bounds, the point records and the fine
    # search's lattice candidates; the exact ``value_at`` has no caller here
    assert _callers("least_ordinates") == {
        ("validity", "_found"),
        ("templates", "template_for_polygon"),
        ("templates", "_fine_plan"),
        ("serialize", "_point_specs"),
        ("enumeration", "enumerate_fine_polygons"),
    }
    assert _callers("value_at") == set()
    # one helper lists a polygon's wild positions (s, p^s, J)
    assert _callers("wild_positions") == {("polygons", "wild_vertices"), ("polygons", "wild_points")}


def _attribute_sites(name):
    """(module, enclosing functions outer to inner, receiver) of each ``receiver.name``."""
    sites = set()

    def visit(node, module, chain):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == name:
                sites.add((module, chain, ast.unparse(child.value)))
            inner = chain + (child.name,) if isinstance(child, ast.FunctionDef) else chain
            visit(child, module, inner)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), str(path)), path.stem, ())
    return sites


def test_each_degree_table_has_one_route_and_each_proof_one_writer():
    # one table of a degree's binomial valuations: only ``binomials`` takes
    # the difference of factorial valuations, in ``vp_binomial`` and, over one
    # list per degree, in ``valuation_table``, and the table's readers are the
    # checks, the depth bounds and the analyzer's rows
    assert _callers("vp_factorial") == {
        ("binomials", "vp_binomial"), ("binomials", "valuation_table")
    }
    readers = {module for module, _ in _callers("valuation_table")}
    assert readers == {"validity", "templates", "analyzer"}
    # a context holds only its base field and no module reads a memo: a hull
    # carries its own proof, which only the hull search's leaves write
    assert _users("memo") == set()
    assert [field.name for field in dataclasses.fields(BinomialContext)] == ["base"]
    assert {site for site in _attribute_sites("_built") if site[2] == "RamPolygon"} == {
        ("enumeration", ("enumerate_ram_polygons", "search"), "RamPolygon")
    }
    assert {site[2] for site in _attribute_sites("_built")} == {"RamPolygon", "FinePolygon"}


def test_only_the_polygon_plan_computes_a_binomial_residue():
    # one home for the residue relation: the analyzer, the residue system and
    # search, and the templates read beta(b, x) off a plan step, so only
    # ``polygons.polygon_plan`` calls ``binomials.beta``
    assert _callers("beta") == {("polygons", "polygon_plan")}
