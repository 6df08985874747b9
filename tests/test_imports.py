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
