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
