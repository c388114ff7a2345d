"""The package runs on numpy and the standard library alone (ROADMAP)."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trustfed"


def import_roots(path):
    """``(line, root)`` for each absolute import in the file, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"numpy"}
    assert [(line, root) for line, root in import_roots(path) if root not in allowed] == []


def test_function_level_imports_are_seen():
    assert "concurrent" in {root for _, root in import_roots(PACKAGE / "planner.py")}
