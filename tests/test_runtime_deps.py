"""The package runs on numpy and the standard library alone (ROADMAP)."""

import ast
import os
import subprocess
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


def package_imports(path):
    """The trustfed module each relative import in the file names, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_the_verifier_side_imports_only_errors_and_the_ledger():
    # The by-class summary lives with its filter, so verifying needs no nn.
    assert set(package_imports(PACKAGE / "defense.py")) == {"errors", "ledger"}


def test_function_level_imports_are_seen():
    assert "threading" in {root for _, root in import_roots(PACKAGE / "planner.py")}


def test_a_run_and_both_plans_import_no_exact_arithmetic(tmp_path):
    # pytest's own process has imported fractions already (hypothesis uses
    # it), so the check runs in a fresh interpreter.
    script = (
        "import sys\n"
        "from trustfed import harness, planner\n"
        "res = harness.run(harness.SimConfig(attack='pgd', attacker_ratio=0.25, rounds=2,\n"
        "    n_clients=12, queue_size=4, verify_set_size=4, n_verifiers=3, verify_subset_size=3,\n"
        "    per_client_size=60, test_size=200, warm_start_size=400, warm_start_epochs=20))\n"
        f"harness.emit(res, {str(tmp_path / 'out')!r})\n"
        "planner.coverage_report(6, v=3, trials=50)\n"
        "planner.coverage_report(6, subset_size=2, trials=50)\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.splitlines()[-1] == "[]"


def test_a_plan_imports_no_executor_or_logging():
    # pytest's own process has imported both already, so the check runs in a
    # fresh interpreter.
    script = (
        "import sys\n"
        "from trustfed import planner\n"
        "planner.coverage_report(6, v=3, trials=50)\n"
        "print(sorted({'concurrent', 'logging'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.splitlines()[-1] == "[]"
