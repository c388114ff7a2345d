"""Fail unless Tier-1 fails only the expected tests and runs every statement of ``src/trustfed``.

Usage: ``python .github/check_statements.py [PYTEST_ARG ...]``, from the
repository root.

Runs the Tier-1 suite in this process under a stdlib line tracer
(``sys.settrace`` and ``threading.settrace``) and lists every statement of
the package's syntax tree that never ran.  Docstrings and the bodies of
``if __name__ == "__main__":`` blocks are left out: the first compile to no
code, the second runs only as a script.  A simple statement ran when any of
its lines did; a compound one when its header did (decorators up to the line
before its body), and a ``try`` also when its body's first statement did.
A small plugin also notes each test that fails or errors in any phase, each
collection error and each skipped test (xfail included), by the last ``::``
part of its node id.  Exits 0 only if no statement went unrun, pytest's exit
code is 0 or 1 (not an interrupted run, a usage or internal error, or no tests
collected), the failing tests are exactly ``EXPECTED_FAILURES`` and none was
skipped: a suite can neither grow a new red test, nor turn an expected
failure green, nor hide a test behind a skip.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trustfed"
# Acceptance criterion 1b is red by design: see ROADMAP.md, "Tier-1 verify".
EXPECTED_FAILURES = {"test_expected_V_suggests_fifteen"}


class _Outcomes:
    """The names of the tests that fail or error, and of those skipped."""

    def __init__(self):
        self.failing, self.skipped = set(), set()

    def pytest_runtest_logreport(self, report):
        name = report.nodeid.split("::")[-1]
        if report.failed:
            self.failing.add(name)
        elif report.skipped:
            self.skipped.add(name)

    pytest_collectreport = pytest_runtest_logreport


def _is_docstring(node, parent) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _is_main_guard(node) -> bool:
    test = getattr(node, "test", None)
    return (isinstance(node, ast.If) and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__"
            and any(isinstance(c, ast.Constant) and c.value == "__main__" for c in test.comparators))


def _lines(node):
    """The lines whose execution counts as running ``node``."""
    body = getattr(node, "body", None)
    if not body:
        return range(node.lineno, node.end_lineno + 1)
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    header = range(first, max(first + 1, body[0].lineno))
    if isinstance(node, ast.Try):
        return [*header, *_lines(body[0])]
    return header


def statements(path):
    """Each statement of the file at ``path`` that should run."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(parent):
        for field in ("body", "orelse", "finalbody", "handlers"):
            for node in getattr(parent, field, ()):
                if isinstance(node, ast.ExceptHandler):
                    visit(node)
                    continue
                if _is_docstring(node, parent):
                    continue
                found.append(node)
                if not _is_main_guard(node):
                    visit(node)

    visit(tree)
    return found


def main(argv) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + "/"
    executed = {}   # file path -> lines that ran
    # file path -> its line tracer.  A tracer returns itself, a reference
    # cycle, so one made per call would leave garbage on every traced call
    # until the collector runs, and the suite's tracemalloc peaks would count it.
    tracers = {}

    def global_trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        local = tracers.get(path)
        if local is None:
            hits = executed.setdefault(path, set())

            def local(frame, event, arg):
                if event == "line":
                    hits.add(frame.f_lineno)
                return local
            local = tracers.setdefault(path, local)
        return local

    outcomes = _Outcomes()
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        verdict = pytest.main(["-q", "--continue-on-collection-errors", *argv], plugins=[outcomes])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    for path in sorted(PACKAGE.rglob("*.py")):
        hits = executed.get(str(path), set())
        source = path.read_text().splitlines()
        for node in statements(path):
            if not hits.intersection(_lines(node)):
                where = path.relative_to(ROOT)
                missed.append(f"{where}:{node.lineno}: {type(node).__name__}: {source[node.lineno - 1].strip()}")
    print(f"pytest exit code {int(verdict)}")
    print(f"{len(missed)} statement(s) of {PACKAGE.relative_to(ROOT)} never ran")
    for line in missed:
        print(line)
    print(f"failing: {sorted(outcomes.failing)}")
    print(f"expected: {sorted(EXPECTED_FAILURES)}")
    if outcomes.skipped:
        print(f"skipped: {sorted(outcomes.skipped)}")
    ok = not missed and verdict in (0, 1) and outcomes.failing == EXPECTED_FAILURES and not outcomes.skipped
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
