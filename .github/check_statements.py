"""Fail if Tier-1 leaves any statement of ``src/trustfed`` unexecuted.

Usage: ``python .github/check_statements.py [PYTEST_ARG ...]``, from the
repository root.

Runs the Tier-1 suite in this process under a stdlib line tracer
(``sys.settrace`` and ``threading.settrace``) and lists every statement of
the package's syntax tree that never ran.  Docstrings and the bodies of
``if __name__ == "__main__":`` blocks are left out: the first compile to no
code, the second runs only as a script.  A simple statement ran when any of
its lines did; a compound one when its header did (decorators up to the line
before its body), and a ``try`` also when its body's first statement did.
Exits 1 if the list is not empty or pytest's exit code is other than 0 or 1
(an interrupted run, a usage or internal error, no tests collected); code 1,
"some tests failed", is left to the JUnit check, which judges the tests.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trustfed"


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

    def global_trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        hits = executed.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local
        return local

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        verdict = pytest.main(["-q", "--continue-on-collection-errors", *argv])
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
    return 1 if missed or verdict not in (0, 1) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
