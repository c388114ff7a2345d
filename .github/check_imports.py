"""Fail if any Python file imports a name it never uses.

Usage: ``python .github/check_imports.py PATH [PATH ...]``

Each path is a file or a directory searched for ``*.py`` files.  A name
counts as used when any expression in the same file reads it, wherever the
import sits, or when the file's ``__all__`` lists it (a re-export).
``import a.b`` binds ``a``; ``__future__`` imports and ``*`` are skipped.
"""

import ast
import sys
from pathlib import Path


def unused_imports(path):
    """``(lineno, name)`` of each import in the file at ``path`` that nothing uses."""
    tree = ast.parse(Path(path).read_text(), filename=str(path))
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(lineno, name) for lineno, name in imported if name not in used]


def main(argv):
    files = []
    for arg in argv:
        root = Path(arg)
        files += sorted(root.rglob("*.py")) if root.is_dir() else [root]
    found = 0
    for path in files:
        for lineno, name in unused_imports(path):
            print(f"{path}:{lineno}: unused import {name!r}")
            found += 1
    print(f"{found} unused import(s) in {len(files)} files")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
