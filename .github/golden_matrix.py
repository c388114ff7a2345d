"""Print the golden matrix's results, one line per case, for comparing hosts.

Usage: ``PYTHONPATH=src python .github/golden_matrix.py > out.txt``

The first line is the host class (``tests/test_golden.py``'s ``host_class``);
each case's line holds its name, its final-model digest, the SHA-256 of its
per-round metric bits and the SHA-256 of its contract event log.  Two fresh
runs on one host must print the same bytes, whatever its class, so CI compares
two runs with ``cmp`` on a host class the fixtures were not recorded on.
The module is imported, never run as ``__main__``, which would re-record the
fixtures.
"""

import hashlib
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_golden import CASES, events_digest, host_class, observe


def main():
    print(f"host {host_class()}")
    for name in sorted(CASES):
        seen = observe(CASES[name])
        rounds = hashlib.sha256("\n".join(seen["rounds"]).encode()).hexdigest()
        print(name, seen["model"], rounds, events_digest(CASES[name]))


if __name__ == "__main__":
    main()
