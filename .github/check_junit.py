"""Fail unless a pytest JUnit XML report fails exactly the expected tests.

Usage: ``python .github/check_junit.py report.xml NAME [NAME ...]``

A test counts as failing when its ``<testcase>`` holds a ``<failure>`` or an
``<error>``; collection errors appear as such test cases too.  Any skipped
test also fails the check, so a suite can neither grow a new red test, nor
turn an expected failure green, nor hide a test behind a skip.
"""

import sys
import xml.etree.ElementTree as ET


def main(argv):
    report, expected = argv[0], set(argv[1:])
    failing, skipped = set(), set()
    for case in ET.parse(report).getroot().iter("testcase"):
        name = case.get("name")
        if case.find("failure") is not None or case.find("error") is not None:
            failing.add(name)
        if case.find("skipped") is not None:
            skipped.add(name)
    ok = failing == expected and not skipped
    print(f"failing: {sorted(failing)}")
    print(f"expected: {sorted(expected)}")
    if skipped:
        print(f"skipped: {sorted(skipped)}")
    print("OK" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
