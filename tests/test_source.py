"""Rules that keep exit code 3 meaning "a cross-check failed".

cli.main turns InternalMismatch into exit 3 and lets every other
AssertionError escape as a traceback, and python -O strips assert
statements.  So library code raises InternalMismatch for a failed
cross-check, and only errors.py names AssertionError, as its base class.
"""

import ast
import pathlib

import gentlekit

SOURCES = sorted(pathlib.Path(gentlekit.__file__).parent.glob("*.py"))


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_assert_statements_or_bare_assertion_errors():
    assert len(SOURCES) >= 10
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d assert" % (path.name, node.lineno))
            elif (isinstance(node, ast.Raise) and node.exc is not None
                    and _raised_name(node) == "AssertionError"
                    and path.name != "errors.py"):
                found.append("%s:%d raise AssertionError"
                             % (path.name, node.lineno))
    assert found == []
