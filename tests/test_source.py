"""Rules on the package source itself."""
from __future__ import annotations

import ast
from pathlib import Path

import invbases

SRC = Path(invbases.__file__).resolve().parent


def assert_statements(source: str, filename: str) -> list[str]:
    """`file:line` of every `assert` statement in the source."""
    tree = ast.parse(source, filename=filename)
    return ["%s:%d" % (filename, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Assert)]


def test_no_assert_statements_in_the_package():
    # `python -O` drops `assert` statements, so a check written as one would
    # silently stop checking; invariant checks raise explicitly instead.
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [hit for path in files for hit in assert_statements(path.read_text(), path.name)]
    assert found == []


def test_the_scan_finds_asserts():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n"
    assert assert_statements(source, "sample.py") == ["sample.py:3"]
