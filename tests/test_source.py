"""Library invariants must be real exceptions, which survive python -O."""

import ast
from pathlib import Path

import kcrystals

SOURCES = sorted(Path(kcrystals.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_library():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
