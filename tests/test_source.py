"""Invariants of the library source: its invariants are real exceptions,
which survive python -O, and the package exports functions and classes,
not its submodules."""

import ast
from pathlib import Path
from types import ModuleType

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


def test_the_package_exports_no_module():
    assert [name for name in kcrystals.__all__ if isinstance(getattr(kcrystals, name), ModuleType)] == []
    assert all(hasattr(kcrystals, name) for name in kcrystals.__all__)
