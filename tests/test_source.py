"""Invariants of the library source: its invariants are real exceptions,
which survive python -O, the package exports functions and classes, not
its submodules, and its module caches are a known set."""

import ast
import functools
import importlib
from pathlib import Path
from types import ModuleType

import kcrystals
from kcrystals import crystal, kohnert, permutations, skyline, tableaux

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


def test_the_module_caches_are_the_nine_known_ones():
    """The distinct lru_cache objects reachable from the package's modules,
    by identity, so that a new cache is a deliberate edit here."""
    modules = [importlib.import_module(f"kcrystals.{path.stem}") for path in SOURCES if path.stem != "__init__"]
    found = {
        id(value): value.__qualname__
        for module in [kcrystals, *modules]
        for value in vars(module).values()
        if isinstance(value, functools._lru_cache_wrapper)
    }
    expected = [
        crystal.crystal_table,
        kohnert.kohnert_graph,
        kohnert._cells,
        kohnert._phi_row,
        skyline.skyline_table,
        tableaux._enumerate_svt,
        permutations._reduced_words,
        permutations._bruhat_ideal,
        permutations._coset_reps,
    ]
    assert found == {id(cache): cache.__qualname__ for cache in expected}
