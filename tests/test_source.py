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


def test_no_nested_function_of_the_library_names_itself():
    """A nested function that names itself is a reference cycle through its
    closure cell, which keeps what the function reads (a table, the list it
    fills) alive until a full collection: recursion is by a module-level
    function or a method."""
    found = set()
    for path in SOURCES:
        for outer in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if any(isinstance(node, ast.Name) and node.id == inner.name for node in ast.walk(inner)):
                        found.add(f"{path.name}:{inner.lineno} {inner.name}")
    assert sorted(found) == []


def test_every_public_name_has_a_reader_outside_the_tests():
    """A public module-level function or class is read by some library
    module (an AST name, attribute or import; docstrings do not count), is
    exported by the package, or is a name the benchmark tracer wraps: a name
    that only tests read belongs in tests/oracles.py."""
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    read = {node.id for node in nodes if isinstance(node, ast.Name)}
    read |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    imports = [node for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))]
    read |= {alias.name.rpartition(".")[2] for node in imports for alias in node.names}
    tracer = ast.parse((Path(__file__).parents[1] / "benchmarks" / "tracer.py").read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tracer.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    )
    read |= {part for pairs in targets.values() for _, attribute in pairs for part in attribute.split(".")}
    read |= set(kcrystals.__all__)
    unread = [
        f"{path.stem}.{node.name}"
        for path, tree in zip(SOURCES, trees)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in read
    ]
    assert unread == []
