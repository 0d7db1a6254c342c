import doctest
import importlib
import pkgutil

import pytest

import kcrystals

MODULES = [importlib.import_module(f"kcrystals.{info.name}") for info in pkgutil.iter_modules(kcrystals.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
