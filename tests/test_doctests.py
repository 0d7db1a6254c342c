import doctest

import pytest

import kcrystals.crystal
import kcrystals.keys
import kcrystals.permutations
import kcrystals.tableaux


@pytest.mark.parametrize(
    "module",
    [kcrystals.permutations, kcrystals.crystal, kcrystals.keys, kcrystals.tableaux],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
