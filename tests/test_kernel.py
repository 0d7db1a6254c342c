"""
Differential tests of the crystal kernel against the reference
implementations in oracles.py, over every tableau of every shape with at
most 4 cells at n <= 4 and every rectangle up to 2x2 at n = 5.
"""

import pytest

from kcrystals.crystal import crystal_e, crystal_f, kcrystal_e, kcrystal_f, signature
from kcrystals.keys import lusztig_star
from kcrystals.tableaux import SetValuedTableau, enumerate_svt
from oracles import (
    reference_crystal_e,
    reference_crystal_f,
    reference_kcrystal_e,
    reference_kcrystal_f,
    reference_lusztig_star,
    reference_signature,
)


def _shapes(max_cells, max_rows):
    def rec(prefix, remaining, cap):
        for part in range(min(cap, remaining), 0, -1):
            shape = prefix + (part,)
            if len(shape) <= max_rows:
                yield shape
                yield from rec(shape, remaining - part, part)

    return sorted(set(rec((), max_cells, max_cells)))


CASES = [(n, shape) for n in range(1, 5) for shape in _shapes(4, n)] + [
    (5, shape) for shape in ((1,), (2,), (1, 1), (2, 2))
]

OPERATORS = [
    (crystal_e, reference_crystal_e),
    (crystal_f, reference_crystal_f),
    (kcrystal_e, reference_kcrystal_e),
    (kcrystal_f, reference_kcrystal_f),
]


@pytest.mark.parametrize("n,shape", CASES, ids=str)
def test_operators_match_the_reference(n, shape):
    for t in enumerate_svt(n, shape):
        for i in range(1, n):
            assert signature(t, i) == reference_signature(t, i), (t, i)
            for op, reference in OPERATORS:
                result = op(t, i)
                assert result == reference(t, i), (op.__name__, t, i)
                if result is not None:
                    rebuilt = SetValuedTableau(result.rows, n)
                    assert result.rows == rebuilt.rows
                    assert hash(result) == hash(rebuilt)


@pytest.mark.parametrize("n,shape", CASES, ids=str)
def test_lusztig_star_matches_the_path_mirror(n, shape):
    for t in enumerate_svt(n, shape):
        assert lusztig_star(t) == reference_lusztig_star(t), t
