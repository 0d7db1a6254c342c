import pytest
from hypothesis import given
from hypothesis import strategies as st

from kcrystals.crystal import crystal_table, ik_strings
from kcrystals.polynomials import lascoux
from kcrystals.skyline import enumerate_skyline, skyline_table
from kcrystals.tableaux import SetValuedTableau, enumerate_svt


@pytest.mark.parametrize(
    "text,n",
    [
        ("3 1", 2),  # entry above n
        ("0 1", 2),  # entry below 1
        ("1 1/", 2),  # empty row
        ("1//2", 2),  # empty row in the middle
        ("1,,2", 2),  # empty entry
        ("1 a", 2),  # non-integer entry
        ("1 1.5", 2),  # non-integer entry
        ("1/2 2", 2),  # row lengths not a partition
        ("1,1 2", 3),  # entry repeated in a box
    ],
)
def test_from_text_rejects_malformed_input(text, n):
    with pytest.raises(ValueError):
        SetValuedTableau.from_text(text, n)


@pytest.mark.parametrize(
    "rows,message",
    [
        ([[(1,), (1.0,)]], "non-integer entry 1.0"),
        ([[(1,), ("2",)]], "non-integer entry '2'"),
        ([[(True,)]], "non-integer entry True"),
        ([[(0,), (1,)]], "entry 0 outside"),
        ([[(1,), (4,)]], "entry 4 outside"),
        ([[(1,), ()]], "empty row or cell in row 1"),
        ([[(1,)], []], "empty row or cell in row 2"),
        ([[(1,)], [(2,), (3,)]], r"row lengths \[1, 2\]"),
    ],
)
def test_constructor_rejects_invalid_rows(rows, message):
    with pytest.raises(ValueError, match=message):
        SetValuedTableau(rows, 3)


def test_constructor_keeps_non_semistandard_fillings():
    t = SetValuedTableau([[{2, 1}, [1]], [(1,)]], 3)
    assert t.rows == (((1, 2), (1,)), ((1,),)) and not t.is_semistandard()
    assert t.weight() == (3, 1, 0)
    assert SetValuedTableau((), 3).rows == ()


def test_from_text_leaves_semistandardness_to_the_checker():
    t = SetValuedTableau.from_text("1 2/2 2", 3)
    assert not t.is_semistandard()
    assert SetValuedTableau.from_text("", 3) == SetValuedTableau((), 3)


@pytest.mark.parametrize("shape", [(2, -1), (2.0,), (True,), ("2",), (2, 1.5)], ids=str)
def test_enumerate_svt_rejects_a_part_that_is_not_a_nonnegative_integer(shape):
    enumerate_svt(3, (2,))  # a warm cache must not answer for a float or bool part
    with pytest.raises(ValueError, match="nonnegative integers"):
        enumerate_svt(3, shape)


@pytest.mark.parametrize(
    "call,args",
    [
        (enumerate_svt, (2.0, (1,))),
        (enumerate_svt, (True, (1,))),
        (enumerate_skyline, ((1, 0), 2.0)),
        (ik_strings, (2.0, (1,), 1)),
        (lascoux, ((1, 0), 2.0)),
        (SetValuedTableau.from_text, ("1", 2.5)),
        (SetValuedTableau, ([[(1,)]], True)),
        (crystal_table, (-1, (1,))),
        (skyline_table, ((0, 1), True)),
    ],
    ids=lambda value: getattr(value, "__qualname__", str(value)),
)
def test_a_rank_that_is_not_an_int_at_least_0_is_rejected_at_the_boundary(call, args):
    with pytest.raises(ValueError, match="variable count must be a non-negative int"):
        call(*args)


def test_a_bool_rank_neither_makes_nor_reads_the_cache_entry_of_its_int():
    enumerate_svt.cache_clear()
    crystal_table.cache_clear()
    for _ in range(2):  # before and after the int's entries are made
        with pytest.raises(ValueError):
            enumerate_svt(True, (1,))
        with pytest.raises(ValueError):
            crystal_table(True, (1,))
        (tableau,) = enumerate_svt(1, (1,))
        assert type(tableau.n) is int and type(crystal_table(1, (1,)).n) is int


def test_enumerate_svt_still_reads_zero_parts_and_rejects_a_non_partition():
    assert enumerate_svt(3, (2, 0)) == enumerate_svt(3, (2,))
    with pytest.raises(ValueError, match="must be a partition"):
        enumerate_svt(3, (1, 2))


SHAPES = [
    (n, shape)
    for n in (1, 2, 3, 4)
    for shape in ((1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1))
    if len(shape) <= n
]
tableaux = st.sampled_from(SHAPES).flatmap(lambda case: st.sampled_from(enumerate_svt(*case)))


@given(tableaux)
def test_text_round_trip_of_enumerated_tableaux(t):
    assert SetValuedTableau.from_text(t.to_text(), t.n) == t
