import gc
import json
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kcrystals.crystal import (
    atom_subset,
    beta_character,
    crystal_e,
    crystal_f,
    crystal_table,
    decompose,
    demazure_subset,
    flagged_set,
    ik_strings,
    kcrystal_e,
    kcrystal_f,
)
from kcrystals.keys import k_lusztig_star, key_partition_report, lusztig_star, right_key
from kcrystals.kohnert import closure, kohnert_graph, phi, phi_inverse, svt_kohnert_move
from kcrystals.permutations import _pad, longest_element
from kcrystals.polynomials import lascoux
from kcrystals.skyline import SkylineTableau, psi, psi_inverse, skyline_table
from kcrystals.tableaux import SetValuedTableau, enumerate_svt, superstandard
from oracles import enumerate_ssyt, max_right_key, signature

T = lambda text, n=3: SetValuedTableau.from_text(text, n)
GOLDEN = Path(__file__).parent / "golden"


def test_validate_examples():
    assert T("1 1/2 2").is_semistandard()
    assert T("1 1,2/2 3").is_semistandard()
    assert not T("1 2/2 2").is_semistandard()


def test_text_round_trip():
    for text in (GOLDEN / "square22_tableaux.txt").read_text().splitlines():
        assert T(text).to_text() == text


def test_enumerate_svt_counts():
    assert len(enumerate_svt(3, (2, 2))) == 13
    assert [t.to_text() for t in enumerate_svt(1, (1,))] == ["1"]
    assert [t.to_text() for t in enumerate_svt(2, (1,))] == ["1", "1,2", "2"]


def test_enumerate_svt_matches_golden_listing():
    texts = [t.to_text() for t in enumerate_svt(3, (2, 2))]
    assert texts == (GOLDEN / "square22_tableaux.txt").read_text().splitlines()


def test_weight_and_excess():
    t = T("1 1,2/2,3 3")
    assert t.weight() == (2, 2, 2)
    assert t.excess() == 2


def test_crystal_f_examples():
    assert crystal_f(T("1 1/2 2"), 2) == T("1 1/2 3")
    assert crystal_f(T("1 1/2 2"), 1) is None
    assert crystal_f(T("1 1,2/2 3"), 2) == T("1 1,2/3 3")


def test_crystal_e_examples():
    assert crystal_e(T("1 1/2 3"), 2) == T("1 1/2 2")
    assert crystal_e(T("1 1/2 2"), 1) is None
    assert crystal_e(T("1 1/3 3"), 2) == T("1 1/2 3")


def test_crystal_edges_match_the_golden_graph():
    edges = []
    for t in enumerate_svt(3, (2, 2)):
        for i in (1, 2):
            down = crystal_f(t, i)
            if down is not None:
                edges.append((t.to_text(), i, down.to_text()))
    expected = {tuple(e) for e in json.loads((GOLDEN / "square22_crystal_edges.json").read_text())}
    assert set(edges) == expected and len(edges) == 10


def test_kcrystal_f_examples():
    assert kcrystal_f(T("1 1/2 2"), 2) == T("1 1/2 2,3")
    assert kcrystal_f(T("1 1/2 3"), 1) == T("1 1,2/2 3")
    assert kcrystal_f(T("1 1/2 3"), 2) is None


def test_kcrystal_e_examples():
    assert kcrystal_e(T("1 1/2 2,3"), 2) == T("1 1/2 2")
    assert kcrystal_e(T("1 1/2 2"), 2) is None
    assert kcrystal_e(T("1 1,2/2 3"), 1) == T("1 1/2 3")


OPERATORS = [crystal_e, crystal_f, kcrystal_e, kcrystal_f, signature]


@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("i", [-1, 0, 3])
def test_operators_reject_a_letter_outside_1_to_n_minus_1(op, i):
    with pytest.raises(ValueError, match="outside 1..2"):
        op(T("1 1/2 2"), i)


@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
def test_operators_reject_a_tableau_that_is_not_semistandard(op):
    with pytest.raises(ValueError, match="not semistandard"):
        op(T("2 1/1 2"), 1)


# Each public function that takes a tableau, called on it alone.
TABLEAU_READERS = {
    "crystal_e": lambda t: crystal_e(t, 1),
    "crystal_f": lambda t: crystal_f(t, 1),
    "kcrystal_e": lambda t: kcrystal_e(t, 1),
    "kcrystal_f": lambda t: kcrystal_f(t, 1),
    "svt_kohnert_move": lambda t: svt_kohnert_move(t, 1),
    "phi_inverse": phi_inverse,
    "k_lusztig_star": k_lusztig_star,
    "lusztig_star": lusztig_star,
    "right_key": right_key,
    "psi_inverse": lambda t: psi_inverse(t, (1, 2, 3)),
}


@pytest.mark.parametrize("text", ["2 1/1 2", "1,2 2/2 3"])
@pytest.mark.parametrize("reader", TABLEAU_READERS)
def test_every_tableau_reader_rejects_a_tableau_that_is_not_semistandard(reader, text):
    with pytest.raises(ValueError):
        TABLEAU_READERS[reader](T(text))


def test_kcrystal_e_inverts_kcrystal_f_on_a_three_by_three_square():
    # Removing the 4 of the box {2,3,4} pairs column 2 with column 1 and
    # frees the "+" of column 3, where f^K_3 would add the 4 instead.
    witness = T("1 1 1,2,3/2 2,3,4 5/4 5 6", 6)
    removed = T("1 1 1,2,3/2 2,3 5/4 5 6", 6)
    assert kcrystal_e(witness, 3) is None
    assert kcrystal_f(removed, 3) == T("1 1 1,2,3,4/2 2,3 5/4 5 6", 6)
    assert kcrystal_e(kcrystal_f(removed, 3), 3) == removed


def test_kcrystal_edges_match_the_golden_graph():
    edges = []
    for t in enumerate_svt(3, (2, 2)):
        for i in (1, 2):
            down = kcrystal_f(t, i)
            if down is not None:
                edges.append((t.to_text(), i, down.to_text()))
    expected = {tuple(e) for e in json.loads((GOLDEN / "square22_k_edges.json").read_text())}
    assert set(edges) == expected and len(edges) == 6


def test_raise_map_examples():
    table = crystal_table(3, (2, 2))

    def raised(t, i):
        return table.tableau(table.maps(i, "raise")[0][table.position(t)])

    assert raised(T("2 2/3 3"), 1) == T("1 1/3 3")
    u = superstandard((2, 2), 3)
    assert raised(u, 1) == u
    assert raised(T("1 1/2 2,3"), 2) == T("1 1/2 2")


@pytest.mark.parametrize("op,i", [("x", 1), ("raise", 0), ("e", 3), ("fK", -1)])
def test_table_maps_reject_an_unknown_op_or_a_letter_outside_1_to_n_minus_1(op, i):
    message = "unknown operator 'x'" if op == "x" else f"letter {i} is outside 1..2"
    with pytest.raises(ValueError, match=message):
        crystal_table(3, (2, 2)).maps(i, op)


def test_ik_strings_reject_a_letter_outside_1_to_n_minus_1():
    with pytest.raises(ValueError, match="letter 0 is outside 1..2"):
        ik_strings(3, (2, 2), 0)


@pytest.mark.parametrize(
    "reader",
    [lambda t: crystal_table(3, (2, 2)).position(t), right_key, max_right_key, lusztig_star],
    ids=["position", "right_key", "max_right_key", "lusztig_star"],
)
def test_tableau_readers_reject_a_tableau_outside_the_crystal(reader):
    with pytest.raises(ValueError, match=r"not in the crystal of \(2, 2\) at n=3"):
        reader(T("2 1/3 3"))


def test_demazure_subset_examples():
    u = superstandard((2, 2), 3)
    assert demazure_subset((1, 2, 3), (2, 2), 3) == (u,)
    five = {
        T("1 1/3 3"), T("1 1/2 3"), T("1 1/2,3 3"), T("1 1/2 2"), T("1 1/2 2,3")
    }
    assert set(demazure_subset((1, 3, 2), (2, 2), 3)) == five
    assert len(demazure_subset((2, 3, 1), (2, 2), 3)) == 13


def test_demazure_subset_accepts_any_coset_member():
    by_rep = demazure_subset((1, 3, 2), (2, 2), 3)
    by_other = demazure_subset((3, 1, 2), (2, 2), 3)  # same coset mod the stabilizer
    assert set(by_rep) == set(by_other)


def test_demazure_subset_accepts_a_reduced_word_as_any_sequence():
    by_word = demazure_subset((2, 3, 1), (2, 2), 3, [1, 2])
    assert by_word == demazure_subset((2, 3, 1), (2, 2), 3, (1, 2))
    assert by_word == demazure_subset((2, 3, 1), (2, 2), 3)


@pytest.mark.parametrize(
    "w,word",
    [
        ((1, 2, 3), (2,)),  # a reduced word, of s_2, not of the identity
        ((1, 2, 3), (2, 2)),  # not reduced
        ((2, 3, 1), (2, 1)),  # of (3, 1, 2), another coset
        ((1, 3, 2), (3,)),  # a letter past n - 1
        ((1, 3, 2), (0,)),
    ],
)
def test_demazure_subset_rejects_a_word_of_another_element(w, word):
    with pytest.raises(ValueError, match="is not a reduced word of"):
        demazure_subset(w, (2, 2), 3, word)


def test_demazure_subset_rejects_a_bool_letter():
    """(True,) evaluates to s_1, the representative of (2, 1, 3) for the shape
    (2,), but True is not a letter."""
    assert demazure_subset((2, 1, 3), (2,), 3, (1,))
    with pytest.raises(ValueError, match="is not a reduced word of"):
        demazure_subset((2, 1, 3), (2,), 3, (True,))


def test_flagged_set_examples():
    u = superstandard((2, 2), 3)
    assert flagged_set((1, 2, 3), (2, 2), 3) == (u,)
    assert set(flagged_set((1, 3, 2), (2, 2), 3)) == set(demazure_subset((1, 3, 2), (2, 2), 3))
    assert len(flagged_set((2, 3, 1), (2, 2), 3)) == 13


@pytest.mark.parametrize("reader", [demazure_subset, flagged_set, atom_subset])
@pytest.mark.parametrize("w", [(2, 1), (1, 2, 4), (1, 1, 3), (1, 2, 3, 4)])
def test_subset_readers_reject_a_w_that_is_not_a_permutation_of_1_to_n(reader, w):
    with pytest.raises(ValueError, match=re.escape(f"w={w!r} is not a permutation of 1..3")):
        reader(w, (1,), 3)


@pytest.mark.parametrize("reader", [demazure_subset, flagged_set, atom_subset])
def test_subset_readers_reject_a_shape_longer_than_n(reader):
    with pytest.raises(ValueError, match="longer than n=3"):
        reader((1, 2, 3), (1, 1, 1, 1), 3)


def test_flagged_set_rejects_non_rectangles():
    with pytest.raises(ValueError):
        flagged_set((1, 2, 3), (2, 1), 3)


def test_atom_subset_examples():
    u = superstandard((2, 2), 3)
    assert atom_subset((1, 2, 3), (2, 2), 3) == (u,)
    four = atom_subset((1, 3, 2), (2, 2), 3)
    assert len(four) == 4 and u not in four
    assert len(atom_subset((2, 3, 1), (2, 2), 3)) == 8


def test_beta_character_examples():
    u = superstandard((2, 2), 3)
    assert beta_character([u], 3) == lascoux((2, 2, 0), 3)
    assert beta_character(demazure_subset((1, 3, 2), (2, 2), 3), 3) == lascoux((2, 0, 2), 3)
    assert beta_character(enumerate_svt(3, (2, 2)), 3) == lascoux((0, 2, 2), 3)


def test_decompose_square():
    comps = decompose(3, (2, 2))
    sizes = sorted(len(c) for _, c in comps)
    assert sizes == [1, 3, 3, 6]
    weights = sorted(h.weight() for h, _ in comps)
    assert weights == [(2, 2, 0), (2, 2, 1), (2, 2, 1), (2, 2, 2)]


def test_decompose_single_box():
    comps = decompose(2, (1,))
    assert sorted(len(c) for _, c in comps) == [1, 2]


@pytest.mark.parametrize("shape,n", [((2, 2), 3), ((2, 1), 3), ((3,), 2)])
def test_singleton_component_matches_ssyt_enumeration(shape, n):
    comps = decompose(n, shape)
    u = superstandard(shape, n)
    component = next(c for h, c in comps if h == u)
    assert len(component) == len(enumerate_ssyt(n, shape))
    assert all(t.excess() == 0 for t in component)


def test_ik_string_through_the_figure():
    table = crystal_table(3, (2, 2))
    strings = ik_strings(3, (2, 2), 2)
    top, bottom = next(s for s in strings if table.tableau(s[0][0]) == T("1 1/2 2"))
    assert [table.tableau(k).to_text() for k in top] == ["1 1/2 2", "1 1/2 3", "1 1/3 3"]
    assert [table.tableau(k).to_text() for k in bottom] == ["1 1/2 2,3", "1 1/2,3 3"]


@pytest.mark.parametrize("i", [1, 2])
def test_ik_strings_partition_the_square(i):
    strings = ik_strings(3, (2, 2), i)
    positions = sorted(k for top, bottom in strings for k in top + bottom)
    assert positions == list(range(13))
    for top, bottom in strings:
        if bottom:
            assert len(bottom) == len(top) - 1


def test_unique_doubly_highest_element():
    u = superstandard((2, 2), 3)
    table = crystal_table(3, (2, 2))
    ups = [up for i in (1, 2) for up in table.maps(i, "e", "eK")]
    doubly = [table.tableau(k) for k in range(len(table.codes)) if all(up[k] < 0 for up in ups)]
    assert doubly == [u]


tableau_samples = st.sampled_from(
    enumerate_svt(3, (2, 2)) + enumerate_svt(3, (2, 1)) + enumerate_svt(4, (3,)) + enumerate_svt(4, (2, 2, 1))
)


@given(tableau_samples, st.integers(min_value=1, max_value=3))
def test_partial_inverse_laws(t, i):
    if i >= t.n:
        return
    down = crystal_f(t, i)
    if down is not None:
        assert crystal_e(down, i) == t
        assert down.is_semistandard()
    up = crystal_e(t, i)
    if up is not None:
        assert crystal_f(up, i) == t
        assert up.is_semistandard()
    drop = kcrystal_f(t, i)
    if drop is not None:
        assert kcrystal_e(drop, i) == t
        assert kcrystal_f(drop, i) is None
        assert drop.is_semistandard()


# Every entry point that takes a shape keys it with tableaux._partition before
# it reads a cache: a shape that is not a partition is rejected, and trailing
# zeros are dropped, so one crystal table serves (2, 2) and (2, 2, 0).
SHAPE_READERS = {
    "enumerate_svt": lambda shape, n: enumerate_svt(n, shape),
    "superstandard": lambda shape, n: superstandard(shape, n),
    "demazure_subset": lambda shape, n: demazure_subset(tuple(range(n, 0, -1)), shape, n),
    "flagged_set": lambda shape, n: flagged_set(tuple(range(n, 0, -1)), shape, n),
    "atom_subset": lambda shape, n: atom_subset(tuple(range(n, 0, -1)), shape, n),
    "decompose": lambda shape, n: decompose(n, shape),
    "ik_strings": lambda shape, n: ik_strings(n, shape, 1),
    "key_partition_report": lambda shape, n: key_partition_report(shape, n),
}


@pytest.mark.parametrize("reader", SHAPE_READERS)
@pytest.mark.parametrize("shape", [(0, 2), (2, 0, 2), (1, 2)], ids=str)
def test_every_shape_reader_rejects_a_shape_that_is_not_a_partition(reader, shape):
    SHAPE_READERS[reader]((2, 2), 3)  # a warm cache must not answer for it
    with pytest.raises(ValueError, match=re.escape(f"shape must be a partition: {shape!r}")):
        SHAPE_READERS[reader](shape, 3)


@pytest.mark.parametrize("shape", [(2, 2, 0), (2, 2, 0, 0, 0)], ids=str)
def test_trailing_zeros_read_the_table_of_the_partition(shape):
    crystal_table.cache_clear()
    assert enumerate_svt(4, shape) is enumerate_svt(4, (2, 2))
    for name, read in SHAPE_READERS.items():
        assert read(shape, 4) == read((2, 2), 4), name
    assert crystal_table.cache_info().currsize == 1


def test_a_crystal_table_is_keyed_by_a_partition_without_zeros():
    with pytest.raises(ValueError, match=re.escape("without zeros, got (2, 2, 0)")):
        crystal_table(4, (2, 2, 0))
    with pytest.raises(ValueError, match="must be a partition"):
        crystal_table(4, (1, 2))


def test_the_single_tableau_operators_read_one_table_and_enumerate_nothing():
    """Each (n, shape) has one cached object, and an operator on one
    tableau reads only its geometry: the codes are never filled."""
    crystal_table.cache_clear()
    t = T("1 1/2 3")
    crystal_f(t, 1), kcrystal_e(t, 1), signature(t, 2), k_lusztig_star(t), svt_kohnert_move(t, 2)
    phi(phi_inverse(t), 2, 2, 3)
    psi(SkylineTableau.build((2, 0, 2), {1: [(1,), (1,)], 3: [(3,), (3,)]}), 3)
    assert crystal_table.cache_info().currsize == 1
    assert "codes" not in vars(crystal_table(3, (2, 2)))


def test_a_table_cache_keeps_one_table_and_frees_the_one_it_evicts():
    """The public API read at two shapes in turn leaves one entry in each
    table cache, and reference counting alone frees the evicted tables."""
    gc.collect()
    gc.disable()
    try:
        evicted = []
        for n, shape in ((3, (2, 2)), (4, (1, 1))):
            w = longest_element(n)
            a = _pad(shape, n)[::-1]
            assert [psi_inverse(t, w).shape for t in atom_subset(w, shape, n)]
            assert {phi(d, len(shape), shape[0], n).shape for d in closure(a)} == {shape}
            assert not evicted or [ref() for ref in evicted] == [None] * 3
            parts = tuple(sorted(a))
            caches = [(crystal_table, (n, shape)), (skyline_table, (parts, n)), (kohnert_graph, (parts,))]
            evicted = [weakref.ref(tables(*key)) for tables, key in caches]
            assert [tables.cache_info().currsize for tables, _ in caches] == [1] * 3
    finally:
        gc.enable()
