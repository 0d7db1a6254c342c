"""
Differential tests against the reference implementations in oracles.py:
the enumerator against a filter of every filling, and where its column
caps prune against the count of the full character; the crystal kernel, the
maps of the crystal table (filled one op at a time and by one pass over any
ops, with a fault in one op's kernel reaching that op alone) and the
structures read from it over every
tableau of every shape with at most 4 cells at n <= 4 and every rectangle
up to 2x2 at n = 5; the pruned skyline
enumeration, the tabulated Demazure subsets and the closure and psi
tables over the compositions and coset representatives of those shapes;
the tableau Kohnert move, phi, psi and the cross-column skyline rules,
with the column kernels of the move and of the phi inverse from cold,
warm and reordered memos;
the table's per-position statistics, max-right keys and rotations, and the
entry and rotation kernels they are built with; the Demazure, atom and flag
subsets of every w against their derivation from w, from cold, warm and
shuffled memos, and the one-pass i-K-string test against the per-string one.
"""

import random
from array import array
from itertools import combinations, permutations, product, zip_longest

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kcrystals.crystal import (
    _KERNEL,
    CrystalTable,
    atom_subset,
    beta_character,
    crystal_e,
    crystal_f,
    crystal_table,
    decompose,
    demazure_subset,
    ik_strings,
    kcrystal_e,
    kcrystal_f,
    signature,
)
from kcrystals.keys import (
    _entry,
    _key_maps,
    _max_right_keys,
    _right_keys,
    _rotate,
    _rotations,
    k_lusztig_star,
    key_of_composition,
    lusztig_star,
    max_right_key,
    right_key,
)
from kcrystals.kohnert import (
    KKohnertDiagram,
    _flip,
    _phi_inverse_key,
    _svt_moves,
    closure,
    closure_table,
    pack,
    phi,
    svt_kohnert_move,
    unpack,
)
from kcrystals.permutations import (
    _pad,
    act,
    bruhat_ideal,
    coset_reps,
    flag_vector,
    reduced_word,
    reduced_words,
    stabilizer_min_rep,
)
from kcrystals.polynomials import _unpack, lascoux
from kcrystals.skyline import (
    SkylineTable,
    SkylineTableau,
    _levels,
    _psi_code,
    enumerate_skyline,
    psi,
    skyline_table,
    validate_skyline,
)
from kcrystals.tableaux import SetValuedTableau, _bits, _Codes, _svt_codes, enumerate_svt
from kcrystals.verify import _string_test
from oracles import (
    reference_compatible,
    reference_crystal_e,
    reference_crystal_f,
    reference_decompose,
    reference_demazure_subset,
    reference_enumerate_skyline,
    reference_enumerate_svt,
    reference_excess,
    reference_is_semistandard,
    reference_k_lusztig_star,
    reference_kcrystal_e,
    reference_kcrystal_f,
    reference_lusztig_star,
    reference_max_tableau,
    reference_min_tableau,
    reference_closure,
    reference_phi,
    reference_phi_inverse,
    reference_psi,
    reference_raise_string_max,
    reference_right_key,
    reference_signature,
    reference_single_moves,
    reference_svt_kohnert_move,
    reference_validate_skyline,
    reference_weight,
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


def test_k_operators_match_the_reference_on_a_three_by_three_component():
    # The e_i/f_i component of a tableau of shape (3,3,3) at n = 6 where an
    # e^K_i that checks the signature before removing the i+1 goes wrong.
    component = {SetValuedTableau.from_text("1 1 1,2,3/2 2,3,4 5/4 5 6", 6)}
    frontier = list(component)
    while frontier:
        t = frontier.pop()
        for i in range(1, 6):
            for image in (reference_crystal_e(t, i), reference_crystal_f(t, i)):
                if image is not None and image not in component:
                    component.add(image)
                    frontier.append(image)
    assert len(component) == 336
    assert _decodes(_Codes(6, (3, 3, 3)), component)
    for t in component:
        for i in range(1, 6):
            assert kcrystal_e(t, i) == reference_kcrystal_e(t, i), (t, i)
            assert kcrystal_f(t, i) == reference_kcrystal_f(t, i), (t, i)


# every rectangle up to 3x3 at n = 5 not in CASES: the code kernel's
# columns of one to three slots and its two-box moves
RECTANGLES_AT_5 = [(5, shape) for shape in ((3,), (3, 3), (1, 1, 1), (2, 2, 2), (3, 3, 3))]


@pytest.mark.parametrize("n,shape", CASES + RECTANGLES_AT_5, ids=str)
def test_table_maps_match_the_kernel(n, shape):
    table = crystal_table(n, shape)
    tableaux = _decoded(table)
    assert tableaux == enumerate_svt(n, shape)
    # the public operators run the table's kernel, so the maps are checked
    # against the reference operators
    kernel = {
        "e": reference_crystal_e,
        "f": reference_crystal_f,
        "eK": reference_kcrystal_e,
        "fK": reference_kcrystal_f,
    }
    for i in range(1, n):
        for op, operator in kernel.items():
            images = [None if k < 0 else tableaux[k] for k in table.maps(i, op)[0]]
            assert images == [operator(t, i) for t in tableaux], (op, i)
        raised = [tableaux[k] for k in table.maps(i, "raise")[0]]
        assert raised == [reference_raise_string_max(t, i) for t in tableaux], i
    assert _decodes(table, tableaux)


OPS = ("e", "f", "eK", "fK")
# every nonempty subset of the operators in every order, and each subset with raise after it
ORDERS = [order for size in range(1, 5) for subset in combinations(OPS, size) for order in permutations(subset)]
ORDERS += [(*subset, "raise") for size in range(1, 5) for subset in combinations(OPS, size)]


def _one_op_maps(table, i):
    """Each op's map at letter i, one op per pass, checked against its reference operator."""
    tableaux = _decoded(table)
    maps = {op: table.maps(i, op)[0] for op in (*OPS, "raise")}
    references = zip(OPS, (reference_crystal_e, reference_crystal_f, reference_kcrystal_e, reference_kcrystal_f))
    for op, operator in references:
        images = [operator(t, i) for t in tableaux]
        assert list(maps[op]) == [-1 if u is None else table.position(u) for u in images], (op, i)
    return maps


@pytest.mark.parametrize("n,shape", CASES + RECTANGLES_AT_5, ids=str)
def test_one_pass_over_any_ops_fills_the_one_op_maps(n, shape):
    alone, table = CrystalTable(n, shape), CrystalTable(n, shape)
    for i in range(1, n):
        expected = _one_op_maps(alone, i)
        for order in ORDERS:
            table._maps.clear()  # from empty: the ops of order filled by one pass, raise's e and e^K by their own
            assert table.maps(i, *order) == tuple(expected[op] for op in order), (i, order)


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("n,shape", [(4, (2, 1)), (5, (2, 2)), (5, (3, 3))], ids=str)
def test_a_kernel_fault_reaches_its_own_map_alone(monkeypatch, n, shape, op):
    """A fault swapped into one op's _KERNEL entry changes that op's map in a
    pass over all four and leaves its siblings' maps real: never acting, the
    op's map is all -1; acting as its inverse, it is the inverse's map."""
    real = [dict(zip(OPS, CrystalTable(n, shape).maps(i, *OPS))) for i in range(1, n)]
    never = array("i", [-1]) * len(crystal_table(n, shape).codes)
    inverse = {"e": "f", "f": "e", "eK": "fK", "fK": "eK"}[op]
    faults = ((lambda table, i, key: None, lambda maps: never), (_KERNEL[inverse], lambda maps: maps[inverse]))
    for fault, wrong in faults:
        monkeypatch.setitem(_KERNEL, op, fault)
        for i, maps in enumerate(real, 1):
            faulty = dict(zip(OPS, CrystalTable(n, shape).maps(i, *OPS)))
            assert faulty == {**maps, op: wrong(maps)}, i


@pytest.mark.parametrize("n,shape", [(0, ()), (2, ())] + CASES + RECTANGLES_AT_5, ids=str)
def test_per_letter_stats_equal_the_stat_of_each_code(n, shape):
    table = CrystalTable(n, shape)
    assert table.stats == tuple(map(table.stat, table.codes))
    assert len(set(map(id, table.stats))) == len(set(table.stats))  # each distinct stat held once


@pytest.mark.parametrize("n,shape", [(0, ()), (1, (4,)), (2, (4,)), (1, (8,)), (2, (8,))], ids=str)
def test_a_letter_in_a_power_of_two_number_of_boxes_fills_its_digit(n, shape):
    """A letter in all 4 or 8 boxes of a row fills its digit, boxes.bit_length()
    bits wide, up to its top bit, and shape () at n = 0 has a digit 0 bits
    wide: each stat still decodes to its tableau's weight and excess, and the
    character to the sum of their monomials."""
    table = crystal_table(n, shape)
    tableaux = _decoded(table)
    assert [_unpack(stat, table._units) for stat in table.stats] == [(t.weight(), t.excess()) for t in tableaux]
    assert table.character((1 << len(tableaux)) - 1) == beta_character(tableaux, n)
    assert max(max(t.weight(), default=0) for t in tableaux) == sum(shape)


# every partition of at most 4 boxes at n <= 4 (at most 15^4 fillings
# each), and one box at n = 11, where text order is not numeric order
ENUMERATION_CASES = [(n, shape) for n in range(1, 5) for shape in _shapes(4, 4)] + [(11, (1,))]


@pytest.mark.parametrize("n,shape", ENUMERATION_CASES, ids=str)
def test_enumeration_matches_a_filter_of_every_filling(n, shape):
    expected = reference_enumerate_svt(n, shape)
    assert list(enumerate_svt(n, shape)) == expected
    assert list(_decoded(crystal_table(n, shape))) == expected


# shapes whose columns cap their boxes' entries (n less the boxes below),
# at every n from where they fit to where each cap prunes, and shapes
# taller than n, which have no tableaux
PRUNED_CASES = [(n, shape) for n in range(3, 7) for shape in ((1, 1, 1), (2, 2, 2), (3, 3, 3), (2, 2, 1, 1))]
PRUNED_CASES = [(n, shape) for n, shape in PRUNED_CASES if len(shape) <= n]
TALLER_THAN_N = [(2, (1, 1, 1)), (2, (3, 3, 3)), (3, (2, 2, 1, 1)), (4, (1,) * 5), (0, (1,))]


@pytest.mark.parametrize("n,shape", PRUNED_CASES + TALLER_THAN_N, ids=str)
def test_the_pruned_enumeration_is_complete(n, shape):
    """The enumerator emits as many codes as the tableaux that the full
    character, the Lascoux polynomial of the reversed shape, counts, in
    strictly increasing text order, each a semistandard tableau."""
    codes = _Codes(n, shape)
    found = _svt_codes(codes)
    expected = sum(lascoux(tuple(reversed(_pad(shape, n))), n).terms.values()) if len(shape) <= n else 0
    assert len(found) == expected
    texts = [codes.decode(code).to_text() for code in found]
    assert all(a < b for a, b in zip(texts, texts[1:]))
    assert all(reference_is_semistandard(codes.decode(code)) for code in found)


@pytest.mark.parametrize("n,shape", CASES + [(11, (2,))], ids=str)
def test_enumeration_is_in_text_order(n, shape):
    tableaux = enumerate_svt(n, shape)
    assert list(tableaux) == sorted(tableaux, key=SetValuedTableau.to_text)


@pytest.mark.parametrize("n,shape", CASES, ids=str)
def test_position_round_trips_and_rejects_tableaux_outside(n, shape):
    table = crystal_table(n, shape)
    tableaux = _decoded(table)
    assert [table.position(t) for t in tableaux] == list(range(len(tableaux)))
    # decode inverts the code; RECTANGLES_AT_5 and a (3,3,3) component at
    # n = 6, too large for the sweeps below, are decoded by the tests above
    assert _decodes(table, tableaux)
    # the same rows at another n, every tableau of another shape with as many
    # boxes (one code can fill two shapes) and every single-valued filling of
    # the shape that is not semistandard
    outside = [SetValuedTableau(t.rows, n + 1) for t in tableaux]
    for other in _shapes(sum(shape), n):
        if other != shape and sum(other) == sum(shape):
            outside += enumerate_svt(n, other)
    for values in product(range(1, n + 1), repeat=sum(shape)):
        boxes = iter(values)
        t = SetValuedTableau([[(next(boxes),) for _ in range(width)] for width in shape], n)
        if not t.is_semistandard():
            outside.append(t)
    for t in outside:
        with pytest.raises(ValueError, match="is not in the crystal"):
            table.position(t)


@pytest.mark.parametrize("n,shape", CASES, ids=str)
def test_components_and_right_keys_match_the_references(n, shape):
    assert decompose(n, shape) == reference_decompose(n, shape)
    for t in enumerate_svt(n, shape):
        if t.excess() == 0:
            assert right_key(t) == reference_right_key(t), t


@pytest.mark.parametrize("n,shape", CASES, ids=str)
def test_lusztig_star_matches_the_path_mirror(n, shape):
    for t in enumerate_svt(n, shape):
        assert lusztig_star(t) == reference_lusztig_star(t), t


TABLE_CASES = [(2, (2,)), (3, (2, 1)), (3, (2, 2)), (4, (1, 1, 1)), (4, (2, 2)), (4, (3, 1))]


def _same_object(tableau, expected) -> bool:
    """Equal rows and hash: a trusted tableau is one the constructor would build."""
    return (tableau.rows, hash(tableau)) == (expected.rows, hash(expected))


def _decodes(codes, tableaux) -> bool:
    """decode(encode(t)) is t and the tableau the constructor builds from
    t's rows, in rows and hash, for every t of tableaux."""
    return all(
        _same_object(codes.decode(codes._encode(t)), t) and _same_object(t, SetValuedTableau(t.rows, t.n))
        for t in tableaux
    )


def _decoded(table) -> tuple[SetValuedTableau, ...]:
    """The tableau at each position of table."""
    return tuple(map(table.tableau, range(len(table.codes))))


@pytest.mark.parametrize("n,shape", TABLE_CASES, ids=str)
def test_table_statistics_match_the_tableaux(n, shape):
    table = crystal_table(n, shape)
    tableaux = _decoded(table)
    assert [_unpack(stat, table._units) for stat in table.stats] == [(t.weight(), t.excess()) for t in tableaux]
    for t in tableaux:
        assert _same_object(t, SetValuedTableau(t.rows, n)), t
        assert (t.weight(), t.excess()) == (reference_weight(t), reference_excess(t)), t
        assert t.is_semistandard() and reference_is_semistandard(t), t
        # every one-box change, semistandard or not
        for r, row in enumerate(t.rows):
            for c in range(len(row)):
                for size in range(1, n + 1):
                    for cell in combinations(range(1, n + 1), size):
                        rows = [list(row) for row in t.rows]
                        rows[r][c] = cell
                        u = SetValuedTableau(rows, n)
                        assert u.is_semistandard() == reference_is_semistandard(u), u


def test_is_semistandard_matches_the_reference_off_the_table():
    for rows, valid in (
        ([[(1,)], [(2,), (3,)]], False),
        ([[(1,), (2,)], [(2,)]], True),
        ([[(0,), (1,)]], False),
        ([[(1,), (4,)]], False),
        ([[(1, 2), (2,)], [(3,), (3,)]], True),
        ([], True),
    ):
        # the constructor rejects entries outside [1, n] and non-partition
        # shapes, so those rows are wrapped as they are
        if valid:
            t = SetValuedTableau(rows, 3)
        else:
            t = SetValuedTableau._trusted(tuple(map(tuple, rows)), 3)
        assert t.is_semistandard() == reference_is_semistandard(t), rows


@pytest.mark.parametrize("n,shape", TABLE_CASES, ids=str)
def test_max_right_keys_match_the_reference(n, shape):
    table = crystal_table(n, shape)
    tableaux = _decoded(table)
    for code, t in zip(table.codes, tableaux):
        assert _same_object(table.decode(_entry(table, code, False)), reference_max_tableau(t)), t
        assert _same_object(table.decode(_entry(table, code, True)), reference_min_tableau(t)), t
    # a key is the index of its coset representative, -1 on each tableau with excess
    keys, index = table.derived(_right_keys)
    assert keys == [key_of_composition(act(v, _pad(shape, n))) for v in coset_reps(_pad(shape, n), n)]
    assert [i < 0 for i in index] == [stat >= table._units[-1] for stat in table.stats]
    maxima = table.derived(_max_right_keys)
    assert set(maxima) <= set(range(len(keys)))
    assert [keys[i] for i in maxima] == [reference_right_key(reference_max_tableau(t)) for t in tableaux]
    assert [max_right_key(t) for t in tableaux] == [keys[i] for i in maxima]


@pytest.mark.parametrize(
    "n,shape", [(n, shape) for n, shape in TABLE_CASES if len(set(shape)) == 1], ids=str
)
def test_rotation_positions_match_the_rotation(n, shape):
    table = crystal_table(n, shape)
    tableaux = _decoded(table)
    for t in tableaux:
        assert _same_object(k_lusztig_star(t), reference_k_lusztig_star(t)), t
    assert list(table.derived(_rotations)) == [table.position(k_lusztig_star(t)) for t in tableaux]


@pytest.mark.parametrize("n,shape", TABLE_CASES, ids=str)
def test_key_maps_match_the_composed_references(n, shape):
    """calK is the right key of the greatest-entry tableau, and each other
    key map the right key of min(T°)° for its involution °, the rotation
    only on a rectangle."""
    table = crystal_table(n, shape)
    tableaux, keys = _decoded(table), table.derived(_right_keys)[0]
    involutions = {"K-naive": reference_lusztig_star}
    if len(set(shape)) == 1:
        involutions["K-rect"] = reference_k_lusztig_star
    maps = table.derived(_key_maps)
    assert list(maps) == ["calK", *involutions]
    # each map holds, by position, the index of a coset representative's key
    reps = range(len(coset_reps(_pad(shape, n), n)))
    assert all(set(index) <= set(reps) for index in maps.values())
    assert [keys[i] for i in maps["calK"]] == [reference_right_key(reference_max_tableau(t)) for t in tableaux]
    for name, star in involutions.items():
        expected = [reference_right_key(reference_lusztig_star(reference_min_tableau(star(t)))) for t in tableaux]
        assert [keys[i] for i in maps[name]] == expected, name


RECTANGLES = [
    (n, shape) for n in range(1, 6) for shape in ((1,), (2,), (1, 1), (2, 2)) if len(shape) <= n
]


@pytest.mark.parametrize("n,shape", RECTANGLES, ids=str)
def test_rotate_is_the_reference_rotation_and_an_involution(n, shape):
    table = crystal_table(n, shape)
    for code in table.codes:
        assert _same_object(table.decode(_rotate(table, code)), reference_k_lusztig_star(table.decode(code))), code
        assert _rotate(table, _rotate(table, code)) == code


SKYLINE_CASES = RECTANGLES + [
    (n, shape)
    for n in range(1, 5)
    for shape in _shapes(3, n)
    if len(set(shape)) > 1
]


@pytest.mark.parametrize("n,shape", SKYLINE_CASES, ids=str)
def test_skyline_enumeration_matches_product_and_filter(n, shape):
    lam = _pad(shape, n)
    for v in coset_reps(lam, n):
        a = act(v, lam)
        skylines = enumerate_skyline(a, n)
        assert skylines == reference_enumerate_skyline(a, n), a
        assert all(validate_skyline(s, n) for s in skylines), a


@pytest.mark.parametrize("n,shape", RECTANGLES + RECTANGLES_AT_5, ids=str)
def test_flagged_subsets_match_a_scan_of_the_rows(n, shape):
    table = crystal_table(n, shape)
    for w in coset_reps(_pad(shape, n), n):
        flag = flag_vector(w, len(shape), shape[0])
        within = [all(row[-1][-1] <= b for row, b in zip(t.rows, flag)) for t in _decoded(table)]
        assert table.flagged(w) == sum(1 << k for k, inside in enumerate(within) if inside), w


@pytest.mark.parametrize("n,shape", RECTANGLES, ids=str)
def test_demazure_subset_matches_per_tableau_raise_chains(n, shape):
    lam = _pad(shape, n)
    queries = [
        (w, word) for w in coset_reps(lam, n) for word in sorted(reduced_words(stabilizer_min_rep(w, lam)))
    ]
    # in order, then in reverse order from an empty table, so that a word's
    # subset is right whichever of its suffixes were memoised before it
    for order in (queries, queries[::-1]):
        crystal_table.cache_clear()
        for w, word in order:
            expected = reference_demazure_subset(w, shape, n, word)
            assert demazure_subset(w, shape, n, word) == expected, (w, word)


def _unmemoized(reference: CrystalTable, w) -> tuple[int, int, int]:
    """The K-Demazure subset, atom and flag bitset of w, derived from w on every
    read as the table did before it kept them by coset representative."""
    lam = _pad(reference.shape, reference.n)
    ideal = lambda v: reference.demazure_word(reduced_word(stabilizer_min_rep(v, lam)))
    rep, reps = stabilizer_min_rep(w, lam), set(coset_reps(lam, reference.n))
    atom = ideal(rep)
    for v in bruhat_ideal(rep):
        if v != rep and v in reps:
            atom &= ~ideal(v)
    flagged = (1 << len(reference.codes)) - 1
    for within, b in zip(reference._row_bounds, flag_vector(w, len(reference.shape), reference.shape[0])):
        flagged &= within[b]
    return ideal(w), atom, flagged


@pytest.mark.parametrize("n,shape", [(4, (2, 2)), (5, (3, 3)), (4, (1, 1, 1))], ids=str)
def test_subsets_of_every_w_match_the_unmemoized_derivation(n, shape):
    """demazure, atom and flagged of every w in S_n, representative or not,
    from an empty table in order, again from the filled one in reverse
    order, and from an empty table in a shuffled order of w and of reads."""
    reference = CrystalTable(n, shape)  # not the cached table: a memo of its own
    expected = {w: _unmemoized(reference, w) for w in permutations(range(1, n + 1))}
    reads = lambda table: (table.demazure, table.atom, table.flagged)
    crystal_table.cache_clear()
    for order in (list(expected), list(expected)[::-1]):  # cold, then warm
        table = crystal_table(n, shape)
        assert all(tuple(read(w) for read in reads(table)) == expected[w] for w in order)
    crystal_table.cache_clear()
    table, rng = crystal_table(n, shape), random.Random(n)
    shuffled = [(w, k) for w in expected for k in range(3)]
    rng.shuffle(shuffled)
    assert all(reads(table)[k](list(w)) == expected[w][k] for w, k in shuffled)
    reps = coset_reps(_pad(shape, n), n)
    assert len(table._indices) == len(expected)
    assert len(table._ideals) == len(table._atoms) == len(table._flagged) == len(reps)


@pytest.mark.parametrize(
    "w",
    [(1, 1, 3, 4), (0, 1, 2, 3), (2, 1, 3), (1, 2, 3, 4, 5), (True, 2, 3, 4), (1.0, 2, 3, 4), "1234"],
    ids=["repeated value", "value 0", "rank 3", "rank 5", "a bool", "a float", "a string"],
)
def test_a_bad_w_raises_and_leaves_no_memo_entry(w):
    crystal_table.cache_clear()
    table = crystal_table(4, (2, 2))
    for read in (table.demazure, table.atom, table.flagged):
        read((1, 2, 3, 4))  # 1.0 and True hash as 1: the check comes before the lookup
        read((2, 1, 4, 3))
    memos = lambda: (dict(table._indices), dict(table._ideals), dict(table._atoms), dict(table._flagged))
    before = memos()
    for read in (table.demazure, table.atom, table.flagged):
        with pytest.raises(ValueError, match="is not a permutation of 1..4"):
            read(w)
    assert memos() == before


def test_a_list_w_reads_the_tuple_entries():
    assert atom_subset([2, 1, 3], (2, 2), 3) == atom_subset((2, 1, 3), (2, 2), 3)
    table = crystal_table(3, (2, 2))
    assert table.demazure([2, 1, 3]) == table.demazure((2, 1, 3))
    assert (2, 1, 3) in table._indices and not any(type(w) is not tuple for w in table._indices)


def _per_string(strings, subset: int) -> bool:
    """The string-by-string test: each string meets subset in nothing, in
    the whole string or in its top alone."""
    for top, bottom in strings:
        elements = sum(1 << k for k in {*top, *bottom})
        if subset & elements not in (0, elements, 1 << top[0]):
            return False
    return True


@pytest.mark.parametrize("n,shape", TABLE_CASES, ids=str)
def test_the_one_pass_string_test_agrees_with_the_per_string_test(n, shape):
    """Every representative's subset, as it is and with each one position
    flipped, gets the same verdict from both tests at every letter."""
    table = crystal_table(n, shape)
    subsets = [table.demazure(w) for w in coset_reps(_pad(shape, n), n)]
    verdicts = set()
    for i in range(1, n):
        strings = ik_strings(n, shape, i)
        holds = _string_test(strings, len(table.codes))
        for subset in subsets:
            for flipped in [subset] + [subset ^ 1 << k for k in range(len(table.codes))]:
                verdict = _per_string(strings, flipped)
                assert holds(flipped) == verdict, (i, subset, flipped)
                verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n,shape", RECTANGLES, ids=str)
def test_closure_and_psi_tables_match_the_kernel(n, shape):
    """The table path against the independent oracles: each diagram's phi
    position, each skyline's psi position and the batched tableau moves of
    every tableau of the rectangle."""
    lam = _pad(shape, n)
    r, s = len(shape), shape[0]
    table = crystal_table(n, shape)
    for v in coset_reps(lam, n):
        a = act(v, lam)
        graph, positions = closure_table(a)
        images = graph.phi_positions(positions)
        for p in positions:
            d = graph.diagram(p)
            moves = [(x, is_k, graph.diagram(q)) for x, is_k, q in graph.moves(p)]
            assert moves == reference_single_moves(d), (a, d)
            assert table.tableau(images[p]) == reference_phi(d, r, s, n), (a, d)
        record = skyline_table(tuple(sorted(a)), n)
        skylines = tuple(record.skyline(a, indices) for indices in record.skylines(a))
        assert skylines == enumerate_skyline(a, n)
        images, preimage = record.images(a)
        for skyline, k in zip(skylines, images):
            assert table.tableau(k) == reference_psi(skyline, n), (a, skyline)
        assert preimage == {k: j for j, k in enumerate(images)}
    for t, code in zip(_decoded(table), table.codes):
        moves = _svt_moves(table, code)
        for x in range(1, n + 1):
            for k_variant in (False, True):
                expected = reference_svt_kohnert_move(t, x, k_variant)
                image = moves.get((x, k_variant))
                assert (image is None) == (expected is None), (t, x, k_variant)
                assert image is None or table.decode(image).rows == expected.rows, (t, x, k_variant)


def _reference_column_kernels(table):
    """By code of table: the image code of each defined tableau Kohnert move,
    by (x, is_k), and on a rectangle the key of the phi inverse, as the
    references make them."""
    expected, s = {}, len(table._column)
    for t, code in zip(_decoded(table), table.codes):
        moves = {}
        for x, k_variant in product(range(1, table.n + 1), (False, True)):
            image = reference_svt_kohnert_move(t, x, k_variant)
            if image is not None:
                moves[x, k_variant] = table._encode(image)
        rectangle = len(set(table.shape)) == 1
        expected[code] = moves, pack(reference_phi_inverse(t), s, table.n) if rectangle else None
    return expected


# two pairs of tables whose column codes, read without their table's width
# and height, would mean other columns; (3, 2, 1) has columns with empty slots
COLUMN_TABLES = [((4, (2, 2)), (5, (3, 3, 3))), ((4, (3, 2, 1)), (3, (1, 1)))]


@pytest.mark.parametrize("specs", COLUMN_TABLES, ids=str)
def test_the_column_kernels_match_the_references_in_any_memo_state(specs):
    """_svt_moves and _phi_inverse_key on every code of two tables, read
    alternately: from cold memos in table order, again from the warm ones,
    and from cold memos in reverse order.  A column's moves memo is keyed by
    which of its least entries the columns to its left hold, so a column
    code met first beside other left columns must not reuse their moves."""
    crystal_table.cache_clear()
    expected = [_reference_column_kernels(crystal_table(n, shape)) for n, shape in specs]
    for order in ("cold", "warm", "reversed"):
        if order != "warm":
            crystal_table.cache_clear()
        tables = [crystal_table(n, shape) for n, shape in specs]
        runs = [table.codes[::-1] if order == "reversed" else table.codes for table in tables]
        for codes in zip_longest(*runs):
            for table, code, known in zip(tables, codes, expected):
                if code is None:
                    continue
                moves, key = known[code]
                assert _svt_moves(table, code) == moves, (order, table.shape, table.decode(code))
                if key is not None:
                    assert _phi_inverse_key(table, code) == key, (order, table.shape, table.decode(code))


@pytest.mark.parametrize("parts", range(1, 6))
def test_kohnert_graph_kernels_match_the_references(parts):
    """Over the closure of every weak composition of `parts` parts and at
    most 5 boxes: each diagram unpacks from its key and packs to it, the
    moves on keys are the moves on sets of boxes, the order of the keys is
    KKohnertDiagram.sort_key's, and on a rectangle the phi inverse kernel
    reads each phi image as the reference does."""
    for a in (a for a in product(range(6), repeat=parts) if sum(a) <= 5):
        graph, positions = closure_table(a)
        height, n = graph.height, graph.n
        diagrams, moves = reference_closure(a)
        assert [graph.diagram(p) for p in positions] == diagrams, a
        for p, d in zip(positions, diagrams):
            assert pack(d, height, n) == graph.keys[p], (a, d)
            expected = [(x, is_k, pack(image, height, n)) for x, is_k, image in moves[d]]
            assert [(x, is_k, graph.keys[q]) for x, is_k, q in graph.moves(p)] == expected, (a, d)
        if len({h for h in a if h}) != 1:
            continue
        r, s = sum(1 for h in a if h), height
        table = crystal_table(n, (s,) * r)
        for d in diagrams:
            t = reference_phi(d, r, s, n)
            key = _phi_inverse_key(table, table._encode(t))
            assert unpack(key, s, n) == reference_phi_inverse(t) == d, (a, d)


@given(st.lists(st.integers(0, 1 << 40), max_size=30))
def test_the_flip_key_orders_ints_as_their_set_bits(ints):
    assert sorted(ints, key=_flip) == sorted(ints, key=lambda b: tuple(_bits(b)))


DIAGRAMS_RIGHT_OF_N = [
    # a box in column n + 1 of the one-box rectangle at n = 2
    (KKohnertDiagram(frozenset({(3, 1)}), frozenset()), (1,), 2),
    # a marked box in column n + 2 beside an unmarked box in column 1: packed
    # unchecked, its bit would land among the bits of the marks
    (KKohnertDiagram(frozenset({(1, 2), (4, 2), (1, 1)}), frozenset({(4, 2)})), (2,), 2),
]


@pytest.mark.parametrize("diagram,shape,n", DIAGRAMS_RIGHT_OF_N, ids=["n+1", "n+2 aliasing 1 1"])
def test_a_diagram_box_right_of_column_n_has_no_phi_image(diagram, shape, n):
    r, s = len(shape), shape[0]
    with pytest.raises(ValueError, match=f"exceeds n={n}"):
        phi(diagram, r, s, n)
    with pytest.raises(ValueError, match=f"exceeds n={n}"):
        pack(diagram, s, n)


def test_an_image_outside_the_table_names_its_source():
    table = crystal_table(3, (2, 2))
    code = table._encode(SetValuedTableau.from_text("2 1/3 3", 3))
    with pytest.raises(AssertionError, match="^phi sends 'D' out of the crystal, to 2 1/3 3$"):
        table.image(code, "phi", "D")


def test_a_skyline_entry_above_n_has_no_psi_code():
    skyline = SkylineTableau.build((0, 0, 1), {3: [(3,)]})
    with pytest.raises(ValueError, match="^entry 3 exceeds n=2$"):
        _psi_code(crystal_table(2, (1,)), [_levels(cells) for _, cells in skyline.columns])


@pytest.mark.parametrize(
    "n,shape,columns,message",
    [
        (3, (1, 1), [[(1,)]], "^level 1 has 1 cells, expected 2$"),
        (3, (2, 2), [[(1,), (1,)], [(2,)]], "^level 2 has 1 cells, expected 2$"),
        (3, (1, 1), [[(1,)], [(3, 2)]], "^free entry 3 fits under no anchor$"),  # anchor 2, free 3
        (3, (1, 1), [[(1,)], [(2, 2)]], "^free entry 2 fits under no anchor$"),  # a free entry at the top anchor
    ],
    ids=str,
)
def test_a_level_of_the_wrong_size_or_a_stray_free_entry_has_no_psi_code(n, shape, columns, message):
    with pytest.raises(ValueError, match=message):
        _psi_code(crystal_table(n, shape), [_levels(cells) for cells in columns])


MOVE_CASES = [
    (n, (s,) * r) for n in range(1, 5) for r in range(1, min(n, 3) + 1) for s in range(1, 4)
] + [(5, shape) for shape in ((1,), (2,), (1, 1), (2, 2))]
MOVE_CASES += [(4, shape) for shape in ((2, 1), (3, 1), (2, 1, 1), (3, 2))]  # boxes missing from a column


@pytest.mark.parametrize("n,shape", MOVE_CASES, ids=str)
def test_svt_kohnert_move_matches_the_reference(n, shape):
    for t in enumerate_svt(n, shape):
        for x in range(1, n + 1):
            for k_variant in (False, True):
                moved = svt_kohnert_move(t, x, k_variant)
                expected = reference_svt_kohnert_move(t, x, k_variant)
                if expected is None:
                    assert moved is None, (t, x, k_variant)
                else:
                    assert moved.rows == expected.rows, (t, x, k_variant)
                    assert hash(moved) == hash(expected), (t, x, k_variant)


@pytest.mark.parametrize("n,shape", RECTANGLES, ids=str)
def test_phi_and_psi_match_the_references(n, shape):
    lam = _pad(shape, n)
    r, s = len(shape), shape[0]
    for v in coset_reps(lam, n):
        a = act(v, lam)
        for d in closure(a):
            image, expected = phi(d, r, s, n), reference_phi(d, r, s, n)
            assert (image.rows, hash(image)) == (expected.rows, hash(expected)), (a, d)
        for skyline in enumerate_skyline(a, n):
            image, expected = psi(skyline, n), reference_psi(skyline, n)
            assert (image.rows, hash(image)) == (expected.rows, hash(expected)), (a, skyline)


@pytest.mark.parametrize("n", range(1, 5))
def test_bitset_rows_match_compatible(n):
    """Every (column, height) with column <= 4 and height <= 3 is a column
    of the class of (0, 1, 2, 3); a row is compared with the reference
    rules for each pair of fillings, the pair of one column with itself too."""
    record = SkylineTable((0, 1, 2, 3), n)
    assert sorted(record.fillings) == [(c, h) for c in range(1, 5) for h in range(1, 4)]
    for p, pfillings in record.fillings.items():
        for q, qfillings in record.fillings.items():
            for i, pcells in enumerate(pfillings):
                expected = sum(1 << j for j, qcells in enumerate(qfillings) if reference_compatible(pcells, qcells))
                assert record.row(p, q, i) == expected, (p, q, pcells)


def test_validate_skyline_matches_the_reference():
    """Every skyline of a composition of n <= 3 parts, each at most 2, but
    (0, ..., 0), with every cell a nonempty subset of 1..n: cells that no
    column filling holds reach the fillings' test, the rest the rows'."""
    for n in range(1, 4):
        subsets = [cell for size in range(1, n + 1) for cell in combinations(range(1, n + 1), size)]
        for a in product(range(3), repeat=n):
            nonzero = [(c, h) for c, h in enumerate(a, start=1) if h]
            if not nonzero:
                continue
            for choice in product(*(product(subsets, repeat=h) for _, h in nonzero)):
                skyline = SkylineTableau(a, tuple((c, cells) for (c, _), cells in zip(nonzero, choice)))
                assert validate_skyline(skyline, n) == reference_validate_skyline(skyline, n), skyline


@pytest.mark.parametrize("n", range(1, 5))
def test_packed_stats_are_the_weight_and_excess(n):
    """Each skyline's packed stat, unpacked, counts its entries by value and
    its entries beyond one per cell, for every composition of n parts up to
    3 and 6 cells; a column of cells that all hold 1, as in (3, 0), fills
    its digit."""
    for a in (a for a in product(range(4), repeat=n) if sum(a) <= 6):
        record = skyline_table(tuple(sorted(a)), n)
        for skyline, packed in zip(enumerate_skyline(a, n), record.stats(a)):
            entries = [v for _, cells in skyline.columns for cell in cells for v in cell]
            weight = tuple(entries.count(v) for v in range(1, n + 1))
            assert _unpack(packed, record._units) == (weight, len(entries) - sum(a)), skyline
