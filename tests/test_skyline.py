import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kcrystals import golden
from kcrystals.crystal import atom_subset
from kcrystals.permutations import act, coset_reps
from kcrystals.polynomials import lascoux_atom
from kcrystals.skyline import (
    SkylineTableau,
    enumerate_skyline,
    psi,
    psi_inverse,
    skyline_table,
    validate_skyline,
)
from kcrystals.tableaux import SetValuedTableau
from oracles import reference_validate_skyline


def S(columns, shape):
    return SkylineTableau.build(shape, columns)


def test_validate_golden_examples():
    assert validate_skyline(S({1: [[1], [1]], 3: [[3], [3]]}, (2, 0, 2)), 3)
    assert validate_skyline(S({1: [[1], [1]], 3: [[2, 3], [2]]}, (2, 0, 2)), 3)
    # bottom anchor must equal the column index
    assert not validate_skyline(S({1: [[1], [1]], 3: [[2], [2]]}, (2, 0, 2)), 3)


def test_rows_cannot_repeat_entries():
    assert not validate_skyline(S({1: [[1], [1]], 3: [[1, 3], [1]]}, (2, 0, 2)), 3)


def test_enumerate_counts():
    assert len(enumerate_skyline((2, 0, 2), 3)) == 4
    # sorted shapes have the single constant filling
    only = enumerate_skyline((2, 2, 0), 3)
    assert len(only) == 1
    columns = dict(only[0].columns)
    assert columns[1][0] == (1,) and columns[2][0] == (2,)
    two = enumerate_skyline((0, 1), 2)
    assert {json.dumps(s.to_json_dict(), sort_keys=True) for s in two} == {
        json.dumps(
            {"shape": [0, 1], "columns": {"2": [[2]]}}, sort_keys=True
        ),
        json.dumps(
            {"shape": [0, 1], "columns": {"2": [[1, 2]]}}, sort_keys=True
        ),
    }


def test_psi_golden_pairs():
    for pair in json.loads(golden.text("psi_pairs_s2.json")):
        skyline = SkylineTableau.from_json_dict(pair["skyline"])
        assert validate_skyline(skyline, 3)
        assert psi(skyline, 3).to_text() == pair["tableau"]


def test_psi_rejects_an_invalid_skyline():
    # both level-2 cells hold the free entry 1; psi would drop one entry
    skyline = SkylineTableau((0, 2, 2), ((2, ((2,), (1, 2))), (3, ((3,), (1, 3)))))
    assert not validate_skyline(skyline, 3)
    with pytest.raises(ValueError, match="not a valid skyline tableau"):
        psi(skyline, 3)


@pytest.mark.parametrize(
    "skyline",
    [
        SkylineTableau((1, 1), ((1, ((1,),)), (2, ((2,), (1,))))),  # column 2 holds two cells, not one
        SkylineTableau((1, 1), ((1, ((1,),)),)),  # column 2 is missing
    ],
    ids=["extra cell", "missing column"],
)
def test_a_skyline_whose_columns_disagree_with_its_shape_is_invalid(skyline):
    assert not validate_skyline(skyline, 2)
    assert not reference_validate_skyline(skyline, 2)
    with pytest.raises(ValueError, match="not a valid skyline tableau"):
        psi(skyline, 2)


def test_psi_inverse_round_trip():
    w = (1, 3, 2)
    for skyline in enumerate_skyline((2, 0, 2), 3):
        assert psi_inverse(psi(skyline, 3), w) == skyline
    with pytest.raises(ValueError):
        psi_inverse(SetValuedTableau.from_text("1 1/2 2", 3), w)


@pytest.mark.parametrize("n,shape", [(4, (2, 2)), (3, (3, 3))], ids=str)
def test_psi_inverse_inverts_psi_on_every_skyline_of_every_representative(n, shape):
    lam = shape + (0,) * (n - len(shape))
    for w in coset_reps(lam, n):
        skylines = enumerate_skyline(act(w, lam), n)
        assert skylines
        for skyline in skylines:
            assert psi_inverse(psi(skyline, n), w) == skyline, (w, skyline)


@pytest.mark.parametrize("w", [(3, 1, 1), (1, 1, 2), (2, 2, 2), (1, 2), (1, 2, 3, 4)], ids=str)
def test_psi_inverse_rejects_a_w_that_is_not_a_permutation(w):
    # a non-permutation names no atom; it must not reach the psi table of another rectangle
    tableau = SetValuedTableau.from_text("1 1/2 2", 3)
    with pytest.raises(ValueError, match=r"is not a permutation of 1\.\.3"):
        psi_inverse(tableau, w)


def test_psi_reads_its_rectangle_through_the_crystal_helper():
    # the empty skyline is the empty rectangle; a skyline of two heights is no rectangle
    empty = SkylineTableau.build((0, 0), {})
    assert psi(empty, 2) == SetValuedTableau([], 2)
    assert psi_inverse(psi(empty, 2), (2, 1)) == empty
    with pytest.raises(ValueError, match=r"shape \(1, 2\) is not a rectangle"):
        psi(SkylineTableau.build((1, 2), {1: [(1,)], 2: [(2,), (1,)]}), 2)


def test_psi_lands_in_the_atom_with_matching_weights():
    for n, shape in ((3, (2, 2)), (4, (2, 2)), (3, (3, 3))):
        lam = shape + (0,) * (n - len(shape))
        for w in coset_reps(lam, n):
            a = act(w, lam)
            skylines = enumerate_skyline(a, n)
            images = {psi(s, n) for s in skylines}
            assert images == set(atom_subset(w, shape, n))
            assert skyline_table(tuple(sorted(a)), n).character(a) == lascoux_atom(a, n)


def test_json_round_trip():
    for skyline in enumerate_skyline((2, 0, 2), 3):
        data = json.loads(json.dumps(skyline.to_json_dict()))
        assert SkylineTableau.from_json_dict(data) == skyline


@pytest.mark.parametrize("a", [(-1, 2), (2, -1), (1.5,), ("2",), (2.0,)], ids=str)
def test_enumerate_rejects_bad_heights(a):
    enumerate_skyline((2,), 3)  # a warm cache must not answer for a bad height
    with pytest.raises(ValueError, match="nonnegative integers"):
        enumerate_skyline(a, 3)


@pytest.mark.parametrize(
    "data,column",
    [
        ({"shape": [2, 0, 2], "columns": {"1": [[1], [1]]}}, "column 3 is missing"),
        (
            {"shape": [2, 0, 2], "columns": {"1": [[1], [1]], "2": [], "3": [[3], [3]]}},
            "column 2 is not",
        ),
        (
            {"shape": [2, 0, 2], "columns": {"1": [[1], [1]], "3": [[3], [3]], "4": [[4]]}},
            "column 4 is not",
        ),
        ({"shape": [1], "columns": {"1": [["a"]]}}, "column 1 has entry 'a'"),
        ({"shape": [1], "columns": {"1": [[0]]}}, "column 1 has entry 0"),
        ({"shape": [0, 1], "columns": {"2": [[3]]}}, "column 2 has entry 3"),
        ({"shape": [0, 1], "columns": {"2": [[]]}}, "column 2 must have 1 nonempty"),
        ({"shape": [0, 1], "columns": {"2": [[1], [1]]}}, "column 2 must have 1 nonempty"),
        ({"shape": [0, 1], "columns": {"x": [[1]]}}, "column 'x'"),
    ],
)
def test_json_form_rejects_malformed_columns(data, column):
    with pytest.raises(ValueError, match=column):
        SkylineTableau.from_json_dict(data)


@pytest.mark.parametrize(
    "data,key",
    [
        ({}, "'shape' list"),
        ({"columns": {}}, "'shape' list"),
        ({"shape": 2, "columns": {}}, "'shape' list"),
        ({"shape": [1]}, "'columns' dict"),
        ({"shape": [1], "columns": []}, "'columns' dict"),
    ],
)
def test_json_form_names_a_missing_key(data, key):
    with pytest.raises(ValueError, match=key):
        SkylineTableau.from_json_dict(data)


small_skylines = (
    st.lists(st.integers(0, 2), min_size=1, max_size=3)
    .filter(any)
    .flatmap(lambda a: st.sampled_from(enumerate_skyline(tuple(a), len(a))))
)
CELL_MUTATIONS = [
    (lambda cells: [cells[0] + [0.5]] + cells[1:], "has entry 0.5 outside"),  # non-integer entry
    (lambda cells: [[str(cells[0][0])] + cells[0][1:]] + cells[1:], r"has entry '\d' outside"),  # string entry
    (lambda cells: [cells[0] + [9]] + cells[1:], "has entry 9 outside"),  # entry above the column count
    (lambda cells: [[]] + cells[1:], r"must have \d nonempty cells"),  # an empty cell
    (lambda cells: cells + [[1]], r"must have \d nonempty cells"),  # one cell too many
]


@given(small_skylines, st.sampled_from(["shape", "columns"]), st.sampled_from(CELL_MUTATIONS))
def test_json_form_round_trips_and_rejects_malformed_forms(skyline, key, mutation):
    form = json.loads(json.dumps(skyline.to_json_dict()))
    assert SkylineTableau.from_json_dict(form) == skyline
    with pytest.raises(ValueError, match=key):
        SkylineTableau.from_json_dict({k: v for k, v in form.items() if k != key})
    c, cells = next(iter(form["columns"].items()))
    with pytest.raises(ValueError, match=f"column {c} is missing"):
        SkylineTableau.from_json_dict(dict(form, columns={k: v for k, v in form["columns"].items() if k != c}))
    mutate, message = mutation
    with pytest.raises(ValueError, match=f"^column {c} {message}"):
        SkylineTableau.from_json_dict(dict(form, columns=dict(form["columns"], **{c: mutate(cells)})))
