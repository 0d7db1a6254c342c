import json
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kcrystals import golden
from kcrystals.kohnert import (
    KKohnertDiagram,
    KohnertGraph,
    closure,
    closure_table,
    initial_diagram,
    kohnert_graph,
    pack,
    phi,
    phi_inverse,
    svt_kohnert_move,
)
from kcrystals.polynomials import BetaPolynomial, _unpack, lascoux
from kcrystals.tableaux import SetValuedTableau
from kcrystals.verify import _diagram_character
from oracles import reference_closure

T = lambda text, n=3: SetValuedTableau.from_text(text, n)


def D(boxes, marked=()):
    return KKohnertDiagram(frozenset(boxes), frozenset(marked))


def single_moves(diagram):
    """The graph's single moves of diagram, as (origin column, is_k_move,
    diagram), in a graph whose layout just holds it."""
    height = max((y for _, y in diagram.boxes), default=0)
    n = max((x for x, _ in diagram.boxes), default=0)
    graph = KohnertGraph((height,) * n)
    p = graph.position(pack(diagram, height, n))
    return [(x, is_k, graph.diagram(q)) for x, is_k, q in graph.moves(p)]


def moves(diagram, k_variant):
    return {d for _, is_k, d in single_moves(diagram) if is_k == k_variant}


def test_initial_diagram_examples():
    assert initial_diagram((0, 2, 2)) == D({(2, 1), (2, 2), (3, 1), (3, 2)})
    assert initial_diagram(()) == D(set())
    assert initial_diagram((1,)) == D({(1, 1)})


@pytest.mark.parametrize("a", [(-1, 2), (2, -1), (1.5,), ("2",)], ids=str)
def test_closures_reject_bad_parts(a):
    for build in (initial_diagram, closure, closure_table):
        with pytest.raises(ValueError, match="nonnegative integers"):
            build(a)


def test_kohnert_moves_examples():
    start = initial_diagram((0, 2, 2))
    results = moves(start, False)
    assert D({(1, 2), (2, 1), (3, 1), (3, 2)}) in results
    assert D({(2, 1), (2, 2), (1, 2), (3, 1)}) in results
    assert moves(D({(1, 1), (1, 2)}), False) == set()


def test_k_kohnert_moves_examples():
    start = initial_diagram((0, 2, 2))
    results = moves(start, True)
    assert D({(1, 2), (2, 1), (2, 2), (3, 1), (3, 2)}, {(2, 2)}) in results
    # marked boxes never move again
    marked = D({(1, 1), (2, 1)}, {(2, 1)})
    assert moves(marked, False) == set()


def test_moves_never_pass_marked_boxes():
    # open position at column 1 is only reachable over the marked box
    blocked = D({(2, 1), (3, 1)}, {(2, 1)})
    assert all(origin != 3 for origin, _, _ in single_moves(blocked))


def test_closure_counts():
    assert len(closure((0, 2, 2))) == 13
    assert closure((1, 0)) == (initial_diagram((1, 0)),)
    small = closure((0, 1))
    assert set(small) == {
        D({(2, 1)}),
        D({(1, 1)}),
        D({(1, 1), (2, 1)}, {(2, 1)}),
    }


# every composition with n <= 4 and parts at most 3, grouped by class
CLASSES: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
for _a in (a for n in range(1, 5) for a in product(range(4), repeat=n)):
    CLASSES.setdefault(tuple(sorted(_a)), []).append(_a)

_reference = lru_cache(maxsize=None)(reference_closure)


def _query_order(order):
    """Each class in turn, its compositions by closure size, smallest first,
    or with the antidominant one (whose closure holds all the others) first."""
    if order == "smallest first":
        key = lambda a: (len(_reference(a)[0]), a)
    else:
        key = None
    return [a for members in CLASSES.values() for a in sorted(members, key=key)]


@pytest.mark.parametrize("order", ["smallest first", "antidominant first"])
def test_graph_closures_match_the_reference(order):
    assert (1, 0, 2, 2) in CLASSES[(0, 1, 2, 2)]
    kohnert_graph.cache_clear()
    try:
        for a in _query_order(order):
            diagrams, moves = _reference(a)
            assert closure(a) == tuple(diagrams), a
            graph, positions = closure_table(a)
            assert graph is closure_table(tuple(sorted(a)))[0], a  # one graph per class
            assert graph is kohnert_graph(tuple(sorted(a))), a
            assert closure_table(a)[1] is positions, a  # each closure found once
            for p in positions:
                d = graph.diagram(p)
                assert graph.index[pack(d, graph.height, graph.n)] == p
                assert [(x, k, graph.diagram(q)) for x, k, q in graph.moves(p)] == moves[d], (a, d)
    finally:
        kohnert_graph.cache_clear()


def test_closure_matches_the_golden_grid():
    expected = {
        KKohnertDiagram.from_json_dict(d)
        for d in json.loads(golden.text("grid_022_diagrams.json"))
    }
    assert set(closure((0, 2, 2))) == expected


def test_diagram_weights():
    # the closure of (0, 1): the skyline, its box moved to column 1, and the K-move that keeps (2, 1) marked
    x1, x2 = BetaPolynomial.monomial(2, (1, 0)), BetaPolynomial.monomial(2, (0, 1))
    assert _diagram_character((0, 1), 2) == x1 + x2 + BetaPolynomial.monomial(2, (1, 1), beta=1)
    assert _diagram_character((2, 2, 0), 3) == BetaPolynomial.monomial(3, (2, 2, 0))  # no move
    assert _diagram_character((0, 0, 0), 3) == BetaPolynomial.one(3)


def test_graph_weights_are_the_box_counts_and_marks():
    """KohnertGraph.weight, read off a key, is the diagram's box count of
    each column and number of marks, over every closure of every weak
    composition with at most 4 parts and at most 4 boxes."""
    for a in (a for n in range(1, 5) for a in product(range(5), repeat=n) if sum(a) <= 4):
        graph, positions = closure_table(a)
        for p in positions:
            d = graph.diagram(p)
            heights = tuple(sum(x == column for x, _ in d.boxes) for column in range(1, len(a) + 1))
            assert _unpack(graph.weight(p), graph._units) == (heights, len(d.marked)), (a, d)
    graph, positions = closure_table((0, 2, 2))
    p = graph.index[pack(D({(1, 2), (2, 1), (2, 2), (3, 1), (3, 2)}, {(2, 2)}), graph.height, graph.n)]
    assert p in positions and _unpack(graph.weight(p), graph._units) == ((1, 2, 2), 1)


def test_a_column_of_four_boxes_fills_its_digit():
    """The class of (0, 0, 4) has 4 boxes, so a digit 3 bits wide, and the
    skyline's column 3 fills it up to its top bit: each weight decodes to
    the diagram's column counts and marks, and the character to the sum of
    their monomials."""
    graph, positions = closure_table((0, 0, 4))
    monomials = []
    for p in positions:
        d = graph.diagram(p)
        heights = tuple(sum(x == column for x, _ in d.boxes) for column in range(1, 4))
        assert _unpack(graph.weight(p), graph._units) == (heights, len(d.marked)), d
        monomials.append(BetaPolynomial.monomial(3, heights, beta=len(d.marked)))
    skyline = positions[-1]  # last in canonical order
    assert _unpack(graph.weight(skyline), graph._units) == ((0, 0, 4), 0)
    assert _diagram_character((0, 0, 4), 3) == BetaPolynomial.sum(3, monomials)


def test_closure_weights_sum_to_the_polynomial():
    assert _diagram_character((0, 2, 2), 3) == lascoux((0, 2, 2), 3)


def test_phi_golden_pairs():
    for pair in json.loads(golden.text("phi_pairs_s2.json")):
        d = KKohnertDiagram.from_json_dict(pair["diagram"])
        t = T(pair["tableau"])
        assert phi(d, 2, 2, 3) == t
        assert phi_inverse(t) == d


def test_phi_rejects_non_rectangular_images():
    # two unmarked boxes in the bottom row but only one in the top row
    with pytest.raises(ValueError):
        phi(D({(2, 1), (2, 2), (3, 1)}), 2, 2, 3)


def test_phi_round_trip_on_closures():
    for w_shape, r, s, n in (((0, 2, 2), 2, 2, 3), ((0, 3, 0, 3), 2, 3, 4)):
        for d in closure(w_shape):
            t = phi(d, r, s, n)
            assert t.is_semistandard()
            assert phi_inverse(t) == d


def test_svt_move_examples():
    assert svt_kohnert_move(T("2 2 2/4 4 4", 4), 2) == T("1 2 2/4 4 4", 4)
    assert svt_kohnert_move(T("1 2 2/4 4 4", 4), 2, k_variant=True) == T(
        "1 1,2 2/4 4 4", 4
    )
    assert svt_kohnert_move(T("1 1/2 2"), 1) is None


def test_svt_move_null_cases():
    # moving a non-minimal entry of its box is not allowed
    assert svt_kohnert_move(T("1 1/2 2,3"), 3) is None
    # passing a multi-entry box is not allowed
    assert svt_kohnert_move(T("1,2 2/3 3"), 3) is None
    # the empty tableau holds nothing to move
    assert svt_kohnert_move(T(""), 1) is None


@pytest.mark.parametrize("x", [0, 4, -1, 2.0, True, "2", None])
def test_svt_move_rejects_a_column_that_is_not_an_int_in_1_to_n(x):
    with pytest.raises(ValueError, match="outside 1..3"):
        svt_kohnert_move(T("1 1/2 3"), x)


@pytest.mark.parametrize("k_variant", ["no", 1, 0, 0.0, [], None])
def test_svt_move_rejects_a_k_variant_that_is_not_a_bool(k_variant):
    with pytest.raises(ValueError, match="k_variant must be a bool"):
        svt_kohnert_move(T("2 2 2/4 4 4", 4), 2, k_variant)


def test_svt_move_chain_across_a_wide_rectangle():
    cur = T("2 2 2/4 4 4", 4)
    steps = [
        ((2, False), "1 2 2/4 4 4"),
        ((2, True), "1 1,2 2/4 4 4"),
        ((4, False), "1 1,2 2/3 4 4"),
        ((3, True), "1 1,2 2/2,3 4 4"),
        ((4, False), "1 1,2 2/2,3 3 4"),
        ((4, True), "1 1,2 2/2,3 3 3,4"),
    ]
    for (x, k), expected in steps:
        cur = svt_kohnert_move(cur, x, k)
        assert cur == T(expected, 4)
        assert cur.is_semistandard()


def test_moves_intertwine_with_phi_on_the_square():
    for d in closure((0, 2, 2)):
        t = phi(d, 2, 2, 3)
        moves = {(x, k): image for x, k, image in single_moves(d)}
        for x in range(1, 4):
            for k in (False, True):
                moved = svt_kohnert_move(t, x, k) if any(x in cell for row in t.rows for cell in row) else None
                if (x, k) in moves:
                    assert moved == phi(moves[(x, k)], 2, 2, 3)
                else:
                    assert moved is None


small_diagrams = (
    st.lists(st.integers(0, 2), min_size=1, max_size=3)
    .filter(any)
    .flatmap(lambda a: st.sampled_from(sorted(closure(tuple(a)), key=KKohnertDiagram.sort_key)))
)
BOX_MUTATIONS = [
    lambda box: [box[0], box[1] + 0.5],  # non-integer coordinate
    lambda box: [str(box[0]), box[1]],  # string coordinate
    lambda box: box + [1],  # a triple
    lambda box: box[:1],  # a single coordinate
]


@given(small_diagrams, st.sampled_from(["boxes", "marked"]), st.sampled_from(BOX_MUTATIONS))
def test_json_form_round_trips_and_rejects_malformed_forms(diagram, key, mutate):
    form = json.loads(json.dumps(diagram.to_json_dict()))
    assert KKohnertDiagram.from_json_dict(form) == diagram
    with pytest.raises(ValueError, match=key):
        KKohnertDiagram.from_json_dict({k: v for k, v in form.items() if k != key})
    boxes = form["boxes"]
    with pytest.raises(ValueError, match="boxes entry"):
        KKohnertDiagram.from_json_dict(dict(form, boxes=[mutate(boxes[0])] + boxes[1:]))
