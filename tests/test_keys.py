from collections import Counter

import pytest

from kcrystals.crystal import atom_subset, demazure_subset, crystal_e, crystal_f, crystal_table
from kcrystals.keys import (
    _entry,
    _key_maps,
    _right_keys,
    k_lusztig_star,
    key_of_composition,
    key_partition_report,
    lusztig_star,
    preceq,
    right_key,
)
from kcrystals.tableaux import SetValuedTableau, enumerate_svt, superstandard
from oracles import is_key_tableau, max_right_key

T = lambda text, n=3: SetValuedTableau.from_text(text, n)


def test_key_of_composition_rejects_bad_parts():
    for a in ((2, -1), (-1,), (True, 2), (1.5,)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            key_of_composition(a)


def test_key_of_composition_examples():
    assert key_of_composition((2, 2, 0)).to_text() == "1 1/2 2"
    assert key_of_composition((0, 2, 2)).to_text() == "2 2/3 3"
    assert key_of_composition((2, 0, 2)).to_text() == "1 1/3 3"
    assert all(
        is_key_tableau(key_of_composition(a))
        for a in ((2, 0, 2), (1, 0, 3, 2), (0, 1, 0, 1))
    )


def test_right_key_examples():
    assert right_key(superstandard((2, 2), 3)) == key_of_composition((2, 2, 0))
    assert right_key(T("1 1/2 3")) == T("1 1/3 3")
    assert right_key(T("2 2/3 3")) == T("2 2/3 3")


def test_right_key_outputs_are_keys_with_orbit_weights():
    for t in enumerate_svt(3, (2, 1)):
        if t.excess():
            continue
        key = right_key(t)
        assert is_key_tableau(key)
        assert tuple(sorted(key.weight(), reverse=True)) == (2, 1, 0)


def test_max_min_tableau():
    table = crystal_table(3, (2, 2))
    entry = lambda t, least: table.decode(_entry(table, table._encode(t), least))
    t = T("1 1,2/2,3 3")
    assert entry(t, False) == T("1 2/3 3")
    assert entry(t, True) == T("1 1/2 3")
    singleton = T("1 1/2 3")
    assert entry(singleton, False) == singleton == entry(singleton, True)


def test_max_right_key_examples():
    assert max_right_key(T("1 1,2,3/2,3")) == T("1 3/3")
    assert max_right_key(superstandard((2, 2), 3)) == key_of_composition((2, 2, 0))
    assert max_right_key(T("1 1/2 2,3")) == T("1 1/3 3")


def test_max_right_key_rejects_a_tableau_outside_the_crystal():
    # not semistandard, though its greatest-entry tableau 1/2 is
    with pytest.raises(ValueError, match=r"1/1,2 is not in the crystal"):
        max_right_key(T("1/1,2", 2))


def test_lusztig_star_examples():
    assert lusztig_star(superstandard((2, 2), 3)) == T("2 2/3 3")
    assert lusztig_star(T("1 1/2 3")) == T("1 2/3 3")
    for t in enumerate_svt(3, (2, 2)):
        assert lusztig_star(lusztig_star(t)) == t
        assert lusztig_star(t).weight() == tuple(reversed(t.weight()))


def test_k_lusztig_star_examples():
    assert k_lusztig_star(T("1 1/2 2")) == T("2 2/3 3")
    assert k_lusztig_star(T("1 1/2 3")) == T("1 2/3 3")
    assert k_lusztig_star(T("1 1/2 2,3")) == T("1,2 2/3 3")
    with pytest.raises(ValueError):
        k_lusztig_star(T("1 1/2", 3))


def test_star_crystal_axiom_on_the_square():
    n = 3
    for t in enumerate_svt(n, (2, 2)):
        star = k_lusztig_star(t)
        for i in (1, 2):
            down = crystal_f(t, n - i)
            assert crystal_e(star, i) == (None if down is None else k_lusztig_star(down))


def _k_rect_keys(n, shape):
    """The K-rect key map of key_partition_report (the right key of
    min(T°)° for the rotation °), by tableau."""
    table = crystal_table(n, shape)
    keys = table.derived(_right_keys)[0]
    return {table.decode(code): keys[i] for code, i in zip(table.codes, table.derived(_key_maps)["K-rect"])}


def test_k_rect_key_examples():
    keys = _k_rect_keys(3, (2, 2))
    assert list(keys) == list(enumerate_svt(3, (2, 2)))
    assert keys[superstandard((2, 2), 3)] == key_of_composition((2, 2, 0))
    assert keys[T("1 1/2 2,3")] == T("1 1/3 3")
    sizes = Counter(key.to_text() for key in keys.values())
    assert sorted(sizes.values()) == [1, 4, 8]


def test_k_rect_key_fibers_match_atoms_on_the_square():
    keys = _k_rect_keys(3, (2, 2))
    for w, a in (((1, 2, 3), (2, 2, 0)), ((1, 3, 2), (2, 0, 2)), ((2, 3, 1), (0, 2, 2))):
        target = key_of_composition(a)
        fiber = {t for t, key in keys.items() if key == target}
        assert fiber == set(atom_subset(w, (2, 2), 3))


def test_preceq():
    k1, k2 = T("1 1/2 2"), T("1 1/3 3")
    assert preceq(k1, k1)
    assert preceq(k1, k2)
    assert preceq(k1, T("2 2/3 3"))
    assert not preceq(T("2 2/3 3"), k2)
    with pytest.raises(ValueError):
        preceq(k1, T("1 1/2", 3))


def test_key_ideals_match_demazure_subsets_on_the_square():
    for w, a in (((1, 2, 3), (2, 2, 0)), ((1, 3, 2), (2, 0, 2)), ((2, 3, 1), (0, 2, 2))):
        target = key_of_composition(a)
        ideal = {
            t for t in enumerate_svt(3, (2, 2)) if preceq(max_right_key(t), target)
        }
        assert ideal == set(demazure_subset(w, (2, 2), 3))


def test_report_flags_the_max_key_counterexample_without_crashing():
    rows = key_partition_report((2, 1), 3)
    cal_failures = [r for r in rows if r["involution"] == "calK" and not r["match"]]
    assert cal_failures, "the greatest-entry key map must fail on shape (2,1)"
    assert all(set(r) == {"shape", "w", "involution", "mode", "match"} for r in rows)
    # the rotation involution is only defined on rectangles
    assert not any(r["involution"] == "K-rect" for r in rows)


def test_report_passes_on_rectangles():
    rows = key_partition_report((2, 2), 3)
    assert rows and all(r["match"] for r in rows if r["involution"] != "K-naive")


def test_single_row_involutions_agree():
    for t in enumerate_svt(3, (3,)):
        assert lusztig_star(t) == k_lusztig_star(t)


def test_report_is_trivial_on_a_single_box():
    rows = key_partition_report((1,), 2)
    assert rows and all(r["match"] for r in rows)


def test_report_rejects_a_shape_longer_than_n():
    with pytest.raises(ValueError, match="longer than n=3"):
        key_partition_report((1, 1, 1, 1), 3)
