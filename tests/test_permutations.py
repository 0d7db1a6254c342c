import re
from itertools import permutations as all_perms
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kcrystals.permutations import (
    act,
    avoids_pattern,
    bruhat_ideal,
    bruhat_leq,
    coset_reps,
    evaluate_word,
    flag_vector,
    identity,
    lehmer_code,
    length,
    longest_element,
    reduced_word,
    reduced_words,
    sorting_permutation,
    stabilizer_min_rep,
)
from oracles import brute_min_coset_rep, subword_bruhat_leq

perms_of = lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
small_perms = st.integers(min_value=1, max_value=5).flatmap(perms_of)


def test_length_examples():
    assert length((1, 2, 3)) == 0
    assert length((3, 2, 1)) == 3
    assert length((2, 3, 1)) == 2


def test_reduced_words_examples():
    assert reduced_words((2, 1, 3)) == {(1,)}
    assert reduced_words((2, 3, 1)) == {(1, 2)}
    assert reduced_words((3, 2, 1)) == {(1, 2, 1), (2, 1, 2)}


@given(small_perms)
def test_every_reduced_word_has_the_right_length_and_value(w):
    n = len(w)
    assert length(w) == len(reduced_word(w))
    assert evaluate_word(reduced_word(w), n) == w
    for word in reduced_words(w):
        assert len(word) == length(w)
        assert evaluate_word(word, n) == w


def test_bruhat_examples():
    assert bruhat_leq((1, 2, 3), (3, 2, 1))
    assert bruhat_leq((2, 1, 3), (2, 3, 1))
    assert not bruhat_leq((1, 3, 2), (2, 1, 3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bruhat_leq_agrees_with_all_words_oracle(n):
    """Every pair against the ideal's membership, and at n <= 4 against the
    slower all-reduced-words oracle."""
    elements = [tuple(p) for p in all_perms(range(1, n + 1))]
    for w in elements:
        ideal = bruhat_ideal(w)
        for v in elements:
            assert bruhat_leq(v, w) == (v in ideal)
            if n <= 4:
                assert bruhat_leq(v, w) == subword_bruhat_leq(v, w)


def test_bruhat_ideal_examples():
    assert bruhat_ideal((1, 2, 3)) == {(1, 2, 3)}
    assert bruhat_ideal((2, 3, 1)) == {(1, 2, 3), (2, 1, 3), (1, 3, 2), (2, 3, 1)}
    assert len(bruhat_ideal((3, 2, 1))) == 6


@given(small_perms)
def test_bruhat_ideal_matches_pairwise_test(w):
    n = len(w)
    ideal = bruhat_ideal(w)
    assert identity(n) in ideal and w in ideal
    for v in all_perms(range(1, n + 1)):
        assert (tuple(v) in ideal) == bruhat_leq(tuple(v), w)


def test_stabilizer_min_rep_examples():
    assert stabilizer_min_rep((1, 2, 3), (2, 2, 0)) == (1, 2, 3)
    assert stabilizer_min_rep((3, 2, 1), (2, 2, 0)) == (2, 3, 1)
    assert stabilizer_min_rep((1, 3, 2), (2, 2, 0)) == (1, 3, 2)


@pytest.mark.parametrize("lam", [(2, 2, 0), (3, 1, 0), (1, 1, 1), (2, 0, 0)])
def test_min_rep_against_brute_force(lam):
    for w in all_perms(range(1, 4)):
        rep = stabilizer_min_rep(tuple(w), lam)
        assert rep == brute_min_coset_rep(tuple(w), lam)
        assert bruhat_leq(rep, tuple(w))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_min_rep_and_quotient_against_brute_force(n):
    """Each representative, and the quotient as the set of them, for every
    weakly decreasing λ of length n with parts at most 2."""
    elements = [tuple(w) for w in all_perms(range(1, n + 1))]
    for lam in product(range(3), repeat=n):
        if list(lam) != sorted(lam, reverse=True):
            continue
        brute = {w: brute_min_coset_rep(w, lam) for w in elements}
        for w, rep in brute.items():
            assert stabilizer_min_rep(w, lam) == rep, (w, lam)
            assert bruhat_leq(rep, w)
        assert coset_reps(lam, n) == tuple(sorted(set(brute.values()), key=lambda u: (length(u), u)))


def test_a_short_lam_is_padded_to_the_rank():
    assert stabilizer_min_rep((1, 3, 2), (1,)) == (1, 2, 3)
    assert coset_reps((2,), 3) == coset_reps((2, 0, 0), 3)


@pytest.mark.parametrize(
    "call,args",
    [(coset_reps, ((1, 0, 0, 0), 3)), (stabilizer_min_rep, ((2, 1), (1, 1, 0))), (flag_vector, ((1, 2, 3), 4, 2))],
    ids=["coset_reps", "stabilizer_min_rep", "flag_vector"],
)
def test_a_lam_longer_than_n_is_rejected(call, args):
    with pytest.raises(ValueError, match="longer than n"):
        call(*args)


@pytest.mark.parametrize(
    "call,args",
    [(coset_reps, ((0, 1), 2)), (stabilizer_min_rep, ((1, 2, 3), (1, 2)))],
    ids=["coset_reps", "stabilizer_min_rep"],
)
def test_a_lam_that_is_not_weakly_decreasing_is_rejected(call, args):
    with pytest.raises(ValueError, match="not weakly decreasing"):
        call(*args)


@pytest.mark.parametrize(
    "call,args,n",
    [
        (stabilizer_min_rep, ((1, 1, 2), (1,)), 3),
        (stabilizer_min_rep, ((0, 5), (1,)), 2),
        (flag_vector, ((2, 2, 3), 3, 1), 3),
        (stabilizer_min_rep, ((True, 2), (1,)), 2),
        (stabilizer_min_rep, ((2.0, 1), (1,)), 2),
    ],
    ids=["repeated value", "values outside 1..n", "flag_vector", "a bool", "a float"],
)
def test_a_w_that_is_not_a_permutation_is_rejected(call, args, n):
    with pytest.raises(ValueError, match=re.escape(f"w={args[0]!r} is not a permutation of 1..{n}")):
        call(*args)


@pytest.mark.parametrize(
    "call,args,w",
    [
        (length, ((1, 1, 5),), (1, 1, 5)),
        (reduced_word, ((3, 3, 1),), (3, 3, 1)),
        (reduced_words, ((1, 1, 2),), (1, 1, 2)),
        (bruhat_leq, ((1, 1, 3), (3, 2, 1)), (1, 1, 3)),
        (bruhat_leq, ((3, 2, 1), (1, 1, 3)), (1, 1, 3)),
        (bruhat_ideal, ((2, 2, 1),), (2, 2, 1)),
        (bruhat_ideal, ([0, 1],), (0, 1)),
        (lehmer_code, ((1, 1, 5),), (1, 1, 5)),
        (lehmer_code, ((True, 2),), (True, 2)),
        (avoids_pattern, ((1, 1, 3), (2, 1)), (1, 1, 3)),
        (avoids_pattern, ((1, 2, 3), (2, 2)), (2, 2)),
    ],
    ids=[
        "length",
        "reduced_word",
        "reduced_words",
        "bruhat_leq v",
        "bruhat_leq w",
        "bruhat_ideal",
        "bruhat_ideal of a list",
        "lehmer_code",
        "lehmer_code of a bool",
        "avoids_pattern w",
        "avoids_pattern pattern",
    ],
)
def test_a_non_permutation_is_rejected(call, args, w):
    with pytest.raises(ValueError, match=re.escape(f"w={w!r} is not a permutation of 1..{len(w)}")):
        call(*args)


def test_bruhat_leq_rejects_two_ranks():
    with pytest.raises(ValueError, match="rank mismatch"):
        bruhat_leq((1, 2), (1, 2, 3))


def test_a_list_reads_as_its_tuple():
    assert bruhat_ideal([2, 1]) == bruhat_ideal((2, 1)) == {(1, 2), (2, 1)}
    assert coset_reps([2, 1], 3) == coset_reps((2, 1, 0), 3)
    assert reduced_words([2, 1]) == reduced_words((2, 1)) == {(1,)}


def test_coset_reps_examples():
    assert set(coset_reps((2, 2, 0), 3)) == {(1, 2, 3), (1, 3, 2), (2, 3, 1)}
    assert coset_reps((0, 0, 0), 3) == ((1, 2, 3),)
    assert len(coset_reps((3, 1, 0), 3)) == 6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coset_reps_cardinality_and_full_commutativity(n):
    for r in range(1, n + 1):
        lam = (2,) * r + (0,) * (n - r)
        reps = coset_reps(lam, n)
        stab_size = 1
        for block in (r, n - r):
            for k in range(1, block + 1):
                stab_size *= k
        import math

        assert len(reps) == math.factorial(n) // stab_size
        assert all(avoids_pattern(w, (3, 2, 1)) for w in reps)


def test_sorting_permutation_spec_cases():
    assert sorting_permutation((0, 2, 2)) == ((2, 2, 0), (2, 3, 1))
    assert sorting_permutation((2, 0, 2)) == ((2, 2, 0), (1, 3, 2))
    lam, w = sorting_permutation((4, 0, 2, 0, 0))
    assert lam == (4, 2, 0, 0, 0)
    assert w == (1, 3, 2, 4, 5)


def test_sorting_permutation_carries_lam_to_a_and_is_minimal():
    for n in range(1, 6):
        for a in product(range(4), repeat=n):
            lam, w = sorting_permutation(a)
            assert lam == tuple(sorted(a, reverse=True)), a
            assert act(w, lam) == a, a
            assert stabilizer_min_rep(w, lam) == w, a


def test_flag_vector_examples():
    assert flag_vector((1, 2, 3), 2, 2) == (1, 2)
    assert flag_vector((1, 3, 2), 2, 2) == (1, 3)
    assert flag_vector((2, 3, 1), 2, 2) == (2, 3)


@pytest.mark.parametrize(
    "r,s,named",
    [(1, True, "s=True"), (True, 2, "r=True"), (-1, 2, "r=-1"), (1, -2, "s=-2"), (1.0, 2, "r=1.0")],
    ids=["a bool s", "a bool r", "a negative r", "a negative s", "a float r"],
)
def test_flag_vector_rejects_a_side_that_is_not_an_int_at_least_0(r, s, named):
    with pytest.raises(ValueError, match=f"rectangle side {re.escape(named)} is not an int >= 0"):
        flag_vector((2, 1, 3), r, s)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_flag_vector_is_increasing_and_matches_min_rep(n):
    for r in range(1, min(3, n) + 1):
        for s in (1, 2, 3):
            lam = (s,) * r + (0,) * (n - r)
            for w in all_perms(range(1, n + 1)):
                bounds = flag_vector(tuple(w), r, s)
                assert list(bounds) == sorted(bounds)
                assert bounds == stabilizer_min_rep(tuple(w), lam)[:r]


def test_avoids_pattern_examples():
    assert not avoids_pattern((2, 1, 4, 3), (2, 1, 4, 3))
    assert avoids_pattern((1, 2, 3), (2, 1, 4, 3))
    assert not avoids_pattern((3, 1, 2), (3, 1, 2))


def test_lehmer_code_examples():
    assert lehmer_code((1, 2, 3)) == (0, 0, 0)
    assert lehmer_code((3, 2, 1)) == (2, 1, 0)
    assert lehmer_code((2, 3, 1)) == (1, 1, 0)


@given(small_perms)
def test_lehmer_code_sums_to_length(w):
    assert sum(lehmer_code(w)) == length(w)


def test_longest_element_length():
    for n in range(1, 6):
        assert length(longest_element(n)) == n * (n - 1) // 2
