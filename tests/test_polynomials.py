import re
from functools import reduce
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kcrystals.permutations import coset_reps, bruhat_ideal, act, longest_element
from kcrystals.polynomials import (
    BetaPolynomial,
    apply_word,
    grothendieck,
    lascoux,
    lascoux_atom,
    parse_polynomial,
)
from oracles import (
    beta_zero,
    oracle_divided_difference,
    oracle_isobaric,
    reference_demazure,
    reference_demazure_lascoux,
    reference_isobaric_beta,
    schur_polynomial,
)


def mono(n, xs, beta=0, coeff=1):
    return BetaPolynomial.monomial(n, xs, beta=beta, coeff=coeff)


def test_ring_basics():
    p = mono(3, (1, 0, 0)) + mono(3, (0, 1, 0))
    assert p + BetaPolynomial.zero(3) == p
    assert mono(3, (1, 0, 0)) * mono(3, (0, 1, 0)) == mono(3, (1, 1, 0))
    square = p * p
    assert square == mono(3, (2, 0, 0)) + mono(3, (1, 1, 0), coeff=2) + mono(3, (0, 2, 0))


def test_variable_count_mismatch_is_an_error():
    with pytest.raises(ValueError):
        BetaPolynomial.one(2) + BetaPolynomial.one(3)
    with pytest.raises(ValueError):
        BetaPolynomial.sum(3, [BetaPolynomial.one(3), BetaPolynomial.one(2)])


def test_swap_examples():
    assert mono(3, (1, 0, 0)).swap(1) == mono(3, (0, 1, 0))
    assert mono(3, (1, 1, 0)).swap(1) == mono(3, (1, 1, 0))
    assert mono(3, (0, 0, 1), beta=1).swap(1) == mono(3, (0, 0, 1), beta=1)


def test_divided_difference_examples():
    # the division oracle that the product references are built on
    assert oracle_divided_difference(mono(2, (1, 0)), 1) == BetaPolynomial.one(2)
    assert oracle_divided_difference(mono(2, (1, 1)), 1) == BetaPolynomial.zero(2)
    assert oracle_divided_difference(mono(2, (2, 0)), 1) == mono(2, (1, 0)) + mono(2, (0, 1))


def test_demazure_examples():
    assert BetaPolynomial.one(2).demazure(1) == BetaPolynomial.one(2)
    assert mono(2, (1, 0)).demazure(1) == mono(2, (1, 0)) + mono(2, (0, 1))
    assert mono(2, (0, 1)).demazure(1) == BetaPolynomial.zero(2)


def test_demazure_lascoux_examples():
    assert mono(2, (1, 0)).demazure_lascoux(1) == (
        mono(2, (1, 0)) + mono(2, (0, 1)) + mono(2, (1, 1), beta=1)
    )
    sym = mono(2, (1, 1))
    assert sym.demazure_lascoux(1) == sym
    assert sym.demazure_lascoux_atom(1) == BetaPolynomial.zero(2)


def test_isobaric_beta_examples_from_division_oracle():
    for p in (
        BetaPolynomial.one(2),
        mono(2, (1, 0)),
        mono(2, (1, 1)),
        mono(3, (2, 1, 0)),
    ):
        assert p.isobaric_beta(1) == oracle_isobaric(p, 1)
    assert BetaPolynomial.one(2).isobaric_beta(1) == mono(2, (0, 0), beta=1, coeff=-1)
    assert mono(2, (1, 0)).isobaric_beta(1) == BetaPolynomial.one(2)
    assert mono(2, (1, 1)).isobaric_beta(1) == mono(2, (1, 1), beta=1, coeff=-1)


@st.composite
def polynomials(draw, n=None):
    if n is None:
        n = draw(st.integers(min_value=2, max_value=4))
    poly = BetaPolynomial.zero(n)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        exps = draw(
            st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
        )
        poly += mono(
            n,
            exps,
            beta=draw(st.integers(min_value=0, max_value=2)),
            coeff=draw(st.integers(min_value=-4, max_value=4)),
        )
    return poly


@given(polynomials(), st.data())
def test_divided_difference_matches_division_oracle(p, data):
    i = data.draw(st.integers(min_value=1, max_value=p.n - 1))
    # the telescoping kernel with no lift and no deformation
    assert p._telescope(i, 0, 0) == oracle_divided_difference(p, i)


@given(polynomials(), st.data())
def test_operator_identities_on_random_polynomials(p, data):
    i = data.draw(st.integers(min_value=1, max_value=p.n - 1))
    pi = p.demazure(i)
    assert pi.demazure(i) == pi
    varpi = p.demazure_lascoux(i)
    assert varpi.demazure_lascoux(i) == varpi
    assert p.demazure_lascoux(i) == pi + mono(p.n, (0,) * p.n, beta=1) * (
        (mono(p.n, tuple(int(j == i + 1) for j in range(1, p.n + 1))) * p).demazure(i)
    )


@given(polynomials(), st.data())
def test_fast_operators_match_the_product_references(p, data):
    i = data.draw(st.integers(min_value=1, max_value=p.n - 1))
    assert p.demazure(i) == reference_demazure(p, i)
    assert p.demazure_lascoux(i) == reference_demazure_lascoux(p, i)
    assert p.isobaric_beta(i) == reference_isobaric_beta(p, i)
    assert p.demazure_lascoux_atom(i) == reference_demazure_lascoux(p, i) - p


@given(polynomials(), st.data())
def test_internal_results_pass_the_public_constructor(p, data):
    """No zero coefficient, and every key of length n with non-negative
    exponents, in every result the ring builds without validation."""
    n = p.n
    q = data.draw(polynomials(n))
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    k = data.draw(st.integers(min_value=-2, max_value=2))
    results = [
        p + q, p - q, p - p, p * q, p * k, k * p, -p,
        p.swap(i), p._telescope(i, 0, 0),
        p.demazure(i), p.demazure_lascoux(i), p.demazure_lascoux_atom(i), p.isobaric_beta(i),
        p.extend(n + 1), BetaPolynomial.sum(n, [p, q, -p]),
    ]
    for r in results:
        assert BetaPolynomial(r.n, r.terms) == r


@pytest.mark.parametrize("op", ["swap", "demazure", "demazure_lascoux", "demazure_lascoux_atom", "isobaric_beta"])
@pytest.mark.parametrize("i", [0, 3, True, 1.0, "1"])
def test_operator_index_out_of_range_is_a_value_error(op, i):
    # a letter is an int in 1..n-1, not a bool, as for the crystal operators
    with pytest.raises(ValueError, match=re.escape(f"letter {i!r} is outside 1..2")):
        getattr(mono(3, (1, 0, 2)), op)(i)


@pytest.mark.parametrize("op", ["pi", "varpi", "varpi_atom", "isobaric"])
@pytest.mark.parametrize("i", [0, 3, True, 1.0, "1"])
def test_apply_word_rejects_a_letter_outside_1_to_n_minus_1(op, i):
    with pytest.raises(ValueError, match=re.escape(f"letter {i!r} is outside 1..2")):
        apply_word(mono(3, (1, 0, 2)), [1, i], op)


@pytest.mark.parametrize("op", ["bogus", "demazure", ""])
def test_apply_word_rejects_an_unknown_operator(op):
    with pytest.raises(ValueError, match=f"unknown operator {op!r}; expected one of pi, varpi, varpi_atom, isobaric"):
        apply_word(mono(3, (1, 0, 2)), [1], op)


@pytest.mark.parametrize(
    "operation",
    [
        lambda p: p * 1.5,
        lambda p: 1.5 * p,
        lambda p: p * "a",
        lambda p: p * True,
        lambda p: p + 1,
        lambda p: 1 + p,
        lambda p: p - 1,
    ],
)
def test_foreign_operands_raise_type_error(operation):
    with pytest.raises(TypeError):
        operation(mono(2, (1, 0)))


@pytest.mark.parametrize(
    "n,terms,error",
    [
        (-1, {}, ValueError),
        (1.5, {}, ValueError),
        (True, {}, ValueError),
        ("2", {}, ValueError),
        (2, {((1, 0), 0): 1.5}, TypeError),
        (2, {((1, 0), 0): True}, TypeError),
        (2, {((1, 0), 0): "1"}, TypeError),
        (2, {((1.0, 0), 0): 1}, TypeError),
        (2, {((True, 0), 0): 1}, TypeError),
        (2, {((1, 0), 1.0): 1}, TypeError),
        (2, {((1, 0, 0), 0): 1}, ValueError),
        (2, {((1, -1), 0): 1}, ValueError),
        (2, {((1, 0), -1): 1}, ValueError),
    ],
)
def test_public_constructor_rejects_bad_data(n, terms, error):
    with pytest.raises(error):
        BetaPolynomial(n, terms)


@pytest.mark.parametrize("n", [-1, 1.5, True])
def test_sum_and_extend_reject_a_bad_variable_count(n):
    with pytest.raises(ValueError):
        BetaPolynomial.sum(n, [])
    with pytest.raises(ValueError):
        BetaPolynomial.one(1).extend(n)
    with pytest.raises(ValueError, match="variable count"):
        BetaPolynomial.monomial(n, (1,))
    with pytest.raises(ValueError, match="variable count"):
        parse_polynomial("x1", n)


@pytest.mark.parametrize(
    "text,canonical",
    [
        ("x1 + x1", "2*x1"),
        ("x1^0", "1"),
        ("b^0*x2", "x2"),
        ("0*x1", "0"),
        ("2*3*x1", "6*x1"),
        ("1*x1", "x1"),
        ("x1 + 0", "x1"),
        ("x1*x1", "x1^2"),
        ("x1 + x2", "x2 + x1"),
    ],
)
def test_parse_polynomial_rejects_non_canonical_text(text, canonical):
    with pytest.raises(ValueError, match=re.escape(repr(canonical))):
        parse_polynomial(text, 2)


@st.composite
def polynomial_lists(draw):
    """Polynomials in one variable count, some followed later by their
    negatives so that terms cancel."""
    n = draw(st.integers(min_value=1, max_value=4))
    monomials = st.builds(
        mono,
        st.just(n),
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=-4, max_value=4),
    )
    summands = st.lists(monomials, max_size=4).map(
        lambda ms: reduce(add, ms, BetaPolynomial.zero(n))
    )
    polys = draw(st.lists(summands, max_size=6))
    negated = [-p for p in draw(st.lists(st.sampled_from(polys), max_size=3))] if polys else []
    return n, draw(st.permutations(polys + negated))


@given(polynomial_lists())
def test_sum_is_the_left_fold_of_addition(case):
    n, polys = case
    assert BetaPolynomial.sum(n, polys) == reduce(add, polys, BetaPolynomial.zero(n))
    cancelled = BetaPolynomial.sum(n, polys + [-p for p in polys])
    assert cancelled == BetaPolynomial.zero(n) and not cancelled.terms


@given(polynomials())
def test_text_round_trip(p):
    assert parse_polynomial(p.to_text(), p.n) == p


def test_lascoux_examples():
    assert lascoux((2, 2, 0), 3) == mono(3, (2, 2, 0))
    expected = (
        mono(3, (2, 2, 0))
        + mono(3, (2, 1, 1))
        + mono(3, (2, 0, 2))
        + mono(3, (2, 2, 1), beta=1)
        + mono(3, (2, 1, 2), beta=1)
    )
    assert lascoux((2, 0, 2), 3) == expected


def test_lascoux_golden_13_terms():
    poly = lascoux((0, 2, 2), 3)
    coeffs = {
        ((0, 2, 2), 0): 1,
        ((1, 1, 2), 0): 1,
        ((1, 2, 1), 0): 1,
        ((2, 0, 2), 0): 1,
        ((2, 1, 1), 0): 1,
        ((2, 2, 0), 0): 1,
        ((1, 2, 2), 1): 2,
        ((2, 1, 2), 1): 2,
        ((2, 2, 1), 1): 2,
        ((2, 2, 2), 2): 1,
    }
    assert poly.terms == coeffs
    assert sum(poly.terms.values()) == 13
    assert poly.is_symmetric()


def test_lascoux_atom_examples():
    assert lascoux_atom((2, 2, 0), 3) == mono(3, (2, 2, 0))
    assert lascoux_atom((2, 0, 2), 3) == lascoux((2, 0, 2), 3) - mono(3, (2, 2, 0))


def test_atoms_sum_to_lascoux_over_the_bruhat_ideal():
    lam = (2, 2, 0)
    reps = set(coset_reps(lam, 3))
    for w in reps:
        total = BetaPolynomial.zero(3)
        for v in bruhat_ideal(w):
            if v in reps:
                total += lascoux_atom(act(v, lam), 3)
        assert total == lascoux(act(w, lam), 3)


def test_key_polynomial_examples():
    # the key polynomial is the beta = 0 part of the Lascoux polynomial
    assert beta_zero(lascoux((2, 2, 0), 3)) == mono(3, (2, 2, 0))
    assert len(beta_zero(lascoux((0, 2, 2), 3)).terms) == 6


@pytest.mark.parametrize("shape", [(1,), (2,), (2, 1), (2, 2), (3, 1)])
def test_top_key_polynomial_is_schur(shape):
    n = 3
    lam = shape + (0,) * (n - len(shape))
    top = tuple(reversed(lam))
    assert beta_zero(lascoux(top, n)) == schur_polynomial(shape, n)


def test_grothendieck_of_longest_element_is_the_staircase():
    for n in (2, 3, 4):
        assert grothendieck(longest_element(n), n) == mono(n, range(n - 1, -1, -1))


def test_grothendieck_of_identity_is_one():
    for n in (2, 3):
        assert grothendieck(tuple(range(1, n + 1)), n) == BetaPolynomial.one(n)


def test_grothendieck_beta_zero_is_schur_for_grassmannian_permutations():
    # descent only at position 3; code (0,2,2) sorts to the 2x2 square
    w = (1, 4, 5, 2, 3)
    assert beta_zero(grothendieck(w, 5)) == schur_polynomial((2, 2), 3).extend(5)


@pytest.mark.parametrize("w", [(2, 2, 1), (1, 2), (1, 2, 4), (0, 1, 2)], ids=str)
def test_grothendieck_rejects_a_non_permutation(w):
    with pytest.raises(ValueError, match=r"is not a permutation of 1\.\.3"):
        grothendieck(w, 3)


def test_grothendieck_stability_under_adding_variables():
    w = (2, 1, 3)
    assert grothendieck(w, 3).extend(4) == grothendieck((2, 1, 3, 4), 4)


@pytest.mark.parametrize("a,n", [((0, 2, 2), 3), ((0, 1, 0, 1), 4), ((0, 0, 2, 1), 4)])
def test_lascoux_is_independent_of_the_reduced_word(a, n):
    from kcrystals.permutations import reduced_words, sorting_permutation

    lam, w = sorting_permutation(tuple(a) + (0,) * (n - len(a)))
    baseline = lascoux(a, n)
    for word in reduced_words(w):
        chained = apply_word(
            BetaPolynomial.monomial(n, lam), reversed(word), "varpi"
        )
        assert chained == baseline
