"""
Crystal and K-crystal operators on semistandard set-valued tableaux,
with the derived Demazure-type subsets and characters.

Signs are computed per column, left to right: a column containing i but
not i+1 contributes "+", one containing i+1 but not i contributes "-",
and a column containing both (or neither) contributes nothing.  Signs
cancel in ordered "-+" pairs: each "+" consumes the most recent pending
"-" to its left, so the surviving signature always reads "+...+-...-".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .permutations import (
    Perm,
    bruhat_ideal,
    coset_reps,
    flag_vector,
    reduced_word,
    stabilizer_min_rep,
)
from .polynomials import BetaPolynomial
from .tableaux import SetValuedTableau, enumerate_svt, superstandard


def signature(tableau: SetValuedTableau, i: int) -> tuple[list[int], list[int]]:
    """Columns of the unpaired "+" and "-" signs, each left to right."""
    rows = tableau.rows
    # A semistandard column holds each value at most once, so a column's sign
    # is (boxes holding i) - (boxes holding i+1); rows weakly increase, so a
    # row holds neither value past its first box whose minimum exceeds i+1.
    j = i + 1
    signs = [0] * len(rows[0]) if rows else []
    for row in rows:
        for c, cell in enumerate(row):
            if cell[0] > j:
                break
            if i in cell:
                signs[c] += 1
            if j in cell:
                signs[c] -= 1
    unpaired_plus: list[int] = []
    pending_minus: list[int] = []
    for c, sign in enumerate(signs):
        if sign < 0:
            pending_minus.append(c)
        elif sign > 0:
            if pending_minus:
                pending_minus.pop()
            else:
                unpaired_plus.append(c)
    return unpaired_plus, pending_minus


def crystal_f(tableau: SetValuedTableau, i: int) -> SetValuedTableau | None:
    """Lowering operator: act at the rightmost unpaired "+"."""
    plus, _ = signature(tableau, i)
    if not plus:
        return None
    c = plus[-1]
    r = tableau.row_with(c, i)
    row = tableau.rows[r]
    if c + 1 < len(row) and i in row[c + 1]:
        out = tableau.with_cell(r, c + 1, set(row[c + 1]) - {i})
        return out.with_cell(r, c, set(row[c]) | {i + 1})
    return tableau.with_cell(r, c, (set(row[c]) - {i}) | {i + 1})


def crystal_e(tableau: SetValuedTableau, i: int) -> SetValuedTableau | None:
    """Raising operator: act at the leftmost unpaired "-"."""
    _, minus = signature(tableau, i)
    if not minus:
        return None
    c = minus[0]
    r = tableau.row_with(c, i + 1)
    row = tableau.rows[r]
    if c > 0 and i + 1 in row[c - 1]:
        out = tableau.with_cell(r, c - 1, set(row[c - 1]) - {i + 1})
        return out.with_cell(r, c, set(row[c]) | {i})
    return tableau.with_cell(r, c, (set(row[c]) - {i + 1}) | {i})


def kcrystal_f(tableau: SetValuedTableau, i: int) -> SetValuedTableau | None:
    """K-lowering: add an extra i+1 to the box of the rightmost unpaired
    "+", provided the tableau is i-highest and no box weakly to the right
    already holds both i and i+1."""
    plus, minus = signature(tableau, i)
    if minus or not plus:
        return None
    c = plus[-1]
    if any(cc >= c and i in cell and i + 1 in cell for _, cc, cell in tableau.cells()):
        return None
    r = tableau.row_with(c, i)
    return tableau.with_cell(r, c, set(tableau.rows[r][c]) | {i + 1})


def kcrystal_e(tableau: SetValuedTableau, i: int) -> SetValuedTableau | None:
    """K-raising: remove the i+1 from the rightmost box holding both i and
    i+1, provided the tableau is i-highest and no unpaired "+" lies
    strictly to the right of that box."""
    both = [
        (r, c) for r, c, cell in tableau.cells() if i in cell and i + 1 in cell
    ]
    if not both:
        return None
    plus, minus = signature(tableau, i)
    if minus:
        return None
    r, c = max(both, key=lambda rc: rc[1])
    if any(cc > c for cc in plus):
        return None
    return tableau.with_cell(r, c, set(tableau.rows[r][c]) - {i + 1})


def raise_string_max(tableau: SetValuedTableau, i: int) -> SetValuedTableau:
    """Apply crystal_e until exhausted, then kcrystal_e until exhausted."""
    current = tableau
    while (up := crystal_e(current, i)) is not None:
        current = up
    while (up := kcrystal_e(current, i)) is not None:
        current = up
    return current


def is_highest_weight(tableau: SetValuedTableau) -> bool:
    return all(crystal_e(tableau, i) is None for i in range(1, tableau.n))


def is_k_highest_weight(tableau: SetValuedTableau) -> bool:
    return is_highest_weight(tableau) and all(
        kcrystal_e(tableau, i) is None for i in range(1, tableau.n)
    )


def _rectangle_dims(shape: tuple[int, ...]) -> tuple[int, int]:
    widths = {s for s in shape if s}
    if len(widths) > 1:
        raise ValueError(f"shape {shape!r} is not a rectangle")
    r = sum(1 for s in shape if s)
    s = widths.pop() if widths else 0
    return r, s


def _pad(shape, n: int) -> tuple[int, ...]:
    shape = tuple(shape)
    return shape + (0,) * (n - len(shape))


@lru_cache(maxsize=None)
def _raise_table(
    n: int, shape: tuple[int, ...], i: int
) -> dict[SetValuedTableau, SetValuedTableau]:
    """raise_string_max(t, i) for every tableau t of enumerate_svt(n, shape),
    as its instance in that tuple; a KeyError means the raise chain left
    the set, which breaks an invariant of the crystal."""
    tableaux = enumerate_svt(n, shape)
    canonical = {t: t for t in tableaux}
    return {t: canonical[raise_string_max(t, i)] for t in tableaux}


@lru_cache(maxsize=None)
def demazure_subset(
    w: Perm, shape: tuple[int, ...], n: int, word: tuple[int, ...] | None = None
) -> tuple[SetValuedTableau, ...]:
    """The K-Demazure subset for w: tableaux whose alternating maximal
    raise chain along a reduced word of the minimal coset representative
    of w ends at the minimal highest weight element."""
    r, s = _rectangle_dims(shape)
    rep = stabilizer_min_rep(w, _pad(shape, n))
    if word is None:
        word = reduced_word(rep)
    tables = [_raise_table(n, shape, i) for i in word]
    u = superstandard(shape, n)
    members = []
    for tableau in enumerate_svt(n, shape):
        current = tableau
        for table in tables:
            current = table[current]
        if current == u:
            members.append(tableau)
    return tuple(members)


@lru_cache(maxsize=None)
def flagged_set(
    w: Perm, shape: tuple[int, ...], n: int
) -> tuple[SetValuedTableau, ...]:
    """Tableaux whose row-m entries are bounded by the flag of w."""
    r, s = _rectangle_dims(shape)
    bounds = flag_vector(w, r, s)
    return tuple(
        t
        for t in enumerate_svt(n, shape)
        if all(
            max(cell) <= bounds[m]
            for m, row in enumerate(t.rows)
            for cell in row
        )
    )


def atom_subset(
    w: Perm, shape: tuple[int, ...], n: int
) -> tuple[SetValuedTableau, ...]:
    """The K-Demazure subset of w minus those of all strictly smaller
    coset representatives."""
    lam = _pad(shape, n)
    rep = stabilizer_min_rep(w, lam)
    members = set(demazure_subset(rep, shape, n))
    reps = set(coset_reps(lam, n))
    for v in bruhat_ideal(rep):
        if v != rep and v in reps:
            members -= set(demazure_subset(v, shape, n))
    return tuple(sorted(members, key=SetValuedTableau.sort_key))


def beta_character(tableaux, n: int) -> BetaPolynomial:
    """Sum of b^excess x^weight over the given tableaux."""
    return BetaPolynomial.sum(
        n, (BetaPolynomial.monomial(n, t.weight(), beta=t.excess()) for t in tableaux)
    )


def decompose(n: int, shape) -> list[tuple[SetValuedTableau, tuple[SetValuedTableau, ...]]]:
    """Connected components under e_i/f_i only, each with its unique
    highest weight element, sorted by the highest weight's text form."""
    shape = tuple(shape)
    tableaux = enumerate_svt(n, shape)
    seen: set[SetValuedTableau] = set()
    components = []
    for start in tableaux:
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for i in range(1, n):
                for image in (crystal_f(current, i), crystal_e(current, i)):
                    if image is not None and image not in component:
                        component.add(image)
                        frontier.append(image)
        seen |= component
        highs = [t for t in component if is_highest_weight(t)]
        if len(highs) != 1:
            raise AssertionError(f"component without unique highest weight: {highs}")
        components.append(
            (highs[0], tuple(sorted(component, key=SetValuedTableau.sort_key)))
        )
    return sorted(components, key=lambda pair: pair[0].sort_key())


@dataclass(frozen=True)
class IKString:
    """A two-row string: an f_i chain from its top element, at most one
    K-edge from the top, and the f_i chain below it (one step shorter)."""

    top: tuple[SetValuedTableau, ...]
    bottom: tuple[SetValuedTableau, ...]

    def elements(self) -> tuple[SetValuedTableau, ...]:
        return self.top + self.bottom


def _f_chain(start: SetValuedTableau, i: int) -> list[SetValuedTableau]:
    chain = [start]
    while (down := crystal_f(chain[-1], i)) is not None:
        chain.append(down)
    return chain


def ik_strings(n: int, shape, i: int) -> list[IKString]:
    """Partition of the shape's tableaux into i-K-strings."""
    shape = tuple(shape)
    tableaux = enumerate_svt(n, shape)
    tops = [
        t
        for t in tableaux
        if crystal_e(t, i) is None and kcrystal_e(t, i) is None
    ]
    strings = []
    covered: set[SetValuedTableau] = set()
    for top in sorted(tops, key=SetValuedTableau.sort_key):
        upper = _f_chain(top, i)
        drop = kcrystal_f(top, i)
        lower = _f_chain(drop, i) if drop is not None else []
        string = IKString(tuple(upper), tuple(lower))
        overlap = covered.intersection(string.elements())
        if overlap:
            raise AssertionError(f"i-K-strings overlap at {sorted(t.to_text() for t in overlap)}")
        covered.update(string.elements())
        strings.append(string)
    missing = set(tableaux) - covered
    if missing:
        raise AssertionError(
            f"tableaux not covered by i-K-strings: {sorted(t.to_text() for t in missing)}"
        )
    return strings
