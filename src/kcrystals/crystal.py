"""
Crystal and K-crystal operators on semistandard set-valued tableaux,
with the derived Demazure-type subsets and characters.

The four operators below are the kernel.  ``crystal_table(n, shape)`` is
the one cached crystal on a shape, which every consumer reads: the tableaux
of ``enumerate_svt(n, shape)`` at positions 0..N-1 (text order), and each
operator or raise map of a letter, filled on first read, as an array of
positions; each position's weight, excess and semistandard flag are also
filled on first read.

Signs are computed per column, left to right: a column containing i but
not i+1 contributes "+", one containing i+1 but not i contributes "-",
and a column containing both (or neither) contributes nothing.  Signs
cancel in ordered "-+" pairs: each "+" consumes the most recent pending
"-" to its left, so the surviving signature always reads "+...+-...-".
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    for row in tableau.rows:
        for cell in row[c:]:
            if i in cell and i + 1 in cell:
                return None
    r = tableau.row_with(c, i)
    return tableau.with_cell(r, c, set(tableau.rows[r][c]) | {i + 1})


def kcrystal_e(tableau: SetValuedTableau, i: int) -> SetValuedTableau | None:
    """K-raising, derived from the inverse law the k-ops check tests:
    e^K_i(T) is the U with kcrystal_f(U) = T, if there is one.  kcrystal_f
    adds an i+1 to a box right of every box holding both i and i+1, so U
    is T with the i+1 removed from the rightmost such box (a column holds
    each value once, so the box is unique), and kcrystal_f(U) = T exactly
    when U is i-highest and its rightmost unpaired "+" is in that box's
    column."""
    both = [
        (c, r)
        for r, row in enumerate(tableau.rows)
        for c, cell in enumerate(row)
        if i in cell and i + 1 in cell
    ]
    if not both:
        return None
    c, r = max(both)
    out = tableau.with_cell(r, c, set(tableau.rows[r][c]) - {i + 1})
    plus, minus = signature(out, i)
    return None if minus or plus[-1:] != [c] else out


# Read when a map is filled, so wrappers set on these values (the benchmark's tracer) count.
_KERNEL = {"e": crystal_e, "f": crystal_f, "eK": kcrystal_e, "fK": kcrystal_f}


class CrystalTable:
    """The crystal on enumerate_svt(n, shape): the tableau at position k is
    tableaux[k], and index maps each tableau back to its position; the maps
    and the per-position statistics are filled on first read."""

    def __init__(self, n: int, shape: tuple[int, ...]):
        self.n, self.shape = n, shape
        self.tableaux = enumerate_svt(n, shape)
        self.index = {t: k for k, t in enumerate(self.tableaux)}
        self._maps: dict[tuple[str, int], array] = {}

    def position(self, tableau: SetValuedTableau) -> int:
        """The position of tableau; ValueError if it is not in this crystal."""
        k = self.index.get(tableau)
        if k is None:
            raise ValueError(f"{tableau.to_text()} is not in the crystal of {self.shape} at n={self.n}")
        return k

    def map(self, op: str, i: int) -> array:
        """The position op ("e", "f", "eK", "fK", or "raise": exhaust e_i,
        then e_i^K) sends each position to, -1 where undefined, filled on
        first read; a KeyError means an operator left the set."""
        if (op, i) not in self._maps:
            images = array("i")
            if op == "raise":
                e, ek = self.map("e", i), self.map("eK", i)
                for k in range(len(self.tableaux)):
                    while e[k] >= 0:
                        k = e[k]
                    while ek[k] >= 0:
                        k = ek[k]
                    images.append(k)
            else:
                images.extend(
                    -1 if (u := _KERNEL[op](t, i)) is None else self.index[u] for t in self.tableaux
                )
            self._maps[op, i] = images
        return self._maps[op, i]

    @cached_property
    def stats(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(weight, excess) of the tableau at each position."""
        return tuple((t.weight(), t.excess()) for t in self.tableaux)

    @cached_property
    def semistandard(self) -> bytes:
        """Whether the tableau at each position is semistandard."""
        return bytes(t.is_semistandard() for t in self.tableaux)

    def raise_along(self, word) -> array:
        """The position each position reaches by the raise maps of word."""
        ends = array("i", range(len(self.tableaux)))
        for i in word:
            raised = self.map("raise", i)
            ends = array("i", [raised[k] for k in ends])
        return ends


crystal_table = lru_cache(maxsize=None)(CrystalTable)  # one table per (n, shape)


def raise_string_max(tableau: SetValuedTableau, i: int) -> SetValuedTableau:
    """Apply crystal_e until exhausted, then kcrystal_e until exhausted."""
    table = crystal_table(tableau.n, tableau.shape)
    return table.tableaux[table.map("raise", i)[table.position(tableau)]]


def is_k_highest_weight(tableau: SetValuedTableau) -> bool:
    """No e_i and no e_i^K acts on the tableau."""
    table = crystal_table(tableau.n, tableau.shape)
    k = table.position(tableau)
    return all(table.map(op, i)[k] < 0 for op in ("e", "eK") for i in range(1, tableau.n))


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
def demazure_subset(
    w: Perm, shape: tuple[int, ...], n: int, word: tuple[int, ...] | None = None
) -> tuple[SetValuedTableau, ...]:
    """The K-Demazure subset for w: tableaux whose alternating maximal
    raise chain along a reduced word of the minimal coset representative
    of w ends at the minimal highest weight element."""
    _rectangle_dims(shape)
    rep = stabilizer_min_rep(w, _pad(shape, n))
    if word is None:
        word = reduced_word(rep)
    table = crystal_table(n, shape)
    u = table.index.get(superstandard(shape, n))
    return tuple(t for t, end in zip(table.tableaux, table.raise_along(word)) if end == u)


@lru_cache(maxsize=None)
def flagged_set(
    w: Perm, shape: tuple[int, ...], n: int
) -> tuple[SetValuedTableau, ...]:
    """Tableaux whose row-m entries are bounded by the flag of w."""
    r, s = _rectangle_dims(shape)
    bounds = flag_vector(w, r, s)
    # a semistandard row's greatest entry is the last of its last box
    return tuple(
        t
        for t in crystal_table(n, shape).tableaux
        if all(row[-1][-1] <= bound for row, bound in zip(t.rows, bounds))
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
    return BetaPolynomial(n, Counter((t.weight(), t.excess()) for t in tableaux))


def decompose(n: int, shape) -> list[tuple[SetValuedTableau, tuple[SetValuedTableau, ...]]]:
    """Connected components under e_i/f_i only, each with its unique
    highest weight element, sorted by the highest weight's text form."""
    table = crystal_table(n, tuple(shape))
    tableaux = table.tableaux
    ups = [table.map("e", i) for i in range(1, n)]
    edges = ups + [table.map("f", i) for i in range(1, n)]
    seen = bytearray(len(tableaux))
    components = []
    for start in range(len(tableaux)):
        if seen[start]:
            continue
        seen[start] = 1
        component = [start]
        for k in component:
            for edge in edges:
                if edge[k] >= 0 and not seen[edge[k]]:
                    seen[edge[k]] = 1
                    component.append(edge[k])
        highs = [tableaux[k] for k in component if all(e[k] < 0 for e in ups)]
        if len(highs) != 1:
            raise AssertionError(f"component without unique highest weight: {highs}")
        components.append((highs[0], tuple(tableaux[k] for k in sorted(component))))
    return sorted(components, key=lambda pair: pair[0].sort_key())


@dataclass(frozen=True)
class IKString:
    """A two-row string: an f_i chain from its top element, at most one
    K-edge from the top, and the f_i chain below it (one step shorter)."""

    top: tuple[SetValuedTableau, ...]
    bottom: tuple[SetValuedTableau, ...]

    def elements(self) -> tuple[SetValuedTableau, ...]:
        return self.top + self.bottom


def ik_strings(n: int, shape, i: int) -> list[IKString]:
    """Partition of the shape's tableaux into i-K-strings."""
    table = crystal_table(n, tuple(shape))
    tableaux = table.tableaux
    e, ek, f, fk = (table.map(op, i) for op in ("e", "eK", "f", "fK"))

    def f_chain(k: int):
        while k >= 0:
            yield tableaux[k]
            k = f[k]

    strings = []
    covered: set[SetValuedTableau] = set()
    for top in range(len(tableaux)):  # positions follow the text order
        if e[top] >= 0 or ek[top] >= 0:
            continue
        string = IKString(tuple(f_chain(top)), tuple(f_chain(fk[top])))
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
