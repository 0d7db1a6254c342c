"""
Crystal and K-crystal operators on semistandard set-valued tableaux,
with the derived Demazure-type subsets and characters.

``crystal_table(n, shape)`` is the one cached crystal on a shape and owns
all that is derived from it, so ``crystal_table.cache_clear()`` is the
only reset: the tableaux of ``enumerate_svt(n, shape)`` at positions
0..N-1 (text order), then, filled on first read, each operator or raise
map of a letter as an array of positions, each position's weight, excess
and semistandard flag, the K-Demazure subset of each reduced word and
the flagged subsets as bitsets (an int whose bit k is position k) and
what other modules build from it (``derived``).

The table fills the maps of e_i, f_i, e^K_i and f^K_i from codes, one int
per position that packs its boxes column by column as entry bitmasks
(``CrystalTable``), without building a tableau; ``_KERNEL`` holds the four
fills and is the one place a fault can be swapped in.  ``crystal_e``,
``crystal_f``, ``kcrystal_e`` and ``kcrystal_f`` act on one tableau and are
the reference the fills are tested against.

Signs are computed per column, left to right: a column containing i but
not i+1 contributes "+", one containing i+1 but not i contributes "-",
and a column containing both (or neither) contributes nothing.  Signs
cancel in ordered "-+" pairs: each "+" consumes the most recent pending
"-" to its left, so the surviving signature always reads "+...+-...-".
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import cached_property, lru_cache

from .permutations import (
    Perm,
    _pad,
    bruhat_ideal,
    coset_reps,
    evaluate_word,
    flag_vector,
    length,
    reduced_word,
    stabilizer_min_rep,
)
from .polynomials import BetaPolynomial
from .tableaux import SetValuedTableau, enumerate_svt, superstandard


def _pair(signs) -> tuple[list[int], list[int]]:
    """Columns of the unpaired "+" (sign > 0) and "-" (sign < 0) among the
    signs of the columns, left to right, each list left to right."""
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
    return _pair(signs)


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


def _fill_f(table: "CrystalTable", i: int) -> array:
    """crystal_f on every code: the box of the rightmost unpaired "+" trades
    its i for i+1, or, when the box to its right holds i, takes i+1 and
    that box gives up its i."""
    signs, column, step, positions = table._signs(i), table._column, table._step, table._positions
    images = array("i")
    for code in positions:
        plus, _ = signs(code)
        if not plus:
            images.append(-1)
            continue
        box = code >> i & column[plus[-1]]  # bit 0 of the box holding i
        right = box << (step + i)
        taken = right if code & right else box << i
        images.append(positions[code - taken + (box << (i + 1))])
    return images


def _fill_e(table: "CrystalTable", i: int) -> array:
    """crystal_e on every code: the box of the leftmost unpaired "-" trades
    its i+1 for i, or, when the box to its left holds i+1, takes i and that
    box gives up its i+1."""
    signs, column, step, positions = table._signs(i), table._column, table._step, table._positions
    images = array("i")
    for code in positions:
        _, minus = signs(code)
        if not minus:
            images.append(-1)
            continue
        box = code >> (i + 1) & column[minus[0]]  # bit 0 of the box holding i+1
        left = (box << (i + 1)) >> step  # 0 in the first column
        taken = left if code & left else box << (i + 1)
        images.append(positions[code - taken + (box << i)])
    return images


def _fill_fk(table: "CrystalTable", i: int) -> array:
    """kcrystal_f on every code: an i-highest code whose rightmost unpaired
    "+" is in column c, with no box at or right of c holding both i and
    i+1, adds i+1 to the box of that "+"."""
    signs, column, right_of, positions = table._signs(i), table._column, table._right_of, table._positions
    images = array("i")
    for code in positions:
        plus, minus = signs(code)
        if minus or not plus or (code & code >> 1) >> i & right_of[plus[-1]]:
            images.append(-1)
        else:
            images.append(positions[code | (code >> i & column[plus[-1]]) << (i + 1)])
    return images


def _fill_ek(table: "CrystalTable", i: int) -> array:
    """kcrystal_e on every code: the rightmost box holding both i and i+1,
    the highest such slot, gives up its i+1 when the result is i-highest
    with its rightmost unpaired "+" in that box's column."""
    signs, slots, step, positions = table._signs(i), table._right_of[0], table._step, table._positions
    images = array("i")
    for code in positions:
        both = (code & code >> 1) >> i & slots
        if not both:
            images.append(-1)
            continue
        top = both.bit_length() - 1
        out = code - (1 << (top + i + 1))
        plus, minus = signs(out)
        images.append(-1 if minus or plus[-1:] != [top // step] else positions[out])
    return images


# Each entry fills one whole map, (table, i) -> array of positions; the one
# place a test swaps in a fault.
_KERNEL = {"e": _fill_e, "f": _fill_f, "eK": _fill_ek, "fK": _fill_fk}


def _flags(bits: int, size: int) -> str:
    """bits as size characters, "1" at each position in it and "0" elsewhere."""
    return bin(bits)[:1:-1].ljust(size, "0")


def _from_flags(flags: str) -> int:
    """The bitset of the positions where flags holds "1"; inverts _flags."""
    return int(flags[::-1], 2) if flags else 0


class CrystalTable:
    """The crystal on enumerate_svt(n, shape): tableaux[k] is the tableau at
    position k; all else is filled on first read.

    Each position also has a code, an int that packs its boxes column by
    column into slots of n + 1 bits, bit v set when the box holds v.  Every
    column has one slot per row of the shape, empty below a shorter column,
    so the box right of a box is `_step` bits higher.  The codes key the one
    position lookup, in position order."""

    def __init__(self, n: int, shape: tuple[int, ...]):
        self.n, self.shape = n, shape
        self.tableaux = enumerate_svt(n, shape)
        self._parts = tuple(p for p in shape if p)
        width, height = n + 1, len(self._parts)
        self._width, self._height, self._step = width, height, width * height
        # bit 0 of each slot of column c, and of each slot of the columns >= c
        columns = self._parts[0] if self._parts else 0
        self._column = [sum(1 << (c * height + m) * width for m in range(height)) for c in range(columns)]
        self._right_of = [sum(self._column[c:]) for c in range(columns + 1)]
        self._positions = {self._encode(t): k for k, t in enumerate(self.tableaux)}
        self._maps: dict[tuple[str, int], array] = {}
        self._demazure: dict[tuple[int, ...], int] = {}
        self._derived: dict = {}

    def _encode(self, tableau: SetValuedTableau) -> int:
        """The code of a tableau of this shape: bit v of slot c*height + m is
        set when box (m, c) holds v."""
        code, width, height = 0, self._width, self._height
        for m, row in enumerate(tableau.rows):
            for c, cell in enumerate(row):
                shift = (c * height + m) * width
                for v in cell:
                    code |= 1 << (shift + v)
        return code

    def position(self, tableau: SetValuedTableau) -> int:
        """The position of tableau, looked up by its code; ValueError if it
        is not in this crystal."""
        k = None
        if tableau.n == self.n and tableau.shape == self._parts:
            k = self._positions.get(self._encode(tableau))
        if k is None:
            raise ValueError(f"{tableau.to_text()} is not in the crystal of {self.shape} at n={self.n}")
        return k

    def _signs(self, i: int):
        """signature() at letter i as a function of a code.  ORing a code
        with its shifts by one to height - 1 slots puts column c's entries
        in slot c*height; bits i and i+1 of those slots are the sign key,
        and each distinct key is paired once per function."""
        shifts = [m * self._width for m in range(1, self._height)]
        columns = [c * self._step for c in range(len(self._column))]
        mask = sum(3 << s for s in columns)
        pairs: dict[int, tuple[list[int], list[int]]] = {}

        def signs(code: int) -> tuple[list[int], list[int]]:
            fold = code
            for shift in shifts:
                fold |= code >> shift
            key = fold >> i & mask
            if key not in pairs:
                pairs[key] = _pair((key >> s & 1) - (key >> s + 1 & 1) for s in columns)
            return pairs[key]

        return signs

    def map(self, op: str, i: int) -> array:
        """The position op ("e", "f", "eK", "fK", or "raise": exhaust e_i,
        then e_i^K) sends each position to, -1 where undefined, filled on
        first read.  _KERNEL[op](self, i) fills the four operator maps from
        the codes, without building a tableau; an image code outside the
        set raises KeyError."""
        if (op, i) not in self._maps:
            if op == "raise":
                images = array("i")
                e, ek = self.map("e", i), self.map("eK", i)
                for k in range(len(self.tableaux)):
                    while e[k] >= 0:
                        k = e[k]
                    while ek[k] >= 0:
                        k = ek[k]
                    images.append(k)
            else:
                images = _KERNEL[op](self, i)
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

    def members(self, bits: int) -> tuple[SetValuedTableau, ...]:
        """The tableaux at the positions in bits, in table order."""
        return tuple(self.tableaux[k] for k, flag in enumerate(_flags(bits, 0)) if flag == "1")

    def demazure_word(self, word: tuple[int, ...]) -> int:
        """The positions whose raise chain along word, first letter first, ends at
        the superstandard tableau: word[0]'s raise preimage of word[1:]'s subset."""
        if word not in self._demazure:
            if word:
                rest = _flags(self.demazure_word(word[1:]), len(self.tableaux))
                self._demazure[word] = _from_flags("".join([rest[k] for k in self.map("raise", word[0])]))
            else:
                u = self._positions.get(self._encode(superstandard(self.shape, self.n)))
                self._demazure[word] = 0 if u is None else 1 << u
        return self._demazure[word]

    def demazure(self, w: Perm) -> int:
        """The subset of the canonical reduced word of w's minimal coset representative."""
        return self.demazure_word(reduced_word(stabilizer_min_rep(w, self.shape)))

    def atom(self, w: Perm) -> int:
        """The K-Demazure subset of w less those of all smaller coset representatives."""
        lam = _pad(self.shape, self.n)
        rep = stabilizer_min_rep(w, lam)
        bits = self.demazure(rep)
        reps = set(coset_reps(lam, self.n))
        for v in bruhat_ideal(rep):
            if v != rep and v in reps:
                bits &= ~self.demazure(v)
        return bits

    @cached_property
    def _row_bounds(self) -> list[list[int]]:
        """[m][b]: the positions whose row m's greatest entry, the last of its
        last box, is at most b, for b in 0..n."""
        # at_most[b] translates a byte v to "1" when v <= b and to "0" otherwise
        at_most = [bytes(b"01"[v <= b] for v in range(256)) for b in range(self.n + 1)]
        bounds = []
        for m in range(len(self._parts)):
            last = bytes(t.rows[m][-1][-1] for t in self.tableaux)
            bounds.append([_from_flags(last.translate(flags)) for flags in at_most])
        return bounds

    def flagged(self, w: Perm) -> int:
        """The tableaux of a rectangle whose row m's greatest entry is at most
        the m-th bound of the flag of w."""
        flag = flag_vector(w, *_rectangle_dims(self.shape))
        bits = (1 << len(self.tableaux)) - 1
        for within, b in zip(self._row_bounds, flag):
            bits &= within[b]
        return bits

    def derived(self, build):
        """build(self), run on first read and kept with the table."""
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]


crystal_table = lru_cache(maxsize=None)(CrystalTable)  # one table per (n, shape)


def _rectangle_dims(shape: tuple[int, ...]) -> tuple[int, int]:
    widths = {s for s in shape if s}
    if len(widths) > 1:
        raise ValueError(f"shape {shape!r} is not a rectangle")
    r = sum(1 for s in shape if s)
    s = widths.pop() if widths else 0
    return r, s


def _heights(a) -> tuple[int, ...]:
    """a as a tuple; ValueError unless its parts are nonnegative integers."""
    a = tuple(a)
    if any(type(h) is not int or h < 0 for h in a):
        raise ValueError(f"composition parts must be nonnegative integers, got {a!r}")
    return a


def _subset_table(w: Perm, shape: tuple[int, ...], n: int) -> CrystalTable:
    """crystal_table(n, shape) for a subset reader; ValueError unless shape
    is a rectangle and w a permutation of 1..n."""
    _rectangle_dims(shape)
    if len(w) != n or set(w) != set(range(1, n + 1)):
        raise ValueError(f"w={w!r} is not a permutation of 1..{n}")
    return crystal_table(n, tuple(shape))


def demazure_subset(w: Perm, shape: tuple[int, ...], n: int, word=None) -> tuple[SetValuedTableau, ...]:
    """The K-Demazure subset for w: tableaux whose alternating maximal raise
    chain along word ends at the minimal highest weight element; ValueError
    unless word (by default the canonical one) is a reduced word of w's
    minimal coset representative."""
    table = _subset_table(w, shape, n)
    rep = stabilizer_min_rep(w, shape)
    word = reduced_word(rep) if word is None else tuple(word)
    letters = all(isinstance(i, int) and 0 < i < n for i in word)
    if not letters or len(word) != length(rep) or evaluate_word(word, n) != rep:
        raise ValueError(f"{word!r} is not a reduced word of {rep!r}, w's minimal coset representative")
    return table.members(table.demazure_word(word))


def flagged_set(w: Perm, shape: tuple[int, ...], n: int) -> tuple[SetValuedTableau, ...]:
    """Tableaux whose row-m entries are bounded by the flag of w."""
    table = _subset_table(w, shape, n)
    return table.members(table.flagged(w))


def atom_subset(w: Perm, shape: tuple[int, ...], n: int) -> tuple[SetValuedTableau, ...]:
    """The K-Demazure subset of w minus those of all strictly smaller
    coset representatives."""
    table = _subset_table(w, shape, n)
    return table.members(table.atom(w))


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


def ik_strings(n: int, shape, i: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Partition of the positions of crystal_table(n, shape) into
    i-K-strings, each (top, bottom): the f_i chain from its top element
    and the f_i chain from the top's f_i^K image, one step shorter."""
    table = crystal_table(n, tuple(shape))
    e, ek, f, fk = (table.map(op, i) for op in ("e", "eK", "f", "fK"))

    def f_chain(k: int):
        while k >= 0:
            yield k
            k = f[k]

    tops = [k for k in range(len(table.tableaux)) if e[k] < 0 and ek[k] < 0]
    strings = [(tuple(f_chain(top)), tuple(f_chain(fk[top]))) for top in tops]
    covered = 0
    for top, bottom in strings:
        elements = sum(1 << k for k in {*top, *bottom})
        if overlap := covered & elements:
            raise AssertionError(f"i-K-strings overlap at {[t.to_text() for t in table.members(overlap)]}")
        covered |= elements
    if missing := covered ^ ((1 << len(table.tableaux)) - 1):
        texts = [t.to_text() for t in table.members(missing)]
        raise AssertionError(f"tableaux not covered by i-K-strings: {texts}")
    return strings
