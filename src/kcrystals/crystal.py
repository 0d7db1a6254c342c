"""
Crystal and K-crystal operators on semistandard set-valued tableaux,
with the derived Demazure-type subsets and characters.

``crystal_table(n, shape)`` is the one cached object of a shape, keyed by the
partition without zeros that each entry point makes with ``tableaux._partition``;
the cache keeps the last shape's table alone and frees the one it evicts.
Made, it holds only code geometry, all that the single-tableau operators, phi,
psi and ``k_lusztig_star`` read; filled on first read are the codes of the
shape's tableaux at positions 0..N-1 (text order) from ``tableaux._svt_codes``,
each operator or raise map of a letter as an array of positions, each position's
weight and excess as a stat, the int of ``polynomials._units``, each coset
representative's K-Demazure, atom and flagged subsets by its index, as bitsets
(bit k is position k), and what other modules build from it (``derived``).  It
holds no tableaux: callers decode them.

The one implementation of e_i, f_i, e^K_i and f^K_i is a kernel on codes,
ints that pack a tableau's boxes column by column as entry bitmasks
(``tableaux._Codes``).  Whether each column holds i and i+1 makes a code's
sign key at letter i, and each operator's entry in ``_KERNEL``, the one place a
fault can be swapped in, makes its action on the codes of one key.  A table
fills the maps of one letter that a caller names in one pass over its codes
(``maps``), which folds each code into its key once and makes each key's
actions once; its image lookup is the semistandardness test, as
``CrystalTable.image`` is for phi and psi.  ``crystal_e``, ``crystal_f``,
``kcrystal_e`` and ``kcrystal_f`` run the kernels on one code, and
``tests/oracles.py`` holds the reference.

Signs are computed per column, left to right: a column containing i but
not i+1 contributes "+", one containing i+1 but not i contributes "-",
and a column containing both (or neither) contributes nothing.  Signs
cancel in ordered "-+" pairs: each "+" consumes the most recent pending
"-" to its left, so the surviving signature always reads "+...+-...-".
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import cached_property, lru_cache, reduce
from operator import add

from .permutations import (
    Perm,
    _bruhat_ideal,
    _letter,
    _permutation,
    coset_reps,
    evaluate_word,
    flag_vector,
    length,
    reduced_word,
    stabilizer_min_rep,
)
from .polynomials import BetaPolynomial, _stat_polynomial, _units
from .tableaux import SetValuedTableau, _bits, _Codes, _partition, _svt_codes, superstandard


def _f(table: CrystalTable, i: int, key: int):
    """f_i: the box of the rightmost unpaired "+" trades its i for i+1, or,
    when the box to its right holds i, takes i+1 and that box gives up its i."""
    plus, _ = table._pair(key)
    if not plus:
        return None
    column, step = table._column[plus[-1]] << i, table._step

    def f(code: int) -> int:
        held = code & column  # bit i of the box holding i
        return code - (held << step if code & held << step else held) + (held << 1)

    return f


def _e(table: CrystalTable, i: int, key: int):
    """e_i: the box of the leftmost unpaired "-" trades its i+1 for i, or,
    when the box to its left holds i+1, takes i and that box gives up its i+1."""
    _, minus = table._pair(key)
    if not minus:
        return None
    column, step = table._column[minus[0]] << (i + 1), table._step

    def e(code: int) -> int:
        held = code & column  # bit i+1 of the box holding i+1
        return code - (held >> step if code & held >> step else held) + (held >> 1)

    return e


def _fk(table: CrystalTable, i: int, key: int):
    """f^K_i: an i-highest code adds i+1 to the box of its rightmost unpaired
    "+", in column c, unless a box at or right of c holds both i and i+1."""
    plus, minus = table._pair(key)
    if minus or not plus:
        return None
    column, right_of = table._column[plus[-1]] << i, table._right_of[plus[-1]] << i
    return lambda code: None if code & code >> 1 & right_of else code | (code & column) << 1


def _ek(table: CrystalTable, i: int, key: int):
    """e^K_i, the inverse of f^K_i: the rightmost box holding both i and i+1,
    the highest such slot, gives up its i+1 when the result is i-highest with
    its rightmost unpaired "+" in that box's column c.  No other box of c holds
    i or i+1, so the result's key is key less c's i+1 bit: the columns where
    e^K_i acts are found once per key."""
    step, slots, columns = table._step, table._right_of[0], 0
    for c, column in enumerate(table._column):
        if key >> c * step & 3 == 3:
            plus, minus = table._pair(key - (2 << c * step))
            columns |= column if not minus and plus[-1:] == (c,) else 0
    if not columns:
        return None

    def ek(code: int) -> int | None:
        top = ((code & code >> 1) >> i & slots).bit_length() - 1
        return code - (1 << (top + i + 1)) if top >= 0 and columns >> top & 1 else None

    return ek


# (table, i, key) -> op's action at letter i on the codes of one sign key: None
# where op is undefined on all of them, else a function from a code to its image
# code or None.  The one place a fault can be swapped in.
_KERNEL = {"e": _e, "f": _f, "eK": _ek, "fK": _fk}


def _codes_of(tableau: SetValuedTableau) -> tuple[CrystalTable, int]:
    """The table of tableau's shape, read for its geometry alone, and the
    tableau's code; ValueError unless the tableau is semistandard, the only
    codes the kernels are defined on."""
    if not tableau.is_semistandard():
        raise ValueError(f"{tableau.to_text()} is not semistandard")
    codes = crystal_table(tableau.n, tableau.shape)
    return codes, codes._encode(tableau)


def _semistandard(codes: CrystalTable, code: int) -> SetValuedTableau:
    """The tableau of code, for callers without a table; ValueError unless semistandard."""
    tableau = codes.decode(code)
    _codes_of(tableau)
    return tableau


def _act(kernel, tableau: SetValuedTableau, i) -> SetValuedTableau | None:
    _letter(i, tableau.n)
    codes, code = _codes_of(tableau)
    act = kernel(codes, i, codes._key(code, i))
    image = None if act is None else act(code)
    return None if image is None else codes.decode(image)


def crystal_f(tableau: SetValuedTableau, i: int) -> SetValuedTableau | None:
    """Lowering operator: act at the rightmost unpaired "+", None if there
    is none; ValueError unless 0 < i < n and the tableau is semistandard.

    >>> t = SetValuedTableau.from_text("1 1/2 2", 3)
    >>> crystal_f(t, 2), crystal_f(t, 1)
    (SetValuedTableau('1 1/2 3', n=3), None)
    """
    return _act(_f, tableau, i)


def crystal_e(tableau: SetValuedTableau, i: int) -> SetValuedTableau | None:
    """Raising operator: act at the leftmost unpaired "-"; as crystal_f."""
    return _act(_e, tableau, i)


def kcrystal_f(tableau: SetValuedTableau, i: int) -> SetValuedTableau | None:
    """K-lowering: an i-highest tableau adds i+1 to the box of its rightmost
    unpaired "+" unless a box weakly right of it holds i and i+1; as crystal_f.

    >>> t = SetValuedTableau.from_text("1 1/2 3", 3)
    >>> kcrystal_f(t, 1), kcrystal_f(t, 2)
    (SetValuedTableau('1 1,2/2 3', n=3), None)
    """
    return _act(_fk, tableau, i)


def kcrystal_e(tableau: SetValuedTableau, i: int) -> SetValuedTableau | None:
    """K-raising: the U with kcrystal_f(U) = T, if there is one; as crystal_f."""
    return _act(_ek, tableau, i)


def _flags(bits: int, size: int) -> str:
    """bits as size characters, "1" at each position in it and "0" elsewhere."""
    return bin(bits)[:1:-1].ljust(size, "0")


def _from_flags(flags: str) -> int:
    """The bitset of the positions where flags holds "1"; inverts _flags."""
    return int(flags[::-1], 2) if flags else 0


class CrystalTable(_Codes):
    """The crystal of shape at n.  Made, it holds the geometry of its codes:
    bit 0 of each slot of column c (`_column[c]`) and of the columns >= c
    (`_right_of[c]`), and the shifts and mask of the sign key (`_key`);
    codes[k], the code of the tableau(k) at position k (text order), and all
    else are filled on first read."""

    def __init__(self, n: int, shape: tuple[int, ...]):
        if shape != _partition(shape):  # one table per partition: its key has no zeros
            raise ValueError(f"a crystal table is keyed by a partition without zeros, got {shape!r}")
        super().__init__(n, shape)
        tops = self._shifts[0] if shape else []  # the slot of each column's top box
        self._column = [sum(1 << top + m * self._width for m in range(self._height)) for top in tops]
        self._right_of = [sum(self._column[c:]) for c in range(len(tops) + 1)]
        self._folds = [m * self._width for m in range(1, self._height)]
        self._mask = sum(3 << c * self._step for c in range(len(tops)))
        self._letters, self._boxes = range(1, n + 1), sum(shape)
        self._units = _units(n, self._boxes)
        self._maps: dict[tuple[str, int], array] = {}
        self._ideals: dict[int, int] = {}  # by coset representative index, as _indices
        self._atoms: dict[int, int] = {}
        self._flagged: dict[int, int] = {}
        self._derived: dict = {}

    def _pair(self, key: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The unpaired "+" and "-" columns of a sign key, each left to right:
        bits c*step and c*step + 1 of the key are set when column c holds i
        and i+1, so "+" is 1 and "-" is 2."""
        plus, minus = [], []  # minus: the pending "-", the last consumed by the next "+"
        for c in range(len(self._column)):
            sign = key >> c * self._step & 3
            if sign == 1 and minus:
                minus.pop()
            elif sign in (1, 2):
                (plus if sign == 1 else minus).append(c)
        return tuple(plus), tuple(minus)

    def _key(self, code: int, i: int) -> int:
        """The sign key of a code at letter i: ORed with its shifts by one to height - 1
        slots, column c's entries are in slot c*height, whose bits i and i+1 are the key's."""
        fold = code
        for shift in self._folds:
            fold |= code >> shift
        return fold >> i & self._mask

    @cached_property
    def codes(self) -> list[int]:
        """The codes of the shape's tableaux, in text order."""
        return _svt_codes(self)

    @cached_property
    def _positions(self) -> dict[int, int]:
        """The position of each code."""
        return {code: k for k, code in enumerate(self.codes)}

    def tableau(self, k: int) -> SetValuedTableau:
        """The tableau at position k."""
        return self.decode(self.codes[k])

    def position(self, tableau: SetValuedTableau) -> int:
        """The position of tableau, looked up by its code; ValueError if it
        is not in this crystal."""
        if tableau.n == self.n and tableau.shape == self.shape:
            k = self._positions.get(self._encode(tableau))
            if k is not None:
                return k
        raise ValueError(f"{tableau.to_text()} is not in the crystal of {self.shape} at n={self.n}")

    def image(self, code: int, op: str, source) -> int:
        """The position of code, op's image of source; AssertionError naming
        both where code is not in this crystal, so not semistandard."""
        k = self._positions.get(code)
        if k is None:
            raise AssertionError(f"{op} sends {source!r} out of the crystal, to {self.decode(code).to_text()}")
        return k

    def maps(self, i: int, *ops: str) -> tuple[array, ...]:
        """The position each op ("e", "f", "eK", "fK", or "raise": exhaust e_i,
        then e_i^K) sends each position to at letter i, -1 where undefined; the
        operator maps not yet filled are filled by one _fill, raise's e and e^K
        by one of their own.  ValueError on another op or a letter outside 1..n-1."""
        if unknown := [op for op in ops if op != "raise" and op not in _KERNEL]:
            raise ValueError(f"unknown operator {unknown[0]!r}")
        _letter(i, self.n)
        if "raise" in ops and ("raise", i) not in self._maps:
            images, (e, ek) = array("i"), self.maps(i, "e", "eK")
            for k in range(len(self.codes)):
                while e[k] >= 0:
                    k = e[k]
                while ek[k] >= 0:
                    k = ek[k]
                images.append(k)
            self._maps["raise", i] = images
        if todo := [op for op in dict.fromkeys(ops) if (op, i) not in self._maps]:
            self._fill(i, todo)
        return tuple(self._maps[op, i] for op in ops)

    def _fill(self, i: int, ops: list[str]) -> None:
        """The maps of ops at letter i from one pass over the codes, each folded
        once (as in _key), with one action of each op's _KERNEL entry per key; an
        image outside the table is not semistandard: AssertionError naming the
        first op, in order, with one and its first source."""
        kernels, positions, folds, mask = [_KERNEL[op] for op in ops], self._positions, self._folds, self._mask
        maps, actions = [array("i", [-1]) * len(self.codes) for _ in ops], {}
        try:
            for k, code in enumerate(self.codes):
                fold = code
                for shift in folds:
                    fold |= code >> shift
                key = fold >> i & mask
                acts = actions.get(key)
                if acts is None:  # the ops defined on some code of the key, with their maps
                    acts = [(kernel(self, i, key), out) for kernel, out in zip(kernels, maps)]
                    acts = actions[key] = [(act, out) for act, out in acts if act is not None]
                for act, out in acts:
                    if (image := act(code)) is not None:
                        out[k] = positions[image]
        except KeyError:  # image, of code, is outside; one op at a time finds the first op with one
            if len(ops) > 1:
                for op in ops:
                    self._fill(i, [op])
            outside = f"{self.decode(code).to_text()} out of the crystal, to {self.decode(image).to_text()}"
            raise AssertionError(f"{ops[0].replace('K', '^K')}_{i} sends {outside}") from None
        self._maps.update(((op, i), images) for op, images in zip(ops, maps))

    @cached_property
    def stats(self) -> tuple[int, ...]:
        """stat of the tableau at each position, built a letter at a time: one
        column of counts per letter, a byte per position, each count scaled by
        its unit by lookup and summed; each distinct stat is held once."""
        codes, slots, stats = self.codes, self._right_of[0], {}
        scaled = [[count * unit for count in range(256)].__getitem__ for unit in self._units]
        packed = map(scaled[-1], bytes([code.bit_count() - self._boxes for code in codes]))
        for v, scale in zip(self._letters, scaled):
            packed = map(add, packed, map(scale, bytes([(code >> v & slots).bit_count() for code in codes])))
        return tuple([stats.setdefault(s, s) for s in packed])

    def character(self, bits: int) -> BetaPolynomial:
        """Sum of b^excess x^weight over the positions in bits."""
        return _stat_polynomial(self._units, Counter(self.stats[k] for k in _bits(bits)))

    def members(self, bits: int) -> tuple[SetValuedTableau, ...]:
        """The tableaux at the positions in bits, in table order."""
        return tuple(map(self.tableau, _bits(bits)))

    def raised(self, bits: int, i: int) -> int:
        """The positions whose raise chain at letter i ends in bits."""
        flags = _flags(bits, len(self.codes))
        return _from_flags("".join([flags[k] for k in self.maps(i, "raise")[0]]))

    @cached_property
    def _reps(self) -> tuple[Perm, ...]:
        """coset_reps(λ, n) of the shape λ padded to n."""
        return coset_reps(self.shape, self.n)

    @cached_property
    def _indices(self) -> dict[Perm, int]:
        """The index in _reps of the minimal coset representative of each w
        read so far, each representative its own."""
        return {rep: m for m, rep in enumerate(self._reps)}

    def _index(self, w) -> int:
        """The index in _reps of w's minimal coset representative, found once per other
        w by stabilizer_min_rep; ValueError, keeping nothing, unless w permutes 1..n."""
        w = _permutation(w, self.n)
        m = self._indices.get(w)
        if m is None:
            m = self._indices[w] = self._indices[stabilizer_min_rep(w, self.shape)]
        return m

    def demazure(self, w: Perm) -> int:
        """The K-Demazure subset of w, kept by its representative's index: the superstandard
        tableau alone at the identity, else the raise preimage, at the canonical word's first
        letter, of the subset of the word's rest; ValueError unless w permutes 1..n."""
        m = self._index(w)
        if m not in self._ideals:
            word = reduced_word(self._reps[m])
            if not word:
                self._ideals[m] = 1 << self.position(superstandard(self.shape, self.n))
            else:
                self._ideals[m] = self.raised(self.demazure(evaluate_word(word[1:], self.n)), word[0])
        return self._ideals[m]

    def atom(self, w: Perm) -> int:
        """The K-Demazure subset of w less those of all smaller coset
        representatives, kept by the index of w's; ValueError as for demazure."""
        m = self._index(w)
        if m not in self._atoms:
            rep, bits = self._reps[m], self.demazure(self._reps[m])
            for v in _bruhat_ideal(rep).intersection(self._reps):
                if v != rep:
                    bits &= ~self.demazure(v)
            self._atoms[m] = bits
        return self._atoms[m]

    @cached_property
    def _row_bounds(self) -> list[list[int]]:
        """[m][b]: the positions whose row m's greatest entry, the last of its
        last box, is at most b, for b in 0..n."""
        # at_most[b] translates a byte v to "1" when v <= b and to "0" otherwise
        at_most = [bytes(b"01"[v <= b] for v in range(256)) for b in range(self.n + 1)]
        bounds, full = [], self._full
        for shifts in self._shifts:  # the last box of row m is at shifts[-1]
            last = bytes((code >> shifts[-1] & full).bit_length() - 1 for code in self.codes)
            bounds.append([_from_flags(last.translate(flags)) for flags in at_most])
        return bounds

    def flagged(self, w: Perm) -> int:
        """The positions whose row m's greatest entry is at most the m-th bound of
        flag_vector(w), kept by the index of w's representative, which has w's flag;
        ValueError unless the shape is a rectangle, then as for demazure."""
        dims = _rectangle_dims(self.shape)
        m = self._index(w)
        if m not in self._flagged:
            bits = (1 << len(self.codes)) - 1
            for within, b in zip(self._row_bounds, flag_vector(self._reps[m], *dims)):
                bits &= within[b]
            self._flagged[m] = bits
        return self._flagged[m]

    def derived(self, build):
        """build(self), run on first read and kept with the table."""
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]


crystal_table = lru_cache(maxsize=1, typed=True)(CrystalTable)  # the last (n, shape)'s; typed: a bool n is refused


def _rectangle_dims(shape: tuple[int, ...]) -> tuple[int, int]:
    parts = [s for s in shape if s]
    if len(set(parts)) > 1:
        raise ValueError(f"shape {shape!r} is not a rectangle")
    return len(parts), parts[0] if parts else 0


def _subset_table(w: Perm, shape: tuple[int, ...], n: int) -> CrystalTable:
    """crystal_table(n, shape) for a subset reader; ValueError unless shape
    is a rectangle and w a permutation of 1..n."""
    shape = _partition(shape)
    _rectangle_dims(shape)
    _permutation(w, n)
    return crystal_table(n, shape)


def demazure_subset(w: Perm, shape: tuple[int, ...], n: int, word=None) -> tuple[SetValuedTableau, ...]:
    """The K-Demazure subset for w: tableaux whose alternating maximal raise chain
    along word ends at the minimal highest weight element; ValueError unless word
    (by default the canonical one) is a reduced word of w's minimal coset representative."""
    table = _subset_table(w, shape, n)
    rep = stabilizer_min_rep(w, table.shape)
    word = reduced_word(rep) if word is None else tuple(word)
    letters = all(type(i) is int and 0 < i < n for i in word)
    if not letters or len(word) != length(rep) or evaluate_word(word, n) != rep:
        raise ValueError(f"{word!r} is not a reduced word of {rep!r}, w's minimal coset representative")
    return table.members(reduce(table.raised, reversed(word), 1 << table.position(superstandard(table.shape, n))))


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


def _components(table: CrystalTable) -> list[tuple[int, list[int]]]:
    """The e_i/f_i components in position order, each (the position of its unique highest
    weight element, its positions ascending); AssertionError where one has no unique one."""
    maps = [table.maps(i, "e", "f") for i in range(1, table.n)]
    ups = [e for e, _ in maps]
    edges = ups + [f for _, f in maps]
    seen, components = bytearray(len(table.codes)), []
    for start in range(len(table.codes)):
        if seen[start]:
            continue
        seen[start] = 1
        component = [start]
        for k in component:
            for edge in edges:
                if edge[k] >= 0 and not seen[edge[k]]:
                    seen[edge[k]] = 1
                    component.append(edge[k])
        highs = [k for k in component if all(e[k] < 0 for e in ups)]
        if len(highs) != 1:
            raise AssertionError(f"component without unique highest weight: {list(map(table.tableau, highs))}")
        components.append((highs[0], sorted(component)))
    return components


def decompose(n: int, shape) -> list[tuple[SetValuedTableau, tuple[SetValuedTableau, ...]]]:
    """Connected components under e_i/f_i only, each with its unique
    highest weight element, sorted by the highest weight's text form."""
    table = crystal_table(n, _partition(shape))
    components = [(table.tableau(high), tuple(map(table.tableau, ks))) for high, ks in _components(table)]
    return sorted(components, key=lambda pair: pair[0].to_text())


def ik_strings(n: int, shape, i: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Partition of the positions of crystal_table(n, shape) into
    i-K-strings, each (top, bottom): the f_i chain from its top element
    and the f_i chain from the top's f_i^K image, one step shorter."""
    table = crystal_table(n, _partition(shape))
    e, ek, f, fk = table.maps(i, "e", "eK", "f", "fK")

    def f_chain(k: int):
        while k >= 0:
            yield k
            k = f[k]

    tops = [k for k in range(len(table.codes)) if e[k] < 0 and ek[k] < 0]
    strings = [(tuple(f_chain(top)), tuple(f_chain(fk[top]))) for top in tops]
    covered = bytearray(len(table.codes))  # 1 at each position of an earlier string
    for top, bottom in strings:
        elements = {*top, *bottom}
        if overlap := sorted(k for k in elements if covered[k]):
            raise AssertionError(f"i-K-strings overlap at {[table.tableau(k).to_text() for k in overlap]}")
        for k in elements:
            covered[k] = 1
    if missing := [k for k, hit in enumerate(covered) if not hit]:
        raise AssertionError(f"tableaux not covered by i-K-strings: {[table.tableau(k).to_text() for k in missing]}")
    return strings
