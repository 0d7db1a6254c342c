"""
Semistandard set-valued skyline tableaux and the bijection onto the
atom pieces of rectangular set-valued tableau families.

Columns are bottom-justified: column c of shape a holds cells at levels
1..a_c, level 1 at the bottom.  Within a cell the largest entry is its
anchor, the rest are free.  Going up a column, cells weakly decrease in
the set sense (min of the lower cell >= max of the cell above it).

``skyline_table(parts, n)`` is the one cached record of a rearrangement
class at n, keyed by its sorted composition; the cache keeps the last
class's record alone and frees the one it evicts.  It holds each column's
fillings, sorted, each with its cells as (anchor bit, free-entry mask) pairs
(``_levels``) and its weight and excess as a stat, the int of
``polynomials._units``, and, filled on first read, each composition's
skylines as tuples of filling indices, their stats (the sums of their
fillings') and their character.  The position of each one's psi image in the
crystal table of the rectangle is computed on each read (``images``).  A
skyline is valid when its table finds its filling indices (``indices``): the
fillings hold the rules within a column and ``row`` those across columns.
``_psi_code`` packs psi as a code from the fillings' masks, and membership in
the crystal table is its semistandardness test.  A
``SkylineTableau`` is decoded only at the boundary: ``enumerate_skyline``,
``psi_inverse`` and witnesses.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from operator import or_

from .crystal import CrystalTable, _rectangle_dims, _semistandard, _subset_table
from .crystal import atom_subset, crystal_table
from .permutations import Perm, _pad, _variable_count, act
from .polynomials import BetaPolynomial, _stat_polynomial, _units
from .tableaux import SetValuedTableau, _bits, _heights

Cell = tuple[int, ...]


@dataclass(frozen=True)
class SkylineTableau:
    shape: tuple[int, ...]
    columns: tuple[tuple[int, tuple[Cell, ...]], ...]  # (column index, cells bottom-up)

    @classmethod
    def build(cls, shape, columns: dict[int, list]) -> "SkylineTableau":
        """Build from a map of column index to cells bottom-up; raises
        ValueError naming the column on a missing, extra or zero-height
        column, a wrong cell count, an empty cell, or an entry that is not
        an integer in [1, number of columns]."""
        shape = _heights(shape)
        for c in columns:
            if not (type(c) is int and 1 <= c <= len(shape) and shape[c - 1]):
                raise ValueError(f"column {c!r} is not a nonzero column of shape {shape!r}")
        cols = []
        for c, height in enumerate(shape, start=1):
            if height == 0:
                continue
            if c not in columns:
                raise ValueError(f"column {c} is missing")
            cells = columns[c]
            if not isinstance(cells, (list, tuple)) or len(cells) != height or not all(
                isinstance(cell, (list, tuple)) and cell for cell in cells
            ):
                raise ValueError(f"column {c} must have {height} nonempty cells")
            for cell in cells:
                for v in cell:
                    if type(v) is not int or not 1 <= v <= len(shape):
                        raise ValueError(
                            f"column {c} has entry {v!r} outside [1, {len(shape)}]"
                        )
            cols.append((c, tuple(tuple(sorted(set(cell))) for cell in cells)))
        return cls(shape, tuple(cols))

    def to_json_dict(self) -> dict:
        return {
            "shape": list(self.shape),
            "columns": {
                str(c): [list(cell) for cell in cells] for c, cells in self.columns
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SkylineTableau":
        """Inverse of :meth:`to_json_dict`; ValueError, naming the key, on a
        missing "shape" list or "columns" dict, else as :meth:`build`."""
        for key, kind in (("shape", list), ("columns", dict)):
            if not isinstance(data.get(key), kind):
                raise ValueError(f"skyline has no {key!r} {kind.__name__}")
        # build names a column key that is not a decimal integer
        columns = {int(c) if str(c).isdecimal() else c: cells for c, cells in data["columns"].items()}
        return cls.build(data["shape"], columns)


def validate_skyline(skyline: SkylineTableau, n: int) -> bool:
    """Whether skyline is a set-valued skyline tableau with entries at most n;
    ValueError unless its shape is a composition and n an int >= 0."""
    return skyline_table(tuple(sorted(skyline.shape)), n).indices(skyline) is not None


def _column_fillings(c: int, height: int, n: int):
    """All weakly-decreasing-upward column fillings with bottom anchor c."""
    if c > n:
        return
    for size in range(0, c):
        for sub in combinations(range(1, c), size):
            yield from _fillings_above([sub + (c,)], height)


def _fillings_above(prefix: list[Cell], height: int):
    """Each filling of `height` cells that starts with the cells of prefix,
    bottom-up, each cell above holding entries at most the least below it."""
    if len(prefix) == height:
        yield tuple(prefix)
        return
    cap = min(prefix[-1])
    for size in range(1, cap + 1):
        for cell in combinations(range(1, cap + 1), size):
            yield from _fillings_above(prefix + [cell], height)


def _levels(cells) -> tuple[tuple[int, int], ...]:
    """Each cell of a column, bottom-up, as (its anchor bit, the bitmask of its free entries)."""
    return tuple((1 << cell[-1], sum(1 << v for v in cell[:-1])) for cell in cells)


def _by_value(fillings, height: int, n: int) -> list[tuple[list[int], ...]]:
    """Per level of a column's fillings, by value v in 0..n, the bitsets of
    the fillings whose cell there holds v, whose anchor is at most v, and
    that hold v as a free entry."""
    index = [([0] * (n + 1), [0] * (n + 1), [0] * (n + 1)) for _ in range(height)]
    for j, cells in enumerate(fillings):
        for (held, anchored, free), cell in zip(index, cells):
            for v in cell:
                held[v] |= 1 << j
                free[v] |= (v < cell[-1]) << j
            anchored[cell[-1]] |= 1 << j
    return [(held, list(accumulate(anchored, or_)), free) for held, anchored, free in index]


def _columns(a: tuple[int, ...]) -> list[tuple[int, int]]:
    """(column, height) of each nonzero column of a."""
    return [(c, height) for c, height in enumerate(a, start=1) if height]


def enumerate_skyline(a: tuple[int, ...], n: int) -> tuple[SkylineTableau, ...]:
    """All set-valued skyline tableaux of shape a with entries at most n,
    sorted; raises ValueError on a negative or non-integer height."""
    a = _heights(a)
    table = skyline_table(tuple(sorted(a)), n)
    return tuple(table.skyline(a, indices) for indices in table.skylines(a))


class SkylineTable:
    """The skylines of one rearrangement class of compositions at n: each
    (column, height)'s fillings, sorted, with each filling's `levels` and
    packed stat; and, filled on first read, row(p, q, i), the bitset of the
    fillings of q compatible with filling i of p, a column left of q, and
    each composition's skylines, their packed stats and character."""

    def __init__(self, parts: tuple[int, ...], n: int):
        self.n, self._units = _variable_count(n), _units(n, sum(_heights(parts)))  # no value fills more cells
        columns = [(c, height) for c in range(1, len(parts) + 1) for height in set(parts) if height]
        self.fillings = {column: sorted(_column_fillings(*column, n)) for column in columns}
        self.levels = {column: list(map(_levels, fillings)) for column, fillings in self.fillings.items()}
        self._stats = {column: list(map(self._pack, fillings)) for column, fillings in self.fillings.items()}
        self._index = {column: _by_value(self.fillings[column], column[1], n) for column in columns}
        self._rows: dict[tuple, int] = {}  # (p, q, i) -> row(p, q, i)
        self._skylines, self._stats_of, self._characters = {}, {}, {}  # by composition

    def _pack(self, cells) -> int:
        """The stat (polynomials._units) of a filling: its entries by value and its entries beyond one per cell."""
        entries = [v for cell in cells for v in cell]
        return sum([self._units[v - 1] for v in entries]) + (len(entries) - len(cells)) * self._units[-1]

    def row(self, p: tuple[int, int], q: tuple[int, int], i: int) -> int:
        """The fillings of q compatible with filling i of p, a column left of
        q, as a bitset: at each level of both, q's cells that meet p's, q's
        anchors that make the triple with p's, and q's free entries in [anchor
        of p's cell above, or 1; anchor of p's cell), which would fit in p's
        cell, the leftmost where a free entry may sit, are dropped."""
        if (p, q, i) not in self._rows:
            pcells, index, hp = self.fillings[p][i], self._index[q], p[1]
            bad = 0
            for level in range(min(hp, q[1])):
                held, at_most, free = index[level]
                anchor = pcells[level][-1]
                for v in pcells[level]:
                    bad |= held[v]
                if level and q[1] >= hp:  # B <= C <= A: A over B in q, C = anchor
                    bad |= at_most[anchor] & ~index[level - 1][1][anchor - 1]
                elif level:  # A over B in p, C in q
                    bad |= at_most[pcells[level - 1][-1]] & ~at_most[anchor - 1]
                for v in range(pcells[level + 1][-1] if level + 1 < hp else 1, anchor):
                    bad |= free[v]
            self._rows[p, q, i] = (1 << len(self.fillings[q])) - 1 & ~bad
        return self._rows[p, q, i]

    def indices(self, skyline: SkylineTableau) -> list[int] | None:
        """The filling index of each nonzero column of a skyline of this
        class, or None unless it is valid: its columns are those of its
        shape, each one of the fillings of its (column, height), and each
        pair's bit is set in row."""
        columns = _columns(skyline.shape)
        if [(c, len(cells)) for c, cells in skyline.columns] != columns:
            return None
        indices: list[int] = []
        for column, (_, cells) in zip(columns, skyline.columns):
            fillings = self.fillings[column]
            i = bisect_left(fillings, cells)
            if fillings[i : i + 1] != [cells]:
                return None
            if not all(self.row(columns[j], column, p) >> i & 1 for j, p in enumerate(indices)):
                return None
            indices.append(i)
        return indices

    def skylines(self, a: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """The skylines of shape a, a composition of this class, sorted, as
        the index of the filling of each nonzero column: every filling
        already satisfies the rules within its column, so a column's
        candidates are the AND of the rows of the columns placed before it,
        and placing the sorted fillings in order sorts the result."""
        if a not in self._skylines:
            out: list[tuple[int, ...]] = []
            self._place(_columns(a), [], out)
            self._skylines[a] = tuple(out)
        return self._skylines[a]

    def _place(self, columns: list[tuple[int, int]], placed: list[int], out: list) -> None:
        """Append to out, sorted, each skyline of columns whose first columns
        hold the fillings at the indices in placed."""
        k = len(placed)
        if k == len(columns):
            out.append(tuple(placed))
            return
        bits = (1 << len(self.fillings[columns[k]])) - 1
        for j, i in enumerate(placed):
            bits &= self.row(columns[j], columns[k], i)
        for i in _bits(bits):
            placed.append(i)
            self._place(columns, placed, out)
            placed.pop()

    def stats(self, a: tuple[int, ...]) -> list[int]:
        """The packed stat of each skyline of a, in order, the sum of its
        fillings', filled on first read."""
        if a not in self._stats_of:
            stats = [self._stats[column] for column in _columns(a)]
            self._stats_of[a] = [sum([of[i] for of, i in zip(stats, indices)]) for indices in self.skylines(a)]
        return self._stats_of[a]

    def character(self, a: tuple[int, ...]) -> BetaPolynomial:
        """Sum of b^excess x^weight over the skylines of a, filled on first read."""
        if a not in self._characters:
            self._characters[a] = _stat_polynomial(self._units, Counter(self.stats(a)))
        return self._characters[a]

    def skyline(self, a: tuple[int, ...], indices: tuple[int, ...]) -> SkylineTableau:
        """The skyline of shape a with these filling indices."""
        return SkylineTableau(a, tuple((c, self.fillings[c, h][i]) for (c, h), i in zip(_columns(a), indices)))

    def images(self, a: tuple[int, ...]) -> array:
        """The position of each skyline of a's psi image in the crystal
        table of the rectangle; AssertionError if two skylines share an image."""
        r, s = _rectangle_dims(a)
        table = crystal_table(self.n, (s,) * r)
        levels = [self.levels[column] for column in _columns(a)]
        images, seen = array("i"), set()
        for indices in self.skylines(a):
            code = _psi_code(table, [of[i] for of, i in zip(levels, indices)])
            k = table._positions.get(code, -1)  # the skyline is decoded only to name it
            images.append(k if k >= 0 else table.image(code, "psi", self.skyline(a, indices)))
        for k in images:
            if k in seen:
                raise AssertionError(f"psi is not injective at {table.tableau(k)!r}")
            seen.add(k)
        return images


skyline_table = lru_cache(maxsize=1, typed=True)(SkylineTable)  # the last (class tuple(sorted(a)), n)'s, typed


def _psi_code(codes: CrystalTable, columns) -> int:
    """psi of a valid skyline as a code of codes' rectangle, from each
    nonzero column's `_levels`: the OR of level L's anchor bits fills
    tableau column s-L top to bottom from the least anchor, each taking the
    free entries below it (of the OR of the level's free masks) that a
    lesser anchor did not; ValueError on a level of the wrong size, an
    entry above n or a free entry above every anchor."""
    r, s, width = codes._height, len(codes._column), codes._width
    code = 0
    for level in range(s):
        cells = [column[level] for column in columns if len(column) > level]
        if len(cells) != r:
            raise ValueError(f"level {level + 1} has {len(cells)} cells, expected {r}")
        anchors = frees = 0
        for anchor, free in cells:
            anchors, frees = anchors | anchor, frees | free
        if anchors >> width:  # it would spill into the next slot
            raise ValueError(f"entry {anchors.bit_length() - 1} exceeds n={codes.n}")
        shift = (s - 1 - level) * r * width  # the slot of the column's top box
        while anchors:
            least = anchors & -anchors
            taken = frees & (least - 1)
            code |= (least | taken) << shift
            anchors, frees, shift = anchors ^ least, frees ^ taken, shift + width
        if frees:
            raise ValueError(f"free entry {(frees & -frees).bit_length() - 1} fits under no anchor")
    return code


def psi(skyline: SkylineTableau, n: int) -> SetValuedTableau:
    """Straighten each row (anchors sorted, free entries redistributed to
    the leftmost cell they fit under) and read row L, bottom-up, as
    tableau column s+1-L; raises ValueError on a skyline that
    validate_skyline rejects."""
    table = skyline_table(tuple(sorted(skyline.shape)), n)
    if (indices := table.indices(skyline)) is None:
        raise ValueError(f"{skyline!r} is not a valid skyline tableau with entries at most {n}")
    r, s = _rectangle_dims(skyline.shape)
    codes = crystal_table(n, (s,) * r)
    levels = [table.levels[column][i] for column, i in zip(_columns(skyline.shape), indices)]
    return _semistandard(codes, _psi_code(codes, levels))


def psi_inverse(tableau: SetValuedTableau, w: Perm) -> SkylineTableau:
    """Inverse of psi on the atom of w; raises if the tableau is outside,
    ValueError unless w is a permutation of 1..n."""
    shape, n = tableau.shape, tableau.n
    crystal = _subset_table(w, shape, n)
    a = act(w, _pad(shape, n))
    table = skyline_table(tuple(sorted(a)), n)
    images, k = table.images(a), crystal.position(tableau)
    if k not in images:
        if tableau not in atom_subset(w, shape, n):
            raise ValueError(f"{tableau!r} is not in the atom of {w}")
        raise AssertionError(f"atom member missing from psi image: {tableau!r}")
    return table.skyline(a, table.skylines(a)[images.index(k)])
