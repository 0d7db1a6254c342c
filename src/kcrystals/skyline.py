"""
Semistandard set-valued skyline tableaux and the bijection onto the
atom pieces of rectangular set-valued tableau families.

Columns are bottom-justified: column c of shape a holds cells at levels
1..a_c, level 1 at the bottom.  Within a cell the largest entry is its
anchor, the rest are free.  Going up a column, cells weakly decrease in
the set sense (min of the lower cell >= max of the cell above it).

``skyline_table(parts, n)`` is the one cached record of a rearrangement
class at n, keyed by its sorted composition: each column's fillings, the
bitsets of compatible fillings between two columns and each composition's
skylines, which ``enumerate_skyline`` reads.  ``psi_table(a, n)`` is the
one cached psi record of a composition, which psi_inverse and the
bijection check read: the skylines of shape a by position and the
position of each psi image in the crystal table of the rectangle, where
``_psi_code`` packs the image as a code and membership in the table is
its semistandardness test; ``psi`` decodes the same code.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .crystal import _Columns, _codes, _rectangle_dims, _semistandard, _subset_table
from .crystal import atom_subset, crystal_table
from .permutations import Perm, _pad, act
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

    def cells_at_level(self, level: int) -> list[tuple[int, Cell]]:
        return [
            (c, cells[level - 1])
            for c, cells in self.columns
            if level <= len(cells)
        ]

    def weight(self, n: int) -> tuple[int, ...]:
        counts = [0] * n
        for _, cells in self.columns:
            for cell in cells:
                for v in cell:
                    counts[v - 1] += 1
        return tuple(counts)

    def excess(self) -> int:
        return sum(len(cell) - 1 for _, cells in self.columns for cell in cells)

    def sort_key(self):
        return self.columns

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


def anchor(cell: Cell) -> int:
    return cell[-1]


def _compatible(pcells: tuple[Cell, ...], qcells: tuple[Cell, ...]) -> bool:
    """The rules of a skyline that span columns, for the cells of a column
    p left of a column q: cells at one level are disjoint, the triple
    condition holds on their anchors, and no free entry of q would fit at
    the same level of p."""
    hp, hq = len(pcells), len(qcells)
    # A over B in the taller column (q on a tie), C beside A in the other
    tall, short = (qcells, pcells) if hq >= hp else (pcells, qcells)
    for level in range(min(hp, hq)):
        pcell, qcell = pcells[level], qcells[level]
        for v in qcell:
            if v in pcell:
                return False
        if level and tall[level][-1] <= short[level][-1] <= tall[level - 1][-1]:
            return False
        # a free entry sits in the leftmost cell of its level where it could
        # live: under that cell's anchor and at least the cell above it (the
        # cell below, weakly decreasing upward, is at least the anchor)
        if len(qcell) > 1:
            cap = pcell[-1]
            floor = pcells[level + 1][-1] if level + 1 < hp else None
            for v in qcell[:-1]:
                if v < cap and (floor is None or floor <= v):
                    return False
    return True


def validate_skyline(skyline: SkylineTableau, n: int) -> bool:
    for c, cells in skyline.columns:
        # bottom anchors name their column; cells hold distinct entries;
        # columns weakly decrease upward
        if anchor(cells[0]) != c:
            return False
        if any(len(set(cell)) != len(cell) for cell in cells):
            return False
        for level in range(1, len(cells)):
            if min(cells[level - 1]) < max(cells[level]):
                return False
        if any(v > n or v < 1 for cell in cells for v in cell):
            return False
    return all(
        _compatible(pcells, qcells)
        for (_, pcells), (_, qcells) in combinations(skyline.columns, 2)
    )


def _column_fillings(c: int, height: int, n: int):
    """All weakly-decreasing-upward column fillings with bottom anchor c."""
    if c > n:
        return
    bottoms = [
        tuple(sorted(sub + (c,)))
        for size in range(0, c)
        for sub in combinations(range(1, c), size)
    ]

    def extend(prefix: list[Cell]):
        if len(prefix) == height:
            yield tuple(prefix)
            return
        cap = min(prefix[-1])
        for size in range(1, cap + 1):
            for cell in combinations(range(1, cap + 1), size):
                yield from extend(prefix + [cell])

    for bottom in bottoms:
        yield from extend([bottom])


def enumerate_skyline(a: tuple[int, ...], n: int) -> tuple[SkylineTableau, ...]:
    """All set-valued skyline tableaux of shape a with entries at most n,
    sorted; raises ValueError on a negative or non-integer height."""
    a = _heights(a)
    return skyline_table(tuple(sorted(a)), n).skylines(a)


class SkylineTable:
    """The skylines of one rearrangement class of compositions at n: each
    (column, height)'s fillings, sorted; row(p, q, i), the bitset of the
    fillings of q compatible with filling i of p, a column left of q; and
    each composition's skylines.  Rows and skylines fill on first read."""

    def __init__(self, parts: tuple[int, ...], n: int):
        columns = [(c, height) for c in range(1, len(parts) + 1) for height in set(parts) if height]
        self.fillings = {column: sorted(_column_fillings(*column, n)) for column in columns}
        self._rows: dict[tuple[tuple[int, int], tuple[int, int], int], int] = {}
        self._skylines: dict[tuple[int, ...], tuple[SkylineTableau, ...]] = {}

    def row(self, p: tuple[int, int], q: tuple[int, int], i: int) -> int:
        if (p, q, i) not in self._rows:
            pcells = self.fillings[p][i]
            compatible = (j for j, qcells in enumerate(self.fillings[q]) if _compatible(pcells, qcells))
            self._rows[p, q, i] = sum(1 << j for j in compatible)
        return self._rows[p, q, i]

    def skylines(self, a: tuple[int, ...]) -> tuple[SkylineTableau, ...]:
        """The skylines of shape a, a composition of this class, sorted:
        every filling already satisfies the rules within its column, so a
        column's candidates are the AND of the rows of the columns placed
        before it, and placing the sorted fillings in order sorts the result."""
        if a not in self._skylines:
            columns = [(c, height) for c, height in enumerate(a, start=1) if height]
            out: list[SkylineTableau] = []
            placed: list[int] = []

            def extend(k: int) -> None:
                if k == len(columns):
                    cells = (self.fillings[column][i] for column, i in zip(columns, placed))
                    out.append(SkylineTableau(a, tuple(zip((c for c, _ in columns), cells))))
                    return
                bits = (1 << len(self.fillings[columns[k]])) - 1
                for j, i in enumerate(placed):
                    bits &= self.row(columns[j], columns[k], i)
                for i in _bits(bits):
                    placed.append(i)
                    extend(k + 1)
                    placed.pop()

            extend(0)
            self._skylines[a] = tuple(out)
        return self._skylines[a]


skyline_table = lru_cache(maxsize=None)(SkylineTable)  # one table per (class tuple(sorted(a)), n)


def _psi_code(codes: _Columns, skyline: SkylineTableau) -> int:
    """psi of a valid skyline as a code of codes' rectangle: level L's
    anchors, sorted, fill tableau column s-L top to bottom, and each free
    entry joins the box of the least anchor above it; ValueError on a
    level of the wrong size, an entry above n or a free entry above every
    anchor."""
    r, s, width = codes._height, len(codes._column), codes._width
    code = 0
    for level in range(1, s + 1):
        row = skyline.cells_at_level(level)
        if len(row) != r:
            raise ValueError(f"level {level} has {len(row)} cells, expected {r}")
        anchors = sorted(anchor(cell) for _, cell in row)
        if anchors[-1] > codes.n:  # it would spill into the next slot
            raise ValueError(f"entry {anchors[-1]} exceeds n={codes.n}")
        slot = (s - level) * r  # the slot of the column's top box
        for m, a in enumerate(anchors):
            code |= 1 << ((slot + m) * width + a)
        for v in sorted(v for _, cell in row for v in cell[:-1]):
            m = bisect_right(anchors, v)  # a repeated free entry is one entry
            if m == r:
                raise ValueError(f"free entry {v} fits under no anchor")
            code |= 1 << ((slot + m) * width + v)
    return code


def psi(skyline: SkylineTableau, n: int) -> SetValuedTableau:
    """Straighten each row (anchors sorted, free entries redistributed to
    the leftmost cell they fit under) and read row L, bottom-up, as
    tableau column s+1-L; raises ValueError on a skyline that
    validate_skyline rejects."""
    if not validate_skyline(skyline, n):
        raise ValueError(f"{skyline!r} is not a valid skyline tableau with entries at most {n}")
    r, s = _rectangle_dims(skyline.shape)
    codes = _codes(n, (s,) * r)
    return _semistandard(codes, _psi_code(codes, skyline))


class PsiTable:
    """psi on enumerate_skyline(a, n): skylines[k] maps to the tableau at
    position images[k] of its crystal table, and preimage inverts images;
    raises if two skylines share an image."""

    def __init__(self, a: tuple[int, ...], n: int):
        self.skylines = enumerate_skyline(a, n)
        r, s = _rectangle_dims(a)
        table = crystal_table(n, (s,) * r)
        images = (table.image(_psi_code(table, skyline), "psi", skyline) for skyline in self.skylines)
        self.images = array("i", images)
        self.preimage: dict[int, int] = {}
        for j, k in enumerate(self.images):
            if k in self.preimage:
                raise AssertionError(f"psi is not injective at {table.tableau(k)!r}")
            self.preimage[k] = j


psi_table = lru_cache(maxsize=None)(PsiTable)  # one table per (a, n)


def psi_inverse(tableau: SetValuedTableau, w: Perm) -> SkylineTableau:
    """Inverse of psi on the atom of w; raises if the tableau is outside,
    ValueError unless w is a permutation of 1..n."""
    shape, n = tableau.shape, tableau.n
    crystal = _subset_table(w, shape, n)
    table = psi_table(act(w, _pad(shape, n)), n)
    j = table.preimage.get(crystal.position(tableau))
    if j is None:
        if tableau not in atom_subset(w, shape, n):
            raise ValueError(f"{tableau!r} is not in the atom of {w}")
        raise AssertionError(f"atom member missing from psi image: {tableau!r}")
    return table.skylines[j]
