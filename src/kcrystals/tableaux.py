"""
Semistandard set-valued tableaux.

A tableau is a filling of a Young diagram by nonempty sets of integers in
[1, n] such that rows weakly increase (max of a box <= min of the box to
its right) and columns strictly increase (max of a box < min of the box
below).  Cells are stored as sorted tuples; tableaux are immutable and
hashable.

The text form joins rows top-to-bottom with "/", boxes with single
spaces, and in-box entries ascending with commas, e.g. "1 1,2/2,3 3".
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

Cell = tuple[int, ...]


class SetValuedTableau:
    __slots__ = ("rows", "n", "_hash")

    def __init__(self, rows, n: int):
        """Rows of cells, each a collection of entries.  Raises ValueError
        on an empty row or cell, an entry that is not an int in [1, n] and
        row lengths that are not a partition; semistandardness is left to
        ``is_semistandard``."""
        out = []
        for row in rows:
            cells = [tuple(cell) for cell in row]
            if not cells or not all(cells):
                raise ValueError(f"empty row or cell in row {len(out) + 1} of {rows!r}")
            for v in (v for cell in cells for v in cell):
                if type(v) is not int:
                    raise ValueError(f"non-integer entry {v!r} in {rows!r}")
                if not 1 <= v <= n:
                    raise ValueError(f"entry {v} outside [1, {n}] in {rows!r}")
            out.append(tuple(tuple(sorted(set(cell))) for cell in cells))
        widths = [len(row) for row in out]
        if widths != sorted(widths, reverse=True):
            raise ValueError(f"row lengths {widths} of {rows!r} are not a partition")
        self.rows: tuple[tuple[Cell, ...], ...] = tuple(out)
        self.n = n
        self._hash = hash((self.rows, n))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[Cell, ...], ...], n: int) -> "SetValuedTableau":
        """Wrap rows that are already tuples of sorted cell tuples."""
        tableau = object.__new__(cls)
        tableau.rows, tableau.n, tableau._hash = rows, n, hash((rows, n))
        return tableau

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetValuedTableau)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        return f"SetValuedTableau({self.to_text()!r}, n={self.n})"

    # -- text grammar ---------------------------------------------------

    def to_text(self) -> str:
        return "/".join(
            " ".join(",".join(str(v) for v in cell) for cell in row)
            for row in self.rows
        )

    @classmethod
    def from_text(cls, text: str, n: int) -> "SetValuedTableau":
        """Parse the text form.  Rejects empty rows or boxes, non-integer
        entries, an entry repeated in a box and whatever the constructor
        rejects; semistandardness is left to ``is_semistandard``."""
        text = text.strip()
        rows = [row_text.split() for row_text in text.split("/")] if text else []
        if not all(rows):
            raise ValueError(f"empty row in {text!r}")
        try:
            rows = [[tuple(int(v) for v in box.split(",")) for box in row] for row in rows]
        except ValueError:
            raise ValueError(f"non-integer entry in {text!r}") from None
        if any(len(set(cell)) != len(cell) for row in rows for cell in row):
            raise ValueError(f"entry repeated in a box of {text!r}")
        return cls(rows, n)

    def sort_key(self) -> str:
        return self.to_text()

    # -- cell access ------------------------------------------------------

    def cells(self):
        for r, row in enumerate(self.rows):
            for c, cell in enumerate(row):
                yield r, c, cell

    def contains(self, value: int) -> bool:
        return any(value in cell for _, _, cell in self.cells())

    def column_entries(self, c: int) -> set[int]:
        out: set[int] = set()
        for row in self.rows:
            if c < len(row):
                out.update(row[c])
        return out

    # -- statistics -------------------------------------------------------

    def weight(self) -> tuple[int, ...]:
        counts = [0] * self.n
        for row in self.rows:
            for cell in row:
                for v in cell:
                    counts[v - 1] += 1
        return tuple(counts)

    def excess(self) -> int:
        return sum(len(cell) - 1 for row in self.rows for cell in row)

    # -- validity -----------------------------------------------------------

    def is_semistandard(self) -> bool:
        rows, n = self.rows, self.n
        shape = [len(row) for row in rows]
        if shape != sorted(shape, reverse=True):
            return False
        for r, row in enumerate(rows):
            below = rows[r + 1] if r + 1 < len(rows) else ()
            for c, cell in enumerate(row):
                if not cell or cell[0] < 1 or cell[-1] > n:
                    return False
                if c + 1 < len(row) and cell[-1] > row[c + 1][0]:
                    return False
                if c < len(below) and cell[-1] >= below[c][0]:
                    return False
        return True


def superstandard(shape, n: int) -> SetValuedTableau:
    """The tableau with every box of row m equal to {m}; the minimal
    highest weight element of its shape."""
    rows = [[(m,)] * width for m, width in enumerate(_partition(shape), start=1)]
    return SetValuedTableau(rows, n)


def _heights(a) -> tuple[int, ...]:
    """a as a tuple; ValueError unless its parts are nonnegative integers."""
    a = tuple(a)
    if any(type(h) is not int or h < 0 for h in a):
        raise ValueError(f"composition parts must be nonnegative integers, got {a!r}")
    return a


def _partition(shape) -> tuple[int, ...]:
    """shape without its zeros, the one key of a shape; ValueError unless its
    parts are nonnegative integers, weakly decreasing."""
    parts = _heights(shape)
    if list(parts) != sorted(parts, reverse=True):
        raise ValueError(f"shape must be a partition: {parts!r}")
    return tuple(p for p in parts if p)


def _nonempty_subsets(lo: int, hi: int):
    values = range(lo, hi + 1)
    for size in range(1, len(values) + 1):
        yield from combinations(values, size)


def enumerate_svt(n: int, shape: tuple[int, ...]) -> tuple[SetValuedTableau, ...]:
    """All semistandard set-valued tableaux of the given shape with entries
    at most n, in text order; ValueError unless shape is a partition."""
    return _enumerate_svt(n, _partition(shape))


@lru_cache(maxsize=None)
def _enumerate_svt(n: int, shape: tuple[int, ...]) -> tuple[SetValuedTableau, ...]:
    if len(shape) > n:
        return ()

    results: list[SetValuedTableau] = []
    rows: list[list[Cell]] = [[None] * width for width in shape]  # type: ignore

    # Each cell's text is followed by " " inside a row, "/" at the end of a
    # row but the last and nothing at the very end; tableaux that agree
    # before a cell compare as that cell's text plus its separator, so
    # filling cells in text order of those keys emits the text order.
    coords = [
        (r, c, " " if c + 1 < width else "/" if r + 1 < len(shape) else "")
        for r, width in enumerate(shape)
        for c in range(width)
    ]
    candidates: dict[tuple[int, str], list[Cell]] = {}

    def fill(idx: int) -> None:
        if idx == len(coords):  # cells come sorted from combinations
            results.append(SetValuedTableau._trusted(tuple(map(tuple, rows)), n))
            return
        r, c, sep = coords[idx]
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1][-1])
        if r > 0:
            lo = max(lo, rows[r - 1][c][-1] + 1)
        if lo > n:
            return
        if (lo, sep) not in candidates:
            cells = _nonempty_subsets(lo, n)
            candidates[lo, sep] = sorted(cells, key=lambda cell: ",".join(map(str, cell)) + sep)
        for cell in candidates[lo, sep]:
            rows[r][c] = cell
            fill(idx + 1)
        rows[r][c] = None  # type: ignore

    fill(0)
    return tuple(results)


# The shape is keyed before the cache lookup; the public name shows the cache.
enumerate_svt.cache_info, enumerate_svt.cache_clear = _enumerate_svt.cache_info, _enumerate_svt.cache_clear
