"""
Semistandard set-valued tableaux.

A tableau is a filling of a Young diagram by nonempty sets of integers in
[1, n] such that rows weakly increase (max of a box <= min of the box to
its right) and columns strictly increase (max of a box < min of the box
below).  Cells are stored as sorted tuples; tableaux are immutable and
hashable.

The text form joins rows top-to-bottom with "/", boxes with single
spaces, and in-box entries ascending with commas, e.g. "1 1,2/2,3 3".

A tableau's code (``_Codes``) packs its boxes column by column as bitmasks of
their entries.  ``_svt_codes``, the one enumerator, emits a shape's codes in text
order; the crystal table keeps only codes, and ``enumerate_svt`` decodes them.
"""

from __future__ import annotations

from functools import lru_cache

from .permutations import _variable_count

Cell = tuple[int, ...]


class SetValuedTableau:
    __slots__ = ("rows", "n", "_hash")

    def __init__(self, rows, n: int):
        """Rows of cells, each a collection of entries, semistandard or not.
        ValueError on a rank n that is not an int >= 0, an empty row or cell,
        an entry that is not an int in [1, n] and row lengths that are not a partition."""
        n, out = _variable_count(n), []
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


def _bits(bits: int) -> list[int]:
    """The positions of the set bits of bits, ascending: a slot's entries, a bitset's positions."""
    return [k for k, flag in enumerate(bin(bits)[:1:-1]) if flag == "1"]


class _Codes:
    """The codes of the tableaux of shape at n: the boxes column by column in
    slots of n + 1 bits, bit v set when the box holds v, one slot per row of
    the shape in every column, so the box right of a box is `_step` bits
    higher; box (m, c)'s slot starts at bit `_shifts[m][c]`."""

    def __init__(self, n: int, shape: tuple[int, ...]):
        self.n, self.shape = _variable_count(n), shape
        width, height = n + 1, len(shape)
        self._width, self._height, self._step, self._full = width, height, width * height, (1 << width) - 1
        self._shifts = [[(c * height + m) * width for c in range(part)] for m, part in enumerate(shape)]
        self._cells: dict[int, Cell] = {}  # a slot's entries by its bitmask, learned by decode

    def _encode(self, tableau: SetValuedTableau) -> int:
        """The code of a tableau of this shape: bit v of box (m, c)'s slot is set when it holds v."""
        code = 0
        for row, shifts in zip(tableau.rows, self._shifts):
            for cell, shift in zip(row, shifts):
                for v in cell:
                    code |= 1 << (shift + v)
        return code

    def decode(self, code: int) -> SetValuedTableau:
        """The tableau of a code of this shape; inverts _encode.  `_cells`
        learns each slot bitmask's entries the first time a code holds it."""
        cells, full = self._cells, self._full
        try:
            rows = tuple(tuple(cells[code >> shift & full] for shift in shifts) for shifts in self._shifts)
        except KeyError as missing:
            cells[missing.args[0]] = tuple(_bits(missing.args[0]))
            return self.decode(code)
        return SetValuedTableau._trusted(rows, self.n)


def _svt_codes(codes: _Codes) -> list[int]:
    """The codes of the semistandard tableaux of codes' shape at codes.n, in
    text order.  A box with b boxes below it in its column holds entries at
    most n - b, which leaves the boxes below room to strictly increase, so
    every partial filling within these caps completes and no branch dead-ends;
    the last cell's codes are emitted in one extend."""
    # Tableaux that agree before a cell compare as its text plus separator (" "
    # in a row, "/" after a row but the last, "" at the end): filling the cells
    # in that order emits text order.  last[j] is cell j's greatest entry, 0 at -1.
    cells, shape = [], codes.shape
    for m, shifts in enumerate(codes._shifts):
        for c, shift in enumerate(shifts):
            sep = " " if c + 1 < len(shifts) else "/" if m + 1 < len(shape) else ""
            cap = codes.n - sum(1 for part in shape[m + 1 :] if part > c)
            cells.append((shift, sep, cap, len(cells) - 1 if c else -1, len(cells) - shape[m - 1] if m else -1))
    if not cells:
        return [0]
    out: list[int] = []
    _fill(cells, [0] * (len(cells) + 1), {}, out, 0, 0)
    return out


def _fill(cells: list[tuple], last: list[int], candidates: dict, out: list[int], idx: int, code: int) -> None:
    """Append to out, in text order, code with each filling of cells idx.. (see
    _svt_codes) added, where last[j] holds cell j's greatest entry for j < idx."""
    shift, sep, cap, left, above = cells[idx]
    lo = max(last[left], last[above] + 1)
    if (lo, cap, sep) not in candidates:  # (bitmask, greatest entry) of each nonempty subset of lo..cap
        subsets = [(s << lo, s.bit_length() + lo - 1) for s in range(1, 1 << max(cap + 1 - lo, 0))]
        candidates[lo, cap, sep] = sorted(subsets, key=lambda cell: ",".join(map(str, _bits(cell[0]))) + sep)
    if idx + 1 == len(cells):
        out.extend([code | mask << shift for mask, _ in candidates[lo, cap, sep]])
        return
    for mask, top in candidates[lo, cap, sep]:
        last[idx] = top
        _fill(cells, last, candidates, out, idx + 1, code | mask << shift)


def enumerate_svt(n: int, shape: tuple[int, ...]) -> tuple[SetValuedTableau, ...]:
    """All semistandard set-valued tableaux of the given shape with entries
    at most n, in text order; ValueError unless shape is a partition."""
    return _enumerate_svt(n, _partition(shape))


@lru_cache(maxsize=1, typed=True)  # the last shape's; typed: a bool or float n misses the int's entry and is refused
def _enumerate_svt(n: int, shape: tuple[int, ...]) -> tuple[SetValuedTableau, ...]:
    codes = _Codes(n, shape)
    return tuple(map(codes.decode, _svt_codes(codes)))


# The shape is keyed before the cache lookup; the public name shows the cache.
enumerate_svt.cache_info, enumerate_svt.cache_clear = _enumerate_svt.cache_info, _enumerate_svt.cache_clear
