"""
K-Kohnert diagrams and their moves, the closure of a skyline diagram,
and the weight-preserving correspondence with flagged set-valued
tableaux of rectangular shape.

A diagram is a finite set of boxes (x, y) in the positive quadrant
(x = column, y = row, Cartesian), with a marked subset.  A Kohnert move
drops the top unmarked box of a column into the rightmost open position
to its left in the same row, never passing over a marked box; the
K-variant leaves a marked copy at the origin.

The diagrams of one rearrangement class of compositions form one
``KohnertGraph``, explored on demand.  A move keeps every box within the
class's max(parts) rows and len(parts) columns, so the graph holds each
diagram as one int, its key (``pack``): box (x, y) is bit
(x-1)*max(parts) + y-1, column by column, and the marks are the same bits
len(parts)*max(parts) higher.  A move is a few bit operations on the key,
and the canonical order (``KKohnertDiagram.sort_key``) is the order of the
complemented bit strings of boxes and marks (``_flip``).  Each key has a
position; its single moves (as positions), the position of its phi image
in the crystal table of the rectangle and each bijection check's verdict
on it are filled on first read, once per diagram, and its weight (phi's
weight and excess, as a stat of ``polynomials._units``) is read off its
key.  ``kohnert_graph(parts)`` is the one cached graph of a class, keyed by
its sorted composition; the cache keeps the last class's graph alone and
frees the one it evicts.  Each graph keeps the closure of each composition
of its class, found on first read.
``closure_table(a)`` reads the graph of a's class and that closure;
``KKohnertDiagram``, the public, validating type, is made by ``unpack``
only for ``closure``, a witness or a caller of the graph.

phi, its inverse and the tableau Kohnert move are kernels between keys
and the codes of ``crystal_table``: the graph looks each
``_phi_code`` up in the table, membership being the semistandardness
test, ``_phi_inverse_key`` packs a code's preimage, and ``_svt_moves``
gives every move of a code.  These two work a tableau column at a time
through ``_Columns``, the one memo per table of what they read of a
column: its diagram row, keyed by the column's code, and its moves, keyed
also by which of its boxes' least entries the columns to its left hold.
``phi``, ``phi_inverse`` and ``svt_kohnert_move`` run the kernels through
pack or encode and decode.
``tests/oracles.py`` holds the diagram-level references.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_

from .crystal import CrystalTable, _codes_of, _rectangle_dims, _semistandard, crystal_table
from .polynomials import _units
from .tableaux import SetValuedTableau, _bits, _heights, _partition

Box = tuple[int, int]


@dataclass(frozen=True)
class KKohnertDiagram:
    boxes: frozenset[Box]
    marked: frozenset[Box]

    def __post_init__(self):
        if not self.marked <= self.boxes:
            raise ValueError("marked boxes must be a subset of the boxes")
        if any(x < 1 or y < 1 for x, y in self.boxes):
            raise ValueError("boxes must lie in the positive quadrant")

    @classmethod
    def _trusted(cls, boxes: frozenset[Box], marked: frozenset[Box]) -> "KKohnertDiagram":
        """Wrap boxes in the positive quadrant and marks among them, as a key holds them."""
        diagram = object.__new__(cls)
        object.__setattr__(diagram, "boxes", boxes)  # one by one, so the instance dicts share keys
        object.__setattr__(diagram, "marked", marked)
        return diagram

    def sort_key(self):
        return (tuple(sorted(self.boxes)), tuple(sorted(self.marked)))

    def to_json_dict(self) -> dict:
        return {key: [list(b) for b in sorted(getattr(self, key))] for key in ("boxes", "marked")}

    @classmethod
    def from_json_dict(cls, data: dict) -> "KKohnertDiagram":
        """Inverse of :meth:`to_json_dict`; raises ValueError, naming the
        key or the box, on a missing "boxes" or "marked" list or a box
        that is not a pair of integers."""
        parts = []
        for key in ("boxes", "marked"):
            boxes = data.get(key)
            if not isinstance(boxes, (list, tuple)):
                raise ValueError(f"diagram has no {key!r} list")
            for box in boxes:
                if not (
                    isinstance(box, (list, tuple))
                    and len(box) == 2
                    and all(type(v) is int for v in box)
                ):
                    raise ValueError(f"{key} entry {box!r} is not a pair of integers")
            parts.append(frozenset(tuple(box) for box in boxes))
        return cls(*parts)


def initial_diagram(a) -> KKohnertDiagram:
    """Skyline of the weak composition a, nothing marked; ValueError unless
    its parts are nonnegative integers."""
    boxes = {
        (x, y)
        for x, height in enumerate(_heights(a), start=1)
        for y in range(1, height + 1)
    }
    return KKohnertDiagram(frozenset(boxes), frozenset())


def pack(diagram: KKohnertDiagram, height: int, n: int) -> int:
    """The key of diagram in the layout of `height` rows and n columns: box
    (x, y) is bit (x-1)*height + y-1 of the boxes, and the marks are the
    same bits n*height higher; ValueError on a box above row `height` or
    right of column n, which would alias another box."""
    boxes = marked = 0
    for x, y in diagram.boxes:
        if y > height:
            raise ValueError(f"box {(x, y)} above row {height}")
        if x > n:
            raise ValueError(f"box in column {x} exceeds n={n}")
        bit = 1 << ((x - 1) * height + y - 1)
        boxes |= bit
        if (x, y) in diagram.marked:
            marked |= bit
    return boxes | marked << n * height


@lru_cache(maxsize=None)
def _cells(height: int, n: int) -> tuple[Box, ...]:
    """The box of each bit of the layout of `height` rows and n columns,
    shared by every diagram unpacked in it."""
    return tuple((j // height + 1, j % height + 1) for j in range(n * height))


def unpack(key: int, height: int, n: int) -> KKohnertDiagram:
    """The diagram of a key in the layout of `height` rows and n columns; inverts pack."""
    size, cells = n * height, _cells(height, n)
    boxes = frozenset([cells[j] for j in _bits(key & ((1 << size) - 1))])
    return KKohnertDiagram._trusted(boxes, frozenset([cells[j] for j in _bits(key >> size)]))


_COMPLEMENT = str.maketrans("01", "10")


def _flip(bits: int) -> str:
    """The complemented bit string of bits, least significant bit first: ints
    sort by it as the tuples of their set bits, ascending, do."""
    return bin(bits)[:1:-1].translate(_COMPLEMENT) if bits else ""


class KohnertGraph:
    """The (K-)Kohnert moves among the diagrams of one rearrangement class
    of compositions, explored on demand.  A move keeps each row's count of
    unmarked boxes, so every closure of the class lies in this graph and
    in no other.  Each diagram found gets a position and is held as its
    key, packed (see pack) in `height` = max(parts) rows and n = len(parts)
    columns, which hold every diagram of the class; its single moves, the
    position of its phi image and each check's verdict on it are filled on
    first read, once per diagram however many closures hold it."""

    def __init__(self, parts: tuple[int, ...]):
        self.parts, self.n, self.height = parts, len(parts), max(parts, default=0)
        self._units = _units(self.n, sum(parts))  # no column holds more boxes
        self.keys: list[int] = []
        self.index: dict[int, int] = {}
        self._moves: list[array | None] = []  # flat (x, is_k, image) triples
        self._phi = array("i")
        self._verdicts: dict[Callable, tuple[bytearray, dict[int, str]]] = {}
        self._closures: dict[tuple[int, ...], array] = {}
        self._sort_keys: list[str] = []  # by position: the _flip of the boxes, padded to n*height, then of the marks

    def position(self, key: int) -> int:
        """The position of the diagram with this key, added unexplored if it is new."""
        p = self.index.get(key)
        if p is None:
            p = self.index[key] = len(self.keys)
            self.keys.append(key)
            self._moves.append(None)
            self._phi.append(-1)
            size = self.n * self.height  # the pad " " sorts before "0" and "1", as a shorter string does
            self._sort_keys.append(_flip(key & (1 << size) - 1).ljust(size) + _flip(key >> size))
        return p

    def diagram(self, p: int) -> KKohnertDiagram:
        """The diagram at position p."""
        return unpack(self.keys[p], self.height, self.n)

    def weight(self, p: int) -> int:
        """phi's weight and excess of the diagram at p, its box count of each
        column and number of marks, as a stat (polynomials._units)."""
        key, height, column, units = self.keys[p], self.height, (1 << self.height) - 1, self._units
        weight = sum([(key >> x * height & column).bit_count() * units[x] for x in range(self.n)])
        return weight + (key >> self.n * height).bit_count() * units[-1]

    def _explored(self, p: int) -> array:
        """The moves of the diagram at p: in each column, left to right, the
        top box, unless marked, moves to the first free cell to its left in
        its row, shifting by `height` bits past boxes, unless a mark comes
        first; the K-move also keeps a marked box at the origin."""
        moves = self._moves[p]
        if moves is None:
            moves = self._moves[p] = array("i")
            key, height, size = self.keys[p], self.height, self.n * self.height
            boxes, marked = key & ((1 << size) - 1), key >> size
            column = (1 << height) - 1
            for x in range(1, self.n + 1):
                top = (boxes >> (x - 1) * height & column).bit_length()
                origin = 1 << ((x - 1) * height + top - 1) if top else 0
                if not origin or marked & origin:
                    continue
                target = origin >> height  # 0 left of column 1
                while boxes & target and not marked & target:
                    target >>= height
                if target and not boxes & target:
                    moved, kept = self.position(key - origin + target), self.position(key | target | origin << size)
                    moves.extend((x, 0, moved, x, 1, kept))
        return moves

    def moves(self, p: int) -> list[tuple[int, bool, int]]:
        """The single moves of the diagram at p, as (origin column, is_k_move,
        image position), by column, the Kohnert move before the K-move."""
        m = self._explored(p)
        return [(m[j], bool(m[j + 1]), m[j + 2]) for j in range(0, len(m), 3)]

    def closure(self, a: tuple[int, ...]) -> array:
        """The positions reachable from the skyline of a, in canonical order
        (KKohnertDiagram.sort_key, read off each key by _flip once, when it
        gets a position), found on the first read for a; a bytearray by
        position marks the diagrams found."""
        if a not in self._closures:
            order = [self.position(pack(initial_diagram(a), self.height, self.n))]
            seen = bytearray(len(self.keys))
            seen[order[0]] = 1
            for p in order:
                images = self._explored(p)[2::3]
                seen.extend(bytes(len(self.keys) - len(seen)))  # the positions the moves added
                for q in images:
                    if not seen[q]:
                        seen[q] = 1
                        order.append(q)
            order.sort(key=self._sort_keys.__getitem__)
            self._closures[a] = array("i", order)
        return self._closures[a]

    def phi_positions(self, positions) -> array:
        """The position of each diagram's phi image in crystal_table(n,
        shape), where shape is the rectangle of the class, indexed by
        diagram position: filled first for the listed positions, in order,
        and -1 where not filled; phi's ValueError where the class is not a
        rectangle."""
        images = self._phi
        missing = [p for p in positions if images[p] < 0]
        if missing:
            r, s = _rectangle_dims(self.parts)
            table = crystal_table(self.n, (s,) * r)
            for p in missing:
                code = _phi_code(table, self.keys[p])
                k = table._positions.get(code, -1)  # the diagram is decoded only to name it
                images[p] = k if k >= 0 else table.image(code, "phi", self.diagram(p))
        return images

    def verdict(self, judge, p: int, *args) -> str | None:
        """judge's verdict on the diagram at p: judge(*args), a witness or
        None for a pass, run on the first read only.  A judge that raises
        records nothing, so each later read raises again."""
        if judge not in self._verdicts:
            self._verdicts[judge] = (bytearray(), {})
        known, witnesses = self._verdicts[judge]
        if p >= len(known):
            known.extend(bytes(len(self.keys) - len(known)))
        if not known[p]:
            witness = judge(*args)
            if witness is not None:
                witnesses[p] = witness
            known[p] = 1
        return witnesses.get(p)


kohnert_graph = lru_cache(maxsize=1)(KohnertGraph)  # the graph of the last class tuple(sorted(a))


def closure_table(a: tuple[int, ...]) -> tuple[KohnertGraph, array]:
    """The graph of a's rearrangement class and the positions in it of the
    diagrams reachable from the skyline of a, in canonical order; ValueError,
    before any cache is read, unless its parts are nonnegative integers."""
    a = _heights(a)
    graph = kohnert_graph(tuple(sorted(a)))
    return graph, graph.closure(a)


def closure(a: tuple[int, ...]) -> tuple[KKohnertDiagram, ...]:
    """All diagrams reachable from the skyline of a by (K-)Kohnert moves,
    sorted canonically."""
    graph, positions = closure_table(a)
    return tuple(map(graph.diagram, positions))


# -- correspondence with rectangular set-valued tableaux ---------------------


def _phi_code(codes: CrystalTable, key: int) -> int:
    """phi of the diagram of key, packed in s rows and n columns, as a code
    of codes' r x s rectangle at n: diagram row y, bits y-1, y-1+s, ... of
    the boxes and of the marks, fills tableau column s-y (`_phi_row`)."""
    r, s, width, size = codes._height, len(codes._column), codes._width, codes.n * len(codes._column)
    bits = bin(key)[:1:-1].ljust(2 * size, "0")  # least significant bit first
    rows = (_phi_row(bits[y - 1 : size : s], bits[size + y - 1 :: s], r, y) for y in range(1, s + 1))
    return sum(row << (s - y) * r * width for y, row in enumerate(rows, start=1))


@lru_cache(maxsize=None)
def _phi_row(boxes: str, marks: str, r: int, y: int) -> int:
    """The slots, from the top box, that diagram row y with these box and
    mark flags by column fills: its unmarked boxes' columns, ascending, and
    each marked box (x, y) joins the box of the rightmost unmarked box to
    its left; ValueError on a row without r unmarked boxes or a marked box
    with none to its left.  Each pattern is worked out once."""
    width = len(boxes) + 1
    unmarked = [x for x, (box, mark) in enumerate(zip(boxes, marks), start=1) if box == "1" and mark == "0"]
    if len(unmarked) != r:
        raise ValueError(f"diagram row {y} has {len(unmarked)} unmarked boxes, expected {r}")
    row = sum(1 << (m * width + x) for m, x in enumerate(unmarked))
    for x in (x for x, mark in enumerate(marks, start=1) if mark == "1"):
        below = bisect_left(unmarked, x)  # unmarked boxes left of x
        if not below:
            raise ValueError(f"marked box {(x, y)} has no unmarked box to its left")
        row |= 1 << ((below - 1) * width + x)
    return row


def _phi_inverse_key(codes: CrystalTable, code: int) -> int:
    """The key, packed in s rows and n columns, of the diagram whose phi is
    the code of codes' r x s rectangle at n: the least entry x of each box
    of tableau column c is an unmarked box (x, s-c), its other entries
    marked boxes in that row (`_Columns`' row 1, shifted up to row s-c)."""
    columns, s, step = codes.derived(_Columns), len(codes._column), codes._step
    key, mask = 0, (1 << step) - 1
    for c in range(s):
        key |= columns[code >> c * step & mask][2] << s - c - 1
    return key


def phi(diagram: KKohnertDiagram, r: int, s: int, n: int) -> SetValuedTableau:
    """Read diagram row y (bottom = 1) as tableau column s+1-y: unmarked
    box columns become the cell entries top to bottom, and each marked box
    (x, y) joins the cell of the rightmost unmarked box to its left;
    ValueError on a box above row s or right of column n, or where that is
    not a semistandard r x s tableau at n."""
    codes = crystal_table(n, _partition((s,) * r))
    return _semistandard(codes, _phi_code(codes, pack(diagram, len(codes._column), n)))


def phi_inverse(tableau: SetValuedTableau) -> KKohnertDiagram:
    """Inverse reading: cell minima of tableau column c become unmarked
    boxes in diagram row s+1-c, the other entries marked boxes;
    ValueError unless the tableau is a semistandard rectangle."""
    _, s = _rectangle_dims(tableau.shape)
    codes, code = _codes_of(tableau)
    return unpack(_phi_inverse_key(codes, code), s, tableau.n)


class _Columns(dict):
    """What the Kohnert kernels read of each tableau column of one table, by
    its code (slots at bit 0), found on first read and held by the table
    (`CrystalTable.derived`): its values, its boxes' least entries, its
    diagram row for `_phi_inverse_key` (in row 1) and its moves (`moves`)
    by which of those least entries the columns to its left hold."""

    def __init__(self, codes: CrystalTable):
        super().__init__()
        self.width, self.full, self.height = codes._width, codes._full, codes._height
        self.n, self.s = codes.n, len(codes._column)

    def _slots(self, column: int) -> list[int]:
        return [column >> m * self.width & self.full for m in range(self.height)]

    def __missing__(self, column: int) -> tuple[int, int, int, dict]:
        slots, s, boxes, marked = self._slots(column), self.s, 0, 0
        for entries in filter(None, slots):
            least = entries & -entries
            boxes |= 1 << (least.bit_length() - 2) * s  # entry x is diagram column x - 1, from 0
            for v in _bits(entries ^ least):
                marked |= 1 << (v - 1) * s
        leasts = reduce(or_, [slot & -slot for slot in slots], 0)
        self[column] = known = (reduce(or_, slots, 0), leasts, boxes | marked | marked << self.n * s, {})
        return known

    def moves(self, column: int, seen: int) -> tuple[tuple[int, int, int], ...]:
        """The moves of a column whose boxes' least entries in `seen` lie in a
        column to its left, as (x, Kohnert difference, K difference): added to
        the column, each makes its image.  The least entry x of a box that no
        column to its left holds moves when the boxes above it hold exactly
        x-1, x-2, ... down to a value x' > 0 that the column misses: x and that
        run each drop by one, x kept for the K-variant."""
        slots, values, width, moves = self._slots(column), self[column][0], self.width, []
        for m, slot in enumerate(slots):
            least = slot & -slot
            if not slot or least & seen:
                continue
            x = least.bit_length() - 1
            moved = least << m * width
            v, up = x - 1, m - 1
            while values >> v & 1:  # bit 0 is never set: the run stops at v = 0
                if slots[up] != 1 << v:
                    break
                moved |= 1 << (up * width + v)
                v, up = v - 1, up - 1
            else:
                if v:
                    moves.append((x, (moved >> 1) - moved, (moved >> 1) - moved + (least << m * width)))
        return tuple(moves)


def _svt_moves(codes: CrystalTable, code: int) -> dict[tuple[int, bool], int]:
    """svt_kohnert_move at every x, both variants, on a code: (x, is_k) ->
    image code, for the defined moves, a column at a time (`_Columns.moves`)."""
    columns, step = codes.derived(_Columns), codes._step
    moves: dict[tuple[int, bool], int] = {}
    seen, mask = 0, (1 << step) - 1  # seen: the values of the columns to the left
    for shift in [c * step for c in range(len(codes._column))]:
        column = code >> shift & mask
        values, leasts, _, by_seen = columns[column]
        held = seen & leasts
        found = by_seen.get(held)
        if found is None:
            found = by_seen[held] = columns.moves(column, held)
        for x, moved, kept in found:
            moves[x, False] = code + (moved << shift)
            moves[x, True] = code + (kept << shift)
        seen |= values
    return moves


def svt_kohnert_move(
    tableau: SetValuedTableau, x: int, k_variant: bool = False
) -> SetValuedTableau | None:
    """The move on tableaux matching a diagram move in column x.

    In the leftmost column holding x, let x' be the largest value below x
    missing from the column: x is removed (kept, for the K-variant), the
    run of values x'+1..x-1 slides down one box, and x' lands in the box
    that held x'+1.  Returns None when x is not the minimum of its box,
    when x' would be 0, or when a value in the run shares its box;
    ValueError unless x is an int in 1..n, k_variant a bool and the tableau
    semistandard."""
    if type(x) is not int or not 0 < x <= tableau.n:
        raise ValueError(f"column {x!r} is outside 1..{tableau.n}")
    if type(k_variant) is not bool:
        raise ValueError(f"k_variant must be a bool, got {k_variant!r}")
    codes, code = _codes_of(tableau)
    image = _svt_moves(codes, code).get((x, k_variant))
    return None if image is None else codes.decode(image)
