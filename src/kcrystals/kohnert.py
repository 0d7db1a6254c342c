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
``KohnertGraph``, explored on demand: each diagram has a position, and
its single moves (as positions), the position of its phi image in the
crystal table of the rectangle and each bijection check's verdict on it
are filled on first read, once per diagram.  ``kohnert_graph(parts)`` is
the one cached graph of a class, keyed by its sorted composition, so
``kohnert_graph.cache_clear()`` is the only reset; each graph keeps the
closure of each composition of its class, found on first read.
``closure_table(a)`` reads the graph of a's class and that closure.

phi and the tableau Kohnert move are kernels on the crystal table's codes
(``crystal._Columns``): the graph looks each ``_phi_code`` up in the table,
membership being the semistandardness test, and ``_svt_moves`` gives every
move of a code in one pass; ``phi`` and ``svt_kohnert_move`` decode them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_

from .crystal import _Columns, _codes, _codes_of, _rectangle_dims, _semistandard, crystal_table
from .tableaux import SetValuedTableau, _heights, _partition

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
        """Wrap boxes in the positive quadrant and marks among them, as a move keeps them."""
        diagram = object.__new__(cls)
        object.__setattr__(diagram, "boxes", boxes)  # one by one, so the instance dicts share keys
        object.__setattr__(diagram, "marked", marked)
        return diagram

    def sort_key(self):
        return (tuple(sorted(self.boxes)), tuple(sorted(self.marked)))

    def column_heights(self, n: int) -> tuple[int, ...]:
        counts = [0] * n
        for x, _ in self.boxes:
            if x > n:
                raise ValueError(f"box in column {x} exceeds n={n}")
            counts[x - 1] += 1
        return tuple(counts)

    def to_json_dict(self) -> dict:
        return {
            "boxes": [list(b) for b in sorted(self.boxes)],
            "marked": [list(b) for b in sorted(self.marked)],
        }

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


def _move_targets(diagram: KKohnertDiagram):
    """Yield (origin, target) for every legal single move origin."""
    columns: dict[int, int] = {}
    for x, y in diagram.boxes:
        columns[x] = max(columns.get(x, 0), y)
    for x, y in sorted(columns.items()):
        if (x, y) in diagram.marked:
            continue
        target = None
        for x2 in range(x - 1, 0, -1):
            if (x2, y) not in diagram.boxes:
                target = (x2, y)
                break
            if (x2, y) in diagram.marked:
                break
        if target is not None:
            yield (x, y), target


def single_moves(
    diagram: KKohnertDiagram,
) -> list[tuple[int, bool, KKohnertDiagram]]:
    """All single-move results as (origin column, is_k_move, diagram)."""
    out = []
    for (x, y), target in _move_targets(diagram):
        moved = KKohnertDiagram._trusted((diagram.boxes - {(x, y)}) | {target}, diagram.marked)
        out.append((x, False, moved))
        left_behind = KKohnertDiagram._trusted(diagram.boxes | {target}, diagram.marked | {(x, y)})
        out.append((x, True, left_behind))
    return out


class KohnertGraph:
    """The (K-)Kohnert moves among the diagrams of one rearrangement class
    of compositions, explored on demand.  A move keeps each row's count of
    unmarked boxes, so every closure of the class lies in this graph and
    in no other.  Each diagram found gets a position; its single moves,
    the position of its phi image and each check's verdict on it are
    filled on first read, once per diagram however many closures hold it."""

    def __init__(self, parts: tuple[int, ...]):
        self.parts, self.n = parts, len(parts)
        self.diagrams: list[KKohnertDiagram] = []
        self.index: dict[KKohnertDiagram, int] = {}
        self._moves: list[array | None] = []  # flat (x, is_k, image) triples
        self._phi = array("i")
        self._verdicts: dict[Callable, tuple[bytearray, dict[int, str]]] = {}
        self._closures: dict[tuple[int, ...], array] = {}

    def position(self, diagram: KKohnertDiagram) -> int:
        """The position of diagram, added unexplored if it is new."""
        p = self.index.get(diagram)
        if p is None:
            p = self.index[diagram] = len(self.diagrams)
            self.diagrams.append(diagram)
            self._moves.append(None)
            self._phi.append(-1)
        return p

    def _explored(self, p: int) -> array:
        moves = self._moves[p]
        if moves is None:
            moves = self._moves[p] = array("i")
            for x, is_k, image in single_moves(self.diagrams[p]):
                moves.extend((x, is_k, self.position(image)))
        return moves

    def moves(self, p: int) -> list[tuple[int, bool, int]]:
        """single_moves(diagrams[p]) with each image as its position."""
        m = self._explored(p)
        return [(m[j], bool(m[j + 1]), m[j + 2]) for j in range(0, len(m), 3)]

    def closure(self, a: tuple[int, ...]) -> array:
        """The positions reachable from the skyline of a, in canonical order,
        found on the first read for a."""
        if a not in self._closures:
            order = [self.position(initial_diagram(a))]
            seen = set(order)
            for p in order:
                for q in self._explored(p)[2::3]:
                    if q not in seen:
                        seen.add(q)
                        order.append(q)
            order.sort(key=lambda p: self.diagrams[p].sort_key())
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
                images[p] = table.image(_phi_code(table, self.diagrams[p]), "phi", self.diagrams[p])
        return images

    def verdict(self, judge, p: int, *args) -> str | None:
        """judge's verdict on the diagram at p: judge(*args), a witness or
        None for a pass, run on the first read only.  A judge that raises
        records nothing, so each later read raises again."""
        known, witnesses = self._verdicts.setdefault(judge, (bytearray(), {}))
        if p >= len(known):
            known.extend(bytes(len(self.diagrams) - len(known)))
        if not known[p]:
            witness = judge(*args)
            if witness is not None:
                witnesses[p] = witness
            known[p] = 1
        return witnesses.get(p)


kohnert_graph = lru_cache(maxsize=None)(KohnertGraph)  # one graph per class tuple(sorted(a))


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
    return tuple(graph.diagrams[p] for p in positions)


# -- correspondence with rectangular set-valued tableaux ---------------------


def _phi_code(codes: _Columns, diagram: KKohnertDiagram) -> int:
    """phi of diagram as a code of codes' rectangle: the unmarked boxes of
    diagram row y, by column, fill tableau column s-y top to bottom, and
    each marked box (x, y) joins the box of the rightmost unmarked box to
    its left; ValueError on a box above row s or right of column n, a row
    without r unmarked boxes or a marked box with none to its left."""
    r, s, width, n = codes._height, len(codes._column), codes._width, codes.n
    rows_of: dict[int, list[int]] = {}
    marked_of: dict[int, list[int]] = {}
    for x, y in diagram.boxes:
        if y > s:
            raise ValueError(f"box {(x, y)} above row {s}; not a rectangle image")
        if x > n:  # it would spill into the next slot
            raise ValueError(f"box in column {x} exceeds n={n}")
        bucket = marked_of if (x, y) in diagram.marked else rows_of
        bucket.setdefault(y, []).append(x)
    code = 0
    for y in range(1, s + 1):
        unmarked = sorted(rows_of.get(y, []))
        if len(unmarked) != r:
            raise ValueError(f"diagram row {y} has {len(unmarked)} unmarked boxes, expected {r}")
        slot = (s - y) * r  # the slot of the column's top box
        for m, x in enumerate(unmarked):
            code |= 1 << ((slot + m) * width + x)
        for x in sorted(marked_of.get(y, [])):
            below = bisect_left(unmarked, x)  # unmarked boxes left of x
            if not below:
                raise ValueError(f"marked box {(x, y)} has no unmarked box to its left")
            code |= 1 << ((slot + below - 1) * width + x)
    return code


def phi(diagram: KKohnertDiagram, r: int, s: int, n: int) -> SetValuedTableau:
    """Read diagram row y (bottom = 1) as tableau column s+1-y: unmarked
    box columns become the cell entries top to bottom, and each marked box
    (x, y) joins the cell of the rightmost unmarked box to its left;
    ValueError where that is not a semistandard r x s tableau at n."""
    codes = _codes(n, _partition((s,) * r))
    return _semistandard(codes, _phi_code(codes, diagram))


def phi_inverse(tableau: SetValuedTableau) -> KKohnertDiagram:
    """Inverse reading: cell minima of tableau column c become unmarked
    boxes in diagram row s+1-c, the other entries marked boxes."""
    _, s = _rectangle_dims(tableau.shape)
    boxes: set[Box] = set()
    marked: set[Box] = set()
    for row in tableau.rows:
        for y, cell in zip(range(s, 0, -1), row):
            boxes.add((cell[0], y))
            for v in cell[1:]:
                boxes.add((v, y))
                marked.add((v, y))
    return KKohnertDiagram(frozenset(boxes), frozenset(marked))


def _svt_moves(codes: _Columns, code: int) -> dict[tuple[int, bool], int]:
    """svt_kohnert_move at every x, both variants, on a code: (x, is_k) ->
    image code, for the defined moves.  The least entry x of a box that no
    column to its left holds moves when the boxes above it hold exactly
    x-1, x-2, ... down to a value x' > 0 that the column misses: x and that
    run each drop by one, x kept for the K-variant."""
    width, height, full = codes._width, codes._height, codes._full
    moves: dict[tuple[int, bool], int] = {}
    seen = 0  # the values of the columns to the left
    for base in (c * height for c in range(len(codes._column))):  # the slot of each column's top box
        slots = [code >> (base + m) * width & full for m in range(height)]
        column = reduce(or_, slots)  # the values of the column
        for m, slot in enumerate(slots):
            least = slot & -slot
            if not slot or least & seen:
                continue
            x = least.bit_length() - 1
            moved = least << (base + m) * width
            v, up = x - 1, m - 1
            while column >> v & 1:  # bit 0 is never set: the run stops at v = 0
                if slots[up] != 1 << v:
                    break
                moved |= 1 << ((base + up) * width + v)
                v, up = v - 1, up - 1
            else:
                if v:
                    moves[x, False] = code - moved + (moved >> 1)
                    moves[x, True] = moves[x, False] + (least << (base + m) * width)
        seen |= column
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
    ValueError unless the tableau is semistandard."""
    codes = _codes_of(tableau)
    image = _svt_moves(codes, codes._encode(tableau)).get((x, bool(k_variant)))
    return None if image is None else codes.decode(image)
