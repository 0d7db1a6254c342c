"""
Independent oracles used to derive expected values: these deliberately
avoid the library's own code paths for the quantities they check.
"""

from functools import lru_cache
from itertools import combinations, permutations, product

from kcrystals.crystal import _codes_of, crystal_table
from kcrystals.keys import _max_right_keys, _right_keys, key_of_composition
from kcrystals.kohnert import KKohnertDiagram, initial_diagram
from kcrystals.permutations import (
    _letter,
    act,
    bruhat_leq,
    coset_reps,
    evaluate_word,
    length,
    reduced_word,
    reduced_words,
)
from kcrystals.polynomials import BetaPolynomial
from kcrystals.skyline import SkylineTableau, _column_fillings
from kcrystals.tableaux import SetValuedTableau, enumerate_svt, superstandard


def subword_bruhat_leq(v, w) -> bool:
    """v <= w iff some reduced word of w contains a reduced subword
    evaluating to v (checked over all reduced words of w)."""
    n = len(w)
    target_length = length(v)
    for word in reduced_words(w):
        for positions in combinations(range(len(word)), target_length):
            sub = tuple(word[p] for p in positions)
            if evaluate_word(sub, n) == v:
                return True
    return target_length == 0 and v == tuple(range(1, n + 1))


def brute_min_coset_rep(w, lam):
    """Minimal-length coset representative by scanning the stabilizer."""
    n = len(w)
    stab = [
        tuple(z)
        for z in permutations(range(1, n + 1))
        if all(lam[z[i] - 1] == lam[i] for i in range(n))
    ]
    coset = [tuple(w[z[i] - 1] for i in range(n)) for z in stab]
    return min(coset, key=lambda u: (length(u), u))


def divide_by_root_difference(numerator: BetaPolynomial, i: int) -> BetaPolynomial:
    """Exact division by (x_i - x_{i+1}); raises on a nonzero remainder."""
    n = numerator.n
    quotient: dict = {}
    remainder = dict(numerator.terms)

    def lead(terms):
        return max(terms, key=lambda key: (key[0], key[1]))

    while remainder:
        (xs, be) = lead(remainder)
        coeff = remainder[(xs, be)]
        if xs[i - 1] == 0:
            raise ArithmeticError(f"nonzero remainder at {(xs, be)}")
        qxs = list(xs)
        qxs[i - 1] -= 1
        qkey = (tuple(qxs), be)
        quotient[qkey] = quotient.get(qkey, 0) + coeff
        for delta, sign in (((1, 0), 1), ((0, 1), -1)):
            txs = list(qxs)
            txs[i - 1] += delta[0]
            txs[i] += delta[1]
            key = (tuple(txs), be)
            value = remainder.get(key, 0) - sign * coeff
            if value:
                remainder[key] = value
            else:
                remainder.pop(key, None)
    return BetaPolynomial(n, quotient)


def oracle_divided_difference(p: BetaPolynomial, i: int) -> BetaPolynomial:
    return divide_by_root_difference(p - p.swap(i), i)


def oracle_isobaric(p: BetaPolynomial, i: int) -> BetaPolynomial:
    """((1 + b x_{i+1}) f - (1 + b x_i) s_i f) / (x_i - x_{i+1})."""
    n = p.n
    one = BetaPolynomial.one(n)
    xi = BetaPolynomial.monomial(n, tuple(int(j == i) for j in range(1, n + 1)), beta=1)
    xnext = BetaPolynomial.monomial(
        n, tuple(int(j == i + 1) for j in range(1, n + 1)), beta=1
    )
    numerator = (one + xnext) * p - (one + xi) * p.swap(i)
    return divide_by_root_difference(numerator, i)


def _variable(n: int, j: int, beta: int = 0) -> BetaPolynomial:
    """The monomial b^beta x_j in n variables."""
    return BetaPolynomial.monomial(n, tuple(int(k == j) for k in range(1, n + 1)), beta=beta)


def reference_demazure(p: BetaPolynomial, i: int) -> BetaPolynomial:
    """pi_i through the generic product with x_i."""
    return oracle_divided_difference(_variable(p.n, i) * p, i)


def reference_demazure_lascoux(p: BetaPolynomial, i: int) -> BetaPolynomial:
    """varpi_i = pi_i((1 + b x_{i+1}) f) through the generic product."""
    return reference_demazure(p + _variable(p.n, i + 1, beta=1) * p, i)


def reference_isobaric_beta(p: BetaPolynomial, i: int) -> BetaPolynomial:
    """partial_i((1 + b x_{i+1}) f) through the generic product."""
    return oracle_divided_difference(p + _variable(p.n, i + 1, beta=1) * p, i)


def enumerate_ssyt(n: int, shape) -> list[tuple[tuple[int, ...], ...]]:
    """Semistandard Young tableaux as tuples of rows of integers."""
    shape = tuple(s for s in shape if s)
    if not shape:
        return [()]
    results = []
    grid = [[0] * width for width in shape]

    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]

    def fill(idx):
        if idx == len(cells):
            results.append(tuple(tuple(row) for row in grid))
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, n + 1):
            grid[r][c] = v
            fill(idx + 1)

    fill(0)
    return results


def schur_polynomial(shape, n: int) -> BetaPolynomial:
    """Schur polynomial as the tableau generating function."""
    total = BetaPolynomial.zero(n)
    for tab in enumerate_ssyt(n, shape):
        counts = [0] * n
        for row in tab:
            for v in row:
                counts[v - 1] += 1
        total += BetaPolynomial.monomial(n, counts)
    return total


# -- reference crystal kernel -------------------------------------------------
# Signs from per-column entry sets, every result rebuilt through the public
# normalising constructor, and the Lusztig star as the mirror of one raising
# path through the component's lowest element.


def reference_signature(tableau, i):
    """Columns of the unpaired "+" and "-" signs, each left to right."""
    width = len(tableau.rows[0]) if tableau.rows else 0
    plus, minus = [], []
    for c in range(width):
        entries = {v for row in tableau.rows if c < len(row) for v in row[c]}
        has_i, has_next = i in entries, i + 1 in entries
        if has_i and not has_next:
            if minus:
                minus.pop()
            else:
                plus.append(c)
        elif has_next and not has_i:
            minus.append(c)
    return plus, minus


def _replaced(tableau, changes):
    rows = [list(row) for row in tableau.rows]
    for (r, c), cell in changes.items():
        rows[r][c] = cell
    return SetValuedTableau(rows, tableau.n)


def _with_cell(tableau, r, c, cell):
    """tableau with box (r, c) set to cell, which may be empty, wrapped as it is."""
    rows = [list(row) for row in tableau.rows]
    rows[r][c] = tuple(sorted(cell))
    return SetValuedTableau._trusted(tuple(map(tuple, rows)), tableau.n)


def _row_of(tableau, c, value):
    return next(
        r for r, row in enumerate(tableau.rows) if c < len(row) and value in row[c]
    )


def _cells(tableau):
    return [(r, c, cell) for r, row in enumerate(tableau.rows) for c, cell in enumerate(row)]


def reference_crystal_f(tableau, i):
    plus, _ = reference_signature(tableau, i)
    if not plus:
        return None
    c = plus[-1]
    r = _row_of(tableau, c, i)
    row = tableau.rows[r]
    if c + 1 < len(row) and i in row[c + 1]:
        return _replaced(
            tableau, {(r, c + 1): set(row[c + 1]) - {i}, (r, c): set(row[c]) | {i + 1}}
        )
    return _replaced(tableau, {(r, c): (set(row[c]) - {i}) | {i + 1}})


def reference_crystal_e(tableau, i):
    _, minus = reference_signature(tableau, i)
    if not minus:
        return None
    c = minus[0]
    r = _row_of(tableau, c, i + 1)
    row = tableau.rows[r]
    if c > 0 and i + 1 in row[c - 1]:
        return _replaced(
            tableau, {(r, c - 1): set(row[c - 1]) - {i + 1}, (r, c): set(row[c]) | {i}}
        )
    return _replaced(tableau, {(r, c): (set(row[c]) - {i + 1}) | {i}})


def reference_kcrystal_f(tableau, i):
    cells = _cells(tableau)
    if not any(i in cell for _, _, cell in cells):
        return None
    plus, minus = reference_signature(tableau, i)
    if minus or not plus:
        return None
    c = plus[-1]
    if any(cc >= c and i in cell and i + 1 in cell for _, cc, cell in cells):
        return None
    r = _row_of(tableau, c, i)
    return _replaced(tableau, {(r, c): set(tableau.rows[r][c]) | {i + 1}})


def reference_kcrystal_e(tableau, i):
    """The unique U with reference_kcrystal_f(U, i) == tableau, searched
    over the removals of i+1 from each box holding both i and i+1."""
    found = [
        u
        for r, c, cell in _cells(tableau)
        if i in cell and i + 1 in cell
        if reference_kcrystal_f(u := _replaced(tableau, {(r, c): set(cell) - {i + 1}}), i)
        == tableau
    ]
    if len(found) > 1:
        raise AssertionError(f"f^K_{i} is not injective onto {tableau.to_text()}")
    return found[0] if found else None


@lru_cache(maxsize=None)
def _reference_lowest(high):
    """The unique lowest element of the e_i/f_i component of high."""
    n = high.n
    component, frontier = {high}, [high]
    while frontier:
        current = frontier.pop()
        for i in range(1, n):
            for image in (reference_crystal_f(current, i), reference_crystal_e(current, i)):
                if image is not None and image not in component:
                    component.add(image)
                    frontier.append(image)
    lows = [
        t for t in component if all(reference_crystal_f(t, i) is None for i in range(1, n))
    ]
    if len(lows) != 1:
        raise AssertionError(f"component of {high.to_text()} has {len(lows)} lowest elements")
    return lows[0]


def reference_lusztig_star(tableau):
    """Raise by the least available e_i to the highest weight element, then
    apply e_{n-i} to the lowest element along the reversed path."""
    n = tableau.n
    path, current = [], tableau
    while True:
        step = next(
            ((i, up) for i in range(1, n) if (up := reference_crystal_e(current, i)) is not None),
            None,
        )
        if step is None:
            break
        path.append(step[0])
        current = step[1]
    result = _reference_lowest(current)
    for i in reversed(path):
        result = reference_crystal_e(result, n - i)
        if result is None:
            raise AssertionError(f"mirrored path breaks at {tableau.to_text()}")
    return result


def _reference_free_fits(skyline, c, level, height, value):
    cells = dict(skyline.columns)[c]
    if value >= cells[level - 1][-1]:
        return False
    if level > 1 and min(cells[level - 2]) < value:
        return False
    if level < height and max(cells[level]) > value:
        return False
    return True


def _cells_at_level(skyline, level):
    return [(c, cells[level - 1]) for c, cells in skyline.columns if level <= len(cells)]


def reference_validate_skyline(skyline, n):
    """The skyline rules checked one by one: the columns are those of the
    shape, then per column, per level across columns, the triple condition
    per pair of columns, then every free entry against every cell to its left."""
    columns = [(c, len(cells)) for c, cells in skyline.columns]
    if columns != [(c, h) for c, h in enumerate(skyline.shape, start=1) if h]:
        return False
    heights = dict(columns)
    for c, cells in skyline.columns:
        if cells[0][-1] != c:
            return False
        for level in range(1, len(cells)):
            if min(cells[level - 1]) < max(cells[level]):
                return False
        if any(v > n or v < 1 for cell in cells for v in cell):
            return False
    for level in range(1, max(heights.values(), default=0) + 1):
        entries = [v for _, cell in _cells_at_level(skyline, level) for v in cell]
        if len(entries) != len(set(entries)):
            return False
    for (p, pcells), (q, qcells) in combinations(skyline.columns, 2):
        hp, hq = len(pcells), len(qcells)
        if hq >= hp:
            # A over B in the right column, C beside A in the left column
            for level in range(2, hp + 1):
                a, b, cc = qcells[level - 1][-1], qcells[level - 2][-1], pcells[level - 1][-1]
                if not (cc < a or b < cc):
                    return False
        else:
            # A over B in the left column, C beside A in the right column
            for level in range(2, hq + 1):
                a, b, cc = pcells[level - 1][-1], pcells[level - 2][-1], qcells[level - 1][-1]
                if not (cc < a or b < cc):
                    return False
    for c, cells in skyline.columns:
        for level, cell in enumerate(cells, start=1):
            for v in cell[:-1]:
                for c2, _ in skyline.columns:
                    if c2 >= c:
                        break
                    if level <= heights[c2] and _reference_free_fits(
                        skyline, c2, level, heights[c2], v
                    ):
                        return False
    return True


def reference_enumerate_skyline(a, n):
    """Every product of column fillings that passes the skyline rules,
    in the library's sorted order."""
    nonzero = [(c, height) for c, height in enumerate(a, start=1) if height]
    per_column = [list(_column_fillings(c, height, n)) for c, height in nonzero]
    out = []
    for choice in product(*per_column):
        skyline = SkylineTableau(
            tuple(a), tuple((c, cells) for (c, _), cells in zip(nonzero, choice))
        )
        if reference_validate_skyline(skyline, n):
            out.append(skyline)
    return tuple(sorted(out, key=lambda skyline: skyline.columns))


def per_tableau(operator):
    """A crystal._KERNEL entry whose action on each code is operator(t, i)
    on its tableau t, encoded back, so that a tableau-level fault reaches
    the table's pass; it acts on every code, whatever its sign key."""

    def kernel(table, i, key):
        def act(code):
            image = operator(table.decode(code), i)
            return None if image is None else table._encode(image)

        return act

    return kernel


def reference_raise_string_max(tableau, i):
    """Apply reference_crystal_e until exhausted, then reference_kcrystal_e
    until exhausted."""
    current = tableau
    while (up := reference_crystal_e(current, i)) is not None:
        current = up
    while (up := reference_kcrystal_e(current, i)) is not None:
        current = up
    return current


def reference_demazure_subset(w, shape, n, word):
    """Tableaux whose raise chain along word, recomputed letter by letter,
    ends at the superstandard tableau."""
    u = superstandard(shape, n)
    members = []
    for tableau in enumerate_svt(n, shape):
        current = tableau
        for i in word:
            current = reference_raise_string_max(current, i)
        if current == u:
            members.append(tableau)
    return tuple(members)


def reference_decompose(n, shape):
    """Components under e_i/f_i by a search from each unvisited tableau,
    each with its unique highest weight element, sorted by that element's
    text form."""
    seen = set()
    components = []
    for start in enumerate_svt(n, shape):
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            current = frontier.pop()
            for i in range(1, n):
                for image in (reference_crystal_f(current, i), reference_crystal_e(current, i)):
                    if image is not None and image not in component:
                        component.add(image)
                        frontier.append(image)
        seen |= component
        highs = [
            t for t in component if all(reference_crystal_e(t, i) is None for i in range(1, n))
        ]
        if len(highs) != 1:
            raise AssertionError(f"component without unique highest weight: {highs}")
        components.append((highs[0], tuple(sorted(component, key=SetValuedTableau.to_text))))
    return sorted(components, key=lambda pair: pair[0].to_text())


def reference_weight(tableau):
    """Entry counts, one pass over the cells."""
    counts = [0] * tableau.n
    for _, _, cell in _cells(tableau):
        for v in cell:
            counts[v - 1] += 1
    return tuple(counts)


def reference_excess(tableau):
    return sum(len(cell) - 1 for _, _, cell in _cells(tableau))


def reference_is_semistandard(tableau):
    """Every box nonempty with entries in [1, n], rows weakly and columns
    strictly increasing from box to box, and rows of partition lengths."""
    rows, n = tableau.rows, tableau.n
    shape = [len(row) for row in rows]
    if shape != sorted(shape, reverse=True):
        return False
    for r, c, cell in _cells(tableau):
        if not cell or min(cell) < 1 or max(cell) > n:
            return False
        if c + 1 < len(rows[r]) and max(cell) > min(rows[r][c + 1]):
            return False
        if r + 1 < len(rows) and c < len(rows[r + 1]) and max(cell) >= min(rows[r + 1][c]):
            return False
    return True


def reference_enumerate_svt(n, shape):
    """Every filling of shape by nonempty subsets of 1..n that
    reference_is_semistandard accepts, sorted by text."""
    subsets = [cell for size in range(1, n + 1) for cell in combinations(range(1, n + 1), size)]
    out = []
    for cells in product(subsets, repeat=sum(shape)):
        boxes = iter(cells)
        tableau = SetValuedTableau([[next(boxes) for _ in range(width)] for width in shape], n)
        if reference_is_semistandard(tableau):
            out.append(tableau)
    return sorted(out, key=SetValuedTableau.to_text)


def reference_max_tableau(tableau):
    """Greatest entry in each box, through the normalising constructor."""
    return SetValuedTableau([[(max(cell),) for cell in row] for row in tableau.rows], tableau.n)


def reference_min_tableau(tableau):
    """Least entry in each box, through the normalising constructor."""
    return SetValuedTableau([[(min(cell),) for cell in row] for row in tableau.rows], tableau.n)


def reference_k_lusztig_star(tableau):
    """Rotate by 180 degrees and complement, through the normalising constructor."""
    n = tableau.n
    rows = [[[n + 1 - v for v in cell] for cell in reversed(row)] for row in reversed(tableau.rows)]
    return SetValuedTableau(rows, n)


def reference_right_key(tableau):
    """The key of v·λ for the Bruhat-least coset representative v such
    that classical raising along a reduced word of v reaches the
    superstandard tableau."""
    n, shape = tableau.n, tableau.shape
    lam = shape + (0,) * (n - len(shape))
    u = superstandard(shape, n)
    members = []
    for v in coset_reps(lam, n):
        current = tableau
        for i in reduced_word(v):
            while (up := reference_crystal_e(current, i)) is not None:
                current = up
        if current == u:
            members.append(v)
    least = min(members, key=lambda v: (length(v), v))
    if not all(bruhat_leq(least, v) for v in members):
        raise AssertionError(f"no Bruhat-least Demazure crystal holds {tableau.to_text()}")
    return key_of_composition(act(least, lam))


def _reference_move_targets(diagram):
    """Yield (origin, target) for every legal single move origin."""
    columns = {}
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


def reference_single_moves(diagram):
    """All single-move results as (origin column, is_k_move, diagram), with
    the boxes and marks as sets of (x, y)."""
    out = []
    for (x, y), target in _reference_move_targets(diagram):
        moved = KKohnertDiagram._trusted((diagram.boxes - {(x, y)}) | {target}, diagram.marked)
        out.append((x, False, moved))
        left_behind = KKohnertDiagram._trusted(diagram.boxes | {target}, diagram.marked | {(x, y)})
        out.append((x, True, left_behind))
    return out


def reference_closure(a):
    """The closure of one composition on its own: a breadth-first search
    from the skyline of a that keeps every diagram it finds.  Returns the
    diagrams in canonical order and each diagram's single moves."""
    order = [initial_diagram(a)]
    found = set(order)
    moves = {}
    for d in order:
        moves[d] = reference_single_moves(d)
        for _, _, image in moves[d]:
            if image not in found:
                found.add(image)
                order.append(image)
    return sorted(order, key=lambda d: d.sort_key()), moves


def reference_svt_kohnert_move(tableau, x, k_variant=False):
    """The tableau Kohnert move one cell at a time: every removal and
    addition builds a new tableau."""
    if not any(x in cell for row in tableau.rows for cell in row):
        return None
    col = next((c for c in range(len(tableau.rows[0])) if x in column_entries(tableau, c)), None)
    if col is None:
        raise ValueError(f"{tableau.to_text()} holds {x} beyond the width of its first row")
    entries = column_entries(tableau, col)
    row_of = {v: _row_of(tableau, col, v) for v in entries}
    if x != min(tableau.rows[row_of[x]][col]):
        return None
    x_prime = x - 1
    while x_prime >= 1 and x_prime in entries:
        x_prime -= 1
    if x_prime == 0:
        return None
    for v in range(x_prime + 1, x):
        if tableau.rows[row_of[v]][col] != (v,):
            return None
    out = tableau
    if not k_variant:
        out = _with_cell(out, row_of[x], col, set(out.rows[row_of[x]][col]) - {x})
    for v in range(x - 1, x_prime, -1):
        below = row_of[v + 1]
        out = _with_cell(out, below, col, set(out.rows[below][col]) | {v})
        out = _with_cell(out, row_of[v], col, set(out.rows[row_of[v]][col]) - {v})
    target_row = row_of[x_prime + 1]
    return _with_cell(out, target_row, col, set(out.rows[target_row][col]) | {x_prime})


def reference_phi(diagram, r, s, n):
    """phi with set cells, each marked box placed by a scan of the
    unmarked boxes, through the normalising tableau constructor."""
    rows_of, marked_of = {}, {}
    for x, y in diagram.boxes:
        if y > s:
            raise ValueError(f"box {(x, y)} above row {s}; not a rectangle image")
        bucket = marked_of if (x, y) in diagram.marked else rows_of
        bucket.setdefault(y, []).append(x)
    cells = [[set() for _ in range(s)] for _ in range(r)]
    for y in range(1, s + 1):
        unmarked = sorted(rows_of.get(y, []))
        if len(unmarked) != r:
            raise ValueError(
                f"diagram row {y} has {len(unmarked)} unmarked boxes, expected {r}"
            )
        for row_idx, x in enumerate(unmarked):
            cells[row_idx][s - y].add(x)
        for x in sorted(marked_of.get(y, [])):
            below = [u for u in unmarked if u < x]
            if not below:
                raise ValueError(f"marked box {(x, y)} has no unmarked box to its left")
            cells[unmarked.index(max(below))][s - y].add(x)
    tableau = SetValuedTableau(cells, n)
    if not tableau.is_semistandard():
        raise ValueError(f"diagram does not map to a semistandard tableau: {tableau!r}")
    return tableau


def reference_phi_inverse(tableau):
    """Inverse reading with sets of boxes: cell minima of tableau column c
    become unmarked boxes in diagram row s+1-c, the other entries marked
    boxes."""
    s = len(tableau.rows[0]) if tableau.rows else 0
    boxes, marked = set(), set()
    for row in tableau.rows:
        for y, cell in zip(range(s, 0, -1), row):
            boxes.add((cell[0], y))
            for v in cell[1:]:
                boxes.add((v, y))
                marked.add((v, y))
    return KKohnertDiagram(frozenset(boxes), frozenset(marked))


def reference_psi(skyline, n):
    """psi with list cells, sorted and read through the normalising
    tableau constructor."""
    heights = [h for h in skyline.shape if h]
    widths = set(heights)
    if len(widths) != 1:
        raise ValueError("shape must be a rearranged rectangle")
    s = widths.pop()
    r = len(heights)
    straightened = []
    for level in range(1, s + 1):
        row = _cells_at_level(skyline, level)
        if len(row) != r:
            raise ValueError(f"level {level} has {len(row)} cells, expected {r}")
        anchors = sorted(cell[-1] for _, cell in row)
        frees = sorted(v for _, cell in row for v in cell[:-1])
        cells = [[a] for a in anchors]
        for v in frees:
            for a, cell in zip(anchors, cells):
                if v < a:
                    cell.append(v)
                    break
            else:
                raise ValueError(f"free entry {v} fits under no anchor")
        straightened.append([sorted(cell) for cell in cells])
    rows = [[straightened[s - 1 - col][row_idx] for col in range(s)] for row_idx in range(r)]
    tableau = SetValuedTableau(rows, n)
    if not tableau.is_semistandard():
        raise ValueError(f"image is not semistandard: {tableau!r}")
    return tableau


def reference_compatible(pcells, qcells):
    """The cross-column skyline rules for columns p left of q, through
    any/max generators."""
    hp, hq = len(pcells), len(qcells)
    tall, short = (qcells, pcells) if hq >= hp else (pcells, qcells)
    for level in range(min(hp, hq)):
        pcell, qcell = pcells[level], qcells[level]
        if any(v in pcell for v in qcell):
            return False
        if level:
            a, b, cc = tall[level][-1], tall[level - 1][-1], short[level][-1]
            if not (cc < a or b < cc):
                return False
        for v in qcell[:-1]:
            if v < pcell[-1] and (level + 1 == hp or max(pcells[level + 1]) <= v):
                return False
    return True


# -- moved out of the library ---------------------------------------------------
# Readers that only the tests use.  Unlike the oracles above, signature and
# max_right_key read the library's own tables: they expose the sign pairing and
# the calK key map, which the library keeps, one tableau at a time.


def column_entries(tableau, c):
    """The entries of column c."""
    return {v for row in tableau.rows if c < len(row) for v in row[c]}


def is_key_tableau(tableau):
    """Singleton cells with nested column supports."""
    width = tableau.shape[0] if tableau.shape else 0
    return tableau.excess() == 0 and all(
        column_entries(tableau, c) <= column_entries(tableau, c - 1) for c in range(1, width)
    )


def beta_zero(p: BetaPolynomial) -> BetaPolynomial:
    """The terms of p free of b."""
    return BetaPolynomial(p.n, {key: c for key, c in p.terms.items() if key[1] == 0})


def signature(tableau, i):
    """The unpaired "+" and "-" columns, each left to right, read from the
    crystal table's sign key; ValueError as for crystal_f."""
    _letter(i, tableau.n)
    codes, code = _codes_of(tableau)
    return tuple(map(list, codes._pair(codes._key(code, i))))


def max_right_key(tableau):
    """Right key of the greatest-entry tableau, read from the table's calK map."""
    table = crystal_table(tableau.n, tableau.shape)
    return table.derived(_right_keys)[0][table.derived(_max_right_keys)[table.position(tableau)]]
