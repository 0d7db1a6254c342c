"""
Named verification suites: each runs a family of exhaustive small-rank
checks and yields one result per case, with a serialized witness on
failure.  Suites are pure; cases can be fanned out to worker processes.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from itertools import combinations, product

from . import golden
from .crystal import (
    _components,
    _flags,
    _from_flags,
    beta_character,
    crystal_table,
    demazure_subset,
    flagged_set,
    ik_strings,
    superstandard,
)
from .keys import (
    _key_subsets,
    _max_right_keys,
    _rotations,
    _stars,
    key_partition_report,
)
from .kohnert import KKohnertDiagram, _phi_inverse_key, _svt_moves, closure, closure_table
from .kohnert import phi, phi_inverse
from .permutations import (
    _bruhat_ideal,
    _pad,
    act,
    avoids_pattern,
    bruhat_ideal,
    bruhat_leq,
    coset_reps,
    evaluate_word,
    compose,
    inverse,
    lehmer_code,
    length,
    longest_element,
    reduced_words,
    stabilizer_min_rep,
)
from .polynomials import (
    BetaPolynomial,
    apply_word,
    grothendieck,
    lascoux,
    lascoux_atom,
    _stat_polynomial,
    _unpack,
    parse_polynomial,
)
from .skyline import enumerate_skyline, psi, skyline_table
from .tableaux import SetValuedTableau, _partition, enumerate_svt

@dataclass(frozen=True)
class Bounds:
    max_n: int = 4
    max_side: int = 3
    max_cells: int = 6
    shape: tuple[int, ...] | None = None
    n: int | None = None


@dataclass
class SuiteResult:
    suite: str
    case: dict
    status: str  # "pass" | "fail"
    witness: str | None = None
    elapsed: float = field(default=0.0, compare=False)

    def to_text(self, timings: bool = False) -> str:
        tag = self.status.upper()
        line = f"[{tag}] {self.suite} {json.dumps(self.case, sort_keys=True)}"
        if self.witness is not None:
            line += f" witness={self.witness}"
        if timings:
            line += f" elapsed={self.elapsed:.3f}s"
        return line

    def to_json(self, timings: bool = False) -> str:
        payload = {
            "suite": self.suite,
            "case": self.case,
            "status": self.status,
            "witness": self.witness,
        }
        if timings:
            payload["elapsed"] = round(self.elapsed, 3)
        return json.dumps(payload, sort_keys=True)


def _partitions(max_cells: int, max_len: int):
    """Nonempty partitions with at most max_cells boxes and max_len rows."""
    return sorted(_extensions((), max_cells, max_cells, max_len))  # every prefix of a partition is one, found once


def _extensions(prefix: tuple[int, ...], remaining: int, cap: int, max_len: int):
    """The partitions of at most max_len rows that extend prefix by parts of at
    most cap, remaining boxes in all."""
    for part in range(min(cap, remaining), 0, -1):
        shape = prefix + (part,)
        if len(shape) <= max_len:
            yield shape
            yield from _extensions(shape, remaining - part, part, max_len)


def _rectangles(bounds: Bounds):
    """Each rectangle of the bounds at each n from 2 to max_n, as a case, with
    that case once for each coset representative w of the shape at n."""
    sides = range(1, bounds.max_side + 1)
    for n in range(2, bounds.max_n + 1):
        for shape in ((s,) * r for r in sides for s in sides):
            if len(shape) <= n:
                case = {"n": n, "shape": list(shape)}
                yield case, [{**case, "w": list(w)} for w in coset_reps(_pad(shape, n), n)]


# -- individual checks -------------------------------------------------------


def _monomials(n: int, max_degree: int):
    """Exponent vectors of degree at most max_degree, in lexicographic order."""
    return [e for e in product(range(max_degree + 1), repeat=n) if sum(e) <= max_degree]


def _check_operator_relations(op, n):
    for exps in _monomials(n, 4):
        p = BetaPolynomial.monomial(n, exps)
        once = {}
        for i in range(1, n):
            once[i] = apply_word(p, [i], op)
            if op in ("pi", "varpi") and apply_word(once[i], [i], op) != once[i]:
                return f"{op}_{i} not idempotent at x^{exps}"
        for i in range(1, n - 1):
            if apply_word(once[i], [i + 1, i], op) != apply_word(once[i + 1], [i, i + 1], op):
                return f"{op} braid relation fails at x^{exps}, i={i}"
        for i, j in combinations(range(1, n), 2):
            if j - i > 1 and apply_word(once[i], [j], op) != apply_word(once[j], [i], op):
                return f"{op}_{i},{op}_{j} do not commute at x^{exps}"
    return None


def _check_bruhat_atom_sum(n, shape):
    """Walked in coset_reps order, the Lascoux polynomial and atom of a = v.lam
    are varpi_i and varpi_i - 1 of those of a with a_i < a_{i+1} swapped."""
    lam = _pad(shape, n)
    reps = coset_reps(lam, n)
    lascoux_of = {lam: BetaPolynomial.monomial(n, lam)}
    atom_of = dict(lascoux_of)
    for v in reps[1:]:
        a = act(v, lam)
        i = next(i for i in range(1, n) if a[i - 1] < a[i])
        b = a[: i - 1] + (a[i], a[i - 1]) + a[i + 1 :]
        lascoux_of[a] = lascoux_of[b].demazure_lascoux(i)
        atom_of[a] = atom_of[b].demazure_lascoux_atom(i)
    reps = set(reps)
    for w in reps:
        ideal = (atom_of[act(v, lam)] for v in _bruhat_ideal(w) if v in reps)
        if BetaPolynomial.sum(n, ideal) != lascoux_of[act(w, lam)]:
            return f"atom sum mismatch at w={list(w)}"
    return None


def _check_inverse_ops(n, shape):
    table = crystal_table(n, shape)
    maps = [(i, *table.maps(i, "e", "f")) for i in range(1, n)]
    stats, units = table.stats, table._units
    for k, stat in enumerate(stats):
        for i, e, f in maps:
            down = f[k]
            if down >= 0:
                if e[down] != k:
                    return f"e_{i} f_{i} != id at {table.tableau(k).to_text()}"
                if stats[down] != stat + units[i] - units[i - 1]:
                    return f"f_{i} weight law fails at {table.tableau(k).to_text()}"
            if e[k] >= 0 and f[e[k]] != k:
                return f"f_{i} e_{i} != id at {table.tableau(k).to_text()}"
    return None


def _check_components(n, shape):
    table = crystal_table(n, shape)
    u = table.position(superstandard(shape, n))
    for high, members in _components(table):  # raises if a component lacks a unique highest
        if high == u and members != [k for k, stat in enumerate(table.stats) if stat < table._units[-1]]:
            return "component of the minimal highest weight element is not the single-valued one"
    return None


def _check_k_ops(n, shape):
    table = crystal_table(n, shape)
    maps = [(i, *table.maps(i, "eK", "fK")) for i in range(1, n)]
    stats, units = table.stats, table._units
    for k, stat in enumerate(stats):
        for i, ek, fk in maps:
            down = fk[k]
            if down >= 0:
                if fk[down] >= 0:
                    return f"f^K_{i} f^K_{i} != 0 at {table.tableau(k).to_text()}"
                if stats[down] != stat + units[i] + units[-1]:
                    return f"f^K_{i} weight law fails at {table.tableau(k).to_text()}"
                if ek[down] != k:
                    return f"f^K_{i} is not inverse to e^K_{i} at {table.tableau(k).to_text()}"
            if ek[k] >= 0 and fk[ek[k]] != k:
                return f"e^K_{i} is not inverse to f^K_{i} at {table.tableau(k).to_text()}"
    return None


def _string_test(strings, size: int):
    """The test that a subset (a bitset of size positions) meets each string in
    nothing, in the whole string or in its top alone, in one pass: all members
    but the top share a flag (same, other), and the first of them is in the
    subset only if the top is (first, tops).  Gathered once per subset."""
    same, other, first, tops = [], [], [], []
    for top, bottom in strings:
        if rest := top[1:] + bottom:
            same += [rest[0]] * (len(rest) - 1)
            other += rest[1:]
            first.append(rest[0])
            tops.append(top[0])

    def holds(subset: int) -> bool:
        flags = _flags(subset, size)
        gather = lambda side: "".join(map(flags.__getitem__, side))
        return gather(same) == gather(other) and not _from_flags(gather(first)) & ~_from_flags(gather(tops))

    return holds


def _check_k_strings(n, shape, i):
    strings = ik_strings(n, shape, i)
    table = crystal_table(n, shape)
    subsets = {w: table.demazure(w) for w in coset_reps(_pad(shape, n), n)}
    even = all(not bottom or len(bottom) == len(top) - 1 for top, bottom in strings)
    if even and all(map(_string_test(strings, len(table.codes)), subsets.values())):
        return None
    for top, bottom in strings:  # a failure: the string-by-string loop finds its witness
        if bottom and len(bottom) != len(top) - 1:
            return f"string at {table.tableau(top[0]).to_text()} has uneven rows"
        elements = sum(1 << k for k in {*top, *bottom})
        for w, subset in subsets.items():
            if (meet := subset & elements) not in (0, elements, 1 << top[0]):
                texts = [t.to_text() for t in table.members(meet)]
                return f"string at {table.tableau(top[0]).to_text()} meets the subset of w={list(w)} in {texts}"
    return None


def _check_k_monotone(n, shape):
    table = crystal_table(n, shape)
    reps = coset_reps(_pad(shape, n), n)
    subsets = [table.demazure(v) for v in reps]
    for v, below in zip(reps, subsets):
        for w, above in zip(reps, subsets):
            if bruhat_leq(v, w) and below & ~above:
                return f"monotonicity fails for v={list(v)} <= w={list(w)}"
    return None


def _doubly_highest(table) -> list[int]:
    """The positions of the table that no e_i or e^K_i raises."""
    ups = [up for i in range(1, table.n) for up in table.maps(i, "e", "eK")]
    return [k for k in range(len(table.codes)) if all(up[k] < 0 for up in ups)]


def _words_agree(table) -> bool:
    """Whether all reduced words of each coset representative v give one subset:
    at each left descent i of v, the raise preimage at i of s_i v's subset is v's."""
    return all(
        table.raised(table.demazure(compose(evaluate_word((i,), table.n), v)), i) == table.demazure(v)
        for v in coset_reps(_pad(table.shape, table.n), table.n)
        for i in range(1, table.n)
        if v.index(i + 1) < v.index(i)
    )


def _check_k_demazure(n, shape, w):
    lam = _pad(shape, n)
    table = crystal_table(n, shape)
    top, doubly_highest = table.position(superstandard(shape, n)), table.derived(_doubly_highest)
    if doubly_highest != [top]:
        texts = [table.tableau(k).to_text() for k in doubly_highest]
        return f"minimal highest weight element is not unique: {texts}"
    baseline = table.demazure(w)
    if not table.derived(_words_agree):  # a failure: w's reduced words, compared in order, find its witness
        words = sorted(reduced_words(stabilizer_min_rep(w, lam)))
        subsets = [demazure_subset(w, shape, n, word) for word in words]
        if differ := [word for word, subset in zip(words, subsets) if subset != subsets[0]]:
            return f"subset depends on the reduced word {differ[0]}"
    if not baseline >> top & 1:
        return "minimal highest weight element missing from the subset"
    character = table.character(baseline)
    if character != lascoux(act(w, lam), n):
        return f"character mismatch: {character.to_text()}"
    if w == stabilizer_min_rep(longest_element(n), lam) and baseline != (1 << len(table.codes)) - 1:
        return "top subset is not everything"
    return None


def _check_flag(n, shape, w):
    table = crystal_table(n, shape)
    if diff := table.demazure(w) ^ table.flagged(w):
        return f"flag mismatch: {[t.to_text() for t in table.members(diff)]}"
    return None


def _check_flag_golden():
    five = flagged_set((1, 3, 2), (2, 2), 3)
    if len(five) != 5:
        return f"expected 5 flagged tableaux, got {len(five)}"
    all13 = enumerate_svt(3, (2, 2))
    if len(all13) != 13:
        return f"expected 13 tableaux, got {len(all13)}"
    if set(demazure_subset((1, 3, 2), (2, 2), 3)) != set(five):
        return "flagged and K-Demazure sets disagree on the golden case"
    return None


def _check_full_character(n, shape):
    top = tuple(reversed(_pad(shape, n)))
    table = crystal_table(n, shape)
    total = table.character((1 << len(table.codes)) - 1)
    if total != lascoux(top, n):
        return "character of all tableaux differs from the top polynomial"
    if not total.is_symmetric():
        return "full character is not symmetric"
    return None


def _diagram_character(a, n: int) -> BetaPolynomial:
    """Sum of b^(#marked) x^(column box counts) over the closure of a, whose parts number n."""
    graph, positions = closure_table(a)
    return _stat_polynomial(graph._units, Counter(map(graph.weight, positions)))


def _check_character_golden():
    expected = parse_polynomial(golden.text("lascoux_022.txt"), 3)
    actual = lascoux((0, 2, 2), 3)
    if actual != expected:
        return f"lascoux((0,2,2),3) = {actual.to_text()}"
    if beta_character(enumerate_svt(3, (2, 2)), 3) != expected:
        return "tableau character disagrees with the golden polynomial"
    if _diagram_character((0, 2, 2), 3) != expected:
        return "diagram weights disagree with the golden polynomial"
    return None


def _round_trip_witness(graph, p: int, table, k: int) -> str | None:
    """_check_kohnert's verdict on the diagram at p with phi image at position k."""
    if graph.weight(p) != table.stats[k]:
        return f"phi does not preserve the weight of {table.tableau(k).to_text()}"
    if _phi_inverse_key(table, table.codes[k]) != graph.keys[p]:
        return f"phi_inverse(phi(D)) != D at {table.tableau(k).to_text()}"
    return None


def _check_kohnert(n, shape, w):
    graph, positions = closure_table(act(w, _pad(shape, n)))
    table = crystal_table(n, shape)
    images = graph.phi_positions(positions)
    seen = set()
    for p in positions:
        k = images[p]
        if k in seen:
            return f"phi collision at {table.tableau(k).to_text()}"
        witness = graph.verdict(_round_trip_witness, p, graph, p, table, k)
        if witness is not None:
            return witness
        seen.add(k)
    if diff := sum(1 << k for k in seen) ^ table.flagged(w):
        return f"phi image mismatch: {[t.to_text() for t in table.members(diff)]}"
    return None


def _intertwine_witness(graph, p: int, images, table) -> str | None:
    """_check_kohnert_intertwine's verdict on the diagram at p, by positions:
    None at once where each diagram move's image has the position of the
    tableau move of its (x, is_k) and there are no other tableau moves."""
    moved, found, positions = _svt_moves(table, table.codes[images[p]]), graph._explored(p), table._positions
    if len(found) == 3 * len(moved) and all(
        positions.get(moved.get((found[j], found[j + 1] == 1))) == images[found[j + 2]] for j in range(0, len(found), 3)
    ):
        return None
    diagram_moves = {(x, is_k): images[q] for x, is_k, q in graph.moves(p)}
    stat, units = graph.weight(p), graph._units
    for x in (x for x in range(1, graph.n + 1) if stat % units[x] >= units[x - 1]):  # column x holds a box
        for is_k in (False, True):
            key = (x, is_k)
            if (key in diagram_moves) != (key in moved):
                return f"move availability differs at {table.tableau(images[p]).to_text()}, x={x}, k={is_k}"
            if key in moved and table._positions.get(moved[key]) != diagram_moves[key]:
                return f"moves do not intertwine at {table.tableau(images[p]).to_text()}, x={x}, k={is_k}"
    return None


def _check_kohnert_intertwine(n, shape, w):
    graph, positions = closure_table(act(w, _pad(shape, n)))
    table = crystal_table(n, shape)
    images = graph.phi_positions(positions)
    for p in positions:
        witness = graph.verdict(_intertwine_witness, p, graph, p, images, table)
        if witness is not None:
            return witness
    return None


def _check_kohnert_golden():
    diagrams = closure((0, 2, 2))
    expected = {
        KKohnertDiagram.from_json_dict(d).sort_key()
        for d in json.loads(golden.text("grid_022_diagrams.json"))
    }
    if {d.sort_key() for d in diagrams} != expected:
        return "closure of (0,2,2) differs from the golden 13 diagrams"
    pairs = json.loads(golden.text("phi_pairs_s2.json"))
    for pair in pairs:
        d = KKohnertDiagram.from_json_dict(pair["diagram"])
        if phi(d, 2, 2, 3).to_text() != pair["tableau"]:
            return f"phi golden pair mismatch at {pair['tableau']}"
        if phi_inverse(SetValuedTableau.from_text(pair["tableau"], 3)) != d:
            return f"phi_inverse golden pair mismatch at {pair['tableau']}"
    return None


def _check_skyline(n, shape, w):
    a = act(w, _pad(shape, n))
    record = skyline_table(tuple(sorted(a)), n)
    images, _ = record.images(a)
    table = crystal_table(n, shape)
    for stat, k in zip(record.stats(a), images):
        if stat != table.stats[k]:
            return f"psi does not preserve the weight of {table.tableau(k).to_text()}"
    if diff := sum(1 << k for k in images) ^ table.atom(w):
        return f"psi image mismatch: {[t.to_text() for t in table.members(diff)]}"
    if record.character(a) != lascoux_atom(a, n):
        return "skyline character differs from the atom polynomial"
    return None


def _check_skyline_sum(n, shape, w):
    lam = _pad(shape, n)
    reps, record = set(coset_reps(lam, n)), skyline_table(tuple(sorted(lam)), n)
    characters = (record.character(act(v, lam)) for v in bruhat_ideal(w) if v in reps)
    if BetaPolynomial.sum(n, characters) != lascoux(act(w, lam), n):
        return "skyline sum over the Bruhat ideal differs from the polynomial"
    return None


def _check_skyline_golden():
    skylines = enumerate_skyline((2, 0, 2), 3)
    if len(skylines) != 4:
        return f"expected 4 skylines for (2,0,2), got {len(skylines)}"
    pairs = json.loads(golden.text("psi_pairs_s2.json"))
    table = {
        json.dumps(s.to_json_dict(), sort_keys=True): psi(s, 3).to_text()
        for s in skylines
    }
    expected = {
        json.dumps(pair["skyline"], sort_keys=True): pair["tableau"]
        for pair in pairs
    }
    if table != expected:
        return f"psi golden pairs mismatch: {table}"
    return None


def _check_key_ideal_atom(n, shape, w):
    table = crystal_table(n, shape)
    ideal, atom = _key_subsets(table, table.derived(_max_right_keys), act(w, _pad(shape, n)))
    if ideal != table.demazure(w):
        return "key ideal differs from the K-Demazure subset"
    if atom != table.atom(w):
        return "key fiber differs from the atom subset"
    return None


def _check_star_axioms(n, shape):
    table = crystal_table(n, shape)
    rotations, stars, stats = table.derived(_rotations), table.derived(_stars), table.stats
    weights = {stat: _unpack(stat, table._units)[0] for stat in set(stats)}
    # (i, e_i, f_i, e_{n-i}, f_{n-i})
    maps = [(i, *table.maps(i, "e", "f"), *table.maps(n - i, "e", "f")) for i in range(1, n)]
    for k in range(len(table.codes)):
        reversed_weight = weights[stats[k]][::-1]
        star = rotations[k]
        if rotations[star] != k:
            return f"rotation involution does not square to id at {table.tableau(k).to_text()}"
        if weights[stats[star]] != reversed_weight:
            return f"rotation involution weight law fails at {table.tableau(k).to_text()}"
        naive = stars[k]
        if stars[naive] != k:
            return f"path-mirror involution does not square to id at {table.tableau(k).to_text()}"
        if weights[stats[naive]] != reversed_weight:
            return f"path-mirror weight law fails at {table.tableau(k).to_text()}"
        if len(shape) == 1 and naive != star:
            return f"single-row involutions disagree at {table.tableau(k).to_text()}"
        for i, e, f, e_mirror, f_mirror in maps:
            down = f_mirror[k]
            if e[star] != (-1 if down < 0 else rotations[down]):
                return f"e_{i}(T°) != (f_{n-i}T)° at {table.tableau(k).to_text()}"
            up = e_mirror[k]
            if f[star] != (-1 if up < 0 else rotations[up]):
                return f"f_{i}(T°) != (e_{n-i}T)° at {table.tableau(k).to_text()}"
    return None


GROTHENDIECK_GOLDENS = {
    "square22-short": {
        "weight": (0, 2, 2),
        "weight_n": 3,
        "word": (2, 1, 2, 4, 3, 4),
        "m": 5,
    },
    "square22-long": {
        "weight": (0, 0, 2, 2),
        "weight_n": 4,
        "word": (3, 2, 1, 3, 2, 5, 4, 3, 5, 4, 5),
        "m": 6,
    },
    "shape42": {
        "weight": (4, 0, 2),
        "weight_n": 5,
        "word": (2, 4, 3, 4),
        "m": 5,
    },
}


def _check_groth_golden(case):
    data = GROTHENDIECK_GOLDENS[case]
    m = data["m"]
    chain = evaluate_word(data["word"], m)
    perm = compose(longest_element(m), inverse(chain))
    if length(chain) != len(data["word"]):
        return "golden word is not reduced"
    if not avoids_pattern(perm, (2, 1, 4, 3)):
        return f"indexing permutation {list(perm)} is not vexillary"
    left = lascoux(data["weight"], data["weight_n"]).extend(m)
    right = grothendieck(perm, m)
    if left != right:
        return f"polynomials differ: {left.to_text()} vs {right.to_text()}"
    code = lehmer_code(perm)
    if code != _pad(data["weight"], m):
        return f"Lehmer code {code} differs from the weight"
    return None


def _scan(n, shape, w, conjecture: str, character, polynomial) -> str:
    """Whether character(a, n) equals polynomial(a, n) at a = w·lam, as a
    report line that also says whether w avoids 312."""
    a = act(w, _pad(shape, n))
    match = character(a, n) == polynomial(a, n)
    report = {"conjecture": conjecture, "match": match, "w312": avoids_pattern(w, (3, 1, 2))}
    return json.dumps(report, sort_keys=True)


def _check_scan_kohnert(n, shape, w):
    return _scan(n, shape, w, "kohnert-closure", _diagram_character, lascoux)


def _check_scan_skyline(n, shape, w):
    character = lambda a, n: skyline_table(tuple(sorted(a)), n).character(a)
    return _scan(n, shape, w, "skyline-atom", character, lascoux_atom)


def _check_scan_keys(n, shape):
    return json.dumps(key_partition_report(shape, n), sort_keys=True)


# -- suites ------------------------------------------------------------------


def _partition_cases(bounds: Bounds):
    for n in range(2, bounds.max_n + 1):
        for shape in _partitions(bounds.max_cells, n):
            yield {"n": n, "shape": list(shape)}


def _operator_algebra_cases(bounds: Bounds):
    for op in ("pi", "varpi", "isobaric"):
        for n in range(2, bounds.max_n + 1):
            yield _check_operator_relations, {"op": op, "n": n}
    for case in _partition_cases(bounds):
        yield _check_bruhat_atom_sum, case


def _crystal_axioms_cases(bounds: Bounds):
    for case in _partition_cases(bounds):
        yield _check_inverse_ops, case
        yield _check_components, case


def _k_crystal_axioms_cases(bounds: Bounds):
    for case, cases_w in _rectangles(bounds):
        yield _check_k_ops, case
        for i in range(1, case["n"]):
            yield _check_k_strings, {"i": i, **case}
        yield _check_k_monotone, case
        for case_w in cases_w:
            yield _check_k_demazure, case_w


def _demazure_flag_cases(bounds: Bounds):
    yield _check_flag_golden, {}
    for _, cases in _rectangles(bounds):
        for case in cases:
            yield _check_flag, case


def _character_cases(bounds: Bounds):
    yield _check_character_golden, {}
    for case in _partition_cases(bounds):
        yield _check_full_character, case


def _kohnert_bijection_cases(bounds: Bounds):
    yield _check_kohnert_golden, {}
    for _, cases in _rectangles(bounds):
        for case in cases:
            yield _check_kohnert, case
            yield _check_kohnert_intertwine, case


def _skyline_bijection_cases(bounds: Bounds):
    yield _check_skyline_golden, {}
    for _, cases in _rectangles(bounds):
        for case in cases:
            yield _check_skyline, case
            yield _check_skyline_sum, case


def _keys_rectangle_cases(bounds: Bounds):
    for case, cases_w in _rectangles(bounds):
        for case_w in cases_w:
            yield _check_key_ideal_atom, case_w
        yield _check_star_axioms, case


def _grothendieck_vexillary_cases(bounds: Bounds):
    for name in sorted(GROTHENDIECK_GOLDENS):
        yield _check_groth_golden, {"case": name}


def _conjecture_scan_cases(bounds: Bounds):
    if bounds.shape is not None:
        shapes = [bounds.shape]
    else:
        shapes = [
            shape
            for shape in _partitions(min(bounds.max_cells, 4), bounds.max_n)
            if len(set(shape)) > 1
        ]
    for shape in shapes:
        n = bounds.n if bounds.n is not None else max(len(shape) + 1, 3)
        if len(shape) > n:
            continue
        for w in coset_reps(_pad(shape, n), n):
            case = {"n": n, "shape": list(shape), "w": list(w)}
            yield _check_scan_kohnert, case
            yield _check_scan_skyline, case
        yield _check_scan_keys, {"n": n, "shape": list(shape)}


class Suite:
    """A verification suite: its case generator, which yields (check,
    params) pairs, the Bounds fields the generator reads, the checks it
    owns, and whether it only reports (every case that does not raise
    passes, with the check's return value as the witness) instead of
    failing a case whose check returns a witness.  A check takes its
    params as keyword arguments, list values as tuples."""

    def __init__(self, cases, reads, checks, report=False):
        self.cases: Callable[[Bounds], Iterable[tuple[Callable, dict]]] = cases
        self.reads: tuple[str, ...] = reads
        self.checks: dict[str, Callable[..., str | None]] = {
            _check_name(check): check for check in checks
        }
        self.report = report


def _check_name(check) -> str:
    """A check's name is its function name less ``_check_``, hyphenated."""
    return check.__name__.removeprefix("_check_").replace("_", "-")


_PARTITION_BOUNDS = ("max_n", "max_cells")
_RECTANGLE_BOUNDS = ("max_n", "max_side")

SUITES = {
    "operator-algebra": Suite(
        _operator_algebra_cases,
        _PARTITION_BOUNDS,
        (_check_operator_relations, _check_bruhat_atom_sum),
    ),
    "crystal-axioms": Suite(
        _crystal_axioms_cases, _PARTITION_BOUNDS, (_check_inverse_ops, _check_components)
    ),
    "k-crystal-axioms": Suite(
        _k_crystal_axioms_cases,
        _RECTANGLE_BOUNDS,
        (_check_k_ops, _check_k_strings, _check_k_monotone, _check_k_demazure),
    ),
    "demazure-flag": Suite(
        _demazure_flag_cases, _RECTANGLE_BOUNDS, (_check_flag_golden, _check_flag)
    ),
    "character": Suite(
        _character_cases, _PARTITION_BOUNDS, (_check_character_golden, _check_full_character)
    ),
    "kohnert-bijection": Suite(
        _kohnert_bijection_cases,
        _RECTANGLE_BOUNDS,
        (_check_kohnert_golden, _check_kohnert, _check_kohnert_intertwine),
    ),
    "skyline-bijection": Suite(
        _skyline_bijection_cases,
        _RECTANGLE_BOUNDS,
        (_check_skyline_golden, _check_skyline, _check_skyline_sum),
    ),
    "keys-rectangle": Suite(
        _keys_rectangle_cases, _RECTANGLE_BOUNDS, (_check_key_ideal_atom, _check_star_axioms)
    ),
    "grothendieck-vexillary": Suite(_grothendieck_vexillary_cases, (), (_check_groth_golden,)),
    "conjecture-scan": Suite(
        _conjecture_scan_cases,
        ("max_n", "max_cells", "shape", "n"),
        (_check_scan_kohnert, _check_scan_skyline, _check_scan_keys),
        report=True,
    ),
}


def _suite(name: str) -> Suite:
    try:
        return SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}") from None


def iter_cases(suite: str, bounds: Bounds) -> list[dict]:
    return [{"check": _check_name(check), **params} for check, params in _suite(suite).cases(bounds)]


def run_case(suite: str, case: dict) -> SuiteResult:
    """Run one case: its check, given the other keys of the case as keyword
    arguments, list values as tuples; a check that raises fails the case.
    Raises ValueError on an unknown suite or a check the suite does not own."""
    started = time.monotonic()
    entry = _suite(suite)
    check = entry.checks.get(case["check"])
    if check is None:
        raise ValueError(f"suite {suite!r} has no check {case['check']!r}")
    params = {k: tuple(v) if isinstance(v, list) else v for k, v in case.items() if k != "check"}
    try:
        witness = check(**params)
    except Exception as exc:  # a crash is a failing case, not a crash of the run
        status, witness = "fail", f"exception: {exc!r}"
    else:
        status = "pass" if witness is None or entry.report else "fail"
    return SuiteResult(suite, case, status, witness, time.monotonic() - started)


def _case_key(result: SuiteResult):
    return (result.suite, json.dumps(result.case, sort_keys=True))


def worker_count(jobs: int | None, cpus: int | None, cases: int) -> int:
    """Pool size: --jobs, else 1, capped by the CPU count and the number of
    cases; ValueError unless --jobs is a positive integer."""
    if jobs is not None and (type(jobs) is not int or jobs < 1):
        raise ValueError(f"--jobs must be a positive integer, got {jobs!r}")
    return max(1, min(jobs or 1, cpus or 1, cases))


def run_suite(suite: str, bounds: Bounds, jobs: int | None = None) -> list[SuiteResult]:
    """Run every case of a suite, sorted, with the shape keyed without its
    zeros; raises ValueError, before any case runs, on an unknown suite, a
    shape that is not a partition, a shape or n the suite does not read,
    bounds that select no case or a bad worker request."""
    reads = _suite(suite).reads
    if bounds.shape is not None:
        bounds = replace(bounds, shape=_partition(bounds.shape))
    for name in ("shape", "n"):  # the bounds that are None unless given
        if getattr(bounds, name) is not None and name not in reads:
            flags = ", ".join("--" + read.replace("_", "-") for read in reads) or "no bound flag"
            raise ValueError(f"suite {suite!r} does not read --{name}; it reads {flags}")
    cases = iter_cases(suite, bounds)
    if all(case.keys() == {"check"} for case in cases):  # none, or only fixed golden cases
        raise ValueError(f"the bounds select no case of suite {suite!r}")
    packed = [(suite, case) for case in cases]
    count = worker_count(jobs, os.cpu_count(), len(packed))
    if count > 1:
        import multiprocessing

        with multiprocessing.Pool(count) as pool:
            results = pool.starmap(run_case, packed)
    else:
        results = [run_case(*item) for item in packed]
    return sorted(results, key=_case_key)
