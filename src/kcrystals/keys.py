"""
Key tableaux, right keys, the two entanglement-reversing involutions on
set-valued tableaux, and the derived key maps used to probe atom
decompositions.

Right keys, max-right keys, Lusztig stars, rotations and the key maps of
``key_partition_report`` (composed from them with the position of each
least-entry tableau) are built once per crystal table and kept with it
(``CrystalTable.derived``), each as one int per position; a key is the index
of its coset representative v, and the key tableau of v·λ is decoded only at
the boundary.  They read the table's codes through ``_entry``, which keeps
the least or greatest entry of each box, and ``_rotate``, the rectangle's
rotation; ``k_lusztig_star`` runs ``_rotate`` through encode and decode.
"""

from __future__ import annotations

from array import array

from .crystal import CrystalTable, _codes_of, _flags, _from_flags, _rectangle_dims, crystal_table
from .permutations import _pad, act, bruhat_leq
from .polynomials import lascoux, lascoux_atom
from .tableaux import SetValuedTableau, _Codes, _heights, _partition


def key_of_composition(a) -> SetValuedTableau:
    """The unique key tableau of weight a: column j holds {i : a_i >= j}.

    >>> key_of_composition((0, 2, 2)).to_text()
    '2 2/3 3'
    """
    a = _heights(a)
    n = len(a)
    width = max(a, default=0)
    columns = [sorted(i + 1 for i, part in enumerate(a) if part >= j) for j in range(1, width + 1)]
    depth = len(columns[0]) if columns else 0
    rows = [
        [(col[r],) for col in columns if r < len(col)] for r in range(depth)
    ]
    return SetValuedTableau(rows, n)


def _entry(codes: _Codes, code: int, least: bool) -> int:
    """The code of code's tableau with each box cut to its least entry, or to its greatest unless least."""
    out, full = 0, codes._full
    for shifts in codes._shifts:
        for shift in shifts:
            slot = code >> shift & full
            out |= (slot & -slot if least else 1 << slot.bit_length() - 1) << shift
    return out


def _rotate(codes: _Codes, code: int) -> int:
    """The code of a rectangle's tableau turned 180 degrees with each entry v
    made n+1-v: reversing the bits sends slot j to slot rs-1-j and bit v of a
    slot to bit n-v, and the shift by one makes that n+1-v."""
    return int(format(code, f"0{codes._width * sum(codes.shape)}b")[::-1], 2) << 1


def _right_keys(table: CrystalTable) -> tuple[list[SetValuedTableau], array]:
    """Each coset representative's key of v·λ (coset_reps order) and, by position,
    the index of each single-valued tableau's right key, else -1; on those e_i
    keeps the excess and e_i^K never acts, so the subsets are classical."""
    lam, reps = _pad(table.shape, table.n), table._reps  # sorted by (length, one-line word)
    subsets = [_flags(table.demazure(v), len(table.codes)) for v in reps]
    index, excess = array("i", [-1]) * len(table.codes), table._units[-1]
    below: set[tuple[int, int]] = set()  # (least, member) index pairs found Bruhat-ordered, each compared once
    for k, stat in enumerate(table.stats):
        if stat >= excess:
            continue
        members = [m for m, subset in enumerate(subsets) if subset[k] == "1"]
        pairs = {(members[0], m) for m in members[1:]} - below
        if not all(bruhat_leq(reps[v], reps[w]) for v, w in pairs):
            raise AssertionError(f"no Bruhat-least Demazure crystal holds {table.tableau(k).to_text()}")
        below |= pairs
        index[k] = members[0]
    return [key_of_composition(act(v, lam)) for v in reps], index


def right_key(tableau: SetValuedTableau) -> SetValuedTableau:
    """Right key of a semistandard tableau: the key of v·λ for the
    Bruhat-least v whose classical Demazure crystal contains it."""
    if tableau.excess() != 0:
        raise ValueError("right keys are defined for single-valued tableaux")
    table = crystal_table(tableau.n, tableau.shape)
    keys, index = table.derived(_right_keys)
    return keys[index[table.position(tableau)]]


def _max_right_keys(table: CrystalTable) -> array:
    """Right-key index (see _right_keys) of the greatest-entry tableau of each
    tableau, by position; the greatest entries of a semistandard tableau form one."""
    index, positions = table.derived(_right_keys)[1], table._positions
    return array("i", (index[positions[_entry(table, code, False)]] for code in table.codes))


def _stars(table: CrystalTable) -> array:
    """Lusztig star of each tableau of the table, by position.  Each e_i/f_i
    component is a normal highest weight crystal, so the star of its highest
    weight element is its unique lowest element and star(f_i T) =
    e_{n-i} star(T); one f_i search from each highest element fills it."""
    n = table.n
    maps = [table.maps(i, "e", "f") for i in range(1, n)]
    ups, downs = [e for e, _ in maps], [f for _, f in maps]
    stars = array("i", [-1]) * len(table.codes)
    for high in range(len(table.codes)):
        if any(e[high] >= 0 for e in ups):
            continue
        order, parent = [high], {high: None}  # parent: (position, i) it lowers from
        for k in order:
            for i, f in enumerate(downs, 1):
                if f[k] >= 0 and f[k] not in parent:
                    parent[f[k]] = (k, i)
                    order.append(f[k])
        lows = [k for k in order if all(f[k] < 0 for f in downs)]
        if len(lows) != 1:
            raise AssertionError(
                f"component of {table.tableau(high).to_text()} has {len(lows)} lowest elements"
            )
        stars[high] = lows[0]
        for child in order[1:]:
            k, i = parent[child]
            stars[child] = ups[n - i - 1][stars[k]]
            if stars[child] < 0:
                raise AssertionError(f"e_{n - i} is undefined at the star of {table.tableau(k).to_text()}")
    return stars


def lusztig_star(tableau: SetValuedTableau) -> SetValuedTableau:
    """Crystal anti-automorphism on each connected component, read from
    the star map of the tableau's shape."""
    table = crystal_table(tableau.n, tableau.shape)
    return table.tableau(table.derived(_stars)[table.position(tableau)])


def k_lusztig_star(tableau: SetValuedTableau) -> SetValuedTableau:
    """Rotate the rectangle 180 degrees and complement every entry; ValueError
    unless the tableau is a semistandard rectangle."""
    _rectangle_dims(tableau.shape)
    codes, code = _codes_of(tableau)
    return codes.decode(_rotate(codes, code))


def _rotations(table: CrystalTable) -> array:
    """Position of k_lusztig_star of each tableau of a rectangle, by position."""
    return array("i", (table._positions[_rotate(table, code)] for code in table.codes))


def preceq(key1: SetValuedTableau, key2: SetValuedTableau) -> bool:
    """Entrywise comparison of two single-valued tableaux."""
    if key1.shape != key2.shape:
        raise ValueError("shape mismatch")
    return all(
        a[0] <= b[0]
        for row1, row2 in zip(key1.rows, key2.rows)
        for a, b in zip(row1, row2)
    )


def _key_subsets(table: CrystalTable, index: array, a) -> tuple[int, int]:
    """The positions whose key, a right-key index by position (see _right_keys),
    is <= the key tableau of a, and those whose key is that tableau, as
    bitsets; each representative's key is compared once."""
    keys, target = table.derived(_right_keys)[0], key_of_composition(a)
    ideal = "".join("01"[preceq(key, target)] for key in keys)
    atom = "".join("01"[key == target] for key in keys)
    return tuple(_from_flags("".join(map(flags.__getitem__, index))) for flags in (ideal, atom))


def _key_maps(table: CrystalTable) -> dict[str, array]:
    """The right-key index (see _right_keys) of each tableau, by position, under
    calK (see _max_right_keys) and, for ° = lusztig_star (K-naive) and on a
    rectangle k_lusztig_star (K-rect), the right key of min(T°)°, whose outer
    star acts on a single-valued tableau: there both involutions are evacuation."""
    right, stars = table.derived(_right_keys)[1], table.derived(_stars)
    least = [table._positions[_entry(table, code, True)] for code in table.codes]
    maps = {"calK": table.derived(_max_right_keys), "K-naive": array("i", (right[stars[least[k]]] for k in stars))}
    if len(set(table.shape)) <= 1:
        maps["K-rect"] = array("i", (right[stars[least[k]]] for k in table.derived(_rotations)))
    return maps


def key_partition_report(shape, n: int) -> list[dict]:
    """For each key map (see _key_maps) and each coset representative w,
    compare the character of {T : key(T) <= K_{w lam}} with the Lascoux
    polynomial of w·lam, and of {T : key(T) = K_{w lam}} with the atom.
    Failures are rows with match=False, never exceptions."""
    shape = _partition(shape)
    lam = _pad(shape, n)
    table = crystal_table(n, shape)
    key_maps, rows = table.derived(_key_maps), []
    weights = [(w, act(w, lam)) for w in table._reps]
    expected = [(w, a, lascoux(a, n), lascoux_atom(a, n)) for w, a in weights]  # once per w, not per key map
    for key_map, index in key_maps.items():
        for w, a, ideal_polynomial, atom_polynomial in expected:
            ideal, atom = _key_subsets(table, index, a)
            for mode, subset, polynomial in (("ideal", ideal, ideal_polynomial), ("atom", atom, atom_polynomial)):
                rows.append(
                    {
                        "shape": list(shape),
                        "w": list(w),
                        "involution": key_map,
                        "mode": mode,
                        "match": table.character(subset) == polynomial,
                    }
                )
    return rows
