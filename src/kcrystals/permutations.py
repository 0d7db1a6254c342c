"""
Permutations of {1, ..., n} in one-line notation, as tuples `w` with
``w[i-1] = w(i)``.

Composition is right-to-left: ``compose(v, w)(i) = v(w(i))``.  A word
``(i_1, ..., i_l)`` of simple transpositions evaluates to the product
``s_{i_1} ∘ ... ∘ s_{i_l}``, built by right-multiplying the identity by
each letter in order (right multiplication by ``s_i`` swaps the entries
in positions ``i`` and ``i+1``).

The quotient by the stabilizer of λ (a partition padded with zeros to
length n) is one ``sorting_permutation`` per rearrangement a of λ: the
minimal-length coset representative w with a = w·λ.

>>> evaluate_word((1, 2), 3)
(2, 3, 1)
>>> length((2, 3, 1))
2
>>> sorted(reduced_words((3, 2, 1)))
[(1, 2, 1), (2, 1, 2)]
"""

from functools import lru_cache
from itertools import combinations, permutations as _all_perms

Perm = tuple[int, ...]

REDUCED_WORDS_MAX_N = 7


def _permutation(w, n: int | None = None) -> Perm:
    """w as a tuple; ValueError unless it is a permutation of 1..n (by default
    n is its length), as ints."""
    w = tuple(w)
    n = len(w) if n is None else n
    if len(w) != n or set(w) != set(range(1, n + 1)) or not {int}.issuperset(map(type, w)):
        raise ValueError(f"w={w!r} is not a permutation of 1..{n}")
    return w


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The reverse permutation [n, n-1, ..., 1]."""
    return tuple(range(n, 0, -1))


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for i, v in enumerate(w):
        inv[v - 1] = i + 1
    return tuple(inv)


def compose(v: Perm, w: Perm) -> Perm:
    """(v ∘ w)(i) = v(w(i)); w is applied first."""
    return tuple(v[w[i] - 1] for i in range(len(w)))


def right_mult_s(w: Perm, i: int) -> Perm:
    """w · s_i: swap the entries in positions i, i+1 (1-based)."""
    u = list(w)
    u[i - 1], u[i] = u[i], u[i - 1]
    return tuple(u)


def evaluate_word(word, n: int) -> Perm:
    w = identity(n)
    for i in word:
        w = right_mult_s(w, i)
    return w


def act(w: Perm, vec) -> tuple[int, ...]:
    """Position action on integer vectors: (w·a)_{w(i)} = a_i."""
    out = [0] * len(w)
    for i, a in enumerate(vec):
        out[w[i] - 1] = a
    return tuple(out)


def length(w: Perm) -> int:
    """Coxeter length = number of inversions; ValueError unless w is a permutation.

    >>> length((1, 2, 3)), length((3, 2, 1))
    (0, 3)
    """
    w = _permutation(w)
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def right_descents(w: Perm) -> list[int]:
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def reduced_word(w: Perm) -> tuple[int, ...]:
    """One canonical reduced word for w (smallest-descent-first unwind);
    ValueError unless w is a permutation."""
    u, rev = _permutation(w), []
    while descents := right_descents(u):
        u = right_mult_s(u, descents[0])
        rev.append(descents[0])
    return tuple(reversed(rev))


def reduced_words(w: Perm) -> frozenset[tuple[int, ...]]:
    """All reduced words of w.  Guarded to small ranks, the count grows fast:
    ValueError unless w is a permutation of 1..n with n <= REDUCED_WORDS_MAX_N."""
    w = _permutation(w)
    if len(w) > REDUCED_WORDS_MAX_N:
        raise ValueError(f"reduced_words limited to n <= {REDUCED_WORDS_MAX_N}")
    return _reduced_words(w)


@lru_cache(maxsize=None)
def _reduced_words(w: Perm) -> frozenset[tuple[int, ...]]:
    if not right_descents(w):
        return frozenset({()})
    words = set()
    for i in right_descents(w):
        for prefix in _reduced_words(right_mult_s(w, i)):
            words.add(prefix + (i,))
    return frozenset(words)


def bruhat_leq(v: Perm, w: Perm) -> bool:
    """Strong Bruhat order by the tableau criterion: v <= w iff, for every
    k, the first k values of v, sorted, are entrywise at most those of w;
    ValueError unless v and w are permutations of one rank."""
    v, w = _permutation(v), _permutation(w)
    if len(v) != len(w):
        raise ValueError("rank mismatch")
    return all(a <= b for k in range(1, len(v)) for a, b in zip(sorted(v[:k]), sorted(w[:k])))


def bruhat_ideal(w: Perm) -> frozenset[Perm]:
    """{v : v <= w}, as the subword closure of one reduced word of w;
    ValueError unless w is a permutation."""
    return _bruhat_ideal(_permutation(w))


@lru_cache(maxsize=None)
def _bruhat_ideal(w: Perm) -> frozenset[Perm]:
    reachable = {identity(len(w))}
    for i in reduced_word(w):
        reachable |= {right_mult_s(u, i) for u in reachable}
    return frozenset(reachable)


def _variable_count(n) -> int:
    """n, the one rank test; ValueError unless it is an int >= 0, not a bool."""
    if type(n) is not int or n < 0:
        raise ValueError(f"variable count must be a non-negative int, got {n!r}")
    return n


def _letter(i, n: int) -> int:
    """i, the one letter test; ValueError unless it is an int in 1..n-1, not a bool."""
    if type(i) is not int or not 0 < i < n:
        raise ValueError(f"letter {i!r} is outside 1..{n - 1}")
    return i


def _pad(parts, n: int) -> tuple[int, ...]:
    """parts followed by zeros up to length n; ValueError if it is longer or n is not a rank."""
    parts, n = tuple(parts), _variable_count(n)
    if len(parts) > n:
        raise ValueError(f"{parts!r} is longer than n={n}")
    return parts + (0,) * (n - len(parts))


def _dominant(lam, n: int) -> tuple[int, ...]:
    """_pad(lam, n); ValueError unless lam is weakly decreasing."""
    lam = _pad(lam, n)
    if list(lam) != sorted(lam, reverse=True):
        raise ValueError(f"{lam!r} is not weakly decreasing")
    return lam


def sorting_permutation(a) -> tuple[tuple[int, ...], Perm]:
    """Split a weak composition as a = w·λ with λ sorted descending and w
    the minimal-length permutation doing the sort.

    >>> sorting_permutation((0, 2, 2))
    ((2, 2, 0), (2, 3, 1))
    """
    a = tuple(a)
    order = sorted(range(len(a)), key=lambda j: (-a[j], j))
    return tuple(a[j] for j in order), tuple(j + 1 for j in order)


def stabilizer_min_rep(w: Perm, lam) -> Perm:
    """Minimal-length representative of w·Stab(λ), λ padded to the rank of
    w: the sorting permutation of w·λ; ValueError unless w is a permutation.

    >>> stabilizer_min_rep((3, 2, 1), (2, 2))
    (2, 3, 1)
    """
    w = _permutation(w, len(w))
    return sorting_permutation(act(w, _dominant(lam, len(w))))[1]


def coset_reps(lam: tuple[int, ...], n: int) -> tuple[Perm, ...]:
    """The minimal-length coset representatives for Stab(λ), λ padded with
    zeros to length n, by (length, word); ValueError as for _dominant."""
    return _coset_reps(_dominant(lam, n))


@lru_cache(maxsize=None)
def _coset_reps(lam: tuple[int, ...]) -> tuple[Perm, ...]:
    reps = (sorting_permutation(a)[1] for a in set(_all_perms(lam)))
    return tuple(sorted(reps, key=lambda u: (length(u), u)))


def flag_vector(w: Perm, r: int, s: int) -> tuple[int, ...]:
    """Row entry bounds (b_1, ..., b_r) of the flagged tableaux of w on the r x s
    rectangle, b_m the m-th value of w's minimal coset representative; ValueError
    unless r and s are ints >= 0, then as for stabilizer_min_rep."""
    if bad := [f"{name}={side!r}" for name, side in (("r", r), ("s", s)) if type(side) is not int or side < 0]:
        raise ValueError(f"rectangle side {bad[0]} is not an int >= 0")
    return stabilizer_min_rep(w, (s,) * r)[:r]


def avoids_pattern(w: Perm, pattern) -> bool:
    """True iff no subsequence of w is order-isomorphic to ``pattern``;
    ValueError unless both are permutations."""
    w, pattern = _permutation(w), _permutation(pattern)
    k = len(pattern)
    rel = tuple(sorted(range(k), key=lambda t: pattern[t]))
    for positions in combinations(range(len(w)), k):
        vals = [w[p] for p in positions]
        if tuple(sorted(range(k), key=lambda t: vals[t])) == rel:
            return False
    return True


def lehmer_code(w: Perm) -> tuple[int, ...]:
    """code_i = #{j > i : w(j) < w(i)}; ValueError unless w is a permutation.

    >>> lehmer_code((2, 3, 1))
    (1, 1, 0)
    """
    w = _permutation(w)
    return tuple(sum(1 for v in w[i + 1 :] if v < w[i]) for i in range(len(w)))
