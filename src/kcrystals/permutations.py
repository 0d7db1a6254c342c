"""
Permutations of {1, ..., n} in one-line notation, as tuples `w` with
``w[i-1] = w(i)``.

Composition is right-to-left: ``compose(v, w)(i) = v(w(i))``.  A word
``(i_1, ..., i_l)`` of simple transpositions evaluates to the product
``s_{i_1} ∘ ... ∘ s_{i_l}``, built by right-multiplying the identity by
each letter in order (right multiplication by ``s_i`` swaps the entries
in positions ``i`` and ``i+1``).

>>> evaluate_word((1, 2), 3)
(2, 3, 1)
>>> length((2, 3, 1))
2
>>> sorted(reduced_words((3, 2, 1)))
[(1, 2, 1), (2, 1, 2)]
"""

from functools import lru_cache
from itertools import permutations as _all_perms

Perm = tuple[int, ...]

REDUCED_WORDS_MAX_N = 7


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
    """Coxeter length = number of inversions.

    >>> length((1, 2, 3)), length((3, 2, 1))
    (0, 3)
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def right_descents(w: Perm) -> list[int]:
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def reduced_word(w: Perm) -> tuple[int, ...]:
    """One canonical reduced word for w (smallest-descent-first unwind)."""
    u = tuple(w)
    rev = []
    while True:
        ds = right_descents(u)
        if not ds:
            break
        i = ds[0]
        u = right_mult_s(u, i)
        rev.append(i)
    return tuple(reversed(rev))


@lru_cache(maxsize=None)
def reduced_words(w: Perm) -> frozenset[tuple[int, ...]]:
    """All reduced words of w.  Guarded to small ranks; the count grows fast."""
    if len(w) > REDUCED_WORDS_MAX_N:
        raise ValueError(f"reduced_words limited to n <= {REDUCED_WORDS_MAX_N}")
    if not right_descents(w):
        return frozenset({()})
    words = set()
    for i in right_descents(w):
        for prefix in reduced_words(right_mult_s(w, i)):
            words.add(prefix + (i,))
    return frozenset(words)


def bruhat_leq(v: Perm, w: Perm) -> bool:
    """Strong Bruhat order test via the lifting property.

    Walk one reduced word of w from the left; left-multiply v by each
    letter whenever that shortens v.  Then v <= w iff v is consumed.
    """
    if len(v) != len(w):
        raise ValueError("rank mismatch")
    u = list(v)
    for i in reduced_word(w):
        # left multiplication by s_i swaps the values i and i+1
        a, b = u.index(i), u.index(i + 1)
        if a > b:
            u[a], u[b] = u[b], u[a]
    return u == sorted(u)


@lru_cache(maxsize=None)
def bruhat_ideal(w: Perm) -> frozenset[Perm]:
    """{v : v <= w}, as the subword closure of one reduced word of w."""
    reachable = {identity(len(w))}
    for i in reduced_word(w):
        reachable |= {right_mult_s(u, i) for u in reachable}
    return frozenset(reachable)


def _blocks(lam) -> list[range]:
    """Maximal runs of equal parts of a weakly decreasing composition."""
    if list(lam) != sorted(lam, reverse=True):
        raise ValueError(f"not sorted descending: {lam!r}")
    blocks, start = [], 0
    for i in range(1, len(lam) + 1):
        if i == len(lam) or lam[i] != lam[start]:
            blocks.append(range(start, i))
            start = i
    return blocks


def stabilizer_min_rep(w: Perm, lam) -> Perm:
    """Minimal-length representative of w·Stab(λ): sort w within λ-blocks.

    >>> stabilizer_min_rep((3, 2, 1), (2, 2, 0))
    (2, 3, 1)
    """
    u = list(w)
    for block in _blocks(lam):
        u[block.start:block.stop] = sorted(u[block.start:block.stop])
    return tuple(u)


@lru_cache(maxsize=None)
def coset_reps(lam: tuple[int, ...], n: int) -> tuple[Perm, ...]:
    """All minimal-length coset representatives for Stab(λ), sorted by
    (length, one-line word)."""
    lam = tuple(lam) + (0,) * (n - len(lam))
    reps = {stabilizer_min_rep(w, lam) for w in _all_perms(range(1, n + 1))}
    return tuple(sorted(reps, key=lambda u: (length(u), u)))


def sorting_permutation(a) -> tuple[tuple[int, ...], Perm]:
    """Split a weak composition as a = w·λ with λ sorted descending and w
    the minimal-length permutation doing the sort.

    >>> sorting_permutation((0, 2, 2))
    ((2, 2, 0), (2, 3, 1))
    """
    a = tuple(a)
    order = sorted(range(len(a)), key=lambda j: (-a[j], j))
    return tuple(a[j] for j in order), tuple(j + 1 for j in order)


def rectangle_shape(r: int, s: int, n: int) -> tuple[int, ...]:
    if r > n:
        raise ValueError(f"rectangle with {r} rows needs n >= {r}")
    return (s,) * r + (0,) * (n - r)


def flag_vector(w: Perm, r: int, s: int) -> tuple[int, ...]:
    """Row entry bounds (b_1, ..., b_r) for the flagged tableaux indexed by
    w over the r x s rectangle: b_m is the m-th value of the minimal coset
    representative of w."""
    n = len(w)
    lam = rectangle_shape(r, s, n)
    u = stabilizer_min_rep(w, lam)
    return u[:r]


def avoids_pattern(w: Perm, pattern) -> bool:
    """True iff no subsequence of w is order-isomorphic to ``pattern``."""
    from itertools import combinations

    k = len(pattern)
    rel = tuple(sorted(range(k), key=lambda t: pattern[t]))
    for positions in combinations(range(len(w)), k):
        vals = [w[p] for p in positions]
        if tuple(sorted(range(k), key=lambda t: vals[t])) == rel:
            return False
    return True


def lehmer_code(w: Perm) -> tuple[int, ...]:
    """code_i = #{j > i : w(j) < w(i)}.

    >>> lehmer_code((2, 3, 1))
    (1, 1, 0)
    """
    n = len(w)
    return tuple(
        sum(1 for j in range(i + 1, n) if w[j] < w[i]) for i in range(n)
    )


if __name__ == "__main__":
    import doctest

    doctest.testmod()
