"""
Exact sparse polynomials over Z in x_1..x_n and a deformation variable b,
with Demazure-type divided-difference operators.

Terms are stored as a dict mapping ``(x_exponents, b_exponent)`` to a
nonzero integer coefficient.  The deformation exponent gets its own slot
so the variable-swap action never touches it.  Every operator is one
telescoping pass that writes each term's quotient monomial-wise into one
accumulator, so no polynomial division is ever performed.
"""

from __future__ import annotations

import re

from .permutations import (
    Perm,
    _length,
    _pad,
    _permutation,
    _reduced_word,
    _variable_count,
    compose,
    longest_element,
    sorting_permutation,
)

TermKey = tuple[tuple[int, ...], int]


def _units(n: int, boxes: int) -> list[int]:
    """The stats of x_1, ..., x_n and, last, of b.  A stat, the one form of the
    weight and excess of a tableau, a skyline or a Kohnert diagram, packs a term
    key in one int: digit v-1, boxes.bit_length() bits wide, is the exponent of
    x_v and the exponent of b sits above the n digits, so stats add without a
    carry while each exponent of x stays at most boxes."""
    return [1 << v * boxes.bit_length() for v in range(n + 1)]


def _unpack(stat: int, units: list[int]) -> TermKey:
    """The term key of a stat in these units: its weight and excess."""
    return tuple([stat % high // low for low, high in zip(units, units[1:])]), stat // units[-1]


def _stat_polynomial(units: list[int], counts: dict[int, int]) -> "BetaPolynomial":
    """Sum of count * b^excess x^weight over the stats in counts, each unpacked once."""
    return BetaPolynomial._trusted(len(units) - 1, {_unpack(stat, units): count for stat, count in counts.items()})


class BetaPolynomial:
    """Element of Z[b][x_1, ..., x_n]."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[TermKey, int] | None = None):
        n = _variable_count(n)
        clean: dict[TermKey, int] = {}
        for (xs, be), c in (terms or {}).items():
            xs = tuple(xs)
            exponents = xs + (be,)
            if type(c) is not int or set(map(type, exponents)) != {int}:
                raise TypeError(f"exponents and coefficient must be ints: {(xs, be)!r}: {c!r}")
            if len(xs) != n or min(exponents) < 0:
                raise ValueError(f"bad exponent key {(xs, be)!r} for n={n}")
            if c:
                clean[(xs, be)] = c
        self.n, self.terms = n, clean

    @classmethod
    def _trusted(cls, n: int, terms: dict[TermKey, int]) -> "BetaPolynomial":
        """Wrap terms whose keys are already valid for n, dropping zeros."""
        poly = object.__new__(cls)
        poly.n, poly.terms = n, {key: c for key, c in terms.items() if c}
        return poly

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "BetaPolynomial":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "BetaPolynomial":
        return cls.monomial(n, (0,) * n)

    @classmethod
    def monomial(cls, n: int, xs, beta: int = 0, coeff: int = 1) -> "BetaPolynomial":
        n = _variable_count(n)
        xs = tuple(xs) + (0,) * (n - len(xs))
        return cls(n, {(xs, beta): coeff})

    @classmethod
    def sum(cls, n: int, polys) -> "BetaPolynomial":
        """The sum of polys, each in n variables, accumulated in one dict."""
        n, terms = _variable_count(n), {}
        for p in polys:
            if p.n != n:
                raise ValueError(f"variable count mismatch: {p.n} != {n}")
            for key, c in p.terms.items():
                terms[key] = terms.get(key, 0) + c
        return cls._trusted(n, terms)

    # -- ring structure ----------------------------------------------

    def _check(self, other: "BetaPolynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} != {other.n}")

    def __add__(self, other: "BetaPolynomial") -> "BetaPolynomial":
        if not isinstance(other, BetaPolynomial):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return BetaPolynomial._trusted(self.n, terms)

    def __neg__(self) -> "BetaPolynomial":
        return BetaPolynomial._trusted(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "BetaPolynomial") -> "BetaPolynomial":
        if not isinstance(other, BetaPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "BetaPolynomial":
        if type(other) is int:
            return BetaPolynomial._trusted(self.n, {k: c * other for k, c in self.terms.items()})
        if not isinstance(other, BetaPolynomial):
            return NotImplemented
        self._check(other)
        terms: dict[TermKey, int] = {}
        for (xs1, b1), c1 in self.terms.items():
            for (xs2, b2), c2 in other.terms.items():
                key = (tuple(a + b for a, b in zip(xs1, xs2)), b1 + b2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return BetaPolynomial._trusted(self.n, terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BetaPolynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"BetaPolynomial({self.n}, {self.to_text()!r})"

    # -- views ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[TermKey, int]]:
        """Terms in the canonical order: by (b-exponent, x-exponents)."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def beta_zero(self) -> "BetaPolynomial":
        return BetaPolynomial._trusted(
            self.n, {k: c for k, c in self.terms.items() if k[1] == 0}
        )

    def extend(self, m: int) -> "BetaPolynomial":
        """Embed into Z[b][x_1..x_m] for m >= n."""
        if type(m) is not int or m < self.n:
            raise ValueError(f"cannot embed n={self.n} variables into {m!r}")
        pad = (0,) * (m - self.n)
        return BetaPolynomial._trusted(
            m, {(xs + pad, be): c for (xs, be), c in self.terms.items()}
        )

    def is_symmetric(self) -> bool:
        return all(self.swap(i) == self for i in range(1, self.n))

    # -- operators -------------------------------------------------------

    def swap(self, i: int) -> "BetaPolynomial":
        """Exchange x_i and x_{i+1} in every term."""
        self._check_index(i)
        terms: dict[TermKey, int] = {}
        for (xs, be), c in self.terms.items():
            ys = list(xs)
            ys[i - 1], ys[i] = ys[i], ys[i - 1]
            key = (tuple(ys), be)
            terms[key] = terms.get(key, 0) + c
        return BetaPolynomial._trusted(self.n, terms)

    def _check_index(self, i: int) -> int:
        if not 1 <= i < self.n:
            raise ValueError(f"operator index {i} out of range for n={self.n}")
        return i

    def _telescope(self, i: int, lift: int, deform: int, minus: bool = False) -> "BetaPolynomial":
        """partial_i(x_i^lift (1 + b x_{i+1})^deform f), less f if minus.

        For exponents (a, b) at positions (i, i+1) the quotient telescopes
        into the exponent pairs p+q = a+b-1 with min(a,b) <= p, q < max(a,b),
        with sign +1 if a > b and -1 if a < b (zero if a = b).
        """
        terms: dict[TermKey, int] = {key: -c for key, c in self.terms.items()} if minus else {}
        get = terms.get
        for (xs, be), c in self.terms.items():
            head, tail = xs[: i - 1], xs[i + 1 :]
            a = xs[i - 1] + lift
            for d in range(deform + 1):
                hi, lo, sign = a, xs[i] + d, c
                if hi < lo:
                    hi, lo, sign = lo, hi, -c
                top = hi + lo - 1
                for p in range(lo, hi):
                    key = (head + (p, top - p) + tail, be + d)
                    terms[key] = get(key, 0) + sign
        return BetaPolynomial._trusted(self.n, terms)

    def divided_difference(self, i: int) -> "BetaPolynomial":
        """partial_i f = (f - s_i f) / (x_i - x_{i+1}), monomial-wise."""
        return self._telescope(self._check_index(i), 0, 0)

    def demazure(self, i: int) -> "BetaPolynomial":
        """pi_i f = (x_i f - x_{i+1} s_i f) / (x_i - x_{i+1})."""
        return self._telescope(self._check_index(i), 1, 0)

    def demazure_lascoux(self, i: int) -> "BetaPolynomial":
        """varpi_i f = pi_i((1 + b x_{i+1}) f)."""
        return self._telescope(self._check_index(i), 1, 1)

    def demazure_lascoux_atom(self, i: int) -> "BetaPolynomial":
        """varpi_i f - f."""
        return self._telescope(self._check_index(i), 1, 1, minus=True)

    def isobaric_beta(self, i: int) -> "BetaPolynomial":
        """The deformed divided difference partial_i((1 + b x_{i+1}) f).

        Satisfies the braid relations and squares to -b times itself; the
        chain from the staircase monomial reproduces classical Schubert
        polynomials at b = 0 and is stable under adding variables.
        """
        return self._telescope(self._check_index(i), 0, 1)

    # -- text form ------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (xs, be), c in self.sorted_terms():
            factors = []
            if be == 1:
                factors.append("b")
            elif be > 1:
                factors.append(f"b^{be}")
            for j, e in enumerate(xs, start=1):
                if e == 1:
                    factors.append(f"x{j}")
                elif e > 1:
                    factors.append(f"x{j}^{e}")
            body = "*".join(factors)
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


_FACTOR_RE = re.compile(r"^(?:b(?:\^(\d+))?|x(\d+)(?:\^(\d+))?|(-?\d+))$")


def parse_polynomial(text: str, n: int) -> BetaPolynomial:
    """Inverse of :meth:`BetaPolynomial.to_text`: accepts canonical text only."""
    n = _variable_count(n)
    text = text.strip()
    if text == "0":
        return BetaPolynomial.zero(n)
    monomials = []
    normalized = text.replace(" - ", " + -").split(" + ")
    for chunk in normalized:
        chunk = chunk.strip()
        coeff, beta = 1, 0
        xs = [0] * n
        if chunk.startswith("-") and not chunk[1:2].isdigit():
            coeff = -1
            chunk = chunk[1:]
        for factor in chunk.split("*"):
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ValueError(f"bad polynomial factor {factor!r}")
            if factor.startswith("b"):
                beta += int(m.group(1) or 1)
            elif factor.startswith("x"):
                j = int(m.group(2))
                if not 1 <= j <= n:
                    raise ValueError(f"variable x{j} out of range for n={n}")
                xs[j - 1] += int(m.group(3) or 1)
            else:
                coeff *= int(m.group(4))
        monomials.append(BetaPolynomial.monomial(n, xs, beta=beta, coeff=coeff))
    poly = BetaPolynomial.sum(n, monomials)
    canonical = poly.to_text()
    if canonical != text:
        raise ValueError(f"{text!r} is not canonical; its canonical form is {canonical!r}")
    return poly


# -- named polynomial families ----------------------------------------------


# Method names, so that a method replaced on the class is the one a chain applies.
_OPERATORS = dict(
    pi="demazure", varpi="demazure_lascoux", varpi_atom="demazure_lascoux_atom", isobaric="isobaric_beta"
)


def apply_word(p: BetaPolynomial, word, op: str) -> BetaPolynomial:
    """Apply a chain of operators, first letter first.

    ``op`` is one of ``pi`` (Demazure), ``varpi`` (Demazure-Lascoux),
    ``varpi_atom``, or ``isobaric`` (deformed divided difference).
    """
    if op not in _OPERATORS:
        raise ValueError(f"unknown operator {op!r}; expected one of {', '.join(_OPERATORS)}")
    method = getattr(BetaPolynomial, _OPERATORS[op])
    for i in word:
        p = method(p, i)
    return p


def _sorted_parts(a, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    lam, w = sorting_permutation(_pad(a, n))
    return lam, _reduced_word(w)

def lascoux(a, n: int) -> BetaPolynomial:
    """Lascoux polynomial: the Demazure-Lascoux chain sorted onto x^λ."""
    lam, word = _sorted_parts(a, n)
    return apply_word(BetaPolynomial.monomial(n, lam), reversed(word), "varpi")


def lascoux_atom(a, n: int) -> BetaPolynomial:
    """Lascoux atom: the chain of (varpi_i - 1) over the same word."""
    lam, word = _sorted_parts(a, n)
    return apply_word(BetaPolynomial.monomial(n, lam), reversed(word), "varpi_atom")


def staircase_monomial(n: int) -> BetaPolynomial:
    return BetaPolynomial.monomial(n, tuple(range(n - 1, -1, -1)))


def grothendieck(w: Perm, n: int) -> BetaPolynomial:
    """Grothendieck polynomial of w in n variables.

    Computed by walking a reduced word of w0·w down from the staircase
    monomial with the deformed divided differences.
    """
    chain = compose(longest_element(n), _permutation(w, n))
    word = _reduced_word(chain)
    if len(word) != _length(chain):
        raise AssertionError(f"reduced_word returned {word!r} for {chain!r}")
    return apply_word(staircase_monomial(n), word, "isobaric")
