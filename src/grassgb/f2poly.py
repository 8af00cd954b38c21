"""Sparse polynomials over F2 in variables w_1 > w_2 > ... > w_k, grlex order.

A monomial is a tuple of k nonnegative exponents; a polynomial is a
frozenset of such tuples (every present monomial has coefficient 1).
Addition is symmetric difference, so the zero polynomial is the empty set.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import add, mul

from .record import Record

__all__ = [
    "Poly",
    "ParseError",
    "grlex_key",
    "weighted_degree",
    "monomials_of_weighted_degree",
    "parse",
    "format_monomial",
    "format_poly",
]

MAX_EXPONENT = 2**31 - 1

Monomial = tuple[int, ...]


def grlex_key(mono: Monomial):
    """Sort key realizing grlex with w_1 > w_2 > ... > w_k."""
    return (sum(mono), mono)


def weighted_degree(mono: Monomial) -> int:
    """Cohomological degree sum j * a_j (w_j has degree j)."""
    return sum(map(mul, mono, range(1, len(mono) + 1)))


def monomials_of_weighted_degree(d: int, k: int) -> tuple[Monomial, ...]:
    """All exponent tuples of length k with weighted degree exactly d."""
    if d < 0:
        return ()
    if k == 1:
        return ((d,),)
    out = []
    for a in range(d // k + 1):
        for rest in monomials_of_weighted_degree(d - k * a, k - 1):
            out.append(rest + (a,))
    return tuple(out)


def _check_variable_count(k: int) -> None:
    if not isinstance(k, int):
        raise TypeError(f"the variable count must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("need at least one variable")


class Poly(Record):
    """Immutable F2 polynomial: a frozenset of exponent tuples plus k.  A
    ``Record`` with the fields k and terms, so it compares and hashes as
    (k, terms), and copies and pickles through ``__init__``."""

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms: Iterable[Monomial] = ()):
        _check_variable_count(k)
        seen: set[Monomial] = set()
        for t in terms:
            t = tuple(t)
            if len(t) != k:
                raise ValueError(f"monomial {t} does not have {k} exponents")
            if not all(isinstance(e, int) for e in t):
                raise TypeError(f"exponents must be integers, got {t}")
            if any(e < 0 for e in t):
                raise ValueError(f"negative exponent in {t}")
            seen.symmetric_difference_update((t,))
        super().__init__(k, frozenset(seen))

    @classmethod
    def _make(cls, k: int, terms: frozenset) -> "Poly":
        # trusted fast path for results the package computes: terms must
        # already be a canonical frozenset; every constructor below checks
        self = object.__new__(cls)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, k: int) -> "Poly":
        return cls(k)

    @classmethod
    def one(cls, k: int) -> "Poly":
        _check_variable_count(k)
        return cls(k, [(0,) * k])

    @classmethod
    def variable(cls, k: int, j: int) -> "Poly":
        """The generator w_j, 1 <= j <= k."""
        _check_variable_count(k)
        if not 1 <= j <= k:
            raise ValueError(f"variable index {j} out of 1..{k}")
        mono = tuple(1 if i == j - 1 else 0 for i in range(k))
        return cls(k, [mono])

    @classmethod
    def monomial(cls, exponents: Iterable[int]) -> "Poly":
        exps = tuple(exponents)
        return cls(len(exps), (exps,))

    # -- basic protocol ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"Poly(k={self.k}, {format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "Poly") -> None:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if self.k != other.k:
            raise ValueError(f"variable counts differ: {self.k} != {other.k}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        return Poly._make(self.k, self.terms ^ other.terms)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        # the products of one term a are distinct, so one toggle takes them all
        out: set[Monomial] = set()
        toggle = out.symmetric_difference_update
        for a in self.terms:
            toggle([tuple(map(add, a, b)) for b in other.terms])
        for t in out:
            if max(t) > MAX_EXPONENT:
                raise OverflowError(f"exponent overflow in product term {t}")
        return Poly._make(self.k, frozenset(out))

    def square(self) -> "Poly":
        """Frobenius: squaring doubles every exponent over F2."""
        terms = frozenset(tuple(2 * e for e in t) for t in self.terms)
        for t in terms:
            if max(t) > MAX_EXPONENT:
                raise OverflowError(f"exponent overflow in {t}")
        return Poly._make(self.k, terms)

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power")
        result = Poly.one(self.k)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # a square past the top bit is unused and may overflow
                base = base.square()
        return result

    # -- structure ---------------------------------------------------------

    def leading_term(self) -> Monomial:
        """The grlex-maximal monomial; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=grlex_key)


# -- text format -----------------------------------------------------------


class ParseError(ValueError):
    """Syntax error in polynomial text, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse(text: str, k: int) -> Poly:
    """Parse 'w1^2*w2 + w2^2' style text into a polynomial in k variables."""
    # imported here, so that importing the package does not load re,
    # whose own cache keeps the compiled patterns: leading whitespace, as
    # str.isspace sees it, and a factor w<index>[^<exponent>], either digit
    # group possibly empty, which is reported, and ASCII digits only
    import re

    space = re.compile(r"\s*").match
    factor_at = re.compile(r"w([0-9]*)(?:\^([0-9]*))?").match
    pos = space(text).end()
    if text.startswith("0", pos):
        if space(text, pos + 1).end() == len(text):
            return Poly.zero(k)
        raise ParseError("'0' must stand alone", pos)
    terms = []
    while True:
        exps = [0] * k
        if text.startswith("1", pos):
            pos += 1
        else:
            while True:
                factor = factor_at(text, pos)
                if factor is None:
                    raise ParseError("expected a factor 'w<index>'", pos)
                index, exp = factor.group(1, 2)
                if not index:
                    raise ParseError("expected a number", factor.start(1))
                if not 1 <= (index := int(index)) <= k:
                    raise ParseError(f"variable index {index} out of 1..{k}", factor.start(1))
                if exp == "":
                    raise ParseError("expected a number", factor.start(2))
                if not 1 <= (exp := int(exp or 1)) <= MAX_EXPONENT:
                    message = "exponent overflow" if exp else "exponent must be >= 1"
                    raise ParseError(message, factor.start(2))
                exps[index - 1] += exp
                pos = factor.end()
                if exps[index - 1] > MAX_EXPONENT:
                    raise ParseError("exponent overflow", pos)
                if not text.startswith("*", pos):
                    break
                pos += 1
        terms.append(tuple(exps))
        pos = space(text, pos).end()
        if pos == len(text):
            return Poly(k, terms)
        if not text.startswith("+", pos):
            raise ParseError("expected '+'", pos)
        pos = space(text, pos + 1).end()


def format_monomial(mono: Monomial) -> str:
    """One term's text, 'w1^2*w3' style; the constant monomial is '1'."""
    factors = []
    for j, e in enumerate(mono, start=1):
        if e == 1:
            factors.append(f"w{j}")
        elif e > 1:
            factors.append(f"w{j}^{e}")
    return "*".join(factors) if factors else "1"


def format_poly(f: Poly) -> str:
    """Canonical text: terms in strictly decreasing grlex order."""
    if not f.terms:
        return "0"
    ordered = sorted(f.terms, key=grlex_key, reverse=True)
    return " + ".join(map(format_monomial, ordered))
