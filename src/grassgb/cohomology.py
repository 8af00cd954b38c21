"""Normal-form arithmetic in the cohomology ring of the Grassmannian.

The leading terms of the structured basis are exactly the monomials of
exponent sum n+1, lt(g_M) = (n+1-S_M, m_2, ..., m_k).  So a reducible term
finds a divisor without search: cut its exponent sum to n+1 by taking the
excess from a_1, then a_2, and so on; what is left is the lead of the
divisor.  The remainder is supported on the standard monomials (exponent
sum <= n).

The reduction itself is ``GroebnerFamily.reduce``: the family owns the
packing and the table of packed tails it reads, and the ``groebner_family``
docstring describes both.  ``normal_form`` checks the context and wraps
the result.  ``cup`` never builds the product as a ``Poly``: the family's
``packed_product`` multiplies the two classes on packed ints, keeping only
the weighted degrees up to k*n, and ``reduce_packed`` reduces the result.

The standard monomials are listed in grlex order as they are made, one
exponent sum s at a time: the monomials of sum s, in increasing lex order,
are the differences of consecutive entries of 0 <= e_1 <= ... <= e_{k-1}
<= s, and ``itertools.combinations_with_replacement`` yields those e in
lex order, which is the order of the differences.  Nothing is sorted.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations_with_replacement
from operator import sub

from .f2poly import Monomial, Poly
from .groebner_family import GrassmannContext, GroebnerFamily
from .record import Record

__all__ = [
    "CohomologyClass",
    "normal_form",
    "is_zero",
    "cup",
    "standard_basis",
    "standard_monomials",
]


class CohomologyClass(Record):
    """A polynomial in normal form: every term has exponent sum <= n."""

    __slots__ = ("context", "value")

    def __init__(self, context: GrassmannContext, value: Poly):
        if value.k != context.k:
            raise ValueError("variable count does not match the context")
        bad = [t for t in value.terms if sum(t) > context.n]
        if bad:
            raise ValueError(f"not in normal form, offending terms: {bad}")
        super().__init__(context, value)

    def __bool__(self) -> bool:
        return bool(self.value)

    def __str__(self) -> str:
        return str(self.value)


def normal_form(
    ctx: GrassmannContext, f: Poly, family: GroebnerFamily | None = None
) -> CohomologyClass:
    """The unique remainder of f modulo the basis: f minus an ideal element,
    with no term of exponent sum > n."""
    return CohomologyClass(ctx, _family_of(ctx, family).reduce(f))


def _family_of(ctx: GrassmannContext, family: GroebnerFamily | None) -> GroebnerFamily:
    """The family given, checked against ctx, or a fresh one."""
    if family is None:
        return GroebnerFamily(ctx)
    if family.context != ctx:
        raise ValueError("family belongs to a different context")
    return family


def is_zero(
    ctx: GrassmannContext, f: Poly, family: GroebnerFamily | None = None
) -> bool:
    """Ideal membership: True iff the normal form of f vanishes."""
    return not normal_form(ctx, f, family)


def cup(
    ctx: GrassmannContext,
    a: CohomologyClass,
    b: CohomologyClass,
    family: GroebnerFamily | None = None,
) -> CohomologyClass:
    """Cup product: the normal form of a.value * b.value, multiplied and
    reduced on packed ints."""
    if a.context != ctx or b.context != ctx:
        raise ValueError("cohomology classes belong to a different context")
    family = _family_of(ctx, family)
    parts = family.packed_product(a.value, b.value)
    return CohomologyClass(ctx, family.to_poly(family.reduce_packed(set().union(*parts.values()))))


def standard_monomials(ctx: GrassmannContext) -> Iterator[Monomial]:
    """All monomials of exponent sum <= n, in increasing grlex order, made
    one at a time."""
    for s in range(ctx.n + 1):
        top = (s,)
        for e in combinations_with_replacement(range(s + 1), ctx.k - 1):
            yield tuple(map(sub, e + top, (0,) + e))


def standard_basis(ctx: GrassmannContext) -> list[Monomial]:
    """All monomials of exponent sum <= n, in increasing grlex order."""
    return list(standard_monomials(ctx))
