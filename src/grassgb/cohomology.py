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
the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .f2poly import Monomial, Poly, grlex_key
from .groebner_family import GrassmannContext, GroebnerFamily, _indices_up_to

__all__ = [
    "CohomologyClass",
    "normal_form",
    "is_zero",
    "cup",
    "standard_basis",
]


@dataclass(frozen=True)
class CohomologyClass:
    """A polynomial in normal form: every term has exponent sum <= n."""

    context: GrassmannContext
    value: Poly

    def __post_init__(self):
        if self.value.k != self.context.k:
            raise ValueError("variable count does not match the context")
        bad = [t for t in self.value.terms if sum(t) > self.context.n]
        if bad:
            raise ValueError(f"not in normal form, offending terms: {bad}")

    def __bool__(self) -> bool:
        return bool(self.value)

    def __str__(self) -> str:
        return str(self.value)


def normal_form(
    ctx: GrassmannContext, f: Poly, family: Optional[GroebnerFamily] = None
) -> CohomologyClass:
    """The unique remainder of f modulo the basis: f minus an ideal element,
    with no term of exponent sum > n."""
    if family is None:
        family = GroebnerFamily(ctx)
    elif family.context != ctx:
        raise ValueError("family belongs to a different context")
    return CohomologyClass(ctx, family.reduce(f))


def is_zero(
    ctx: GrassmannContext, f: Poly, family: Optional[GroebnerFamily] = None
) -> bool:
    """Ideal membership: True iff the normal form of f vanishes."""
    return not normal_form(ctx, f, family)


def cup(
    ctx: GrassmannContext,
    a: CohomologyClass,
    b: CohomologyClass,
    family: Optional[GroebnerFamily] = None,
) -> CohomologyClass:
    """Cup product: polynomial product followed by reduction."""
    if a.context != ctx or b.context != ctx:
        raise ValueError("cohomology classes belong to a different context")
    return normal_form(ctx, a.value * b.value, family)


def standard_basis(ctx: GrassmannContext) -> list[Monomial]:
    """All monomials of exponent sum <= n, in increasing grlex order."""
    return sorted(_indices_up_to(ctx.k + 1, ctx.n), key=grlex_key)
