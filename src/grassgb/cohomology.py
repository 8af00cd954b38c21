"""Normal-form arithmetic in the cohomology ring of the Grassmannian.

The leading terms of the structured basis are exactly the monomials of
exponent sum n+1, lt(g_M) = (n+1-S_M, m_2, ..., m_k).  So a reducible term
finds a divisor without search: cut its exponent sum to n+1 by taking the
excess from a_1, then a_2, and so on; what is left is the lead of the
divisor.  The remainder is supported on the standard monomials (exponent
sum <= n).

The reduction loop works on monomials packed into single ints, in the
family's packing; the ``groebner_family`` docstring describes the layout
and why its width suffices.  No standard monomial has weighted degree
above k*n, the degree of the top class w_k^n, and every g_M is
homogeneous in the weighted degree, so a term of degree above k*n has
normal form 0 and is dropped before packing.  Each term met while
reducing a kept term t has the weighted degree of t, at most k*n, so
every exponent fits its field, and since lt(g_M) divides t, subtracting
the packed leading term never borrows.

The divisor is read off the packed term v itself: the excess is the sum
field minus n+1, and the packed lead is v with that excess subtracted from
the sum field and, field by field from a_1, from the exponents.  The lead
keys the family's one table ``GroebnerFamily.packed``, whose entry is the
tail of g_M as offsets pack(u) - lead, u over the terms of g_M but its
lead.  A step is then one table hit and one add per tail term,
v + (pack(u) - lead) = pack(u * t / lt(g_M)), and v itself leaves the
working set.  Only a miss unpacks the lead and asks the family for the
packed terms of g_M: the memo's, when the whole family was built, else
one walk's, and then the table is the only place the family keeps them.

The basis fixes the order of the work.  Every lead has exponent sum
n+1 and every other term of g_M has sum <= n, so a step on a term of sum
s only adds terms of sum below s.  The working set is kept as levels,
one set of packed ints per exponent sum present, and the levels above n
are swept from the top down: when level s comes up, no later step can
add to it, so each of its terms is reduced exactly once.  The terms
reduced are those that rescanning the whole working set for its
grlex-largest reducible term at every step reduces, only not in the
same order within a level.  A tail term of sum above n would break that
order: it shows as a level that does not drop, which raises
``ValueError`` instead of reducing forever.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from .f2poly import Monomial, Poly, grlex_key, weighted_degree
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
    if f.k != ctx.k:
        raise ValueError("variable count does not match the context")
    if family is None:
        family = GroebnerFamily(ctx)
    elif family.context != ctx:
        raise ValueError("family belongs to a different context")
    top = ctx.k * ctx.n
    mask, shifts, sum_shift = family.mask, family.shifts, family.sum_shift
    lead_sum = ctx.n + 1

    def tail_of(lead: int) -> tuple[int, ...]:
        terms = family.packed_terms(family.index_of(lead))
        return tuple(p - lead for p in terms if p != lead)

    table = family.packed
    work: defaultdict[int, set[int]] = defaultdict(set)
    for v in {family.pack(t) for t in f.terms if weighted_degree(t) <= top}:
        work[v >> sum_shift].add(v)
    while (level_sum := max(work, default=0)) > ctx.n:
        for v in work.pop(level_sum):
            # the divisor's lead: v with its exponent sum cut to n+1, the
            # excess taken from a_1, a_2, ... in turn
            excess = level_sum - lead_sum
            lead = v - (excess << sum_shift)
            for s in shifts:
                a = (v >> s) & mask
                if a >= excess:
                    lead -= excess << s
                    break
                lead -= a << s
                excess -= a
            tail = table.get(lead)
            if tail is None:
                tail = table[lead] = tail_of(lead)
            for u in tail:
                u += v
                level = work[u >> sum_shift]
                if u in level:
                    level.remove(u)
                else:
                    level.add(u)
        if max(work, default=0) >= level_sum:
            raise ValueError("a basis element has a tail term of exponent sum > n")
    return CohomologyClass(ctx, family.to_poly(set().union(*work.values())))


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
