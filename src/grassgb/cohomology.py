"""Normal-form arithmetic in the cohomology ring of the Grassmannian.

Because the leading terms of the structured basis are exactly the
monomials of exponent sum n+1, a reducible term locates its divisor in
O(k): strip the excess exponent sum from the left and read off the
multi-index.  The resulting remainder is supported on the standard
monomials (exponent sum <= n).

The reduction loop works on monomials packed into single ints: the
exponent sum in the top field, then a_1, ..., a_k in fields of W bits
each, a_1 highest.  Integer order on packed monomials is then grlex
order, a monomial product is an integer sum, and a term is reducible iff
its packed value is at least (n+1) << (W*k).  W is the bit length of the
largest weighted degree D among the input terms, plus one (a spare bit,
which also keeps W >= 1 when D = 0).  Every g_M is
homogeneous in the weighted degree, so each term met while reducing a
term t has the weighted degree of t, at most D, and no exponent
overflows its field; since lt(g_M) divides t, subtracting the packed
leading term never borrows.

Reducible terms wait in a max-heap (of negated ints) with lazy deletion:
a popped value no longer in the working set is skipped.  Every term
produced while reducing t is grlex-smaller than t, so the heap top is
always the grlex-largest reducible term, and the steps taken are those of
rescanning the whole working set for its maximum at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Optional

from .f2poly import Monomial, Poly, grlex_key, weighted_degree
from .groebner_family import GrassmannContext, GroebnerFamily, _indices_up_to

__all__ = [
    "CohomologyClass",
    "normal_form",
    "is_zero",
    "cup",
    "standard_basis",
]

# maps a reducible monomial to the multi-index of the chosen divisor
DivisorChooser = Callable[[GrassmannContext, GroebnerFamily, Monomial], tuple[int, ...]]


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


def structured_divisor(
    ctx: GrassmannContext, family: GroebnerFamily, term: Monomial
) -> tuple[int, ...]:
    """Divisor lookup without search: decrement exponents from the left
    until the sum is n+1; the tail of the result is the multi-index."""
    excess = sum(term) - (ctx.n + 1)
    b = list(term)
    for idx in range(ctx.k):
        take = b[idx] if b[idx] < excess else excess
        b[idx] -= take
        excess -= take
        if not excess:
            break
    return tuple(b[1:])


def normal_form(
    ctx: GrassmannContext,
    f: Poly,
    family: Optional[GroebnerFamily] = None,
    choose_divisor: DivisorChooser = structured_divisor,
) -> CohomologyClass:
    """The unique remainder of f modulo the basis: f minus an ideal element,
    with no term of exponent sum > n."""
    if f.k != ctx.k:
        raise ValueError("variable count does not match the context")
    if family is None:
        family = GroebnerFamily(ctx)
    elif family.context != ctx:
        raise ValueError("family belongs to a different context")
    k = ctx.k
    width = max(map(weighted_degree, f.terms), default=0).bit_length() + 1
    mask = (1 << width) - 1
    shifts = range(width * (k - 1), -1, -width)
    bound = (ctx.n + 1) << (width * k)

    def pack(t: Monomial) -> int:
        v = sum(t)
        for a in t:
            v = (v << width) | a
        return v

    packed = family.packed
    work = {pack(t) for t in f.terms}
    heap = [-v for v in work if v >= bound]
    heapify(heap)
    while heap:
        v = -heappop(heap)
        if v not in work:
            continue
        m = choose_divisor(ctx, family, tuple((v >> s) & mask for s in shifts))
        # called at every step, also when the packed entry exists: it is a
        # dict hit, and bench/tracer.py counts reduction steps by its calls
        g = family.element(m)
        entry = packed.get((m, width))
        if entry is None:
            lt = pack(family.leading_term(m))
            entry = packed[m, width] = (lt, tuple(map(pack, g.terms)))
        q = v - entry[0]
        for u in entry[1]:
            u += q
            if u in work:
                work.remove(u)
            else:
                work.add(u)
                if u >= bound:
                    heappush(heap, -u)
    terms = frozenset(tuple((v >> s) & mask for s in shifts) for v in work)
    return CohomologyClass(ctx, Poly._make(k, terms))


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
