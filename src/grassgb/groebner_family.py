"""The structured Groebner basis {g_M : S_M <= n+1} for the relation ideal.

Every basis element is indexed by a (k-1)-tuple M = (m_2, ..., m_k) of
nonnegative integers and produced by the direct coefficient formula

    g_M = sum of W^A over nonnegative A with weighted degree n+1+S'_M
          and odd coefficient product P(A, M).

P(A, M) is a product of binomials binom(a_t + c_t, a_t), one per t < k, with
c_t = (a_{t+1} + ... + a_k) - (m_{t+1} + ... + m_k).  By Kummer's theorem
binom(x + c, x) is odd iff adding x and c in binary has no carry, that is
x & c == 0 for c >= 0.  For c < 0, binom(x + c, x) = (-1)^x binom(-c - 1, x)
and Lucas give x & (-c - 1) == x, which in two's complement is again
x & c == 0.  The kernel walks a_k, a_{k-1}, ..., a_2 depth first through
only the values passing that test, and a_1 is forced by the weighted
degree, so no term with an even coefficient is ever built.  It works in
a packing (below) throughout: each level adds a_t times the packed w_t to
a partial int, and a leaf appends the packed term, so no tuple is built.

Whole families are built through the paper's three-term recurrence

    g_{M^{i,j}} = w_i g_{M^j} + w_{j+1} g_{M^{i-1}} + g_{M^{i-1,j+1}},

which needs no enumeration at all: only the k elements with S_M <= 1 come
from the walk.  A single element asked for on its own (a reduction step,
``generate --only-m``) is one walk at the family's width, not the
elements below it, and the family does not keep it.  ``g_direct`` runs
the same walk at a width of its own, one that holds its weighted degree,
so it stays valid for S_M > n+1, and unpacks the result.  Closed forms
exist for indices with m_k close to n; they are exposed for
cross-validation against the direct formula.

A family holds its terms packed into single ints, at a width W that
(k, n) fixes: W is the bit length of k*n, plus one.  A monomial
(a_1, ..., a_k) packs to its exponent sum in the top field, then a_1, ...,
a_k in fields of W bits each, a_1 highest.  Integer order on packed
monomials is then grlex order, a monomial product is an integer sum, and
v >> (W*k) is the exponent sum of a packed v.  No field overflows: g_M is
homogeneous of weighted degree n+1+S'_M, at most k(n+1) when S_M <= n+1,
so no exponent of a family element exceeds k(n+1) <= 2kn < 2^W, and a
normal form meets only terms of weighted degree <= k*n (below).
Multiplying by w_j adds the packed w_j to every term, so a recurrence
step is two maps of one int add each and at most two symmetric
differences of int sets.  Each g_M is kept as the basis is printed: a
tuple of its packed ints in decreasing, so grlex, order, the lead first.
The packing is the family's (``pack``, ``unpack``); ``element``,
``items`` and ``polynomials`` unpack to Poly.

``GroebnerFamily.reduce`` takes a polynomial to its normal form in the
same packing.  No standard monomial has weighted degree above k*n, the
degree of the top class w_k^n, and every g_M is homogeneous in the
weighted degree, so a term of degree above k*n has normal form 0 and is
dropped before packing.  Each term met while reducing a kept term t has
the weighted degree of t, at most k*n, so every exponent fits its field,
and since lt(g_M) divides t, subtracting the packed leading term never
borrows.

The divisor is read off the packed term v itself: the excess is the sum
field minus n+1, and the packed lead is v with that excess subtracted from
the sum field and, field by field from a_1, from the exponents.  The lead
keys the family's one table ``packed``, whose entry is the tail of g_M as
offsets pack(u) - lead, u over the terms of g_M but its lead.  A step is
then one table hit and one add per tail term, v + (pack(u) - lead) =
pack(u * t / lt(g_M)), and v itself leaves the working set.  Only a miss
cuts M = (a_2, ..., a_k) out of the lead and asks ``packed_terms`` for
g_M: the memo's, when the whole family was built, else one walk's, and
then the table is the only place the family keeps it.

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

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .f2poly import Monomial, Poly, weighted_degree

__all__ = [
    "GrassmannContext",
    "GroebnerFamily",
    "g_direct",
    "g_closed_form",
    "g_recurrence_step",
    "build_family",
    "leading_term_of",
    "raised",
    "raised2",
]

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class GrassmannContext:
    """Parameters (k, n) of the Grassmannian, with n >= k >= 2."""

    k: int
    n: int

    def __post_init__(self):
        if not self.n >= self.k >= 2:
            raise ValueError(f"need n >= k >= 2, got k={self.k}, n={self.n}")


def _check_index(ctx: GrassmannContext, m: MultiIndex) -> None:
    if len(m) != ctx.k - 1:
        raise ValueError(f"multi-index must have {ctx.k - 1} entries, got {m}")
    if any(x < 0 for x in m):
        raise ValueError(f"multi-index entries must be nonnegative: {m}")


def raised(m: MultiIndex, i: int) -> MultiIndex:
    """M^i: add 1 to the i-th coordinate; identity when i < 1."""
    if i < 1:
        return m
    out = list(m)
    out[i - 1] += 1
    return tuple(out)


def raised2(m: MultiIndex, i: int, j: int) -> MultiIndex:
    """M^{i,j}: add 1 to the i-th and j-th coordinates; M^j when i < 1."""
    if i < 1:
        return raised(m, j)
    out = list(m)
    out[i - 1] += 1
    out[j - 1] += 1
    return tuple(out)


def leading_term_of(ctx: GrassmannContext, m: MultiIndex) -> Monomial:
    """The grlex leading monomial (n+1-S_M, m_2, ..., m_k) of g_M."""
    _check_index(ctx, m)
    s = sum(m)
    if s > ctx.n + 1:
        raise ValueError(f"S_M = {s} exceeds n+1 = {ctx.n + 1}")
    return (ctx.n + 1 - s,) + tuple(m)


def _walk(m: MultiIndex, degree: int, times: list[int]) -> list[int]:
    """The terms of g_M of weighted degree ``degree``, packed: ``times[t]``
    is the packed w_t, and every field must hold ``degree``."""
    k = len(m) + 1
    # msuf[t] = m_{t+1} + ... + m_k, so c_t = (a_{t+1} + ... + a_k) - msuf[t]
    msuf = [0] * (k + 1)
    for t in range(k - 1, 0, -1):
        msuf[t] = msuf[t + 1] + m[t - 1]
    w1, w2 = times[1], times[2]
    terms: list[int] = []

    def walk(t: int, rem: int, asuf: int, acc: int) -> None:
        # acc packs (a_{t+1}, ..., a_k), whose sum is asuf; rem is the
        # weighted degree left for a_1, ..., a_t.  a_t = x runs over the
        # values 0 <= x <= rem // t with x & c == 0, in increasing order.
        c = asuf - msuf[t]
        c1 = asuf - msuf[1]
        top = rem // t
        wt = times[t]
        x = 0
        while True:
            if t > 2:
                walk(t - 1, rem - t * x, asuf + x, acc + x * wt)
            elif (rem - 2 * x) & (c1 + x) == 0:
                # a_2 = x forces a_1 = rem - 2x, whose c_1 is c1 + x
                terms.append(acc + x * w2 + (rem - 2 * x) * w1)
            # the least admissible value above x; for c < 0 it wraps to 0
            # after the largest one, -c - 1
            x = ((x | c) + 1) & ~c
            if not 0 < x <= top:
                return

    walk(k, degree, 0, 0)
    return terms


def g_direct(ctx: GrassmannContext, m: MultiIndex) -> Poly:
    """g_M by the defining sum; valid for every nonnegative multi-index."""
    _check_index(ctx, m)
    degree = ctx.n + 1 + weighted_degree(m)
    # every exponent of g_M is at most its degree, and the fields of the
    # family of (k, degree) hold up to 2*k*degree; ctx's own fields may not
    # once S_M > n+1
    family = GroebnerFamily(GrassmannContext(ctx.k, degree))
    return family.to_poly(_walk(m, degree, family._times))


def g_closed_form(ctx: GrassmannContext, m: MultiIndex) -> Optional[Poly]:
    """g_M without enumeration, for the index shapes that admit one.

    Covered: single-monomial indices (S'_M > (k-1)n - 1 with S_M <= n+1)
    and the two-term elements with m_k = n-1.  Returns None otherwise.
    """
    _check_index(ctx, m)
    k, n = ctx.k, ctx.n
    if sum(m) <= n + 1 and weighted_degree(m) > (k - 1) * n - 1:
        return Poly.monomial(leading_term_of(ctx, m))
    if m[-1] == n - 1:
        head = m[:-1]
        w = {j: Poly.variable(k, j) for j in range(1, k + 1)}
        wk_pow = Poly.monomial((0,) * (k - 1) + (n - 1,))
        if not any(head):
            # M = (0, ..., 0, n-1)
            return (w[1] * w[1] + w[2]) * wk_pow
        if sum(head) == 1:
            # m_{s+1} = 1 for one s in 1..k-2, the rest of head 0
            s = head.index(1) + 1
            return (w[1] * w[s + 1] + w[s + 2]) * wk_pow
    return None


def g_recurrence_step(
    ctx: GrassmannContext,
    m: MultiIndex,
    i: int,
    j: int,
    lookup: Callable[[MultiIndex], Poly],
) -> Poly:
    """Assemble g_{M^{i,j}} = w_i g_{M^j} + w_{j+1} g_{M^{i-1}} + g_{M^{i-1,j+1}}.

    The third summand is absent when j = k-1; ``lookup`` supplies the
    right-hand-side polynomials.  They are packed at the context's width,
    and a term that does not fit a field, before or after its shift,
    raises OverflowError.
    """
    _check_index(ctx, m)
    k = ctx.k
    if not 1 <= i <= j <= k - 1:
        raise ValueError(f"need 1 <= i <= j <= {k - 1}, got i={i}, j={j}")
    family = GroebnerFamily(ctx)
    top = family.mask
    # the variable each summand is multiplied by, 0-based; -1 for none
    shifted = {raised(m, j): i - 1, raised(m, i - 1): j}

    def packed(idx: MultiIndex) -> Iterator[int]:
        terms = lookup(idx).terms
        p = shifted.get(idx, -1)
        if any(max(t) > top or (p >= 0 and t[p] == top) for t in terms):
            raise OverflowError(f"a term of g_{idx} overflows {family.width} bits")
        return map(family.pack, terms)

    return family.to_poly(family._step(m, i, j, packed))


def _indices_up_to(k: int, bound: int) -> list[MultiIndex]:
    """All (k-1)-tuples with entry sum <= bound, increasing lex-from-the-right."""
    if k == 1:
        return [()]
    return [
        m + (x,) for x in range(bound + 1) for m in _indices_up_to(k - 1, bound - x)
    ]


class GroebnerFamily:
    """Lazy view of the basis {g_M : S_M <= n+1}, and its packing.

    ``items``, ``polynomials`` and ``build_family`` build the whole family
    through the recurrence into the memo, ``{M: packed terms of g_M}``,
    each a tuple in decreasing order, lead first.  ``packed_terms``
    returns the memo's entry; on a family that was not built it walks
    one g_M at the family's width and keeps nothing, so
    reductions at large n only ever build the indices they touch, and
    each once: ``reduce`` fills ``packed``, the family's one table
    ``{packed lead: tail}`` (the tail as the offsets pack(u) - lead over
    the other terms u of g_M), with what it needs of each g_M it
    touches.  ``element`` unpacks a fresh Poly from ``packed_terms``.
    Both stores are dicts on the instance: they live as long as the
    family, and two families never share one.
    """

    def __init__(self, context: GrassmannContext):
        k, n = context.k, context.n
        self.context = context
        self.width = width = (k * n).bit_length() + 1
        self.mask = (1 << width) - 1
        # shifts of the fields a_1, ..., a_k; the exponent sum sits above them
        self.shifts = range(width * (k - 1), -1, -width)
        self.sum_shift = width * k
        # _times[j] is the packed w_j, 1 <= j <= k
        self._times = [0] + [(1 << self.sum_shift) | (1 << s) for s in self.shifts]
        self._memo: dict[MultiIndex, tuple[int, ...]] = {}
        self.packed: dict[int, tuple[int, ...]] = {}

    def __len__(self) -> int:
        k, n = self.context.k, self.context.n
        return math.comb(n + k, k - 1)

    def pack(self, t: Monomial) -> int:
        width = self.width
        v = sum(t)
        for a in t:
            v = (v << width) | a
        return v

    def unpack(self, packed: Iterable[int]) -> Iterator[Monomial]:
        """The monomials of the packed ints, in their order, each field
        cut out of all of them by one C-level map."""
        packed = list(packed)
        mask = self.mask.__and__
        return zip(*[map(mask, map(s.__rrshift__, packed)) for s in self.shifts])

    def to_poly(self, terms: Iterable[int]) -> Poly:
        return Poly._make(self.context.k, frozenset(self.unpack(terms)))

    def multi_indices(self) -> Iterator[MultiIndex]:
        return iter(_indices_up_to(self.context.k, self.context.n + 1))

    def element(self, m: MultiIndex) -> Poly:
        return self.to_poly(self.packed_terms(m))

    def packed_terms(self, m: MultiIndex) -> tuple[int, ...]:
        """The packed terms of g_M, lead first: the memo's entry, else the
        walk's, not kept."""
        m = tuple(m)
        terms = self._memo.get(m)
        if terms is None:
            # g_M is homogeneous of its lead's degree, which the guard on
            # S_M <= n+1 keeps within the fields
            lead = leading_term_of(self.context, m)
            terms = _walk(m, weighted_degree(lead), self._times)
            terms = tuple(sorted(terms, reverse=True))
        return terms

    def reduce(self, f: Poly) -> Poly:
        """The normal form of f: f minus an element of the ideal, with no
        term of exponent sum > n.  Fills ``packed`` with the tail of each
        g_M it uses."""
        k, n = self.context.k, self.context.n
        if f.k != k:
            raise ValueError("variable count does not match the context")
        mask, shifts, sum_shift = self.mask, self.shifts, self.sum_shift
        table = self.packed
        work: defaultdict[int, set[int]] = defaultdict(set)
        for v in {self.pack(t) for t in f.terms if weighted_degree(t) <= k * n}:
            work[v >> sum_shift].add(v)
        while (level_sum := max(work, default=0)) > n:
            for v in work.pop(level_sum):
                # the divisor's lead: v with its exponent sum cut to n+1, the
                # excess taken from a_1, a_2, ... in turn
                excess = level_sum - n - 1
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
                    terms = self.packed_terms(next(self.unpack([lead]))[1:])
                    tail = table[lead] = tuple(p - lead for p in terms[1:])
                for u in tail:
                    u += v
                    level = work[u >> sum_shift]
                    if u in level:
                        level.remove(u)
                    else:
                        level.add(u)
            if max(work, default=0) >= level_sum:
                raise ValueError("a basis element has a tail term of exponent sum > n")
        return self.to_poly(set().union(*work.values()))

    def _step(
        self, m: MultiIndex, i: int, j: int, lookup: Callable[[MultiIndex], Iterable[int]]
    ) -> tuple[int, ...]:
        """The packed terms of g_{M^{i,j}}, from the packed terms ``lookup``
        gives for the three indices on the right of the recurrence."""
        times = self._times
        terms = set(map(times[i].__add__, lookup(raised(m, j))))
        terms.symmetric_difference_update(map(times[j + 1].__add__, lookup(raised(m, i - 1))))
        if j < self.context.k - 1:
            terms.symmetric_difference_update(lookup(raised2(m, i - 1, j + 1)))
        return tuple(sorted(terms, reverse=True))

    def _materialise(self) -> list[MultiIndex]:
        """Put every g_M of the family in the memo; return the indices in
        ``multi_indices`` order.

        The elements with S_M <= 1 come from the walk, every other T from
        the recurrence with i and j its first and last nonzero positions
        and M = T - e_i - e_j.  Built in order of (S_T, i): g_{M^j} and
        g_{M^{i-1}} lie below T's level, and g_{M^{i-1,j+1}} is on it with
        its first nonzero at i-1, so every summand is built before T.
        """
        ctx, memo = self.context, self._memo
        indices = _indices_up_to(ctx.k, ctx.n + 1)
        missing = []
        for t in indices:
            if t not in memo:
                nonzero = [p for p, x in enumerate(t, start=1) if x]
                i, j = (nonzero[0], nonzero[-1]) if nonzero else (0, 0)
                missing.append((sum(t), i, j, t))
        missing.sort()
        lookup = memo.__getitem__
        for s, i, j, t in missing:
            if s <= 1:
                memo[t] = self.packed_terms(t)
            else:
                m = list(t)
                m[i - 1] -= 1
                m[j - 1] -= 1
                memo[t] = self._step(tuple(m), i, j, lookup)
        return indices

    def packed_items(self) -> Iterator[tuple[MultiIndex, tuple[int, ...]]]:
        memo = self._memo
        for m in self._materialise():
            yield m, memo[m]

    def items(self) -> Iterator[tuple[MultiIndex, Poly]]:
        for m, terms in self.packed_items():
            yield m, self.to_poly(terms)

    def polynomials(self) -> list[Poly]:
        return [g for _, g in self.items()]


def build_family(ctx: GrassmannContext) -> GroebnerFamily:
    """Materialize the whole family for the given context."""
    family = GroebnerFamily(ctx)
    family._materialise()
    return family
