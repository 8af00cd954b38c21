"""Generic reduced-Groebner-basis engine over F2 (the validation oracle).

Deliberately independent of the structured family: a term's divisor is the
lowest-index lead that divides it, found by testing every lead at once,
never by the O(k) exponent-stripping shortcut, so a wrong g_M cannot make
the oracle agree with it.  Pairs are selected by weighted sugar (Giovini,
Mora, Niesi, Robbiano, Traverso, "One sugar cube, please", 1991), ties
broken by grlex of the lcm, and pruned by the standard Gebauer-Moller
criteria (which subsume the coprime-lead skip).  A generator's sugar is
the largest weighted degree sum j * a_j of its terms; a pair's is the
larger of the two sugars raised by the weighted degree its lead gains in
the lcm; an element an S-polynomial adds takes its pair's sugar.  The
dual-class ideal is homogeneous in this degree, so there a pair's sugar
is the weighted degree of its lcm, the run goes one degree at a time and
builds exactly binom(n+k, k-1) elements, the size of the reduced basis.
Non-homogeneous input pays for this: on some random sets of four
generators in four variables sugar is several times slower than picking
the grlex-smallest lcm.  Each new lead is also checked, by plain tuple
comparison, against every earlier lead: one that divides it means the
packed search missed a divisor, and ``buchberger`` raises instead of
running on.

Every term is packed into one int, the oracle's own grlex packing: the
exponents a_1, ..., a_k sit in W-bit fields, a_k lowest, each topped by a
guard bit, and the exponent sum sits above them all, so comparing ints is
comparing in grlex.  The reducer's heap holds -v for each term v, the
quotient of v by a dividing lead is v - lead, and a basis multiple adds
the quotient to each of the element's terms.  W holds the largest
exponent sum the reducer meets: every sum of the loaded input (the
generators, or the basis and the polynomial to reduce), and each popped
S-pair's lcm.  Reduction never raises a sum above the largest one it
started from, so no field overflows, and W widens only between normal
forms, repacking every term, lead and queued lcm.  If a lead does not
divide v, the lowest field where it is larger borrows through its guard
bit, so v - lead has a guard bit set, and ``normal_form`` raises instead
of running on with a wrong divisor.  With G the mask of guard bits, a | b
iff ``((b | G) - a) & G == G`` on the exponent fields alone: a field's
guard survives the subtraction iff b_i >= a_i, and no borrow crosses a
guard.  The surviving guards select, per field, the larger exponent,
which gives the lcm; two leads are coprime iff their lcm equals their
sum.  Tuples remain only at the edges (``Poly`` in and out) and in each
lead's tuple, which the sugar and the missed-divisor check read.

All leads also sit side by side in one int, lead i in the block of
B = k(W+1) + 1 bits at bit B*i, whose top bit is spare.  One multiply
replicates a probe into every block, one subtraction runs the test above in
all blocks (no borrow leaves a block), and adding 2^(B-1) - 1 to the
cleared guards of a block carries into its spare bit iff some field failed.
So ``dividing`` returns, in one pass over the machine words, a mask whose
spare bit i is set iff lead i divides the probe, and the lowest set block
is the divisor an in-order scan would find.  The chain criterion uses the
same mask: lt_h divides lcm(lt_g, lt_h), so lcm(lt_l, lt_h) divides
lcm(lt_g, lt_h) iff lt_l does.
"""

from __future__ import annotations

import heapq
import operator

from .dual_classes import wbar_sequence
from .f2poly import Monomial, Poly, grlex_key, weighted_degree
from .groebner_family import GrassmannContext, GroebnerFamily

__all__ = [
    "s_polynomial",
    "buchberger",
    "reduce_basis",
    "oracle_equals_family",
    "oracle_reduce",
    "OracleCapExceeded",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 256


class OracleCapExceeded(ValueError):
    """The requested instance is larger than the configured oracle cap."""


def s_polynomial(f: Poly, g: Poly) -> Poly:
    """S(f, g): the leading-term cancellation combination over F2."""
    if not f or not g:
        raise ValueError("S-polynomial of the zero polynomial is undefined")
    f._check_compatible(g)
    ltf, ltg = f.leading_term(), g.leading_term()
    lcm = tuple(map(max, ltf, ltg))
    qf = Poly.monomial(tuple(a - b for a, b in zip(lcm, ltf)))
    qg = Poly.monomial(tuple(a - b for a, b in zip(lcm, ltg)))
    return qf * f + qg * g


class _Reducer:
    """Normal forms against a growing basis, with generic divisor search.

    Every term is one int in the grlex packing (module docstring):
    ``polys[i]`` holds the packed terms of basis element i, ``leads[i]``
    its packed lead and ``lts[i]`` that lead as a tuple.  ``plts[i]`` is
    the lead's exponent fields alone, and ``cat`` holds them all, block i
    at bit ``block * i``.  ``rep`` has a 1 at the bottom of each block;
    ``grep``, ``fill`` and ``spare`` replicate the guard mask, 2^(B-1) - 1
    and the spare bit into each.  ``pairs`` maps each queued S-pair to the
    lcm of its leads' exponent fields.  A divisor costs one ``dividing``
    call and is not memoized.  Basis multiples are memoized per (element,
    quotient); entries stay valid when the basis grows because an element,
    once added, never changes, and ``fit`` drops them when it widens.
    """

    def __init__(self, k: int):
        self.k = k
        self.width = 0
        self.polys: list[frozenset] = []
        self.pairs: dict[tuple[int, int], int] = {}
        self.fit(1)

    def pack(self, t: Monomial) -> int:
        shift = self.width + 1
        v = sum(t)
        for e in t:
            v = v << shift | e
        return v

    def unpack(self, v: int) -> Monomial:
        top = self._top
        return tuple([v >> shift & top for shift in self._shifts])

    def fit(self, total: int) -> None:
        """Widen the fields to hold exponent sums up to ``total``.  This
        repacks every element, lead and queued lcm and drops the memoized
        multiples, so it runs only between normal forms."""
        if total < 1 << self.width:
            return
        polys = [list(map(self.unpack, terms)) for terms in self.polys]
        self.width = width = total.bit_length()
        field = 1 << (width + 1)
        self._top = (1 << width) - 1
        self._shifts = [(width + 1) * i for i in range(self.k - 1, -1, -1)]
        self.fields = field**self.k - 1
        self.guard = self.fields // (field - 1) << width
        self.block = self.k * (width + 1) + 1
        self.lts: list[Monomial] = []
        self.leads: list[int] = []
        self.plts: list[int] = []
        self.polys = []
        self.cat = self.rep = self.grep = self.fill = self.spare = 0
        self._prod: dict[tuple[int, int], frozenset] = {}
        for terms in polys:
            self.add(frozenset(map(self.pack, terms)))
        for g1, g2 in self.pairs:
            self.pairs[(g1, g2)] = self.lcm(self.plts[g1], self.plts[g2])

    def load(self, polys: list[Poly]) -> list[frozenset]:
        """The packed terms of each of ``polys``, after widening the fields
        to the largest exponent sum among them."""
        self.fit(max((sum(t) for g in polys for t in g.terms), default=0))
        return [frozenset(map(self.pack, g.terms)) for g in polys]

    def to_poly(self, terms: frozenset) -> Poly:
        return Poly._make(self.k, frozenset(map(self.unpack, terms)))

    def lcm(self, a: int, b: int) -> int:
        """The lcm of two leads' packed exponent fields."""
        m = ((b | self.guard) - a) & self.guard
        return a ^ ((a ^ b) & (m - (m >> self.width)))

    def add(self, terms: frozenset) -> int:
        lead = max(terms)
        plt = lead & self.fields
        shift = self.block * len(self.plts)
        self.leads.append(lead)
        self.lts.append(self.unpack(lead))
        self.polys.append(terms)
        self.plts.append(plt)
        self.cat |= plt << shift
        self.rep |= 1 << shift
        spare = 1 << (self.block - 1)
        self.grep = self.guard * self.rep
        self.fill = (spare - 1) * self.rep
        self.spare = spare * self.rep
        return len(self.plts) - 1

    def dividing(self, probe: int) -> int:
        """The mask of leads dividing ``probe``, packed exponent fields with
        their guard bits set: bit ``block * i + block - 1`` is set iff lead
        i divides it."""
        grep = self.grep
        cleared = ((probe * self.rep - self.cat) & grep) ^ grep
        return ~(cleared + self.fill) & self.spare

    def divisor(self, v: int) -> int | None:
        mask = self.dividing(v & self.fields | self.guard)
        if not mask:
            return None
        return (mask & -mask).bit_length() // self.block - 1

    def _product(self, gi: int, q: int) -> frozenset:
        key = (gi, q)
        cached = self._prod.get(key)
        if cached is None:
            cached = frozenset(map(q.__add__, self.polys[gi]))
            self._prod[key] = cached
        return cached

    def normal_form(self, terms) -> frozenset:
        work = set(terms)
        heap = [-v for v in work]
        heapq.heapify(heap)
        queued = set(work)  # the pops fall, so no term is queued twice
        remainder = set()
        while heap:
            v = -heapq.heappop(heap)
            if v not in work:
                continue
            gi = self.divisor(v)
            if gi is None:
                work.remove(v)
                remainder.add(v)
                continue
            q = v - self.leads[gi]
            if q & self.guard:
                # a wrong divisor would shift terms to ever lower degrees
                # and never finish
                raise RuntimeError(
                    f"lead {self.lts[gi]} does not divide {self.unpack(v)}"
                )
            prod = self._product(gi, q)
            work.symmetric_difference_update(prod)
            for u in prod - queued:
                heapq.heappush(heap, -u)
            queued |= prod
        return frozenset(remainder)


def _update_pairs(
    red: _Reducer, pairs: dict[tuple[int, int], int], h: int
) -> list[int]:
    """Gebauer-Moller pair update after appending basis element h.

    ``pairs`` maps each queued pair to the packed lcm of its leads and is
    updated in place; returns the g of the new pairs (g, h), in the order
    the chain criterion kept them.
    """
    guard, lth, block = red.guard, red.plts[h], red.block
    lcms = [red.lcm(lth, ltg) for ltg in red.plts[:h]]
    coprime = [l == lth + ltg for l, ltg in zip(lcms, red.plts)]
    kept: list[int] = []
    kept_mask = 0  # the spare bits of the blocks in kept
    for g in range(h - 1, -1, -1):
        below_g = (1 << block * g) - 1
        if not coprime[g] and red.dividing(lcms[g] | guard) & (below_g | kept_mask):
            continue
        kept.append(g)
        kept_mask |= 1 << (block * (g + 1) - 1)
    for pair, l12 in list(pairs.items()):
        if (
            ((l12 | guard) - lth) & guard == guard
            and lcms[pair[0]] != l12
            and lcms[pair[1]] != l12
        ):
            del pairs[pair]
    fresh = [g for g in kept if not coprime[g]]
    for g in fresh:
        pairs[(g, h)] = lcms[g]
    return fresh


def _check(polys: list[Poly], k: int, name: str) -> None:
    """Reject a zero element, or one in other than k variables."""
    for i, g in enumerate(polys):
        if not g:
            raise ValueError(f"zero {name} at index {i}")
        if g.k != k:
            raise ValueError(f"mixed variable counts: {name} {i} has {g.k}, not {k}")


def buchberger(generators: list[Poly]) -> list[Poly]:
    """A (non-reduced) Groebner basis of the ideal spanned by the input."""
    if not generators:
        raise ValueError("need at least one generator")
    _check(generators, generators[0].k, "generator")

    reducer = _Reducer(generators[0].k)
    sugar: list[int] = []  # sugar[i] belongs to reducer element i
    heap: list = []

    def insert(terms, s: int) -> None:
        reduced = reducer.normal_form(terms)
        if not reduced:
            return
        h = reducer.add(reduced)
        sugar.append(s)
        lth = reducer.lts[h]
        for old in reducer.lts[:h]:
            if all(map(operator.le, old, lth)):
                raise RuntimeError(
                    f"lead {old} divides the new lead {lth}: a divisor was missed"
                )
        for g in _update_pairs(reducer, reducer.pairs, h):
            lcm = tuple(map(max, reducer.lts[g], lth))
            wl = weighted_degree(lcm)
            pair_sugar = max(
                sugar[g] + wl - weighted_degree(reducer.lts[g]),
                s + wl - weighted_degree(lth),
            )
            heapq.heappush(heap, ((pair_sugar,) + grlex_key(lcm), (g, h)))

    for terms, g in zip(reducer.load(generators), generators):
        insert(terms, max(map(weighted_degree, g.terms)))

    while heap:
        (s, total, lcm), pair = heapq.heappop(heap)
        if pair not in reducer.pairs:
            continue
        del reducer.pairs[pair]
        reducer.fit(total)  # the S-polynomial's terms have sums up to the lcm's
        q1, q2 = (reducer.pack(lcm) - reducer.leads[g] for g in pair)
        insert(reducer._product(pair[0], q1) ^ reducer._product(pair[1], q2), s)

    return list(map(reducer.to_poly, reducer.polys))


def reduce_basis(gb: list[Poly]) -> list[Poly]:
    """The unique reduced basis: minimal leads, every element tail-reduced,
    sorted by grlex of the leading term.

    One pass over one reducer of the minimal basis suffices: a tail term is
    grlex-smaller than its own lead, so that lead never divides it, and the
    reduced tails contain no term any lead divides.
    """
    if not gb:
        raise ValueError("empty basis")
    _check(gb, gb[0].k, "basis element")
    reducer = _Reducer(gb[0].k)
    for terms in sorted(reducer.load(gb), key=max):
        if reducer.divisor(max(terms)) is None:
            reducer.add(terms)
    return [
        reducer.to_poly(reducer.normal_form(terms - {lead}) | {lead})
        for lead, terms in zip(reducer.leads, reducer.polys)
    ]


def oracle_reduce(f: Poly, basis: list[Poly]) -> Poly:
    """Full normal form of f against an arbitrary basis (generic search)."""
    _check(basis, f.k, "basis element")
    reducer = _Reducer(f.k)
    *packed, terms = reducer.load(basis + [f])
    for element in packed:
        reducer.add(element)
    return reducer.to_poly(reducer.normal_form(terms))


def oracle_equals_family(ctx: GrassmannContext, cap: int = DEFAULT_CAP) -> bool:
    """Run Buchberger on the dual-class generators and compare the reduced
    result, as a set of polynomials, with the structured family."""
    family = GroebnerFamily(ctx)
    size = len(family)
    if size > cap:
        raise OracleCapExceeded(
            f"instance has {size} basis elements, above the cap of {cap}"
        )
    generators = wbar_sequence(ctx.n + ctx.k, ctx.k)[ctx.n + 1 :]
    oracle = reduce_basis(buchberger(generators))
    return set(oracle) == set(family.polynomials())
