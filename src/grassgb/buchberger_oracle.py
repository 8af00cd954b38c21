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

Leading terms are packed into one int each: every exponent sits in a W-bit
field topped by a guard bit.  With G the mask of guard bits, a | b iff
``((b | G) - a) & G == G``: a field's guard survives the subtraction iff
b_i >= a_i, and no borrow crosses a guard.  The surviving guards select, per
field, the larger exponent, which gives the lcm; two leads are coprime iff
their lcm equals their sum.  W is the bit length of the largest exponent
among the leads (at least 1) and widens (repacking every lead) when a new
lead outgrows it.  A probed term's exponents are clamped to 2^W - 1 before
packing, which is exact because no lead exponent exceeds that.  Terms
themselves stay exponent tuples.

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

from .dual_classes import wbar_recurrence
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


def _neg_key(t: Monomial):
    # heapq is a min-heap; this key pops the grlex-largest monomial first
    return (-sum(t), tuple(-x for x in t), t)


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

    ``plts[i]`` is the packed lead of basis element i, and ``cat`` holds
    them all, block i at bit ``block * i`` (module docstring).  ``rep``
    has a 1 at the bottom of each block; ``grep``, ``fill`` and ``spare``
    replicate the guard mask, 2^(B-1) - 1 and the spare bit into each.
    A divisor costs one ``dividing`` call and is not memoized.  Shifted
    basis multiples are memoized per (element, multiplier); entries stay
    valid when the basis grows because an element, once added, never
    changes.
    """

    def __init__(self, k: int):
        self.k = k
        self.lts: list[Monomial] = []
        self.polys: list[frozenset] = []
        self._widen(1)
        self._prod: dict[tuple[int, Monomial], frozenset] = {}

    def _pack(self, t: Monomial) -> int:
        shift, top = self.width + 1, self._top
        v = 0
        for e in t:
            v = v << shift | (e if e < top else top)
        return v

    def _widen(self, width: int) -> None:
        self.width = width
        self._top = (1 << width) - 1
        field = 1 << (width + 1)
        self.guard = (1 << width) * (field**self.k - 1) // (field - 1)
        self.block = self.k * (width + 1) + 1
        self.plts: list[int] = []
        self.cat = self.rep = self.grep = self.fill = self.spare = 0
        for t in self.lts:
            self._append(self._pack(t))

    def _append(self, plt: int) -> None:
        shift = self.block * len(self.plts)
        self.plts.append(plt)
        self.cat |= plt << shift
        self.rep |= 1 << shift
        spare = 1 << (self.block - 1)
        self.grep = self.guard * self.rep
        self.fill = (spare - 1) * self.rep
        self.spare = spare * self.rep

    def lcm(self, a: int, b: int) -> int:
        """The packed lcm of two packed leads."""
        m = ((b | self.guard) - a) & self.guard
        return a ^ ((a ^ b) & (m - (m >> self.width)))

    def add(self, terms: frozenset) -> int:
        lt = max(terms, key=grlex_key)
        self.lts.append(lt)
        self.polys.append(terms)
        if max(lt) > self._top:
            self._widen(max(lt).bit_length())
        else:
            self._append(self._pack(lt))
        return len(self.lts) - 1

    def dividing(self, probe: int) -> int:
        """The mask of leads dividing ``probe``, a packed monomial with its
        guard bits set: bit ``block * i + block - 1`` is set iff lead i
        divides it."""
        grep = self.grep
        cleared = ((probe * self.rep - self.cat) & grep) ^ grep
        return ~(cleared + self.fill) & self.spare

    def divisor(self, t: Monomial) -> int | None:
        mask = self.dividing(self._pack(t) | self.guard)
        if not mask:
            return None
        return (mask & -mask).bit_length() // self.block - 1

    def _product(self, gi: int, q: Monomial) -> frozenset:
        key = (gi, q)
        cached = self._prod.get(key)
        if cached is None:
            cached = frozenset(
                tuple(map(sum, zip(term, q))) for term in self.polys[gi]
            )
            self._prod[key] = cached
        return cached

    def normal_form(self, terms) -> frozenset:
        work = set(terms)
        heap = [_neg_key(t) for t in work]
        heapq.heapify(heap)
        remainder = set()
        while heap:
            t = heapq.heappop(heap)[2]
            if t not in work:
                continue
            gi = self.divisor(t)
            if gi is None:
                work.remove(t)
                remainder.add(t)
                continue
            q = tuple(a - b for a, b in zip(t, self.lts[gi]))
            if min(q) < 0:
                # a wrong divisor would shift terms to ever lower degrees
                # and never finish
                raise RuntimeError(f"lead {self.lts[gi]} does not divide {t}")
            prod = self._product(gi, q)
            fresh = prod - work
            work.symmetric_difference_update(prod)
            for u in fresh:
                heapq.heappush(heap, _neg_key(u))
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


def buchberger(generators: list[Poly]) -> list[Poly]:
    """A (non-reduced) Groebner basis of the ideal spanned by the input."""
    if not generators:
        raise ValueError("need at least one generator")
    k = generators[0].k
    for g in generators:
        if not g:
            raise ValueError("zero generator")
        if g.k != k:
            raise ValueError("generators have mixed variable counts")

    reducer = _Reducer(k)
    sugar: list[int] = []  # sugar[i] belongs to reducer element i
    pairs: dict[tuple[int, int], int] = {}
    heap: list = []

    def insert(terms, s: int) -> None:
        reduced = reducer.normal_form(terms)
        if not reduced:
            return
        width = reducer.width
        h = reducer.add(reduced)
        sugar.append(s)
        lth = reducer.lts[h]
        for old in reducer.lts[:h]:
            if all(map(operator.le, old, lth)):
                raise RuntimeError(
                    f"lead {old} divides the new lead {lth}: a divisor was missed"
                )
        if reducer.width != width:  # the queued packed lcms are stale
            for g1, g2 in pairs:
                pairs[(g1, g2)] = reducer.lcm(reducer.plts[g1], reducer.plts[g2])
        for g in _update_pairs(reducer, pairs, h):
            lcm = tuple(map(max, reducer.lts[g], lth))
            wl = weighted_degree(lcm)
            pair_sugar = max(
                sugar[g] + wl - weighted_degree(reducer.lts[g]),
                s + wl - weighted_degree(lth),
            )
            heapq.heappush(heap, ((pair_sugar,) + grlex_key(lcm), (g, h)))

    for g in generators:
        insert(g.terms, max(map(weighted_degree, g.terms)))

    while heap:
        (s, _, lcm), pair = heapq.heappop(heap)
        if pair not in pairs:
            continue
        del pairs[pair]
        g1, g2 = pair
        q1 = tuple(a - b for a, b in zip(lcm, reducer.lts[g1]))
        q2 = tuple(a - b for a, b in zip(lcm, reducer.lts[g2]))
        insert(reducer._product(g1, q1) ^ reducer._product(g2, q2), s)

    return [Poly._make(k, terms) for terms in reducer.polys]


def reduce_basis(gb: list[Poly]) -> list[Poly]:
    """The unique reduced basis: minimal leads, every element tail-reduced,
    sorted by grlex of the leading term.

    One pass over one reducer of the minimal basis suffices: a tail term is
    grlex-smaller than its own lead, so that lead never divides it, and the
    reduced tails contain no term any lead divides.
    """
    if not gb:
        raise ValueError("empty basis")
    k = gb[0].k
    entries = sorted(((g.leading_term(), g) for g in gb), key=lambda e: grlex_key(e[0]))
    reducer = _Reducer(k)
    for lt, g in entries:
        if reducer.divisor(lt) is None:
            reducer.add(g.terms)
    return [
        Poly._make(k, reducer.normal_form(terms - {lt}) | {lt})
        for lt, terms in zip(reducer.lts, reducer.polys)
    ]


def oracle_reduce(f: Poly, basis: list[Poly]) -> Poly:
    """Full normal form of f against an arbitrary basis (generic search)."""
    reducer = _Reducer(f.k)
    for g in basis:
        reducer.add(g.terms)
    return Poly._make(f.k, reducer.normal_form(f.terms))


def oracle_equals_family(ctx: GrassmannContext, cap: int = DEFAULT_CAP) -> bool:
    """Run Buchberger on the dual-class generators and compare the reduced
    result, as a set of polynomials, with the structured family."""
    family = GroebnerFamily(ctx)
    size = len(family)
    if size > cap:
        raise OracleCapExceeded(
            f"instance has {size} basis elements, above the cap of {cap}"
        )
    generators = [wbar_recurrence(ctx.n + j, ctx.k) for j in range(1, ctx.k + 1)]
    oracle = reduce_basis(buchberger(generators))
    return set(oracle) == set(family.polynomials())
