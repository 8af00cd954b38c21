"""Generic reduced-Groebner-basis engine over F2 (the validation oracle).

Deliberately independent of the structured family: it takes nothing from
the family's kernel or packing, and its leads come from linear algebra, so
a wrong g_M cannot make the oracle agree with it.

``buchberger`` builds the reduced basis of an ideal spanned by
weighted-homogeneous generators f_1, ..., f_s (w_j has degree j) one
weighted degree d at a time, by elimination under the F5 criterion
(Faugere, ISSAC 2002; the matrix form is in Bardet, Faugere, Salvy,
J. Symbolic Comput. 70, 2015).  The columns of degree d are its monomials
in grlex order, and each row is one Python int over them, so a row's top
bit is its lead and elimination is XOR.  The rows are the products m*f_i
with m of degree d - deg f_i, for i = 1, ..., s in turn, and m is skipped
when it is a lead of (f_1, ..., f_{i-1}) in its degree: if m = lt(h) with
h in that ideal, then m*f_i = h*f_i + (m - h)*f_i, and h*f_i is already
spanned, so the rows of degree d span I_d and their pivots are LM(I)_d.
A pivot is a minimal lead when no w_j it contains leaves a lead j
degrees lower, and its row, reduced against the other pivots of its
degree, is an element of the reduced basis: its other terms are not
leads, and it is homogeneous.  Once every generator has been used and k
consecutive degrees have every monomial as a lead, every monomial of a
higher degree is w_j times a lead, so no minimal lead lies above.

The hot loop runs at C level where it can.  The columns of degree d are
built packed, from the lower degrees, with no recursion: every monomial
of degree d is w_j times one of degree d - j, so they are the union over
j of the columns of degree d - j plus the packed w_j, sorted.  The rows
of every m for one f_i come from one ``map(sum, zip(...))`` over maps of
m + t -> column -> 1 << column, one map per term t of f_i.  The leads
that are not minimal in degree d are one set, {l + w_j : l a lead of
degree d - j}, built once per degree.  A minimal row is back-reduced only
at its bits that are pivots, ``row & mask`` with one bit per pivot.

The bound.  If the input contains a regular sequence of k generators, of
degrees d_1, ..., d_k, the quotient by them has the Hilbert series
prod_i (1 - t^{d_i}) / prod_j (1 - t^j), a polynomial of top degree
T = sum_i d_i - k(k+1)/2, and the quotient by the whole input is a
quotient of that one.  So its k degrees T+1, ..., T+k with a zero quotient
end by degree sum_i d_i - k(k-1)/2 <= D, the sum of all the input
degrees, and no degree >= D has a monomial that is not a lead.  Where
one does, as for every ideal that is not zero-dimensional, ``buchberger``
raises ``ValueError`` instead of running on; it raises too for a
generator that is not weighted-homogeneous.  The dual classes
wbar_{n+1}, ..., wbar_{n+k} are such a sequence, and on them no row
reduces to zero.

Every term is packed into one int, the oracle's own grlex packing: the
exponents a_1, ..., a_k sit in W-bit fields, a_k lowest, each topped by a
guard bit, and the exponent sum sits above them all, so comparing ints is
comparing in grlex and a product of monomials is a sum of ints.  W is
fixed once, when a reducer is made: for ``buchberger`` it holds every
exponent sum up to the last degree it may reach, and for ``reduce_basis``
and ``oracle_reduce`` every sum of their input (reduction never raises a
sum above the largest it started from).  If a lead does not divide v,
the lowest field where it is larger borrows through its guard bit, so
v - lead has a guard bit set; with G the mask of guard bits, a | b iff
``((b | G) - a) & G == G`` on the exponent fields alone.

The normal form of ``reduce_basis`` and ``oracle_reduce`` takes the
largest term left in its working set at every step, by a rescan of the
whole set, and reduces it by the lowest-index lead that divides it,
found by testing the leads one at a time in index order.  The basis
multiple is built afresh at each step, one int add per term, and toggled
into the set.  A divisor that does not divide leaves a guard bit set in
the quotient, and ``normal_form`` raises instead of running on.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, lshift

from .dual_classes import wbar_sequence
from .f2poly import Monomial, Poly, weighted_degree
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

    Every term is one int in the grlex packing (module docstring), whose
    fields hold exponent sums up to ``total``; the width never changes.
    ``polys[i]`` holds the packed terms of basis element i and ``leads[i]``
    its packed lead.  ``divisor`` scans the leads in index order, and
    ``normal_form`` rescans its working set for the largest term at every
    step; nothing is memoized.
    """

    def __init__(self, k: int, total: int):
        self.k = k
        self.width = width = max(total, 1).bit_length()
        field = 1 << (width + 1)
        self._top = (1 << width) - 1
        self._shifts = [(width + 1) * i for i in range(k - 1, -1, -1)]
        self.fields = field**k - 1
        self.guard = self.fields // (field - 1) << width
        self.leads: list[int] = []
        self.polys: list[frozenset] = []

    @classmethod
    def load(cls, polys: list[Poly]) -> tuple[_Reducer, list[frozenset]]:
        """A reducer whose fields hold every exponent sum among ``polys``,
        and the packed terms of each."""
        total = max((sum(t) for g in polys for t in g.terms), default=0)
        red = cls(polys[0].k, total)
        return red, [frozenset(map(red.pack, g.terms)) for g in polys]

    def pack(self, t: Monomial) -> int:
        shift = self.width + 1
        v = sum(t)
        for e in t:
            v = v << shift | e
        return v

    def unpack(self, v: int) -> Monomial:
        top = self._top
        return tuple([v >> shift & top for shift in self._shifts])

    def to_poly(self, terms) -> Poly:
        return Poly._make(self.k, frozenset(map(self.unpack, terms)))

    def add(self, terms: frozenset) -> None:
        self.leads.append(max(terms))
        self.polys.append(terms)

    def divisor(self, v: int) -> int | None:
        """The index of the first lead that divides v, or None."""
        fields, guard = self.fields, self.guard
        probe = v & fields | guard
        for i, lead in enumerate(self.leads):
            if (probe - (lead & fields)) & guard == guard:
                return i
        return None

    def normal_form(self, terms) -> frozenset:
        work = set(terms)
        remainder = set()
        while work:
            v = max(work)
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
                    f"lead {self.unpack(self.leads[gi])} does not divide {self.unpack(v)}"
                )
            work.symmetric_difference_update(map(q.__add__, self.polys[gi]))
        return frozenset(remainder)


def _check(polys: list[Poly], k: int, name: str) -> None:
    """Reject a zero element, or one in other than k variables."""
    for i, g in enumerate(polys):
        if not g:
            raise ValueError(f"zero {name} at index {i}")
        if g.k != k:
            raise ValueError(f"mixed variable counts: {name} {i} has {g.k}, not {k}")


def _times_units(by_degree: list, units: list[int]) -> set[int]:
    """Every packed w_j * v with v in ``by_degree[d - j]``, where d is
    ``len(by_degree)`` and ``units`` holds the packed w_1, ..., w_k.  Every
    monomial of degree d is w_j times one of degree d - j, for each j whose
    exponent in it is positive, so given the monomials of every degree
    below d these are the monomials of degree d; given the leads, they are
    the leads of degree d that are not minimal."""
    d = len(by_degree)
    return set().union(*[map(add, repeat(w), by_degree[d - j]) for j, w in enumerate(units[:d], 1)])


def buchberger(generators: list[Poly]) -> list[Poly]:
    """The reduced Groebner basis of the ideal spanned by weighted-homogeneous
    generators, sorted by grlex of the leading term, built one weighted
    degree at a time (module docstring)."""
    if not generators:
        raise ValueError("need at least one generator")
    k = generators[0].k
    _check(generators, k, "generator")
    degrees = []
    for i, g in enumerate(generators):
        ds = set(map(weighted_degree, g.terms))
        if len(ds) != 1:
            raise ValueError(f"generator {i} is not weighted-homogeneous")
        degrees.extend(ds)
    bound = sum(degrees)
    red = _Reducer(k, bound + k)  # the run stops by degree bound + k - 1
    gens = [list(map(red.pack, g.terms)) for g in generators]
    units = [red.pack((0,) * (j - 1) + (1,) + (0,) * (k - j)) for j in range(1, k + 1)]
    columns = [[0]]  # columns[e]: the packed monomials of degree e
    d = min(degrees)
    leads: list[dict[int, int]] = [{} for _ in range(d)]  # lead -> its generator
    basis = []
    full = 0  # consecutive degrees in which every monomial is a lead
    while d <= max(degrees) or full < k:
        while len(columns) <= d:
            columns.append(sorted(_times_units(columns, units)))
        cols = columns[d]
        bit = dict(zip(cols, range(len(cols))))
        # pivots[b] is the row whose lead is column b - 1, the bit_length of
        # the row, or 0 if there is none yet; pivots[0] stays 0, so a row
        # that reduces to 0 ends the loop below
        pivots = [0] * (len(cols) + 1)
        found: dict[int, int] = {}
        for i, (e, f) in enumerate(zip(degrees, gens)):
            if e > d:
                continue
            earlier = leads[d - e]
            # the F5 criterion: m*f_i adds nothing new when m is a lead of
            # f_1, ..., f_{i-1}
            ms = [m for m in columns[d - e] if earlier.get(m, i) >= i]
            # the row of m*f_i is the sum of 1 << bit[m + t] over the terms t
            # of f_i, built for every m at once, one term t at a time
            shifted = [
                map(lshift, repeat(1), map(bit.__getitem__, map(add, repeat(t), ms))) for t in f
            ]
            for row in map(sum, zip(*shifted)):
                b = row.bit_length()
                while pivot := pivots[b]:
                    row ^= pivot
                    b = row.bit_length()
                if b:
                    pivots[b] = row
                    found[cols[b - 1]] = i
        # a lead is minimal iff it is no w_j times a lead j degrees lower
        minimal = found.keys() - _times_units(leads, units)
        leads.append(found)
        if minimal:
            mask = sum(map(lshift, repeat(1), map(bit.__getitem__, found)))
            for lead in minimal:
                p = bit[lead]
                row = pivots[p + 1] ^ 1 << p
                hit = row & mask
                while hit:
                    row ^= pivots[hit.bit_length()]
                    hit = row & mask
                terms = [lead]
                while row:
                    b = row.bit_length() - 1
                    row ^= 1 << b
                    terms.append(cols[b])
                basis.append((lead, terms))
        if len(found) == len(cols):
            full += 1
        elif d >= bound:
            raise ValueError(
                f"a monomial of degree {d} is no lead: the ideal is not zero-dimensional"
            )
        else:
            full = 0
        d += 1
        # free this degree's rows before the next degree's columns are built
        del pivots, bit
    basis.sort()
    return [red.to_poly(terms) for _, terms in basis]


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
    reducer, packed = _Reducer.load(gb)
    for terms in sorted(packed, key=max):
        if reducer.divisor(max(terms)) is None:
            reducer.add(terms)
    return [
        reducer.to_poly(reducer.normal_form(terms - {lead}) | {lead})
        for lead, terms in zip(reducer.leads, reducer.polys)
    ]


def oracle_reduce(f: Poly, basis: list[Poly]) -> Poly:
    """Full normal form of f against an arbitrary basis (generic search)."""
    _check(basis, f.k, "basis element")
    reducer, (*packed, terms) = _Reducer.load(basis + [f])
    for element in packed:
        reducer.add(element)
    return reducer.to_poly(reducer.normal_form(terms))


def oracle_equals_family(ctx: GrassmannContext, cap: int = DEFAULT_CAP) -> bool:
    """Build the reduced basis of the dual-class generators and compare it,
    as a set of polynomials, with the structured family."""
    family = GroebnerFamily(ctx)
    size = family.size
    if size > cap:
        raise OracleCapExceeded(
            f"instance has {size} basis elements, above the cap of {cap}"
        )
    generators = wbar_sequence(ctx.n + ctx.k, ctx.k)[ctx.n + 1 :]
    return set(buchberger(generators)) == set(family.polynomials())
