"""Generic reduced-Groebner-basis engine over F2 (the validation oracle).

Deliberately independent of the structured family: its basis takes
nothing from the family's kernel or packing, and its leads come from
linear algebra, so a wrong g_M cannot make the oracle agree with it.

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

The projection.  Call a degree e full when every monomial of degree e is
a lead; then I_e holds every form of degree e, as dim I_e is the number
of leads of degree e.  In degree d let Z = {j : degree d - j is full}.
Each monomial of degree d with a factor w_j, j in Z, is w_j times a form
of I_{d-j}, so it lies in I; call their span J_d.  Setting the w_j with j
in Z to 0 is a ring map pi, and f - pi(f) lies in J_d for every f of
degree d, so I_d = J_d + pi(I_d), where pi(I_d) lies on the monomials
free of Z and J_d on the others.  Hence LM(I_d) is the monomials of J_d
together with LM(pi(I_d)); and a reduced element led by a monomial free
of Z has no term in J_d, whose monomials are all leads, so it is the
reduced row of pi(I_d) with that lead.  The rows m*f_i span I_d, pi is
linear and kills m*f_i when m has a factor w_j, j in Z, so the rows
m*pi(f_i) with m free of Z span pi(I_d).  So degree d eliminates only over
the columns free of Z, builds rows only for m free of Z, skips f_i when
pi(f_i) = 0, and stops building rows once every column it kept is a
pivot.  The monomials it dropped are recorded as leads of degree d: each
is w_j times a lead of degree d - j, so none is minimal, and the later
degrees read them for fullness and minimality.  The F5 criterion needs
a lead's tag to be a generator i with the lead in LM((f_1, ..., f_i)).
A degree with Z empty tags each pivot with the generator whose row first
made it one.  In a projected degree neither kind of lead has a
known tag: a pivot found by the rows of f_1, ..., f_i is a lead of
pi((f_1, ..., f_i)_d), not always of (f_1, ..., f_i)_d.  So every lead
of a projected degree is tagged s, past every generator, and the
criterion skips no row for it.  Z comes only from the oracle's own
eliminations of the lower degrees: it uses no Hilbert series and takes
nothing from the family, and every lead and every reduced element still
comes from a row reduction.  On the dual classes Z is empty up to degree
kn+1, as the quotient is nonzero up to degree kn, so the projection
shortens only the degrees kn+2, ..., kn+k, whose elements are bare
monomials.

The hot loop runs at C level where it can.  The columns of degree d are
built packed, from the lower degrees, with no recursion: every monomial
of degree d is w_j times one of degree d - j, so they are the union over
j of the columns of degree d - j plus the packed w_j, sorted.  One dict
per degree maps each column to its one-hot int, 1 << its index, so the
row of m*f_i is the sum of one lookup per term t of f_i, of m + t, and
the rows of every m for one f_i come from one ``map(sum, zip(...))``
over one map per term.  A packed monomial is free of Z when it has no
bit in the sum of the fields of the w_j in Z.  The leads that are not
minimal in degree d are one set, {l + w_j : l a lead of degree d - j},
built once per degree.  A minimal row is back-reduced only at its bits
that are pivots, ``row & mask``, where the mask is the sum of the
pivots' one-hot ints.

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

The degree loop is ``_reduced_basis``.  It packs every monomial into one
int, the oracle's own grlex packing (``_Packing``): the exponents a_1,
..., a_k sit in W-bit fields, a_k lowest, and the exponent sum sits above
them all, so comparing ints is comparing in grlex and a product of
monomials is a sum of ints.  W is the bit length of the last degree the
run may reach, and no exponent sum exceeds the weighted degree, so no
field overflows into the next.  It returns that packing and the basis,
each element the list of its packed terms, lead first, sorted by lead.
``_Packing.unpack`` turns any number of packed ints into exponent tuples
in one C-level pass, a zip over the fields, each field cut from every
term by maps of ``rshift`` and ``and_``, and ``_term_sets`` cuts that
stream into one frozenset per element with ``islice``.  ``buchberger``
wraps each of those in a ``Poly``.

``oracle_equals_family`` builds no ``Poly``: it compares the two bases as
maps from lead to term set, so each element is checked under its own
index.  ``packed_items`` hands out each g_M beside the lead that the
leading-term law gives its M, and that lead must be the element's first
and grlex-largest term, so no element passes under another's lead.  The
oracle's lead is its own first and largest term.  On both sides a lead
is then the largest term of its set, so the map is fixed by its term
sets, and the maps are equal when the sets of term sets are, each
element the frozenset of its exponent tuples.  The oracle's side is
``_term_sets`` of its packed basis by ``_Packing``, the family's is
``_term_sets`` of every g_M by the family's own build packing.  So each
side turns its own packed ints into plain tuples with its own code, the
two packings never meet, and the oracle's leads still come only from
elimination: the comparison adds no path by which a wrong g_M could
agree.

``reduce_basis`` and ``oracle_reduce`` work on exponent tuples, in one
normal form, ``_normal_form``.  At every step it takes the grlex-largest
term t left in its working set, by a rescan of the whole set, and
reduces it by the first lead, in basis order, that divides it, tested
field by field as lead <= t.  The basis multiple q*g, with q = t / lead,
is built afresh at each step, one tuple sum per term of g, and toggled
into the set; it cancels t, and every other term it brings is below t.
Nothing is memoized.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from operator import add, and_, le, lshift, rshift, sub

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
    "ORACLE_CAP",
]

# The most basis elements ``oracle_equals_family`` compares, checked before
# any work and sized by the oracle's measured cost.  The worst shape inside
# it is at k = 2: (2,790), 792 elements, took 2.2-2.3 s at 61 MiB (best of
# 3 in its own process, in two series, 2-core Xeon VM, Python 3.11), about
# two thirds of it in building rows, and the worst at k = 3 to 6, (3,37),
# (4,13), (5,8) and (6,6), at most 0.28 s.  792 is binom(12, 5), the whole
# family of G_{6,6}.
ORACLE_CAP = 792


class OracleCapExceeded(ValueError):
    """The instance has more basis elements than ``ORACLE_CAP``."""


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


class _Packing:
    """The oracle's grlex packing of monomials in k variables whose
    exponent sums are at most ``total`` (module docstring)."""

    def __init__(self, k: int, total: int):
        self.k = k
        self.width = width = max(total, 1).bit_length()
        self._top = (1 << width) - 1
        self._shifts = [width * i for i in range(k - 1, -1, -1)]

    def pack(self, t: Monomial) -> int:
        v = sum(t)
        for e in t:
            v = v << self.width | e
        return v

    def unpack(self, terms) -> zip:
        """The exponent tuples of the packed ints ``terms``, in their order:
        one zip over the fields, each read from every term at once by maps
        of ``rshift`` and ``and_``."""
        terms, top = list(terms), self._top
        return zip(*[map(and_, map(rshift, terms, repeat(s)), repeat(top)) for s in self._shifts])


def _term_sets(packing, elements: list) -> list[frozenset]:
    """Each element's exponent tuples as one frozenset, in order, from one
    ``unpack`` by ``packing`` of the packed terms of all the ``elements``."""
    monomials = packing.unpack(chain.from_iterable(elements))
    return [frozenset(islice(monomials, len(terms))) for terms in elements]


def _normal_form(terms, basis: list[tuple[Monomial, frozenset]]) -> frozenset:
    """The remainder of the sum of the exponent tuples ``terms`` modulo
    ``basis``, a list of (lead, terms) pairs (module docstring)."""
    work = set(terms)
    remainder = set()
    while work:
        t = max(work, key=grlex_key)
        for lead, g in basis:
            if all(map(le, lead, t)):
                q = tuple(map(sub, t, lead))
                work.symmetric_difference_update([tuple(map(add, q, u)) for u in g])
                break
        else:
            work.remove(t)
            remainder.add(t)
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


def _reduced_basis(generators: list[Poly]) -> tuple[_Packing, list[list[int]]]:
    """The oracle's packing and the reduced basis of the ideal spanned by
    weighted-homogeneous generators, each element the list of its packed
    terms, lead first, sorted by lead (module docstring)."""
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
    packing = _Packing(k, bound + k)  # the run stops by degree bound + k - 1
    gens = [list(map(packing.pack, g.terms)) for g in generators]
    units = [packing.pack((0,) * (j - 1) + (1,) + (0,) * (k - j)) for j in range(1, k + 1)]
    fields = [packing._top << s for s in packing._shifts]  # the bits of a_1, ..., a_k
    columns = [[0]]  # columns[e]: the packed monomials of degree e
    d = min(degrees)
    leads: list[dict[int, int]] = [{} for _ in range(d)]  # lead -> its tag
    basis = []
    full = 0  # consecutive degrees in which every monomial is a lead
    while d <= max(degrees) or full < k:
        while len(columns) <= d:
            columns.append(sorted(_times_units(columns, units)))
        # the fields of the w_j in Z, those whose degree d - j is full
        zmask = sum(
            field
            for j, field in enumerate(fields[:d], 1)
            if len(leads[d - j]) == len(columns[d - j])
        )
        cols = [c for c in columns[d] if not c & zmask] if zmask else columns[d]
        # one_hot[m]: the int whose one set bit is m's column
        one_hot = dict(zip(cols, map(lshift, repeat(1), range(len(cols)))))
        # pivots[b] is the row whose lead is column b - 1, the bit_length of
        # the row, or 0 if there is none yet; pivots[0] stays 0, so a row
        # that reduces to 0 ends the loop below
        pivots = [0] * (len(cols) + 1)
        found: dict[int, int] = {}
        for i, (e, f) in enumerate(zip(degrees, gens)):
            if zmask:
                f = [t for t in f if not t & zmask]  # pi(f_i)
            if e > d or not f or len(found) == len(cols):
                continue
            earlier = leads[d - e]
            # the F5 criterion: m*f_i adds nothing new when m is a lead of
            # f_1, ..., f_{i-1}; and pi(m*f_i) is 0 when m has a w_j in Z
            ms = [m for m in columns[d - e] if earlier.get(m, i) >= i and not m & zmask]
            # the row of m*f_i is the sum of one_hot[m + t] over the terms t
            # of f_i, built for every m at once, one term t at a time
            shifted = [map(one_hot.__getitem__, map(add, repeat(t), ms)) for t in f]
            for row in map(sum, zip(*shifted)):
                b = row.bit_length()
                while pivot := pivots[b]:
                    row ^= pivot
                    b = row.bit_length()
                if b:
                    pivots[b] = row
                    found[cols[b - 1]] = i
                    if len(found) == len(cols):
                        break  # every kept column is a pivot: no row adds one
        # a lead is minimal iff it is no w_j times a lead j degrees lower;
        # the dropped monomials are such multiples
        minimal = found.keys() - _times_units(leads, units)
        if zmask:
            # every lead of a projected degree, dropped or found, is tagged
            # len(gens), on which the F5 criterion skips no row
            dropped = [c for c in columns[d] if c & zmask]
            leads.append(dict.fromkeys(chain(dropped, found), len(gens)))
        else:
            leads.append(found)
        if minimal:
            mask = sum(map(one_hot.__getitem__, found))
            for lead in minimal:
                bit = one_hot[lead]
                row = pivots[bit.bit_length()] ^ bit
                hit = row & mask
                while hit:
                    row ^= pivots[hit.bit_length()]
                    hit = row & mask
                terms = [lead]
                while row:
                    b = row.bit_length() - 1
                    row ^= 1 << b
                    terms.append(cols[b])
                basis.append(terms)
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
        del pivots, one_hot
    basis.sort()  # by lead: the leads differ, and each list starts with its own
    return packing, basis


def buchberger(generators: list[Poly]) -> list[Poly]:
    """The reduced Groebner basis of the ideal spanned by weighted-homogeneous
    generators, sorted by grlex of the leading term, built one weighted
    degree at a time (module docstring)."""
    packing, basis = _reduced_basis(generators)
    return [Poly._make(packing.k, terms) for terms in _term_sets(packing, basis)]


def reduce_basis(gb: list[Poly]) -> list[Poly]:
    """The unique reduced basis: minimal leads, every element tail-reduced,
    sorted by grlex of the leading term.

    One pass over the minimal basis suffices: a tail term is grlex-smaller
    than its own lead, so that lead never divides it, and the reduced tails
    contain no term any lead divides.
    """
    if not gb:
        raise ValueError("empty basis")
    k = gb[0].k
    _check(gb, k, "basis element")
    pairs = sorted([(g.leading_term(), g.terms) for g in gb], key=lambda e: grlex_key(e[0]))
    basis: list[tuple[Monomial, frozenset]] = []
    for lead, terms in pairs:
        if not any(all(map(le, other, lead)) for other, _ in basis):
            basis.append((lead, terms))
    return [Poly._make(k, _normal_form(terms - {lead}, basis) | {lead}) for lead, terms in basis]


def oracle_reduce(f: Poly, basis: list[Poly]) -> Poly:
    """Full normal form of f against an arbitrary basis (generic search)."""
    _check(basis, f.k, "basis element")
    return Poly._make(f.k, _normal_form(f.terms, [(g.leading_term(), g.terms) for g in basis]))


def oracle_equals_family(ctx: GrassmannContext) -> bool:
    """Build the reduced basis of the dual-class generators and compare it,
    as a map from lead to term set, with the structured family, each of
    whose elements must have its own lead as its first and largest term
    (module docstring).  A family of more than ``ORACLE_CAP`` elements
    raises ``OracleCapExceeded`` first."""
    family = GroebnerFamily(ctx)
    if family.size > ORACLE_CAP:
        raise OracleCapExceeded(
            f"instance has {family.size} basis elements, above ORACLE_CAP = {ORACLE_CAP}"
        )
    packing, basis = _reduced_basis(wbar_sequence(ctx.n + ctx.k, ctx.k)[ctx.n + 1 :])
    elements = list(family.packed_items())
    if any(lead != terms[0] or lead != max(terms) for lead, terms in elements):
        return False  # an element kept under another lead, or led by a tail term
    theirs = [terms for _, terms in elements]
    return set(_term_sets(packing, basis)) == set(_term_sets(family.build_packing, theirs))
