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
x & c == 0.  This carry test is the package's one parity rule: the walk
below, Wu's formula and the tensor-square resultant in ``steenrod`` all
read it.  The kernel walks a_k, a_{k-1}, ..., a_2 depth first through
only the values passing that test, and a_1 is forced by the weighted
degree, so no term with an even coefficient is ever built.  Each level
also starts at a lower limit.  By the paper's leading-term law,
lt(g_M) = w_1^{n+1-S_M} w_2^{m_2} ... w_k^{m_k} is the grlex-largest term
of g_M, so no term has exponent sum above n+1; an a_t so small that
a_1, ..., a_{t-1} could not carry the weighted degree left within that
sum is skipped with every branch below it.  The two-term elements with
m_k = n-1 then take a handful of nodes at any n; without the limit the
walk visits about n^2 dead ends on them.  It works in a packing (below)
throughout: each level adds a_t times the packed w_t to a partial int,
and the last level, a_2, appends a packed term for each value whose
forced a_1 passes its carry test, with no further call, so no tuple is
built.  One recursive function runs every level, the last one included.

Whole families are built through the paper's three-term recurrence

    g_{M^{i,j}} = w_i g_{M^j} + w_{j+1} g_{M^{i-1}} + g_{M^{i-1,j+1}},

which needs no enumeration at all: only the k elements with S_M <= 1 come
from the walk.  The step is ``Packing._step``, on packed ints, and the
public ``g_recurrence_step`` runs it too, on its summands packed.  A
built family keys each g_M by its packed lead, and in a packing each
summand's lead is the target's plus a constant that depends only on
(i, j), ``Packing._offsets(i, j)``.  Let T = M^{i,j} for some
1 <= i <= j <= k-1 that leaves M nonnegative, with packed lead L, and
let f_p be the unit of field p, f_0 that of a_1, so that raising
position p of an index adds f_p - f_0 to its lead and raising position 0
adds nothing.  Then

    lead(g_{M^j})         = L + f_0 - f_i,
    lead(g_{M^{i-1}})     = L + f_0 - f_i - f_j + f_{i-1},
    lead(g_{M^{i-1,j+1}}) = L - f_i - f_j + f_{i-1} + f_{j+1}   (j < k-1),

and i = 1 needs no case of its own.  The build (``_materialise``), with
i and j T's first and last nonzero positions, never forms an index: it
makes the leads of each exponent sum from those of the sum below with
one add each, and reads every summand at an int offset.  The order
``generate`` prints comes from ``_print_order``, on leads too.
``packed_items`` hands out each element beside its lead, not M: the
printers cut M's text from the lead's fields, and only ``items``
unpacks M, from all the leads at once.  A single element asked for on
its own (``element``, ``generate --only-m``) is one walk, not the
elements below it, on a built family too, and the memo does not keep
it.  ``g_direct`` runs
the same walk in a ``Packing`` whose fields hold its weighted degree,
and with the weighted degree as its bound, which every term meets, so
the limit never binds: it stays valid for S_M > n+1, where the law does
not hold, and it is the unpruned enumeration the tests compare the
bounded walk with.  At M = 0 every
P(A, M) is a multinomial coefficient, so the same walk (``_direct``) lists
the dual class wbar_r = g_0 at n = r-1 for ``dual_classes``.  Closed forms
exist for indices with m_k close to n; they are exposed for
cross-validation against the direct formula.

The layout of a packed monomial is decided here, in ``Packing``, and
nowhere else outside the oracle, which keeps a packing of its own so
that it checks the family independently.  A monomial (a_1, ..., a_k)
packs to its exponent sum in the top field, then a_1, ..., a_k in
fields of W bits each, a_1 highest.  Integer order on packed monomials
is then grlex order, a monomial product is an integer sum, and
v >> (W*k) is the exponent sum of a packed v.  A ``Packing`` is made
from the largest value its fields must hold, and W is that value's bit
length: ``steenrod`` and ``_direct`` pass the degrees they reach.  A
family has two packings, for n >= k >= 2:

- the build's fields hold n+2.  By the leading-term law no term of g_M
  has exponent sum above n+1, and the pruned walk forms only partial
  terms whose fields are at most its bound n+1 (``_walk``), so every
  exponent of an element is <= n+1; a recurrence step's transient terms
  v + w_i have fields at most n+2;
- the family's own fields hold kn: a normal form meets only terms of
  weighted degree <= kn (below), and no exponent exceeds its term's
  weighted degree; the squares of the immersion check reach degree
  5n = kn (``steenrod``).  No smaller value will do: w1^kn, of weighted
  degree kn, is an input a normal form takes, and at kn = 2^W - 1 its
  a_1 fills its field.

What the memo and ``packed_terms`` hand out is in the build packing, and
what ``reduce_packed`` takes and returns is in the family's.  So the
build, ``packed_terms``, ``packed_items``, ``element``, ``items`` and
``polynomials`` work in fields of bit length (n+2).bit_length(), and
``reduce_packed``, its table ``packed``, ``packed_product`` and
``steenrod`` in fields of (kn).bit_length().  At (4,14), (5,9), (6,7)
and (5,10) a memo term is then 24 to 28 bits, one 30-bit CPython int
digit, where fields holding kn take two.  The two never meet: the memo
is written only by the build and read only by ``packed_items``, for the
printers, ``items`` and ``verify``.  A single element comes from one
walk in the build packing, and a reduction's g_M from the reduction's
own table or one walk, in the family's packing.  So a normal form or an
``element`` does not depend on whether its family was built.

Multiplying by w_j adds the packed w_j to every term, so a recurrence
step is two set comprehensions of one int add each and at most two
symmetric differences of int sets.  Each g_M is kept, under its packed lead, as
the basis is printed: a tuple of its packed ints in decreasing, so
grlex, order, the lead first.
``element``, ``items`` and ``polynomials`` unpack to Poly.

The exponent cap, MAX_EXPONENT = 2^31 - 1, has two kinds of check.  An
input is checked before work that might not end: ``parse``, the n of
``immersion_obstruction_check``, the degree of a dual class and the
lead of each g_M that ``GroebnerFamily.packed_terms`` walks.  Every
computed term is checked at ``Packing.fields``, the one way out of a
packing: ``unpack`` zips its fields into monomials, and ``generate
--format json`` prints them a field at a time.  So no ``Poly`` built from
a packing, and no printed term, holds an exponent past the cap.  Fields
of at most 31 bits cannot hold one, and then the check costs one test
per call.

``GroebnerFamily.reduce`` takes a polynomial to its normal form in the
family's own packing.  No standard monomial has weighted degree above k*n, the
degree of the top class w_k^n, and every g_M is homogeneous in the
weighted degree, so a term of degree above k*n has normal form 0 and is
dropped before packing.  One method, ``_pack_parts``, packs a ``Poly``:
it refuses one in another number of variables, drops its terms above
k*n and packs each other term straight into a list per weighted degree.
The packed terms left go to ``GroebnerFamily.reduce_packed``, which does
all that follows on ints and returns the normal form as a set of them;
``reduce`` unpacks it.  A caller holding packed terms of degree at most
k*n calls ``reduce_packed`` itself: ``cup`` and ``normal_bundle_sw``
take them from ``packed_product``, which packs both factors by
``_pack_parts`` and multiplies one pair of degrees at a time, keeping
only the sums up to k*n.  Each term met while reducing a kept term t has the weighted
degree of t, at most k*n, so every exponent fits its field, and since
lt(g_M) divides t, subtracting the packed leading term never borrows.

The divisor is read off the packed term v itself: the excess is the sum
field minus n+1, and the packed lead is v with that excess subtracted from
the sum field and, field by field from a_1, from the exponents.  Every
term of a level has the same excess e, so the level works out e times
the packed w_1 and e shifted to the a_1 field once; a v whose a_1 field
is at least e (one masked compare) has the lead v - e*w_1, one
subtraction.  Only a v with a_1 < e walks the fields, and in the
products of ``cup`` that is under a tenth of the steps.  The lead
keys the family's one table ``packed``, whose entry is the tail of g_M as
offsets pack(u) - lead, u over the terms of g_M but its lead.  Offsets
keep the table small: CPython allocates the sum of two positive
multi-digit ints one 30-bit digit longer than it needs, which pymalloc
rounds up to a 48-byte block, while a negative offset plus a positive
term subtracts magnitudes into a tight 32-byte block.  A step is
then one table hit and one add per tail term, v + (pack(u) - lead) =
pack(u * t / lt(g_M)), and v itself leaves the working set.  Only a miss
makes an entry, in ``_tail``, which cuts M = (a_2, ..., a_k) out of the
lead, whether or not the family was built.  When, for some (i, j) that
M allows, the table already holds the three summands of the step that
gives g_M, the tail is that step taken on the table: a summand's offsets
from its own lead, its tail and 0, are offsets from the miss's lead once
shifted by one constant of (i, j), so the tail is the symmetric
difference of three shifted sets, 0 left out.  Otherwise g_M comes from
one walk at the family's width, about half of the misses of a
normal-bundle reduction.  Either way the entry is the same set, so the
table holds exactly the keys and tails a walk per miss gives, and it is
the only place the reduction keeps them: it holds a tail as a set, in
no fixed order, and no step reads its order.

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
``ValueError`` instead of reducing forever.  One ``max`` over the levels
left after a sweep gives both that check and the next level.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property
from itertools import repeat
from operator import and_, rshift

from .f2poly import MAX_EXPONENT, Monomial, Poly, format_monomial, weighted_degree
from .record import Record

__all__ = [
    "GrassmannContext",
    "GroebnerFamily",
    "g_direct",
    "g_closed_form",
    "g_recurrence_step",
    "build_family",
    "leading_term_of",
]

MultiIndex = tuple[int, ...]


class GrassmannContext(Record):
    """Parameters (k, n) of the Grassmannian, integers with n >= k >= 2."""

    __slots__ = ("k", "n")

    def __init__(self, k: int, n: int):
        if not (isinstance(k, int) and isinstance(n, int)):
            raise TypeError(f"k and n must be integers, got k={k!r}, n={n!r}")
        if not n >= k >= 2:
            raise ValueError(f"need n >= k >= 2, got k={k}, n={n}")
        super().__init__(k, n)


class Packing:
    """The package's one layout of a monomial (a_1, ..., a_k) in one int:
    its exponent sum in the top field, then a_1, ..., a_k in fields of
    ``width`` bits each, a_1 highest.  The fields hold ``top``, the
    largest exponent the caller will pack: ``width`` is its bit length.
    While every exponent fits, int order is grlex order and a monomial
    product is an int sum.  ``times[j]`` is the packed w_j, and
    ``times[0] = 0`` packs 1.  ``over`` holds the bits of every field
    above MAX_EXPONENT, none unless ``width`` passes 31: ``fields``, the
    only way out of a packing, which ``unpack`` zips into monomials,
    refuses a term that sets one.
    ``up[p]``, the packed w_{p+1} / w_1, is what raising position p of M
    adds to the lead (n+1-S_M, M) of g_M: f_p - f_0 in the module's
    terms, and ``up[0] = 0``.
    """

    def __init__(self, k: int, top: int):
        self.k = k
        self.width = width = top.bit_length()
        self.mask = (1 << width) - 1
        # shifts of the fields a_1, ..., a_k; the exponent sum sits above them
        self.shifts = range(width * (k - 1), -1, -width)
        self.sum_shift = width * k
        self.times = times = [0] + [(1 << self.sum_shift) | (1 << s) for s in self.shifts]
        self.up = [t - times[1] for t in times[1:]]
        self.over = sum((self.mask & ~MAX_EXPONENT) << s for s in self.shifts)

    def pack(self, t: Monomial) -> int:
        width = self.width
        v = sum(t)
        for a in t:
            v = (v << width) | a
        return v

    def fields(self, packed: Iterable[int]) -> list[Iterator[int]]:
        """The fields a_1, ..., a_k of the packed ints, one iterator per
        field over all of them in their order, each cut out by two maps of
        ``operator`` functions, ``rshift`` by its shift and then ``and_``
        with the mask, so no Python frame or bound slot wrapper runs per
        int.  A term with an exponent past MAX_EXPONENT raises
        ``OverflowError`` here, before any field is read."""
        packed = list(packed)
        mask, shifts, over = self.mask, self.shifts, self.over
        if over:
            for v in packed:
                if v & over:
                    t = tuple((v >> s) & mask for s in shifts)
                    raise OverflowError(f"exponent overflow in the term {format_monomial(t)}")
        return [map(and_, map(rshift, packed, repeat(s)), repeat(mask)) for s in shifts]

    def unpack(self, packed: Iterable[int]) -> Iterator[Monomial]:
        """The monomials of the packed ints, in their order: ``fields``
        zipped, with its exponent check."""
        return zip(*self.fields(packed))

    def to_poly(self, terms: Iterable[int]) -> Poly:
        return Poly._make(self.k, frozenset(self.unpack(terms)))

    def _step(self, i: int, j: int, a: Iterable[int], b: Iterable[int], c=()) -> tuple[int, ...]:
        """The packed terms of g_{M^{i,j}}, from the packed terms a, b and c
        of the summands g_{M^j}, g_{M^{i-1}} and g_{M^{i-1,j+1}}, c empty
        when j = k-1, where that summand is absent."""
        wi, wj = self.times[i], self.times[j + 1]
        terms = {v + wi for v in a}
        terms ^= {v + wj for v in b}
        terms.symmetric_difference_update(c)
        return tuple(sorted(terms, reverse=True))

    def _offsets(self, i: int, j: int) -> tuple[int, int, int | None]:
        """lead(g_S) - lead(g_T) in this packing, for T = M^{i,j} and each
        summand S of its step in turn, M^j, M^{i-1} and M^{i-1,j+1}: the
        last None when j = k-1, where that summand is absent."""
        up = self.up
        second = up[i - 1] - up[i] - up[j]
        return -up[i], second, (second + up[j + 1] if j < self.k - 1 else None)


def _check_index(ctx: GrassmannContext, m: MultiIndex) -> None:
    if len(m) != ctx.k - 1:
        raise ValueError(f"multi-index must have {ctx.k - 1} entries, got {m}")
    if not all(isinstance(x, int) for x in m):
        raise TypeError(f"multi-index entries must be integers: {m}")
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
    return raised(raised(m, i), j)


def leading_term_of(ctx: GrassmannContext, m: MultiIndex) -> Monomial:
    """The grlex leading monomial (n+1-S_M, m_2, ..., m_k) of g_M."""
    _check_index(ctx, m)
    s = sum(m)
    if s > ctx.n + 1:
        raise ValueError(f"S_M = {s} exceeds n+1 = {ctx.n + 1}")
    return (ctx.n + 1 - s,) + tuple(m)


def _least_admissible(c: int, lo: int) -> int:
    """The least x >= lo with x & c == 0, for lo >= 0; 0 when there is
    none (c < 0 and lo > -c - 1)."""
    if lo & c:
        # every value from lo up to the next multiple of 2^(h+1), h the
        # highest bit of lo that c forbids, still has bit h: jump past
        # them all to the successor of the last one
        lo |= (1 << (lo & c).bit_length()) - 1
        lo = ((lo | c) + 1) & ~c
    return lo


def _walk(m: MultiIndex, degree: int, times: list[int], bound: int) -> list[int]:
    """The terms of g_M of weighted degree ``degree`` and exponent sum at
    most ``bound``, packed: ``times[t]`` is the packed w_t, and every
    field must hold ``bound``, not ``degree``: a level's x >= lo and
    x <= rem // t together give asuf + x <= bound, so no partial term
    has a field above it.

    The bound is a per-level lower limit on a_t.  With rem the weighted
    degree left for a_1, ..., a_t and asuf = a_{t+1} + ... + a_k, once
    a_t = x the weights left are at most t-1, so a_1, ..., a_{t-1} sum to
    at least ceil((rem - t*x) / (t-1)), and the exponent sum can stay
    within ``bound`` iff x >= rem - (t-1)*(bound - asuf).  Each level scans its
    admissible values from that limit up, and no branch that can only
    end in terms above the bound is entered.  ``GroebnerFamily._g``
    passes bound = n+1: by the paper's leading-term law lt(g_M), of
    exponent sum n+1, is the grlex-largest term of g_M, so no term is
    cut.
    ``_direct`` passes bound = degree, which every term meets, since
    sum a_t <= sum t*a_t: ``g_direct`` keeps the unpruned enumeration,
    valid for S_M > n+1, and the tests compare the pruned walk with it.
    """
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
        # values lo <= x <= rem // t with x & c == 0, in increasing order.
        c = asuf - msuf[t]
        top = rem // t
        lo = rem - (t - 1) * (bound - asuf)
        x = lo if lo > 0 else 0
        if x & c:  # c forbids a bit of lo itself
            x = _least_admissible(c, x)
        if not lo <= x <= top:
            return
        if t == 2:
            # the last level: a_2 = x forces a_1 = rem - 2x, whose c_1 is
            # c1 + x, so each x costs one carry test and no call
            c1 = asuf - msuf[1]
            while True:
                if (rem - 2 * x) & (c1 + x) == 0:
                    terms.append(acc + x * w2 + (rem - 2 * x) * w1)
                # the least admissible value above x; for c < 0 it wraps
                # to 0 after the largest one, -c - 1
                x = ((x | c) + 1) & ~c
                if not 0 < x <= top:
                    return
        wt = times[t]
        while True:
            walk(t - 1, rem - t * x, asuf + x, acc + x * wt)
            x = ((x | c) + 1) & ~c
            if not 0 < x <= top:
                return

    # a_t = 0 for t > degree, so the walk starts below those levels: a
    # dual class of small degree in many variables recurses only as deep
    # as its degree
    walk(max(2, min(k, degree)), degree, 0, 0)
    return terms


def _direct(k: int, m: MultiIndex, degree: int) -> Poly:
    """The terms of weighted degree ``degree`` with odd P(A, M), by the
    walk in a packing whose fields hold ``degree``, and so every exponent
    of such a term."""
    packing = Packing(k, degree)
    return packing.to_poly(_walk(m, degree, packing.times, degree))


def g_direct(ctx: GrassmannContext, m: MultiIndex) -> Poly:
    """g_M by the defining sum; valid for every nonnegative multi-index."""
    _check_index(ctx, m)
    # ctx's own fields may not hold the degree once S_M > n+1
    return _direct(ctx.k, m, ctx.n + 1 + weighted_degree(m))


def g_closed_form(ctx: GrassmannContext, m: MultiIndex) -> Poly | None:
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
    right-hand-side polynomials, one call per index.  They are packed in
    fields that hold their largest exponent plus one and summed by
    ``Packing._step``, the step that builds every family; a term past
    MAX_EXPONENT raises ``OverflowError`` as the sum is unpacked.
    """
    _check_index(ctx, m)
    k = ctx.k
    if not 1 <= i <= j <= k - 1:
        raise ValueError(f"need 1 <= i <= j <= {k - 1}, got i={i}, j={j}")
    needed = [raised(m, j), raised(m, i - 1)]
    if j < k - 1:
        needed.append(raised2(m, i - 1, j + 1))
    # a sum with zero runs Poly's checks: each summand is a Poly in k variables
    summands = [(Poly.zero(k) + lookup(index)).terms for index in needed]
    top = max((max(t) for ts in summands for t in ts), default=0)
    packing = Packing(k, top + 1)
    return packing.to_poly(packing._step(i, j, *[map(packing.pack, ts) for ts in summands]))


def _print_order(packing: Packing, bound: int) -> list[int]:
    """The packed monomials (bound - S_M, M) over the (k-1)-tuples M with
    S_M <= bound, in increasing lex-from-the-right order of M: for
    bound = n+1 the leads of a family, in the order ``generate`` prints.

    Built one position of M at a time from the last, the most
    significant: each lead, already in order, is raised at the next
    position by every count its a_1 field, bound minus the sum so far,
    leaves room for, in increasing order, which keeps the order."""
    up, mask, a1_shift = packing.up, packing.mask, packing.shifts[0]
    leads = [bound * packing.times[1]]
    for p in range(packing.k - 1, 0, -1):
        leads = [v + c * up[p] for v in leads for c in range(((v >> a1_shift) & mask) + 1)]
    return leads


class GroebnerFamily(Packing):
    """Lazy view of the basis {g_M : S_M <= n+1}.  The family is the
    packing whose fields hold kn, the largest weighted degree a normal
    form meets, and ``build_packing`` the one whose fields hold n+2, the
    largest value a build meets; the module docstring shows that every
    value each packs fits.  What the memo and ``packed_terms`` hand out is
    in the build packing, and what ``reduce_packed`` takes and returns is
    in the family's.

    ``items``, ``polynomials`` and ``build_family`` build the whole family
    through the recurrence into the memo, ``{packed lead: packed terms
    of g_M}``, each a tuple in decreasing order, lead first; only
    ``packed_items`` reads it, and hands out each tuple beside its key.  ``packed_terms`` has ``_g`` walk one g_M
    in the build packing, which it sorts and keeps nothing of, and
    ``element`` unpacks a fresh Poly from it.  Reductions at large n only
    ever build the indices they touch, and each once: ``reduce`` fills
    ``packed``, the family's one table ``{packed lead: tail}`` (the tail
    as the offsets pack(u) - lead over the other terms u of g_M, in no
    fixed order), each entry by ``_tail`` at the family's width, from a
    recurrence step on entries already there or else from ``_g``, built
    family or not.  Both stores are dicts on the instance: they live as
    long as the family, and two families never share one.
    """

    def __init__(self, context: GrassmannContext):
        super().__init__(context.k, context.k * context.n)
        self.context = context
        self._memo: dict[int, tuple[int, ...]] = {}
        self.packed: dict[int, tuple[int, ...]] = {}

    @cached_property
    def build_packing(self) -> Packing:
        """The packing of the memo and of ``packed_terms``, whose fields
        hold n+2; made on first use, so a family that only reduces never
        makes it."""
        return Packing(self.k, self.context.n + 2)

    @property
    def size(self) -> int:
        """The number of elements, binom(n+k, k-1): the one count of the
        family, which ``len`` returns while it fits an index."""
        k, n = self.context.k, self.context.n
        return math.comb(n + k, k - 1)

    def __len__(self) -> int:
        return self.size

    def element(self, m: MultiIndex) -> Poly:
        return self.build_packing.to_poly(self.packed_terms(m))

    def packed_terms(self, m: MultiIndex) -> tuple[int, ...]:
        """The packed terms of g_M in the build packing, in decreasing
        order, lead first: one walk's, sorted and not kept, whether or
        not the family was built.  ``element``, ``generate --only-m`` and
        the family's build read it; a reduction calls ``_g`` itself."""
        lead = leading_term_of(self.context, tuple(m))  # raises on an M out of range
        # the lead is checked before the walk, which past the cap might not
        # end; every other term meets the cap as it is unpacked
        if max(lead) > MAX_EXPONENT:
            raise OverflowError(f"exponent overflow in the term {format_monomial(lead)}")
        return tuple(sorted(self._g(lead[1:], self.build_packing), reverse=True))

    def _g(self, m: MultiIndex, packing: Packing) -> list[int]:
        """The terms of g_M, for M with S_M <= n+1, packed in ``packing``
        by one walk, in no fixed order; nothing is kept.  Every g_M but
        the memo's and the table's steps comes from here:
        ``packed_terms`` walks in the build packing, and ``_tail`` in the
        family's for a table miss whose summands are not all in the
        table."""
        # g_M is homogeneous of its lead's degree, n+1 + weighted_degree(M);
        # by the leading-term law no term has exponent sum above the lead's,
        # n+1, the walk's bound, which both of the family's packings hold
        n = self.context.n
        return _walk(m, n + 1 + weighted_degree(m), packing.times, n + 1)

    def reduce(self, f: Poly) -> Poly:
        """The normal form of f: f minus an element of the ideal, with no
        term of exponent sum > n.  Fills ``packed`` with the tail of each
        g_M it uses."""
        return self.to_poly(self.reduce_packed(set().union(*self._pack_parts(f).values())))

    def _pack_parts(self, f: Poly) -> dict[int, list[int]]:
        """The terms of f of weighted degree d <= k*n, each packed once,
        in a list keyed by d, with no ``Poly`` per degree and no sort; no
        standard monomial lies above k*n, so the terms there reduce to 0
        and are left out.  A term of degree d has no exponent above d, so
        every kept term fits its fields."""
        if f.k != self.k:
            raise ValueError("variable count does not match the context")
        top, pack = self.k * self.context.n, self.pack
        parts: dict[int, list[int]] = {}
        for t in f.terms:
            if (d := weighted_degree(t)) <= top:
                parts.setdefault(d, []).append(pack(t))
        return parts

    def reduce_packed(self, terms: Iterable[int]) -> set[int]:
        """The normal form of a sum of distinct packed terms, each of
        weighted degree at most k*n, as a set of packed ints, all in the
        family's packing.  Fills ``packed`` with the tail of each g_M it
        uses: a miss takes it from ``_tail``, never from the memo, by a
        recurrence step on the table's own entries or else by one walk.

        Weighted degree <= k*n is a hard limit: the fields hold k*n and
        no more, and ``pack`` checks no field, so a term above it may
        spill into its neighbour and reduce to a wrong answer with no
        error.  ``_pack_parts`` and ``packed_product`` keep to it."""
        n, table = self.context.n, self.packed
        mask, shifts, sum_shift = self.mask, self.shifts, self.sum_shift
        w1, a1_shift = self.times[1], shifts[0]
        a1_field = mask << a1_shift
        work: defaultdict[int, set[int]] = defaultdict(set)
        for v in terms:
            work[v >> sum_shift].add(v)
        level_sum = max(work, default=0)
        while level_sum > n:
            # the divisor's lead: v with its exponent sum cut to n+1, the
            # excess taken from a_1, a_2, ... in turn; when a_1 covers it,
            # that is v minus excess times the packed w_1
            excess = level_sum - n - 1
            cut, floor = excess * w1, excess << a1_shift
            for v in work.pop(level_sum):
                if v & a1_field >= floor:
                    lead = v - cut
                else:
                    lead, e = v - (excess << sum_shift), excess
                    for s in shifts:
                        a = (v >> s) & mask
                        if a >= e:
                            lead -= e << s
                            break
                        lead -= a << s
                        e -= a
                tail = table.get(lead)
                if tail is None:
                    tail = table[lead] = self._tail(lead)
                for u in tail:
                    u += v
                    level = work[u >> sum_shift]
                    if u in level:
                        level.remove(u)
                    else:
                        level.add(u)
            below = max(work, default=0)
            if below >= level_sum:
                raise ValueError("a basis element has a tail term of exponent sum > n")
            level_sum = below
        return set().union(*work.values())

    def _tail(self, lead: int) -> tuple[int, ...]:
        """The tail of g_M for the packed lead ``lead`` of an index M that
        ``packed`` lacks: the offsets pack(u) - lead over the terms u of
        g_M but the lead, in no fixed order.  It adds nothing to the table.

        M, cut out of the lead, is M'^{i,j} with M' nonnegative for each
        1 <= i <= j <= k-1 with m_i, m_j >= 1, m_i >= 2 when i = j.  That
        is read on M itself: for any other (i, j) a summand's lead is a
        packed int that borrowed across fields, and it may key another
        g_M.  For the first such (i, j) whose summands, at ``lead`` plus
        ``_offsets(i, j)``, are all in the table, the step of ``_step``
        runs on offsets.  A summand's terms, as offsets from its own lead,
        are 0 and its tail; moved by that lead's offset and by its packed
        multiplier, w_i, w_{j+1} or 1, they are its terms of g_M as offsets
        from ``lead``.  The symmetric difference of the three sets holds
        0, the lead's own offset, which is dropped.  Otherwise ``_g``
        walks g_M at the family's width."""
        table, times, mask = self.packed, self.times, self.mask
        m = [(lead >> s) & mask for s in self.shifts[1:]]  # (a_2, ..., a_k)
        for i in range(1, self.k):
            if not m[i - 1]:
                continue
            for j in range(i, self.k):
                if m[j - 1] < 1 + (i == j):
                    continue
                a, b, c = self._offsets(i, j)
                ta = table.get(lead + a)
                if ta is None:
                    break  # a, the offset of g_{T - e_i}, is the same for every j
                tb = table.get(lead + b)
                tc = () if c is None else table.get(lead + c)
                if tb is None or tc is None:
                    continue
                a += times[i]
                b += times[j + 1]
                # each lead toggled alone: at i = j = 1, a == b and they cancel
                terms = {u + a for u in ta}
                terms.add(a)
                terms ^= {u + b for u in tb}
                terms ^= {b}
                if c is not None:
                    terms ^= {u + c for u in tc}
                    terms ^= {c}
                terms.discard(0)
                return tuple(terms)
        return tuple([p - lead for p in self._g(tuple(m), self) if p != lead])

    def packed_product(self, f: Poly, g: Poly) -> dict[int, set[int]]:
        """The parts of f*g of weighted degree d <= k*n, keyed by d, each a
        set of packed ints; no standard monomial lies above k*n, so the
        parts there reduce to 0 and are left out.

        Each factor is packed by ``_pack_parts``, which checks its
        variable count.  Only the pairs of degrees summing to at most k*n
        are multiplied, one term of one factor added to every term of the
        other.  A product of degree d has no exponent above d, so no field
        of a kept product overflows.
        """
        top = self.k * self.context.n
        gs = self._pack_parts(g)
        parts: dict[int, set[int]] = {}
        for d1, p1 in self._pack_parts(f).items():
            for d2, p2 in gs.items():
                if d1 + d2 <= top:
                    acc = parts.setdefault(d1 + d2, set())
                    for b in p2:
                        acc.symmetric_difference_update(map(b.__add__, p1))
        return parts

    def _materialise(self) -> dict[int, tuple[int, ...]]:
        """Build every g_M of the family into the memo and return it.

        The k elements with S_T <= 1 come from the walk.  Each index T of
        exponent sum s >= 2 is T' + e_p for one T' of sum s-1 and p up to
        the first nonzero position of T', so a level, the leads of the
        indices of one sum kept by their first and last nonzero positions
        (i, j), is made from the level below with one add per index, and
        g_T is the step on the summands at its lead plus ``_offsets(i, j)``.
        g_{M^j} and g_{M^{i-1}} lie on lower levels, and g_{M^{i-1,j+1}} on
        the level below when i = 1, else on T's level with first nonzero
        position i-1: a level built in increasing i has every summand
        before T.  The memo, in the build packing, is filled only once the
        build is through.
        """
        build = self.build_packing
        k, up, step = self.k, build.up, build._step
        # M = 0 and M = e_p by the walk; the level holds e_p at (p, p), and
        # M = 0 at (0, 0), from which no position is raised
        walked = [self.packed_terms([int(q == p) for q in range(1, k)]) for p in range(k)]
        memo = {g[0]: g for g in walked}
        level = defaultdict(list, {(p, p): [g[0]] for p, g in enumerate(walked)})
        for _ in range(self.context.n):
            below, level = level, defaultdict(list)
            for (i, j), leads in below.items():
                for p in range(1, i + 1):
                    level[p, j] += map(up[p].__add__, leads)
            for i, j in sorted(level):
                a, b, c = build._offsets(i, j)
                for v in level[i, j]:  # the lead of g_T
                    memo[v] = step(i, j, memo[v + a], memo[v + b], memo[v + c] if c else ())
        self._memo = memo
        return memo

    def packed_items(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(packed lead of g_M, packed terms of g_M) over the whole family,
        built first, in the order ``generate`` prints, all in the build
        packing.  The lead is the memo key, made from M by
        ``_print_order`` and not read off the terms, so a right memo has it
        as each element's first term; its fields are (n+1-S_M, M)."""
        memo = self._memo or self._materialise()
        leads = _print_order(self.build_packing, self.context.n + 1)
        return zip(leads, map(memo.__getitem__, leads))

    def items(self) -> Iterator[tuple[MultiIndex, Poly]]:
        """(M, g_M) over the whole family, in the order ``generate``
        prints: the one place M is unpacked, from all the leads at once,
        as the build packing's fields a_2, ..., a_k of the leads, which
        the printers cut M's text from too."""
        build = self.build_packing
        leads, elements = zip(*self.packed_items())
        return zip(zip(*build.fields(leads)[1:]), map(build.to_poly, elements))

    def polynomials(self) -> list[Poly]:
        return [g for _, g in self.items()]


def build_family(ctx: GrassmannContext) -> GroebnerFamily:
    """Materialize the whole family for the given context."""
    family = GroebnerFamily(ctx)
    family._materialise()
    return family
