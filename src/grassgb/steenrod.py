"""Steenrod squares on Stiefel-Whitney classes and the immersion checks.

Sq^i comes from one Cartan kernel on packed monomials (``_cartan``): a
monomial in the w_j that is a square is handled as one (Sq^{2i}(x^2) =
(Sq^i x)^2, each packed term doubled), and otherwise one generator is
split off, its squares taken from Wu's formula (``_wu``) and added to
every term of the rest's with one C-level toggle.  The kernel runs in
a ``groebner_family.Packing``, the package's one layout of a monomial:
k exponent fields, a_1 highest, the exponent sum above them, so a
monomial product is an integer sum and halving a square is one shift;
this module builds no field of its own and names no width, only the
largest value a packing's fields must hold.  Every class the kernel
meets has weighted degree at most deg(t) + i, and no exponent exceeds
its weighted degree, so fields that hold that degree never overflow.
``immersion_obstruction_check`` runs the kernel in a fresh family of
G_{5,n}, itself a ``Packing``, and hands its terms straight to
``GroebnerFamily.reduce_packed``; ``sq`` is the kernel's ``Poly`` edge,
in a ``Packing`` whose fields hold f's largest weighted degree plus i,
so it serves every k, k = 1 included.  A result
term of ``sq`` with an exponent past MAX_EXPONENT raises
``OverflowError`` in ``Packing.unpack``, as a ``Poly`` product does.
``immersion_obstruction_check`` checks its input: it raises it for n
past MAX_EXPONENT before it squares anything.

The tensor-square total class is one resultant over F_2[w_1, ..., w_k],
computed as a permanent, so no formal roots are introduced.  The
permanent runs on sets of packed ints in a ``Packing`` whose fields
hold k(k-1), unpacked once at the end: every entry (r, c) of its matrix
has weighted degree at most k-1+r-c, so no partial product passes
degree k(k-1) and no exponent outgrows those fields.

Both read the parity of a binomial by the carry test of the g_M walk in
``groebner_family``, the package's one parity rule: binom(x + c, x) is
odd iff x & c == 0, for every integer c in two's complement.  Wu's
coefficient binom(j-i+t-1, t) is the case x = t, c = j-i-1, read in
``_wu`` by the kernel alone: ``sq_on_generator`` is ``sq`` of one
generator.  The resultant's binom(p, q) is x = q, c = p-q.

The normal classes multiply w(gamma (x) gamma) by w(gamma)^e with
``GroebnerFamily.packed_product``, on packed ints in the packing of a
fresh family of G_{5,n}, one pair of weighted degrees at a time up to
the top degree k*n, and reduce each degree's packed terms with
``GroebnerFamily.reduce_packed``.  ``cohomology.cup`` runs the same
product.

Nothing is cached between calls: every square and every tensor square is
computed afresh from its arguments, and ``normal_bundle_sw`` and
``immersion_obstruction_check`` each take n alone and reduce in a fresh
family from ``_g5n_family``, whose table lives for that call; a ring
operation on a family the caller keeps is ``cohomology``'s.  The Cartan
kernel memoizes Sq^i of each monomial it meets, keyed by (i, packed
monomial), in one dict per ``sq`` or ``immersion_obstruction_check``
call, which the two squares of the check share.
"""

from __future__ import annotations

from collections.abc import Callable, Collection

from .cohomology import CohomologyClass
from .f2poly import MAX_EXPONENT, Poly, weighted_degree
from .groebner_family import GrassmannContext, GroebnerFamily, Packing
from .record import Record

__all__ = [
    "sq_on_generator",
    "sq",
    "tensor_square_sw",
    "normal_bundle_sw",
    "immersion_obstruction_check",
    "ObstructionReport",
]


class ObstructionReport(Record):
    """Outcome of the two k-invariant computations at G_{5,n}: the two
    classes, and ``lift_possible``, read off them, so that no report
    contradicts its own classes."""

    __slots__ = ("n", "sq1_value", "k1_obstruction_value")

    def __init__(self, n: int, sq1_value: CohomologyClass, k1_obstruction_value: CohomologyClass):
        super().__init__(n, sq1_value, k1_obstruction_value)

    @property
    def lift_possible(self) -> bool:
        """True iff both classes are nonzero."""
        return bool(self.sq1_value) and bool(self.k1_obstruction_value)


def _wu(i: int, j: int, k: int) -> list[tuple[int, int]]:
    """The pairs (i-t, j+t) of the terms w_{i-t} w_{j+t} of Sq^i(w_j),
    0 <= i <= j <= k, whose Wu coefficient binom(j-i+t-1, t) is odd.

    binom(t + c, t), c = j-i-1, is odd iff t & c == 0; at c = -1 (i = j)
    that keeps only t = 0.  As i <= j, w_{j+t} is each term's last
    generator, so no two terms coincide."""
    return [(i - t, j + t) for t in range(min(i, k - j) + 1) if t & (j - i - 1) == 0]


def sq_on_generator(i: int, j: int, k: int) -> Poly:
    """Wu's formula: Sq^i(w_j) = sum_t binom(j-i+t-1, t) w_{i-t} w_{j+t},
    with w_0 = 1 and w_m = 0 for m > k.  It is ``sq`` of the generator
    w_j, whose Cartan kernel reads the formula from ``_wu``."""
    if not 1 <= j <= k:
        raise ValueError(f"generator index {j} out of 1..{k}")
    return sq(i, Poly.variable(k, j))


def _cartan(packing: Packing) -> Callable[[int, int, int], Collection[int]]:
    """The Cartan kernel in ``packing``.

    The kernel ``square(i, v, d)`` returns Sq^i of the packed monomial v of
    weighted degree d, as distinct packed ints, which the caller must not
    mutate.  A square v, every exponent field even, is the packed u^2 with
    u = v >> 1, and Sq^i(u^2) is (Sq^{i/2} u)^2, each term doubled, or 0
    for odd i.  Otherwise w_j, a_j the first odd exponent, is split off,
    and each term of Sq^a(w_j), packed from ``_wu``, is added to every
    term of Sq^{i-a}(v / w_j) with one C-level toggle.  Each ``square``
    memoizes Sq^i of each monomial it meets, keyed by (i, v), in a dict
    that lives as long as that ``square`` does, since the branches share
    most of their subterms.  Every class met has weighted degree at most
    d + i and no exponent exceeds its weighted degree, so the fields must
    hold d + i.
    """
    k, width, times = packing.k, packing.width, packing.times
    # bit 0 of every exponent field, the exponent sum above them left out
    odd = sum(1 << s for s in packing.shifts)
    memo: dict[tuple[int, int], Collection[int]] = {}

    def square(i: int, v: int, d: int) -> Collection[int]:
        if i == 0:
            return (v,)
        if i > d:
            return ()
        found = memo.get((i, v))
        if found is not None:
            return found
        low = v & odd
        if not low:
            found = () if i & 1 else [2 * u for u in square(i >> 1, v >> 1, d >> 1)]
        else:
            # bit 0 of the field of a_j is the highest bit of low
            j = k - (low.bit_length() - 1) // width
            rest, d = v - times[j], d - j
            found = set()
            toggle = found.symmetric_difference_update
            for a in range(min(i, j) + 1):
                part = square(i - a, rest, d)
                if part:
                    for s, t in _wu(a, j, k):
                        toggle(map((times[s] + times[t]).__add__, part))
        memo[i, v] = found
        return found

    return square


def sq(i: int, f: Poly) -> Poly:
    """Sq^i of a polynomial, term by term (before cohomological reduction).

    f is packed in a ``Packing`` whose fields hold top, its largest
    weighted degree plus i, squared by one ``_cartan`` kernel, and
    unpacked once, which raises ``OverflowError`` for a term with an
    exponent past MAX_EXPONENT."""
    if i < 0:
        raise ValueError("negative square")
    if i == 0 or not f:
        return f
    degrees = {t: weighted_degree(t) for t in f.terms}
    top = max(degrees.values()) + i
    packing = Packing(f.k, top)
    square = _cartan(packing)
    acc: set[int] = set()
    for t, d in degrees.items():
        acc.symmetric_difference_update(square(i, packing.pack(t), d))
    return packing.to_poly(acc)


def tensor_square_sw(k: int) -> Poly:
    """Total Stiefel-Whitney class of gamma_k (x) gamma_k, whose top degree
    is k(k-1).

    By the splitting principle it is the product of 1 + x_i + x_j over all
    ordered root pairs.  Over F_2, y + x = y - x, so with F(y) = prod_j
    (y + x_j) = sum_m w_m y^{k-m} that product is prod_i F(x_i + 1) =
    Res_y(F(y), F(y+1)): the determinant, over F_2 a permanent, of
    multiplication by F(y+1) on F_2[w][y]/(F) in the basis 1, y, ...,
    y^{k-1}.

    The matrix and the permanent are sets of packed ints, in a
    ``Packing`` whose fields hold k(k-1): w_j is its ``times[j]``, 1 is
    0, a sum is a symmetric difference, and a product adds each term of
    one factor to every term of the other, the sums for one term all
    distinct.  No field overflows: by induction on r, entry (r, c) has
    weighted degree at most k-1+r-c, so a product over rows 0..r-1 in
    distinct columns has degree at most r(k-1), and no exponent met
    exceeds k(k-1).
    """
    if not 2 <= k:
        raise ValueError("need k >= 2")
    packing = Packing(k, k * (k - 1))
    w = packing.times
    # F(y+1) - F(y): the y^q coefficient sums w_{k-p} over p > q with
    # binom(p, q) odd, that is q & (p - q) == 0; each further row is y
    # times the last, reduced by y^k = sum_{q<k} w_{k-q} y^q
    row = [{w[k - p] for p in range(q + 1, k + 1) if q & (p - q) == 0} for q in range(k)]
    rows = [row]
    for _ in range(k - 1):
        row = [set(map(w[k].__add__, row[-1]))] + [
            row[q - 1].symmetric_difference(map(w[k - q].__add__, row[-1])) for q in range(1, k)
        ]
        rows.append(row)
    # the permanent, row by row: partial products keyed by the used columns
    partial = {0: {0}}
    for row in rows:
        merged: dict[int, set[int]] = {}
        for used, prod in partial.items():
            for c, entry in enumerate(row):
                if entry and not used >> c & 1:
                    acc = merged.setdefault(used | 1 << c, set())
                    for b in entry:
                        acc.symmetric_difference_update(map(b.__add__, prod))
        partial = merged
    return packing.to_poly(partial[(1 << k) - 1])


def _g5n_family(n: int) -> GroebnerFamily:
    """A fresh family for G_{5,n}, n a positive multiple of 8."""
    if n < 8 or n % 8:
        raise ValueError(f"n must be a positive multiple of 8, got {n}")
    return GroebnerFamily(GrassmannContext(5, n))


def normal_bundle_sw(n: int) -> dict[int, CohomologyClass]:
    """Stiefel-Whitney classes of the stable normal bundle of G_{5,n},
    n a positive multiple of 8, reduced to normal form per degree.

    One identity serves every G_{k,n}.  The tangent bundle is
    T = Hom(gamma, gamma^perp) and gamma + gamma^perp is trivial of rank
    n+k, so T + gamma (x) gamma is trivial of rank k(n+k) and w(T) =
    w(gamma)^{n+k} / w(gamma (x) gamma) (Milnor-Stasheff).  With 2^s the
    least power of two >= n+k, w_j^{2^s} = 0 for every j: each root x of
    gamma is w_1 of a line bundle inside the trivial R^{n+k}, so
    x^{n+k} = 0, and 1 + sum_j w_j^{2^s} = w(gamma)^{2^s} = prod (1 +
    x^{2^s}) = 1.  So w(gamma)^{-(n+k)} = w(gamma)^e with e = 2^s - (n+k),
    and

        w(nu) = w(T)^{-1} = w(gamma (x) gamma) w(gamma)^e,

    of top degree k(k-1) + k e.  Only ``_g5n_family`` fixes k = 5.

    The product runs on packed ints in the packing of a fresh family
    (``GroebnerFamily.packed_product``): each factor is split by weighted
    degree and packed once, and only the pairs of degrees summing to at
    most k*n are multiplied, since no standard monomial lies above k*n.
    Each degree's packed terms go straight to
    ``GroebnerFamily.reduce_packed`` and are unpacked once, as its class.  w(gamma)^e stays a ``Poly``
    power, so an exponent past 2^31 - 1 still raises ``OverflowError``.
    """
    family = _g5n_family(n)
    ctx, k = family.context, family.k
    e = 2 ** (n + k - 1).bit_length() - n - k
    total_w = sum((Poly.variable(k, j) for j in range(1, k + 1)), Poly.one(k))
    products = family.packed_product(tensor_square_sw(k), total_w**e)
    return {
        d: CohomologyClass(ctx, family.to_poly(family.reduce_packed(products.get(d, ()))))
        for d in range(k * (k - 1) + k * e + 1)
    }


def immersion_obstruction_check(n: int) -> ObstructionReport:
    """The two cohomology computations feeding the lifting argument:
    Sq^1(w4 w5^{n-1}) and (Sq^2 + w1^2 + w2)(w2 w5^{n-1}).

    Both run in the packing of a fresh family.  w4 w5^{n-1} and
    w2 w5^{n-1} are packed and squared by one ``_cartan`` kernel, whose memo they share;
    the squares have degrees 5n and 5n-1, and the family's fields hold
    5n = k*n, and (w1^2 + w2) w2 w5^{n-1} is two more packed terms.  Both sums go
    straight to ``GroebnerFamily.reduce_packed``.  n past MAX_EXPONENT
    raises ``OverflowError`` first: Sq^1(w4 w5^{n-1}) holds w5^n, and no
    term of either sum has a larger exponent.
    """
    family = _g5n_family(n)
    if n > MAX_EXPONENT:
        raise OverflowError(f"exponent overflow: w5^{n} in Sq^1(w4 w5^{n - 1})")
    ctx, w = family.context, family.times
    square = _cartan(family)
    w5_power = (n - 1) * w[5]
    sq1 = set(square(1, w[4] + w5_power, 5 * n - 1))
    w2_w5 = w[2] + w5_power
    k1 = set(square(2, w2_w5, 5 * n - 3))
    # w1^2 w2 w5^{n-1} + w2^2 w5^{n-1}: w2 of the normal bundle times w2 w5^{n-1}
    k1.symmetric_difference_update((2 * w[1] + w2_w5, w[2] + w2_w5))
    sq1_value = CohomologyClass(ctx, family.to_poly(family.reduce_packed(sq1)))
    k1_value = CohomologyClass(ctx, family.to_poly(family.reduce_packed(k1)))
    return ObstructionReport(n, sq1_value, k1_value)
