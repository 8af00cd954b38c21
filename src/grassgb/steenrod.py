"""Steenrod squares on Stiefel-Whitney classes and the immersion checks.

Sq^i comes from one Cartan recursion: a monomial in the w_j that is a
square is handled as one (Sq^{2i}(x^2) = (Sq^i x)^2), and otherwise one
generator is split off, its squares taken from Wu's formula.  The
tensor-square total class is one resultant over F_2[w_1, ..., w_k],
computed as a permanent, so no formal roots are introduced.  The
permanent runs on sets of packed ints in the packing of the family of
G_{k,k}, unpacked once at the end: every entry (r, c) of its matrix has
weighted degree at most k-1+r-c, so no partial product passes degree
k(k-1) and no exponent outgrows those fields.

Both read the parity of a binomial by the carry test of the g_M walk in
``groebner_family``, the package's one parity rule: binom(x + c, x) is
odd iff x & c == 0, for every integer c in two's complement.  Wu's
coefficient binom(j-i+t-1, t) is the case x = t, c = j-i-1; the
resultant's binom(p, q) is x = q, c = p-q.

The normal classes multiply w(gamma (x) gamma) by w(gamma)^e with
``GroebnerFamily.packed_product``, on packed ints in the packing of the
family they are reduced in, one pair of weighted degrees at a time up to
the top degree k*n, and reduce each degree's packed terms with
``GroebnerFamily.reduce_packed``.  ``cohomology.cup`` runs the same
product.

Nothing is cached between calls: every square and every tensor square is
computed afresh from its arguments.  Within one ``sq`` call the Cartan
recursion memoizes Sq^i of each monomial it meets.
"""

from __future__ import annotations

from .cohomology import CohomologyClass, normal_form
from .f2poly import Monomial, Poly, weighted_degree
from .groebner_family import GrassmannContext, GroebnerFamily
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
    """Outcome of the two k-invariant computations at G_{5,n}."""

    __slots__ = ("n", "sq1_value", "k1_obstruction_value", "lift_possible")

    def __init__(
        self,
        n: int,
        sq1_value: CohomologyClass,
        k1_obstruction_value: CohomologyClass,
        lift_possible: bool,
    ):
        super().__init__(n, sq1_value, k1_obstruction_value, lift_possible)


def sq_on_generator(i: int, j: int, k: int) -> Poly:
    """Wu's formula: Sq^i(w_j) = sum_t binom(j-i+t-1, t) w_{i-t} w_{j+t},
    with w_0 = 1 and w_m = 0 for m > k."""
    if not 1 <= j <= k:
        raise ValueError(f"generator index {j} out of 1..{k}")
    if i < 0:
        raise ValueError("negative square")
    if i > j:
        return Poly.zero(k)
    terms = []
    # binom(t + c, t), c = j-i-1, is odd iff t & c == 0; at c = -1
    # (i = j) that keeps only t = 0
    for t in range(min(i, k - j) + 1):
        if t & (j - i - 1) == 0:
            exps = [0] * k
            if i - t > 0:
                exps[i - t - 1] += 1
            exps[j + t - 1] += 1
            terms.append(tuple(exps))
    # as i <= j, w_{j+t} is each term's last generator, so no two coincide
    return Poly._make(k, frozenset(terms))


def _sq_monomial(i: int, t: Monomial, k: int, memo: dict) -> Poly:
    """Sq^i(W^t) by one Cartan recursion: a square W^t = (W^{t/2})^2 has
    Sq^i = (Sq^{i/2} W^{t/2})^2 for even i and 0 for odd i; otherwise
    w_{p+1}, p the first odd exponent, is split off and Sq^a(w_{p+1})
    comes from Wu's formula.  ``memo`` maps (i, t) to Sq^i(W^t) within
    one ``sq`` call, since the branches share most of their subterms."""
    if i == 0:
        return Poly._make(k, frozenset((t,)))
    if i > weighted_degree(t):
        return Poly.zero(k)
    found = memo.get((i, t))
    if found is not None:
        return found
    p = next((v for v, e in enumerate(t) if e % 2), None)
    if p is None:
        if i % 2:
            return Poly.zero(k)
        acc = _sq_monomial(i // 2, tuple(e // 2 for e in t), k, memo).square()
    else:
        rest = t[:p] + (t[p] - 1,) + t[p + 1 :]
        acc = Poly.zero(k)
        for a in range(min(i, p + 1) + 1):
            acc = acc + sq_on_generator(a, p + 1, k) * _sq_monomial(i - a, rest, k, memo)
    memo[i, t] = acc
    return acc


def sq(i: int, f: Poly) -> Poly:
    """Sq^i of a polynomial, term by term (before cohomological reduction)."""
    if i < 0:
        raise ValueError("negative square")
    if i == 0:
        return f
    acc = Poly.zero(f.k)
    memo: dict[tuple[int, Monomial], Poly] = {}
    for t in f.terms:
        acc = acc + _sq_monomial(i, t, f.k, memo)
    return acc


def tensor_square_sw(k: int) -> Poly:
    """Total Stiefel-Whitney class of gamma_k (x) gamma_k, whose top degree
    is k(k-1).

    By the splitting principle it is the product of 1 + x_i + x_j over all
    ordered root pairs.  Over F_2, y + x = y - x, so with F(y) = prod_j
    (y + x_j) = sum_m w_m y^{k-m} that product is prod_i F(x_i + 1) =
    Res_y(F(y), F(y+1)): the determinant, over F_2 a permanent, of
    multiplication by F(y+1) on F_2[w][y]/(F) in the basis 1, y, ...,
    y^{k-1}.

    The matrix and the permanent are sets of packed ints, in the packing
    of the family of G_{k,k}: w_j is its ``_times[j]``, 1 is 0, a sum is
    a symmetric difference, and a product adds each term of one factor to
    every term of the other, the sums for one term all distinct.  No field
    overflows: by induction on r, entry (r, c) has weighted degree at
    most k-1+r-c, so a product over rows 0..r-1 in distinct columns has
    degree at most r(k-1), and no exponent met exceeds k(k-1) < k*k,
    which the fields of G_{k,k} hold.
    """
    if not 2 <= k:
        raise ValueError("need k >= 2")
    family = GroebnerFamily(GrassmannContext(k, k))
    w = family._times
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
    return family.to_poly(partial[(1 << k) - 1])


def _g5n_context(
    n: int, family: GroebnerFamily | None
) -> tuple[GrassmannContext, GroebnerFamily]:
    """The context of G_{5,n}, n a positive multiple of 8, and a family for
    it: the one given, checked, or a fresh one."""
    if n < 8 or n % 8:
        raise ValueError(f"n must be a positive multiple of 8, got {n}")
    ctx = GrassmannContext(5, n)
    if family is None:
        family = GroebnerFamily(ctx)
    if family.context != ctx:
        raise ValueError("family context does not match n")
    return ctx, family


def normal_bundle_sw(
    n: int, family: GroebnerFamily | None = None
) -> dict[int, CohomologyClass]:
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

    of top degree k(k-1) + k e.  Only ``_g5n_context`` fixes k = 5.

    The product runs on packed ints in the family's packing
    (``GroebnerFamily.packed_product``): each factor is split by weighted
    degree and packed once, and only the pairs of degrees summing to at
    most k*n are multiplied, since no standard monomial lies above k*n.
    Each degree's packed terms go straight to
    ``GroebnerFamily.reduce_packed`` and are unpacked once, as its class.  w(gamma)^e stays a ``Poly``
    power, so an exponent past 2^31 - 1 still raises ``OverflowError``.
    """
    ctx, family = _g5n_context(n, family)
    k = ctx.k
    e = 2 ** (n + k - 1).bit_length() - n - k
    total_w = sum((Poly.variable(k, j) for j in range(1, k + 1)), Poly.one(k))
    products = family.packed_product(tensor_square_sw(k), total_w**e)
    return {
        d: CohomologyClass(ctx, family.to_poly(family.reduce_packed(products.get(d, ()))))
        for d in range(k * (k - 1) + k * e + 1)
    }


def immersion_obstruction_check(
    n: int, family: GroebnerFamily | None = None
) -> ObstructionReport:
    """The two cohomology computations feeding the lifting argument:
    Sq^1(w4 w5^{n-1}) and (Sq^2 + w1^2 + w2)(w2 w5^{n-1})."""
    ctx, family = _g5n_context(n, family)
    w4_w5 = Poly.monomial((0, 0, 0, 1, n - 1))
    sq1_value = normal_form(ctx, sq(1, w4_w5), family)

    w2_w5 = Poly.monomial((0, 1, 0, 0, n - 1))
    nu2 = Poly.monomial((2, 0, 0, 0, 0)) + Poly.variable(5, 2)  # w2 of the normal bundle
    k1_value = normal_form(ctx, sq(2, w2_w5) + nu2 * w2_w5, family)

    return ObstructionReport(
        n=n,
        sq1_value=sq1_value,
        k1_obstruction_value=k1_value,
        lift_possible=bool(sq1_value) and bool(k1_value),
    )

