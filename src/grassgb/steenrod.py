"""Steenrod squares on Stiefel-Whitney classes and the immersion checks.

Squares of generators come from Wu's formula, products from the Cartan
formula (with binary splitting on powers, since Sq^i(x^2) only survives
for even i).  The tensor-square total class is computed by the splitting
principle in formal root variables and converted back to elementary
symmetric polynomials.  A polynomial in the roots x_1, ..., x_k is a Poly
in k variables, multiplied by Poly.__mul__ like any other.

Nothing is cached between calls: every square and every tensor square is
computed afresh from its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .cohomology import CohomologyClass, normal_form
from .combinatorics import binom_parity
from .f2poly import Monomial, Poly
from .groebner_family import GrassmannContext, GroebnerFamily

__all__ = [
    "sq_on_generator",
    "sq",
    "tensor_square_sw",
    "normal_bundle_sw",
    "immersion_obstruction_check",
    "ObstructionReport",
]


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of the two k-invariant computations at G_{5,n}."""

    n: int
    sq1_value: CohomologyClass
    k1_obstruction_value: CohomologyClass
    lift_possible: bool


def sq_on_generator(i: int, j: int, k: int) -> Poly:
    """Wu's formula: Sq^i(w_j) = sum_t binom(j-i+t-1, t) w_{i-t} w_{j+t},
    with w_0 = 1 and w_m = 0 for m > k."""
    if not 1 <= j <= k:
        raise ValueError(f"generator index {j} out of 1..{k}")
    if i < 0:
        raise ValueError("negative square")
    if i == 0:
        return Poly.variable(k, j)
    if i > j:
        return Poly.zero(k)
    terms = []
    for t in range(i + 1):
        if j + t > k:
            break
        if binom_parity(j - i + t - 1, t):
            exps = [0] * k
            if i - t > 0:
                exps[i - t - 1] += 1
            exps[j + t - 1] += 1
            terms.append(tuple(exps))
    return Poly(k, terms)


def _sq_power(i: int, j: int, m: int, k: int) -> Poly:
    """Sq^i(w_j^m) by binary splitting over the Cartan formula."""
    if i == 0:
        return Poly.monomial(tuple(m if v == j - 1 else 0 for v in range(k)))
    if i > j * m:
        return Poly.zero(k)
    if m == 1:
        return sq_on_generator(i, j, k)
    if m % 2 == 0:
        if i % 2:
            return Poly.zero(k)
        return _sq_power(i // 2, j, m // 2, k).square()
    acc = Poly.zero(k)
    for a in range(min(i, j) + 1):
        left = sq_on_generator(a, j, k)
        if not left:
            continue
        right = _sq_power(i - a, j, m - 1, k)
        if right:
            acc = acc + left * right
    return acc


def _sq_monomial(i: int, exps: Monomial, k: int) -> Poly:
    """Cartan across the variables of a single monomial."""
    partial: dict[int, Poly] = {0: Poly.one(k)}
    for idx, m in enumerate(exps):
        if not m:
            continue
        j = idx + 1
        merged: dict[int, Poly] = {}
        for spent, poly in partial.items():
            for a in range(i - spent + 1):
                piece = _sq_power(a, j, m, k)
                if not piece:
                    continue
                key = spent + a
                merged[key] = merged.get(key, Poly.zero(k)) + poly * piece
        partial = {d: p for d, p in merged.items() if p}
    return partial.get(i, Poly.zero(k))


def sq(i: int, f: Poly) -> Poly:
    """Sq^i of a polynomial, term by term (before cohomological reduction)."""
    if i < 0:
        raise ValueError("negative square")
    if i == 0:
        return f
    acc = Poly.zero(f.k)
    for t in f.terms:
        acc = acc + _sq_monomial(i, t, f.k)
    return acc


# -- splitting-principle computation of w(gamma_k (x) gamma_k) -------------


class SymmetryError(RuntimeError):
    """An intermediate polynomial was not symmetric in the formal roots."""


def _symmetric_to_elementary(terms: frozenset, k: int) -> Poly:
    """Classical fundamental-theorem rewriting under lex order on roots:
    the exponent vector of the result is (c_1, ..., c_k) for e_1^{c_1} ...
    e_k^{c_k}, and e_i becomes w_i.  Every degree is rewritten in one pass:
    each product of the e_i is homogeneous, so it cancels terms of its own
    degree only."""
    roots = range(k)
    elementary = [
        Poly(k, (tuple(int(v in c) for v in roots) for c in combinations(roots, i)))
        for i in range(1, k + 1)
    ]
    remaining = set(terms)
    out: set[Monomial] = set()
    while remaining:
        lead = max(remaining)  # tuple comparison is lex with x_1 > x_2 > ...
        if any(lead[i] < lead[i + 1] for i in range(k - 1)):
            raise SymmetryError(f"lex-leading exponent {lead} is not sorted")
        powers = tuple(
            (lead[i] - lead[i + 1]) if i < k - 1 else lead[i] for i in range(k)
        )
        product = Poly.one(k)
        for e, c in zip(elementary, powers):
            if c:
                product = product * e**c
        remaining.symmetric_difference_update(product.terms)
        out.symmetric_difference_update((powers,))
    return Poly._make(k, frozenset(out))


def tensor_square_sw(k: int, max_weighted_degree: int) -> Poly:
    """Total Stiefel-Whitney class of gamma_k (x) gamma_k, truncated.

    Mod 2 the splitting-principle product over all ordered root pairs
    collapses to the square of the product over unordered pairs, so each
    factor contributes 1 + x_i^2 + x_j^2 = (1 + x_i + x_j)^2.  Squaring is
    a ring map over F_2, so the product of the 1 + x_i + x_j is expanded to
    half the degree, rewritten in the w variables and squared there.  A
    root monomial of degree d becomes a w monomial of weighted degree d.
    """
    if not 2 <= k:
        raise ValueError("need k >= 2")
    if max_weighted_degree > k * k:
        raise ValueError(f"truncation degree exceeds the top dimension {k * k}")
    half = max_weighted_degree // 2
    prod = Poly.one(k)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            prod = prod * (Poly.one(k) + Poly.variable(k, i) + Poly.variable(k, j))
            prod = Poly._make(k, frozenset(t for t in prod.terms if sum(t) <= half))
    return _symmetric_to_elementary(prod.terms, k).square()


def _g5n_context(
    n: int, family: Optional[GroebnerFamily]
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
    n: int, family: Optional[GroebnerFamily] = None
) -> dict[int, CohomologyClass]:
    """Stiefel-Whitney classes of the stable normal bundle of G_{5,n},
    n a positive multiple of 8, reduced to normal form per degree."""
    ctx, family = _g5n_context(n, family)
    r = (n + 4).bit_length() - 1  # 2^r < n+5 <= 2^{r+1}
    e = 2 ** (r + 1) - n - 5
    tensor = tensor_square_sw(5, 20)
    total_w = Poly.one(5)
    for j in range(1, 6):
        total_w = total_w + Poly.variable(5, j)
    unreduced = tensor * total_w**e
    components = unreduced.weighted_components()
    out: dict[int, CohomologyClass] = {}
    for d in range(0, 20 + 5 * e + 1):
        out[d] = normal_form(ctx, components.get(d, Poly.zero(5)), family)
    return out


def immersion_obstruction_check(
    n: int, family: Optional[GroebnerFamily] = None
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

