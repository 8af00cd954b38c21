"""Slow references for the package's fast paths, used only by the tests.

g_M is computed straight from its definition: enumerate every exponent
tuple of weighted degree n+1+S'_M, then keep those whose coefficient
product P(A, M) is odd.  The package's kernel never builds the tuples this
discards; the tests assert the two agree.

The normal form rescans the working set for its grlex-largest reducible
term at every step, on exponent tuples; the package reduces packed ints
from a heap.  The tensor-square class expands the product of the
1 + x_i^2 + x_j^2 to full degree; the package expands the product of the
1 + x_i + x_j to half the degree and squares.
"""

from __future__ import annotations

from typing import Optional

from grassgb.cohomology import structured_divisor
from grassgb.combinatorics import binom_parity, index_weight
from grassgb.f2poly import Poly, grlex_key, monomials_of_weighted_degree
from grassgb.groebner_family import GrassmannContext, GroebnerFamily
from grassgb.steenrod import _mul_roots, _symmetric_to_elementary


def p_factor(t: int, a: tuple[int, ...], m: tuple[int, ...]) -> int:
    """Parity of binom(sum_{j>=t-1} a_j - sum_{j>=t} m_j, a_{t-1}).

    Entries of ``a`` may be negative (shifted tuples occur in the
    recurrence bookkeeping); 2 <= t <= k is required.
    """
    k = len(a)
    if not 2 <= t <= k:
        raise ValueError(f"t must be in 2..{k}, got {t}")
    upper = sum(a[t - 2 :]) - sum(m[t - 2 :])
    return binom_parity(upper, a[t - 2])


def p_product(a: tuple[int, ...], m: tuple[int, ...]) -> int:
    """Product of p_factor(t, a, m) over t = 2..k."""
    return int(all(p_factor(t, a, m) for t in range(2, len(a) + 1)))


def g_direct_reference(k: int, n: int, m: tuple[int, ...]) -> Poly:
    """g_M by enumerate-then-filter over all tuples of its weighted degree."""
    target = n + 1 + index_weight(m)
    terms = frozenset(
        a for a in monomials_of_weighted_degree(target, k) if p_product(a, m)
    )
    return Poly._make(k, terms)


def normal_form_reference(
    ctx: GrassmannContext, f: Poly, family: Optional[GroebnerFamily] = None
) -> Poly:
    """Remainder of f modulo the family, reducing the grlex-max reducible
    term found by a full rescan at every step."""
    if family is None:
        family = GroebnerFamily(ctx)
    n = ctx.n
    work = set(f.terms)
    while True:
        reducible = [t for t in work if sum(t) > n]
        if not reducible:
            break
        t = max(reducible, key=grlex_key)
        m = structured_divisor(ctx, family, t)
        g = family.element(m)
        lt = family.leading_term(m)
        q = tuple(a - b for a, b in zip(t, lt))
        work.symmetric_difference_update(
            tuple(map(sum, zip(term, q))) for term in g.terms
        )
    return Poly._make(ctx.k, frozenset(work))


def tensor_square_sw_reference(k: int, max_weighted_degree: int) -> Poly:
    """w(gamma_k (x) gamma_k) truncated, from the product of the factors
    1 + x_i^2 + x_j^2 over root pairs i < j at full degree."""
    prod = frozenset(((0,) * k,))
    for i in range(k):
        for j in range(i + 1, k):
            factor = set()
            factor.add((0,) * k)
            factor.add(tuple(2 if v == i else 0 for v in range(k)))
            factor.add(tuple(2 if v == j else 0 for v in range(k)))
            prod = _mul_roots(prod, frozenset(factor), max_weighted_degree)
    result = Poly.zero(k)
    by_degree: dict[int, set] = {}
    for t in prod:
        by_degree.setdefault(sum(t), set()).add(t)
    for d in sorted(by_degree):
        result = result + _symmetric_to_elementary(frozenset(by_degree[d]), k)
    return result
