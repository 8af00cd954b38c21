"""Slow reference for g_M, used only by the tests.

g_M is computed straight from its definition: enumerate every exponent
tuple of weighted degree n+1+S'_M, then keep those whose coefficient
product P(A, M) is odd.  The package's kernel never builds the tuples this
discards; the tests assert the two agree.
"""

from __future__ import annotations

from grassgb.combinatorics import binom_parity, index_weight
from grassgb.f2poly import Poly, monomials_of_weighted_degree


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
