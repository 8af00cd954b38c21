"""Dual Stiefel-Whitney classes as polynomials in w_1, ..., w_k.

Two independent constructions of the same class: the recurrence coming
from (1 + w_1 + ... + w_k)(1 + wbar_1 + wbar_2 + ...) = 1, and the
explicit sum over exponent vectors with odd multinomial coefficient.
Neither caches anything between calls: the recurrence builds wbar_0, ...,
wbar_r afresh in a list of its own, with no recursion, so any degree r
works without reaching the interpreter's recursion limit.
"""

from __future__ import annotations

from .combinatorics import multinomial_parity
from .f2poly import Poly, monomials_of_weighted_degree

__all__ = ["wbar_recurrence", "wbar_explicit"]


def _validate(r: int, k: int) -> None:
    if r < 1:
        raise ValueError(f"degree must be >= 1, got {r}")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")


def wbar_recurrence(r: int, k: int) -> Poly:
    """wbar_r via wbar_r = sum_{i=1}^{min(r,k)} w_i * wbar_{r-i}, wbar_0 = 1."""
    _validate(r, k)
    wbar = [Poly.one(k)]
    for d in range(1, r + 1):
        acc = Poly.zero(k)
        for i in range(1, min(d, k) + 1):
            acc = acc + Poly.variable(k, i) * wbar[d - i]
        wbar.append(acc)
    return wbar[r]


def wbar_explicit(r: int, k: int) -> Poly:
    """wbar_r as the sum of W^A over weighted degree r with odd multinomial."""
    _validate(r, k)
    terms = frozenset(
        a for a in monomials_of_weighted_degree(r, k) if multinomial_parity(a)
    )
    return Poly._make(k, terms)
