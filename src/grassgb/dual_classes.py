"""Dual Stiefel-Whitney classes as polynomials in w_1, ..., w_k.

Two independent constructions of the same class.  The recurrence comes
from (1 + w_1 + ... + w_k)(1 + wbar_1 + wbar_2 + ...) = 1; it builds
wbar_0, ..., wbar_r afresh in a list of its own, with no recursion, so any
degree r works without reaching the interpreter's recursion limit.  The
explicit class is the sum of W^A over weighted degree r with odd
multinomial coefficient, which is g_0 of the Groebner basis at n = r-1:
it comes from the g_M kernel, which lists only the odd terms, packed in
a ``groebner_family.Packing`` whose fields hold r, so the ints grow with
r and not with k.  Neither caches anything between calls.
"""

from __future__ import annotations

from .f2poly import MAX_EXPONENT, Poly
from .groebner_family import _direct

__all__ = ["wbar_sequence", "wbar_recurrence", "wbar_explicit"]


def _validate(r: int, k: int) -> None:
    if r < 1:
        raise ValueError(f"degree must be >= 1, got {r}")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if r > MAX_EXPONENT:
        raise OverflowError(f"exponent overflow: w1^{r} is a term of wbar_{r}")


def wbar_sequence(r: int, k: int) -> list[Poly]:
    """wbar_0, ..., wbar_r from one run of wbar_d = sum_{i=1}^{min(d,k)}
    w_i * wbar_{d-i}, wbar_0 = 1.

    It shares no code with the g_M kernel, so the oracle's generators,
    which come from here, check the kernel independently."""
    _validate(r, k)
    variables = [Poly.variable(k, i) for i in range(1, k + 1)]
    wbar = [Poly.one(k)]
    for d in range(1, r + 1):
        acc = Poly.zero(k)
        for i in range(1, min(d, k) + 1):
            acc = acc + variables[i - 1] * wbar[d - i]
        wbar.append(acc)
    return wbar


def wbar_recurrence(r: int, k: int) -> Poly:
    """wbar_r, the last class of ``wbar_sequence(r, k)``."""
    return wbar_sequence(r, k)[r]


def wbar_explicit(r: int, k: int) -> Poly:
    """wbar_r as the sum of W^A over weighted degree r with odd
    multinomial: g_0 at n = r-1, by the g_M kernel."""
    _validate(r, k)
    return _direct(k, (0,) * (k - 1), r)
