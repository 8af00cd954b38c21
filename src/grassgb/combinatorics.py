"""Parities of binomial coefficients.

Binomial coefficients follow the falling-factorial convention, so the
upper argument may be any integer (including negative ones).  The parity
routines never build big integers: nonnegative upper arguments go through
Lucas' theorem, negative ones through the reflection identity
binom(a, b) = (-1)^b * binom(b - a - 1, b).
"""

from __future__ import annotations

__all__ = ["binom_parity"]


def binom_parity(alpha: int, beta: int) -> int:
    """binom(alpha, beta) mod 2, without big-integer arithmetic."""
    if beta < 0:
        return 0
    if beta == 0:
        return 1
    if alpha < 0:
        # (-1)^beta * binom(beta - alpha - 1, beta); sign is irrelevant mod 2
        alpha = beta - alpha - 1
    # Lucas: odd iff the bits of beta are a subset of the bits of alpha
    return 1 if alpha & beta == beta else 0

