"""Parities of binomial and multinomial coefficients.

Binomial coefficients follow the falling-factorial convention, so the
upper argument may be any integer (including negative ones).  The parity
routines never build big integers: nonnegative upper arguments go through
Lucas' theorem, negative ones through the reflection identity
binom(a, b) = (-1)^b * binom(b - a - 1, b).
"""

from __future__ import annotations

from functools import reduce
from operator import or_

__all__ = [
    "binom_parity",
    "multinomial_parity",
]


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


def multinomial_parity(a: tuple[int, ...]) -> int:
    """Multinomial coefficient [a_1, ..., a_k] mod 2; all entries must be
    nonnegative.

    It is the product over t of binom(a_t + ... + a_k, a_t), and by Lucas
    each factor is odd iff a_t and a_{t+1} + ... + a_k share no bit.  So
    the coefficient is odd iff the a_t add in binary with no carry, that
    is iff their bitwise or equals their sum.
    """
    if any(x < 0 for x in a):
        raise ValueError("multinomial requires nonnegative entries")
    return 1 if reduce(or_, a, 0) == sum(a) else 0
