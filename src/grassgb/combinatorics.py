"""Parities of binomial and multinomial coefficients.

Binomial coefficients follow the falling-factorial convention, so the
upper argument may be any integer (including negative ones).  The parity
routines never build big integers: nonnegative upper arguments go through
Lucas' theorem, negative ones through the reflection identity
binom(a, b) = (-1)^b * binom(b - a - 1, b).
"""

from __future__ import annotations

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


def _suffix_sums(entries: tuple[int, ...], length: int) -> list[int]:
    """Suffix sums padded with a trailing zero, suf[i] = sum(entries[i:])."""
    suf = [0] * (length + 1)
    for idx in range(len(entries) - 1, -1, -1):
        suf[idx] = suf[idx + 1] + entries[idx]
    return suf


def multinomial_parity(a: tuple[int, ...]) -> int:
    """Multinomial coefficient [a_1, ..., a_k] mod 2.

    Computed as the product over t = 2..k of the binomial parities of
    binom(a_{t-1} + ... + a_k, a_{t-1}); all entries must be nonnegative.
    """
    if any(x < 0 for x in a):
        raise ValueError("multinomial requires nonnegative entries")
    k = len(a)
    suf = _suffix_sums(a, k)
    for t in range(2, k + 1):
        if not binom_parity(suf[t - 2], a[t - 2]):
            return 0
    return 1
