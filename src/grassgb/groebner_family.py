"""The structured Groebner basis {g_M : S_M <= n+1} for the relation ideal.

Every basis element is indexed by a (k-1)-tuple M = (m_2, ..., m_k) of
nonnegative integers and produced by the direct coefficient formula

    g_M = sum of W^A over nonnegative A with weighted degree n+1+S'_M
          and odd coefficient product P(A, M).

P(A, M) is a product of binomials binom(a_t + c_t, a_t), one per t < k, with
c_t = (a_{t+1} + ... + a_k) - (m_{t+1} + ... + m_k).  By Kummer's theorem
binom(x + c, x) is odd iff adding x and c in binary has no carry, that is
x & c == 0 for c >= 0.  For c < 0, binom(x + c, x) = (-1)^x binom(-c - 1, x)
and Lucas give x & (-c - 1) == x, which in two's complement is again
x & c == 0.  The kernel walks a_k, a_{k-1}, ..., a_2 depth first through
only the values passing that test, and a_1 is forced by the weighted
degree, so no term with an even coefficient is ever built.

Whole families are built through the paper's three-term recurrence

    g_{M^{i,j}} = w_i g_{M^j} + w_{j+1} g_{M^{i-1}} + g_{M^{i-1,j+1}},

which needs no enumeration at all: only the k elements with S_M <= 1 come
from the direct formula.  A single element asked for on its own (a
reduction step, ``generate --only-m``) still goes through the direct
formula, so it costs one walk and not the elements below it, and the
family does not keep it.  Closed forms exist for indices with m_k close
to n; they are exposed for cross-validation against the direct formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .f2poly import MAX_EXPONENT, Monomial, Poly, weighted_degree

__all__ = [
    "GrassmannContext",
    "GroebnerFamily",
    "g_direct",
    "g_closed_form",
    "g_recurrence_step",
    "build_family",
    "leading_term_of",
    "raised",
    "raised2",
]

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class GrassmannContext:
    """Parameters (k, n) of the Grassmannian, with n >= k >= 2."""

    k: int
    n: int

    def __post_init__(self):
        if not self.n >= self.k >= 2:
            raise ValueError(f"need n >= k >= 2, got k={self.k}, n={self.n}")


def _check_index(ctx: GrassmannContext, m: MultiIndex) -> None:
    if len(m) != ctx.k - 1:
        raise ValueError(f"multi-index must have {ctx.k - 1} entries, got {m}")
    if any(x < 0 for x in m):
        raise ValueError(f"multi-index entries must be nonnegative: {m}")


def raised(m: MultiIndex, i: int) -> MultiIndex:
    """M^i: add 1 to the i-th coordinate; identity when i < 1."""
    if i < 1:
        return m
    out = list(m)
    out[i - 1] += 1
    return tuple(out)


def raised2(m: MultiIndex, i: int, j: int) -> MultiIndex:
    """M^{i,j}: add 1 to the i-th and j-th coordinates; M^j when i < 1."""
    if i < 1:
        return raised(m, j)
    out = list(m)
    out[i - 1] += 1
    out[j - 1] += 1
    return tuple(out)


def leading_term_of(ctx: GrassmannContext, m: MultiIndex) -> Monomial:
    """The grlex leading monomial (n+1-S_M, m_2, ..., m_k) of g_M."""
    _check_index(ctx, m)
    s = sum(m)
    if s > ctx.n + 1:
        raise ValueError(f"S_M = {s} exceeds n+1 = {ctx.n + 1}")
    return (ctx.n + 1 - s,) + tuple(m)


def g_direct(ctx: GrassmannContext, m: MultiIndex) -> Poly:
    """g_M by the defining sum; valid for every nonnegative multi-index."""
    _check_index(ctx, m)
    k = ctx.k
    # msuf[t] = m_{t+1} + ... + m_k, so c_t = (a_{t+1} + ... + a_k) - msuf[t]
    msuf = [0] * (k + 1)
    for t in range(k - 1, 0, -1):
        msuf[t] = msuf[t + 1] + m[t - 1]
    terms = []

    def walk(t: int, rem: int, asuf: int, tail: tuple) -> None:
        # tail = (a_{t+1}, ..., a_k) with sum asuf; rem is the weighted
        # degree left for a_1, ..., a_t.  a_t = x runs over the values
        # 0 <= x <= rem // t with x & c == 0, in increasing order.
        c = asuf - msuf[t]
        c1 = asuf - msuf[1]
        top = rem // t
        x = 0
        while True:
            if t > 2:
                walk(t - 1, rem - t * x, asuf + x, (x,) + tail)
            elif (rem - 2 * x) & (c1 + x) == 0:
                # a_2 = x forces a_1 = rem - 2x, whose c_1 is c1 + x
                terms.append((rem - 2 * x, x) + tail)
            # the least admissible value above x; for c < 0 it wraps to 0
            # after the largest one, -c - 1
            x = ((x | c) + 1) & ~c
            if not 0 < x <= top:
                return

    walk(k, ctx.n + 1 + weighted_degree(m), 0, ())
    return Poly._make(k, frozenset(terms))


def g_closed_form(ctx: GrassmannContext, m: MultiIndex) -> Optional[Poly]:
    """g_M without enumeration, for the index shapes that admit one.

    Covered: single-monomial indices (S'_M > (k-1)n - 1 with S_M <= n+1)
    and the two-term elements with m_k = n-1.  Returns None otherwise.
    """
    _check_index(ctx, m)
    k, n = ctx.k, ctx.n
    if sum(m) <= n + 1 and weighted_degree(m) > (k - 1) * n - 1:
        return Poly.monomial(leading_term_of(ctx, m))
    if m[-1] == n - 1:
        head, mk = m[:-1], m[-1]
        wk_pow = tuple(0 for _ in range(k - 1)) + (n - 1,)
        if all(x == 0 for x in head):
            # (0,...,0,n-1): w1^2 wk^{n-1} + w2 wk^{n-1}
            t1 = list(wk_pow)
            t1[0] += 2
            t2 = list(wk_pow)
            t2[1] += 1
            return Poly(k, (tuple(t1), tuple(t2)))
        if sum(head) == 1:
            s = head.index(1) + 1  # raised coordinate, 1-based; m_{s+1} = 1
            if 1 <= s <= k - 2:
                # w1 w_{s+1} wk^{n-1} + w_{s+2} wk^{n-1}
                t1 = list(wk_pow)
                t1[0] += 1
                t1[s] += 1
                t2 = list(wk_pow)
                t2[s + 1] += 1
                return Poly(k, (tuple(t1), tuple(t2)))
    return None


def _times_variable(g: Poly, j: int) -> frozenset:
    """The terms of w_j * g: every term's j-th exponent raised by one."""
    p = j - 1
    if max((t[p] for t in g.terms), default=0) >= MAX_EXPONENT:
        raise OverflowError(f"exponent overflow multiplying by w{j}")
    return frozenset(t[:p] + (t[p] + 1,) + t[p + 1 :] for t in g.terms)


def g_recurrence_step(
    ctx: GrassmannContext,
    m: MultiIndex,
    i: int,
    j: int,
    lookup: Callable[[MultiIndex], Poly],
) -> Poly:
    """Assemble g_{M^{i,j}} = w_i g_{M^j} + w_{j+1} g_{M^{i-1}} + g_{M^{i-1,j+1}}.

    The third summand is absent when j = k-1; ``lookup`` supplies the
    right-hand-side polynomials.
    """
    _check_index(ctx, m)
    k = ctx.k
    if not 1 <= i <= j <= k - 1:
        raise ValueError(f"need 1 <= i <= j <= {k - 1}, got i={i}, j={j}")
    terms = _times_variable(lookup(raised(m, j)), i)
    terms ^= _times_variable(lookup(raised(m, i - 1)), j + 1)
    if j < k - 1:
        terms ^= lookup(raised2(m, i - 1, j + 1)).terms
    return Poly._make(k, terms)


def _indices_up_to(k: int, bound: int) -> list[MultiIndex]:
    """All (k-1)-tuples with entry sum <= bound, increasing lex-from-the-right."""
    if k == 1:
        return [()]
    return [
        m + (x,) for x in range(bound + 1) for m in _indices_up_to(k - 1, bound - x)
    ]


class GroebnerFamily:
    """Lazy view of the basis {g_M : S_M <= n+1}.

    ``element`` computes one g_M by g_direct and does not keep it, so
    reductions at large n only ever build the indices they touch, and each
    once: cohomology.normal_form keeps what it needs of a touched g_M in
    ``packed``, the family's one table ``{packed lead: tail}`` (the tail
    as the offsets pack(u) - lead over the other terms u of g_M, packed
    at the width the context fixes).  ``items``, ``polynomials`` and
    ``build_family`` build the whole family through the recurrence into
    the memo instead, and ``element`` then returns the memo's entry.  Both
    are dicts on the instance: they live as long as the family, and two
    families never share one.
    """

    def __init__(self, context: GrassmannContext):
        self.context = context
        self._memo: dict[MultiIndex, Poly] = {}
        self.packed: dict[int, tuple[int, ...]] = {}

    def __len__(self) -> int:
        k, n = self.context.k, self.context.n
        return math.comb(n + k, k - 1)

    def multi_indices(self) -> Iterator[MultiIndex]:
        return iter(_indices_up_to(self.context.k, self.context.n + 1))

    def element(self, m: MultiIndex) -> Poly:
        m = tuple(m)
        g = self._memo.get(m)
        return g_direct(self.context, m) if g is None else g

    def leading_term(self, m: MultiIndex) -> Monomial:
        return leading_term_of(self.context, m)

    def _materialise(self) -> list[MultiIndex]:
        """Put every g_M of the family in the memo; return the indices in
        ``multi_indices`` order.

        The elements with S_M <= 1 come from g_direct, every other T from
        the recurrence with i and j its first and last nonzero positions
        and M = T - e_i - e_j.  Built in order of (S_T, i): g_{M^j} and
        g_{M^{i-1}} lie below T's level, and g_{M^{i-1,j+1}} is on it with
        its first nonzero at i-1, so every summand is built before T.
        """
        ctx, memo = self.context, self._memo
        indices = _indices_up_to(ctx.k, ctx.n + 1)
        missing = []
        for t in indices:
            if t not in memo:
                nonzero = [p for p, x in enumerate(t, start=1) if x]
                i, j = (nonzero[0], nonzero[-1]) if nonzero else (0, 0)
                missing.append((sum(t), i, j, t))
        missing.sort()
        lookup = memo.__getitem__
        for s, i, j, t in missing:
            if s <= 1:
                memo[t] = g_direct(ctx, t)
            else:
                m = list(t)
                m[i - 1] -= 1
                m[j - 1] -= 1
                memo[t] = g_recurrence_step(ctx, tuple(m), i, j, lookup)
        return indices

    def items(self) -> Iterator[tuple[MultiIndex, Poly]]:
        memo = self._memo
        for m in self._materialise():
            yield m, memo[m]

    def polynomials(self) -> list[Poly]:
        memo = self._memo
        return [memo[m] for m in self._materialise()]


def build_family(ctx: GrassmannContext) -> GroebnerFamily:
    """Materialize the whole family for the given context."""
    family = GroebnerFamily(ctx)
    family._materialise()
    return family
