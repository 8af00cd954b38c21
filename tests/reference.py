"""Slow references for the package's fast paths, used only by the tests.

g_M is computed straight from its definition: enumerate the exponent
tuples of weighted degree n+1+S'_M, a_k first, and keep those whose
coefficient product P(A, M) is odd, by Lucas' theorem and a reflection
(``binom_parity``) on each factor as its entry is chosen and by
``p_product`` on each tuple found.  Inside the family, S_M <= n+1, the
enumeration may stop at exponent sum n+1, where the leading-term law puts
every term; the tests check that the cap drops no term.  The package's
kernel walks packed ints with the carry test and jumps between
admissible values; the tests assert the two agree.

The normal form rescans the working set for its grlex-largest reducible
term at every step, on exponent tuples, and picks the divisor's index from
the term (``structured_divisor``, or any other chooser a test passes); the
package sweeps levels of packed ints by exponent sum, from the top down,
and reads the divisor's packed lead off each int.  The reference takes
each divisor g_M from ``g_direct_reference``, kept per (k, n, M), so no
packing of the package's meets the g_M it reduces by.

The tensor-square class expands the product of the 1 + x_i^2 + x_j^2 in
formal root variables, multiplying frozensets of root exponent tuples
(``_mul_roots``), and rewrites it in the w_j by the fundamental theorem of
symmetric functions (``_symmetric_to_elementary``); the package never
leaves the w_j and takes it as one resultant over F_2[w].  Sq^i applies
the Cartan formula twice, across the variables of a term and across each
power by binary splitting, and takes Sq^i(w_j) from Wu's formula with
exact binomials (``wu_reference``), on ``Poly`` throughout; the package
runs one Cartan kernel on packed ints, which halves a square with one
shift and otherwise splits off one generator at a time, reads Wu's
coefficients by the carry test, memoizes within one call only, and
raises ``OverflowError`` for a result exponent past 2^31 - 1.

The product of two polynomials toggles one product tuple per pair of
terms, each built by zip and sum (``poly_mul_reference``); the package
toggles all products of one term at once.  The tensor-square permanent is
also kept as it was on ``Poly`` (``tensor_square_sw_permanent_reference``),
with ``poly_mul_reference`` for its products; the package runs the same
resultant on sets of packed ints.

The normal classes of G_{5,n} multiply w(gamma (x) gamma), from
``tensor_square_sw_reference``, by w(gamma)^e as ``Poly``s, split the
whole product with ``weighted_components`` and reduce each degree with
``normal_form_reference`` (``normal_bundle_sw_reference``); the package
multiplies packed ints one pair of degrees at a time, only up to the top
degree k*n, and reduces each degree's packed terms by ``reduce_packed``
as they are.

No reference reaches the package's g_M walk, ``reduce_packed``, its
Cartan kernel or its ``buchberger``: ``tests/test_reference.py`` runs
each one with those four patched to raise.  The weighted degree is one generator over ``enumerate``
(``weighted_degree_reference``); the package maps ``operator.mul``.

The recurrence step raises one exponent of every term of a tuple
polynomial (``_times_variable``, which scans for overflow first); the
package adds one packed int to every packed term.

The multi-indices of a family, and the standard monomials, are every
tuple of the box filtered by entry sum and then sorted; the package
generates both in order.  The JSON of ``generate`` comes from
json.dumps(indent=2) over the terms of ``g_direct_reference`` sorted by
``grlex_key``; the package builds the family by the recurrence and prints
each record's head by one format string and each term's row by joining
one text per field from per-field tables, one record per write.

The Buchberger oracle runs S-pairs on exponent tuples, selected by
weighted sugar and then grlex of the lcm, recomputes the lcm of every
queued pair at each Gebauer-Moller update and inter-reduces each element
against a fresh reducer of the others until nothing changes
(``buchberger_reference``, ``reduce_basis_reference``); its normal form
pops the largest term from a heap and memoizes divisors and basis
multiples per monomial.  The package's ``buchberger`` forms no S-pair: it
eliminates F5 matrices one weighted degree at a time and reads the
reduced basis off the pivots, so the tests compare reduced bases only.
The package's ``reduce_basis`` and ``oracle_reduce`` share one normal
form on exponent tuples: it rescans for the largest term at every step,
tests the leads one at a time in basis order, and memoizes nothing, and
``reduce_basis`` inter-reduces in one pass over the minimal basis.

The text parser scans by hand, one character at a time, in a class of
small methods (``parse_reference``); the package's ``parse`` is one
function over two regular expressions.

The dual class wbar_r is g_0 at n = r - 1, so ``g_direct_reference`` also
gives it by enumerate-then-filter; at M = 0 the coefficient product is the
multinomial coefficient, whose parity ``multinomial_parity`` reads off the
exponents directly.

``binom_int`` (exact binomials), ``binom_parity`` (their parity by Lucas'
theorem and a reflection), ``grlex_compare`` (three-way grlex comparison)
and ``alpha`` (binary digit count) have no caller in the package; the
tests check the package's parity and order rules against them.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from functools import cache, reduce
from operator import or_
from typing import Callable, Optional

from grassgb.cohomology import CohomologyClass
from grassgb.f2poly import (
    MAX_EXPONENT,
    Monomial,
    ParseError,
    Poly,
    grlex_key,
    weighted_degree,
)
from grassgb.groebner_family import (
    GrassmannContext,
    GroebnerFamily,
    leading_term_of,
    raised,
    raised2,
)


def binom_int(alpha: int, beta: int) -> int:
    """Exact binomial coefficient for arbitrary integer arguments."""
    if beta < 0:
        return 0
    if beta == 0:
        return 1
    num = 1
    for i in range(beta):
        num *= alpha - i
    return num // math.factorial(beta)


def binom_parity(alpha: int, beta: int) -> int:
    """binom(alpha, beta) mod 2 without big integers: Lucas' theorem for
    alpha >= 0, and for alpha < 0 the reflection binom(alpha, beta) =
    (-1)^beta binom(beta - alpha - 1, beta), whose sign is irrelevant mod 2."""
    if beta < 0:
        return 0
    if beta == 0:
        return 1
    if alpha < 0:
        alpha = beta - alpha - 1
    # Lucas: odd iff the bits of beta are a subset of the bits of alpha
    return 1 if alpha & beta == beta else 0


def grlex_compare(a: Monomial, b: Monomial) -> int:
    """Three-way grlex comparison: -1 if a < b, 0 if equal, 1 if a > b."""
    if len(a) != len(b):
        raise ValueError("monomials have different variable counts")
    ka, kb = grlex_key(a), grlex_key(b)
    return (ka > kb) - (ka < kb)


def alpha(m: int) -> int:
    """Number of ones in the binary expansion of m >= 1."""
    if m < 1:
        raise ValueError("alpha is defined for positive integers")
    return m.bit_count()


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


@cache
def g_direct_reference(
    k: int, n: int, m: tuple[int, ...], cap: Optional[int] = None
) -> Poly:
    """g_M from its definition, on exponent tuples: every A of weighted
    degree n+1+S'_M, or with ``cap`` only those of exponent sum at most
    cap, with P(A, M) odd.  a_k is chosen first, then a_{k-1}, ..., and
    a_1 is the degree left; each factor binom(a_t + c_t, a_t) is tested
    by ``binom_parity`` once a_t is chosen, and a branch with an even
    factor, or with more degree left than its weights carry within the
    cap, is not entered.  Each tuple found is filtered once more by
    ``p_product``.  For S_M <= n+1 the leading-term law puts every term
    at exponent sum <= n+1, so cap = n+1 gives g_M with far fewer
    branches when S'_M is large.  Kept per argument for the tests' whole
    run: a Poly is immutable."""
    degree = n + 1 + weighted_degree(m)
    found: list[Monomial] = []

    def choose(t: int, rem: int, left: int, asuf: int, suffix: Monomial) -> None:
        # suffix = (a_{t+1}, ..., a_k), of sum asuf; rem is the weighted
        # degree left for a_1, ..., a_t, and left the exponent sum
        c = asuf - sum(m[t - 1 :])
        if t == 1:
            if rem <= left and binom_parity(rem + c, rem):
                found.append((rem,) + suffix)
            return
        for x in range(min(rem // t, left) + 1):
            if rem - t * x > (t - 1) * (left - x):
                continue
            if t == k or binom_parity(x + c, x):
                choose(t - 1, rem - t * x, left - x, asuf + x, (x,) + suffix)

    choose(k, degree, degree if cap is None else cap, 0, ())
    return Poly._make(k, frozenset(a for a in found if p_product(a, m)))


def _times_variable(g: Poly, j: int) -> frozenset:
    """The terms of w_j * g: every term's j-th exponent raised by one."""
    p = j - 1
    if max((t[p] for t in g.terms), default=0) >= MAX_EXPONENT:
        raise OverflowError(f"exponent overflow multiplying by w{j}")
    return frozenset(t[:p] + (t[p] + 1,) + t[p + 1 :] for t in g.terms)


def g_recurrence_step_reference(
    ctx: GrassmannContext,
    m: tuple[int, ...],
    i: int,
    j: int,
    lookup: Callable[[tuple[int, ...]], Poly],
) -> Poly:
    """g_{M^{i,j}} = w_i g_{M^j} + w_{j+1} g_{M^{i-1}} + g_{M^{i-1,j+1}} on
    exponent tuples; the third summand is absent when j = k-1."""
    k = ctx.k
    if not 1 <= i <= j <= k - 1:
        raise ValueError(f"need 1 <= i <= j <= {k - 1}, got i={i}, j={j}")
    terms = _times_variable(lookup(raised(m, j)), i)
    terms ^= _times_variable(lookup(raised(m, i - 1)), j + 1)
    if j < k - 1:
        terms ^= lookup(raised2(m, i - 1, j + 1)).terms
    return Poly._make(k, terms)


def indices_up_to_reference(k: int, bound: int) -> list[tuple[int, ...]]:
    """All (k-1)-tuples with entry sum <= bound, increasing lex-from-the-right."""
    everything = (
        m
        for m in itertools.product(range(bound + 1), repeat=k - 1)
        if sum(m) <= bound
    )
    return sorted(everything, key=lambda m: m[::-1])


def standard_basis_reference(k: int, n: int) -> list[Monomial]:
    """All k-tuples with entry sum <= n, increasing grlex."""
    everything = (t for t in itertools.product(range(n + 1), repeat=k) if sum(t) <= n)
    return sorted(everything, key=grlex_key)


def generate_json_reference(ctx: GrassmannContext, indices) -> str:
    """``generate --format json`` output (without the final newline) for
    the given indices, each g_M computed by ``g_direct_reference``."""
    records = []
    for m in indices:
        g = g_direct_reference(ctx.k, ctx.n, m, ctx.n + 1)
        ordered = sorted(g.terms, key=grlex_key, reverse=True)
        records.append(
            {
                "M": list(m),
                "lt": list(leading_term_of(ctx, m)),
                "poly": [list(t) for t in ordered],
            }
        )
    return json.dumps(records, indent=2)


def structured_divisor(
    ctx: GrassmannContext, family: GroebnerFamily, term: Monomial
) -> tuple[int, ...]:
    """Divisor lookup without search: decrement exponents from the left
    until the sum is n+1; the tail of the result is the multi-index."""
    excess = sum(term) - (ctx.n + 1)
    b = list(term)
    for idx in range(ctx.k):
        take = b[idx] if b[idx] < excess else excess
        b[idx] -= take
        excess -= take
        if not excess:
            break
    return tuple(b[1:])


def normal_form_reference(
    ctx: GrassmannContext,
    f: Poly,
    family: Optional[GroebnerFamily] = None,
    choose_divisor: Callable[
        [GrassmannContext, GroebnerFamily, Monomial], tuple[int, ...]
    ] = structured_divisor,
) -> Poly:
    """Remainder of f modulo the family, reducing the grlex-max reducible
    term found by a full rescan at every step, by g_M from
    ``g_direct_reference`` capped at exponent sum n+1.  Any divisor
    ``choose_divisor`` returns must give the same remainder, since the
    basis is a Groebner basis; the family is only passed on to it."""
    if family is None:
        family = GroebnerFamily(ctx)
    n = ctx.n
    work = set(f.terms)
    while True:
        reducible = [t for t in work if sum(t) > n]
        if not reducible:
            break
        t = max(reducible, key=grlex_key)
        m = choose_divisor(ctx, family, t)
        g = g_direct_reference(ctx.k, n, m, n + 1)
        lt = leading_term_of(ctx, m)
        q = tuple(a - b for a, b in zip(t, lt))
        work.symmetric_difference_update(
            tuple(map(sum, zip(term, q))) for term in g.terms
        )
        if t in work:
            # g lacks its leading term, so this step would repeat forever
            raise RuntimeError(f"reducing {t} by g_{m} did not remove it")
    return Poly._make(ctx.k, frozenset(work))


def _mul_roots(
    a: frozenset, b: frozenset, trunc: Optional[int] = None
) -> frozenset:
    """Product in the root variables, keeping only terms of degree <= trunc
    when trunc is given."""
    out: set = set()
    toggle = out.symmetric_difference_update
    for x in a:
        for y in b:
            s = tuple(map(sum, zip(x, y)))
            if trunc is None or sum(s) <= trunc:
                toggle((s,))
    return frozenset(out)


def _symmetric_to_elementary(terms: frozenset, k: int) -> Poly:
    """Classical fundamental-theorem rewriting under lex order on roots:
    the exponent vector of the result is (c_1, ..., c_k) for e_1^{c_1} ...
    e_k^{c_k}, and e_i becomes w_i.  Every degree is rewritten in one pass:
    each product of the e_i is homogeneous, so it cancels terms of its own
    degree only."""
    roots = range(k)
    elementary = [
        Poly(k, (tuple(int(v in c) for v in roots) for c in subsets))
        for subsets in (itertools.combinations(roots, i) for i in range(1, k + 1))
    ]
    remaining = set(terms)
    out: set[Monomial] = set()
    while remaining:
        lead = max(remaining)  # tuple comparison is lex with x_1 > x_2 > ...
        if any(lead[i] < lead[i + 1] for i in range(k - 1)):
            raise ValueError(f"not symmetric: lex-leading {lead} is not sorted")
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


def poly_mul_reference(f: Poly, g: Poly) -> Poly:
    """f * g, one toggle per pair of terms, with ``Poly``'s overflow check."""
    if f.k != g.k:
        raise ValueError(f"variable counts differ: {f.k} != {g.k}")
    out: set[Monomial] = set()
    toggle = out.symmetric_difference_update
    for a in f.terms:
        for b in g.terms:
            toggle((tuple(map(sum, zip(a, b))),))
    for t in out:
        if max(t) > MAX_EXPONENT:
            raise OverflowError(f"exponent overflow in product term {t}")
    return Poly._make(f.k, frozenset(out))


def tensor_square_sw_permanent_reference(k: int) -> Poly:
    """w(gamma_k (x) gamma_k) as the resultant's permanent over ``Poly``:
    the same rows and the same subset-keyed partial products as the
    package, with ``poly_mul_reference`` for every product."""
    w = [Poly.one(k)] + [Poly.variable(k, m) for m in range(1, k + 1)]
    row = [
        sum((w[k - p] for p in range(q + 1, k + 1) if q & (p - q) == 0), Poly.zero(k))
        for q in range(k)
    ]
    rows = [row]
    for _ in range(k - 1):
        row = [poly_mul_reference(row[-1], w[k])] + [
            row[q - 1] + poly_mul_reference(row[-1], w[k - q]) for q in range(1, k)
        ]
        rows.append(row)
    partial = {0: w[0]}
    for row in rows:
        merged: dict[int, Poly] = {}
        for used, prod in partial.items():
            for c, entry in enumerate(row):
                if entry and not used >> c & 1:
                    key = used | 1 << c
                    merged[key] = merged.get(key, Poly.zero(k)) + poly_mul_reference(prod, entry)
        partial = merged
    return partial[(1 << k) - 1]


def weighted_degree_reference(mono: Monomial) -> int:
    """sum j * a_j, one generator step per variable."""
    return sum(j * a for j, a in enumerate(mono, start=1))


def weighted_components(f: Poly) -> dict[int, Poly]:
    """Split f into homogeneous parts keyed by weighted degree, in
    increasing degree."""
    buckets: dict[int, set[Monomial]] = {}
    for t in f.terms:
        buckets.setdefault(weighted_degree(t), set()).add(t)
    return {d: Poly(f.k, ts) for d, ts in sorted(buckets.items())}


def normal_bundle_sw_reference(
    n: int,
    choose_divisor: Callable[
        [GrassmannContext, GroebnerFamily, Monomial], tuple[int, ...]
    ] = structured_divisor,
) -> dict[int, CohomologyClass]:
    """The normal classes of G_{5,n} as ``normal_bundle_sw`` gives them:
    w(gamma (x) gamma) from ``tensor_square_sw_reference``, of top degree
    k(k-1), times w(gamma)^e, multiplied as ``Poly``s, split by weighted
    degree, and each degree through ``normal_form_reference``, which is
    passed ``choose_divisor``."""
    k = 5
    ctx = GrassmannContext(k, n)
    e = 2 ** (n + k - 1).bit_length() - n - k
    total_w = sum((Poly.variable(k, j) for j in range(1, k + 1)), Poly.one(k))
    components = weighted_components(tensor_square_sw_reference(k, k * (k - 1)) * total_w**e)
    zero = Poly.zero(k)
    return {
        d: CohomologyClass(
            ctx,
            normal_form_reference(ctx, components.get(d, zero), choose_divisor=choose_divisor),
        )
        for d in range(k * (k - 1) + k * e + 1)
    }


def wu_reference(i: int, j: int, k: int) -> Poly:
    """Sq^i(w_j) by Wu's formula with exact binomials: the sum over
    0 <= t <= i of binom(j-i+t-1, t) w_{i-t} w_{j+t}, with w_0 = 1 and
    w_m = 0 for m > k.  It is 0 for i > j, above the degree of w_j."""
    if i > j:
        return Poly.zero(k)
    terms = []
    for t in range(i + 1):
        if j + t <= k and binom_int(j - i + t - 1, t) % 2:
            # w_{i-t} w_{j+t} as an exponent tuple, whose entry 0 stands for w_0
            exps = [0] * (k + 1)
            exps[i - t] += 1
            exps[j + t] += 1
            terms.append(tuple(exps[1:]))
    return Poly(k, terms)


def _sq_power(i: int, j: int, m: int, k: int) -> Poly:
    """Sq^i(w_j^m) by binary splitting over the Cartan formula."""
    if i == 0:
        return Poly.monomial(tuple(m if v == j - 1 else 0 for v in range(k)))
    if i > j * m:
        return Poly.zero(k)
    if m == 1:
        return wu_reference(i, j, k)
    if m % 2 == 0:
        if i % 2:
            return Poly.zero(k)
        return _sq_power(i // 2, j, m // 2, k).square()
    acc = Poly.zero(k)
    for a in range(min(i, j) + 1):
        left = wu_reference(a, j, k)
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


def sq_reference(i: int, f: Poly) -> Poly:
    """Sq^i of a polynomial: Cartan across the variables of each term, and
    across each power by binary splitting."""
    if i < 0:
        raise ValueError("negative square")
    if i == 0:
        return f
    acc = Poly.zero(f.k)
    for t in f.terms:
        acc = acc + _sq_monomial(i, t, f.k)
    return acc


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _neg_key(t: Monomial):
    # heapq is a min-heap; this key pops the grlex-largest monomial first
    return (-sum(t), tuple(-x for x in t), t)


class _Reducer:
    """Normal forms against a growing basis, with generic divisor search.

    Divisor hits and shifted basis multiples are memoized per monomial;
    cache entries stay valid when the basis grows because any recorded
    divisor keeps dividing its monomial.
    """

    def __init__(self, k: int):
        self.k = k
        self.lts: list[Monomial] = []
        self.polys: list[frozenset] = []
        self._div: dict[Monomial, int | None] = {}
        self._scanned: dict[Monomial, int] = {}
        self._prod: dict[tuple[int, Monomial], frozenset] = {}

    def add(self, terms: frozenset) -> int:
        lt = max(terms, key=grlex_key)
        self.lts.append(lt)
        self.polys.append(terms)
        return len(self.lts) - 1

    def divisor(self, t: Monomial) -> int | None:
        found = self._div.get(t)
        if found is not None:
            return found
        start = self._scanned.get(t, 0)
        for gi in range(start, len(self.lts)):
            if _divides(self.lts[gi], t):
                self._div[t] = gi
                return gi
        self._scanned[t] = len(self.lts)
        return None

    def _product(self, gi: int, q: Monomial) -> frozenset:
        key = (gi, q)
        cached = self._prod.get(key)
        if cached is None:
            cached = frozenset(
                tuple(map(sum, zip(term, q))) for term in self.polys[gi]
            )
            self._prod[key] = cached
        return cached

    def normal_form(self, terms) -> frozenset:
        work = set(terms)
        heap = [_neg_key(t) for t in work]
        heapq.heapify(heap)
        remainder = set()
        while heap:
            t = heapq.heappop(heap)[2]
            if t not in work:
                continue
            gi = self.divisor(t)
            if gi is None:
                work.remove(t)
                remainder.add(t)
                continue
            q = tuple(a - b for a, b in zip(t, self.lts[gi]))
            prod = self._product(gi, q)
            fresh = prod - work
            work.symmetric_difference_update(prod)
            for u in fresh:
                heapq.heappush(heap, _neg_key(u))
        return frozenset(remainder)


def _update_pairs(
    lts: list[Monomial], pairs: set[tuple[int, int]], h: int
) -> set[tuple[int, int]]:
    """Gebauer-Moller pair update after appending basis element h."""
    lth = lts[h]
    lcm_h = {g: _lcm(lth, lts[g]) for g in range(h)}
    candidates = list(range(h))
    kept: list[int] = []
    while candidates:
        g = candidates.pop()
        l = lcm_h[g]
        if _coprime(lth, lts[g]) or (
            not any(_divides(lcm_h[g2], l) for g2 in candidates)
            and not any(_divides(lcm_h[g2], l) for g2 in kept)
        ):
            kept.append(g)
    fresh = {(g, h) for g in kept if not _coprime(lth, lts[g])}
    surviving = set()
    for g1, g2 in pairs:
        l12 = _lcm(lts[g1], lts[g2])
        if (
            not _divides(lth, l12)
            or _lcm(lts[g1], lth) == l12
            or _lcm(lth, lts[g2]) == l12
        ):
            surviving.add((g1, g2))
    return surviving | fresh


def buchberger_reference(generators: list[Poly]) -> list[Poly]:
    """A (non-reduced) Groebner basis of the ideal spanned by the input."""
    if not generators:
        raise ValueError("need at least one generator")
    k = generators[0].k
    for g in generators:
        if not g:
            raise ValueError("zero generator")
        if g.k != k:
            raise ValueError("generators have mixed variable counts")

    reducer = _Reducer(k)
    sugar: list[int] = []
    pairs: set[tuple[int, int]] = set()
    heap: list = []

    def pair_key(p: tuple[int, int]):
        lcm = _lcm(reducer.lts[p[0]], reducer.lts[p[1]])
        pair_sugar = max(
            sugar[g] + weighted_degree(lcm) - weighted_degree(reducer.lts[g]) for g in p
        )
        return (pair_sugar,) + grlex_key(lcm)

    for g in generators:
        reduced = reducer.normal_form(g.terms)
        if not reduced:
            continue
        h = reducer.add(reduced)
        sugar.append(max(weighted_degree(t) for t in g.terms))
        pairs = _update_pairs(reducer.lts, pairs, h)
        for p in pairs:
            heapq.heappush(heap, (pair_key(p), p))
    if not reducer.polys:
        raise ValueError("generators span the zero ideal")

    while heap:
        (s, _, _), pair = heapq.heappop(heap)
        if pair not in pairs:
            continue
        pairs.discard(pair)
        g1, g2 = pair
        lt1, lt2 = reducer.lts[g1], reducer.lts[g2]
        lcm = _lcm(lt1, lt2)
        s_terms = set()
        q1 = tuple(a - b for a, b in zip(lcm, lt1))
        q2 = tuple(a - b for a, b in zip(lcm, lt2))
        s_terms.symmetric_difference_update(reducer._product(g1, q1))
        s_terms.symmetric_difference_update(reducer._product(g2, q2))
        reduced = reducer.normal_form(s_terms)
        if not reduced:
            continue
        h = reducer.add(reduced)
        sugar.append(s)
        before = pairs
        pairs = _update_pairs(reducer.lts, pairs, h)
        for p in pairs - before:
            heapq.heappush(heap, (pair_key(p), p))

    return [Poly._make(k, terms) for terms in reducer.polys]


def reduce_basis_reference(gb: list[Poly]) -> list[Poly]:
    """The unique reduced basis: minimal leads, every element tail-reduced,
    sorted by grlex of the leading term."""
    if not gb:
        raise ValueError("empty basis")
    k = gb[0].k
    entries = sorted(((g.leading_term(), g) for g in gb), key=lambda e: grlex_key(e[0]))
    minimal: list[tuple[Monomial, Poly]] = []
    for lt, g in entries:
        if not any(_divides(prev_lt, lt) for prev_lt, _ in minimal):
            minimal.append((lt, g))

    current = [g for _, g in minimal]
    while True:
        updated = []
        changed = False
        for idx, g in enumerate(current):
            reducer = _Reducer(k)
            for jdx, other in enumerate(current):
                if jdx != idx:
                    reducer.add(other.terms)
            reduced = Poly._make(k, reducer.normal_form(g.terms))
            if reduced != g:
                changed = True
            updated.append(reduced)
        current = updated
        if not changed:
            break
    current.sort(key=lambda g: grlex_key(g.leading_term()))
    return current


def oracle_reduce_reference(f: Poly, basis: list[Poly]) -> Poly:
    """Full normal form of f against an arbitrary basis (generic search)."""
    reducer = _Reducer(f.k)
    for g in basis:
        reducer.add(g.terms)
    return Poly._make(f.k, reducer.normal_form(f.terms))


class _Parser:
    def __init__(self, text: str, k: int):
        self.text = text
        self.k = k
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def read_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.text[start : self.pos])

    def parse(self) -> Poly:
        self.skip_ws()
        if self.peek() == "0":
            mark = self.pos
            self.pos += 1
            self.skip_ws()
            if self.pos == len(self.text):
                return Poly.zero(self.k)
            self.pos = mark
            raise self.error("'0' must stand alone")
        terms = [self.parse_term()]
        self.skip_ws()
        while self.pos < len(self.text):
            if self.peek() != "+":
                raise self.error("expected '+'")
            self.pos += 1
            self.skip_ws()
            terms.append(self.parse_term())
            self.skip_ws()
        return Poly(self.k, terms)

    def parse_term(self) -> Monomial:
        if self.peek() == "1":
            self.pos += 1
            return (0,) * self.k
        exps = [0] * self.k
        self.parse_factor(exps)
        while self.peek() == "*":
            self.pos += 1
            self.parse_factor(exps)
        return tuple(exps)

    def parse_factor(self, exps: list[int]) -> None:
        if self.peek() != "w":
            raise self.error("expected a factor 'w<index>'")
        self.pos += 1
        idx_pos = self.pos
        index = self.read_int()
        if not 1 <= index <= self.k:
            self.pos = idx_pos
            raise self.error(f"variable index {index} out of 1..{self.k}")
        exp = 1
        if self.peek() == "^":
            self.pos += 1
            exp_pos = self.pos
            exp = self.read_int()
            if exp < 1:
                self.pos = exp_pos
                raise self.error("exponent must be >= 1")
            if exp > MAX_EXPONENT:
                self.pos = exp_pos
                raise self.error("exponent overflow")
        exps[index - 1] += exp
        if exps[index - 1] > MAX_EXPONENT:
            raise self.error("exponent overflow")


def parse_reference(text: str, k: int) -> Poly:
    """``parse`` by a character-at-a-time scanner."""
    return _Parser(text, k).parse()
