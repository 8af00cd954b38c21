import math
import random

import pytest
from reference import (
    g_direct_reference,
    g_recurrence_step_reference,
    indices_up_to_reference,
)

from grassgb.combinatorics import binom_parity
from grassgb.dual_classes import wbar_recurrence
from grassgb.f2poly import (
    MAX_EXPONENT,
    Poly,
    grlex_key,
    monomials_of_weighted_degree,
    parse,
)
from grassgb.groebner_family import (
    GrassmannContext,
    GroebnerFamily,
    _indices_up_to,
    build_family,
    g_closed_form,
    g_direct,
    g_recurrence_step,
    leading_term_of,
    raised,
    raised2,
)

CTX22 = GrassmannContext(2, 2)


def test_context_validation():
    with pytest.raises(ValueError):
        GrassmannContext(3, 2)
    with pytest.raises(ValueError):
        GrassmannContext(1, 5)


def test_g_direct_small_instance():
    assert g_direct(CTX22, (0,)) == parse("w1^3", 2)
    assert g_direct(CTX22, (1,)) == parse("w1^2*w2 + w2^2", 2)
    assert g_direct(CTX22, (2,)) == parse("w1*w2^2", 2)
    assert g_direct(CTX22, (3,)) == parse("w2^3", 2)


def test_g_direct_zero_index_is_dual_class():
    for k, n in ((2, 3), (3, 4), (4, 5)):
        ctx = GrassmannContext(k, n)
        assert g_direct(ctx, (0,) * (k - 1)) == wbar_recurrence(n + 1, k)


def test_g_direct_k5_two_term_element():
    n = 6
    ctx = GrassmannContext(5, n)
    expected = parse(f"w1^2*w5^{n - 1} + w2*w5^{n - 1}", 5)
    assert g_direct(ctx, (0, 0, 0, n - 1)) == expected


def test_g_direct_defined_beyond_family_bound():
    # S_M > n+1 is allowed by the defining sum
    g = g_direct(CTX22, (5,))
    assert all(len(t) == 2 for t in g.terms)


def test_leading_term_of():
    assert leading_term_of(CTX22, (1,)) == (2, 1)
    assert leading_term_of(GrassmannContext(5, 9), (0, 0, 0, 9)) == (1, 0, 0, 0, 9)
    assert leading_term_of(GrassmannContext(3, 3), (0, 0)) == (4, 0, 0)
    with pytest.raises(ValueError):
        leading_term_of(CTX22, (4,))


def test_raising_helpers():
    assert raised((1, 2), 2) == (1, 3)
    assert raised((1, 2), 0) == (1, 2)
    assert raised2((0, 0, 0), 1, 3) == (1, 0, 1)
    assert raised2((0, 0, 0), 0, 2) == (0, 1, 0)
    assert raised2((0, 0), 1, 1) == (2, 0)


@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_family_size_and_leading_terms(k, n):
    ctx = GrassmannContext(k, n)
    family = build_family(ctx)
    count = 0
    seen_lts = set()
    for m, g in family.items():
        count += 1
        lt = g.leading_term()
        assert lt == leading_term_of(ctx, m)
        seen_lts.add(lt)
        for t in g.terms - {lt}:
            assert sum(t) <= n
    assert count == math.comb(n + k, k - 1) == len(family)
    # leading terms are exactly the monomials of exponent sum n+1
    assert all(sum(t) == n + 1 for t in seen_lts)
    assert len(seen_lts) == count


def test_family_iteration_order_is_lex_from_the_right():
    family = GroebnerFamily(GrassmannContext(3, 3))
    indices = list(family.multi_indices())
    assert indices == sorted(indices, key=lambda m: m[::-1])
    assert indices[0] == (0, 0)


def test_reducedness():
    ctx = GrassmannContext(3, 4)
    family = build_family(ctx)
    lts = [leading_term_of(ctx, m) for m in family.multi_indices()]
    for m, g in family.items():
        own = leading_term_of(ctx, m)
        for t in g.terms:
            for lt in lts:
                if lt != own:
                    assert not all(x <= y for x, y in zip(lt, t)), (m, t, lt)


@pytest.mark.parametrize("k,n", [(2, 3), (3, 4), (5, 6)])
def test_closed_form_agrees_with_direct(k, n):
    ctx = GrassmannContext(k, n)
    family = GroebnerFamily(ctx)
    covered = 0
    for m in family.multi_indices():
        cf = g_closed_form(ctx, m)
        if cf is not None:
            covered += 1
            assert cf == g_direct(ctx, m), m
    assert covered > 0


def test_closed_form_known_shapes():
    n = 6
    ctx = GrassmannContext(5, n)
    assert g_closed_form(ctx, (0, 0, 0, n)) == parse(f"w1*w5^{n}", 5)
    assert g_closed_form(ctx, (1, 0, 0, n)) == parse(f"w2*w5^{n}", 5)
    assert g_closed_form(ctx, (0, 0, 0, n - 1)) == parse(
        f"w1^2*w5^{n - 1} + w2*w5^{n - 1}", 5
    )
    assert g_closed_form(ctx, (0, 1, 0, n - 1)) == parse(
        f"w1*w3*w5^{n - 1} + w4*w5^{n - 1}", 5
    )
    # generic interior index has no closed form
    assert g_closed_form(ctx, (1, 1, 0, 0)) is None


def test_recurrence_step_matches_direct():
    ctx = GrassmannContext(3, 3)
    lookup = lambda m: g_direct(ctx, m)
    k, n = ctx.k, ctx.n
    for m2 in range(n):
        for m3 in range(n - m2):
            m = (m2, m3)
            for i in range(1, k):
                for j in range(i, k):
                    got = g_recurrence_step(ctx, m, i, j, lookup)
                    assert got == g_direct(ctx, raised2(m, i, j)), (m, i, j)


def test_recurrence_step_validates_indices():
    ctx = GrassmannContext(3, 3)
    lookup = lambda m: g_direct(ctx, m)
    with pytest.raises(ValueError):
        g_recurrence_step(ctx, (0, 0), 2, 1, lookup)
    with pytest.raises(ValueError):
        g_recurrence_step(ctx, (0, 0), 1, 3, lookup)


def test_recurrence_step_overflow_guard():
    ctx = GrassmannContext(2, 2)
    big = Poly(2, [(MAX_EXPONENT, 0)])
    with pytest.raises(OverflowError):
        g_recurrence_step(ctx, (0,), 1, 1, lambda m: big)


def _edge_steps(k: int, n: int):
    """(M, i, j) at the edges of the recurrence: i = 1, j = k-1 (no third
    summand; at k = 2 every step), and S_M = n-1, so that M^{i,j} has
    S = n+1, the top level of the family."""
    steps = []
    for i in range(1, k):
        for j in range(i, k):
            if i == 1 or j == k - 1:
                steps.append(((0,) * (k - 1), i, j))
            for pos in range(k - 1):
                m = [0] * (k - 1)
                m[pos] = n - 1
                steps.append((tuple(m), i, j))
            steps.append(((1,) * (k - 2) + (n + 1 - k,), i, j))
    return steps


@pytest.mark.parametrize("k", range(2, 7))
def test_recurrence_step_matches_reference(k):
    rng = random.Random(4000 + k)
    for n in (k, k + 3, 11):
        ctx = GrassmannContext(k, n)
        lookup = lambda m: g_direct(ctx, m)
        steps = _edge_steps(k, n)
        for _ in range(40):
            m = tuple(rng.randint(0, 2) for _ in range(k - 1))
            i = rng.randint(1, k - 1)
            steps.append((m, i, rng.randint(i, k - 1)))
        for m, i, j in steps:
            got = g_recurrence_step(ctx, m, i, j, lookup)
            assert got == g_recurrence_step_reference(ctx, m, i, j, lookup), (n, m, i, j)
            assert got == g_direct(ctx, raised2(m, i, j)), (n, m, i, j)


@pytest.mark.parametrize("k", range(2, 7))
def test_recurrence_step_matches_reference_on_random_summands(k):
    # arbitrary polynomials on the right, so that terms cancel in ways the
    # family's own elements may not show
    rng = random.Random(5000 + k)
    ctx = GrassmannContext(k, 9)
    top = (1 << GroebnerFamily(ctx).width) - 2
    for _ in range(30):
        pool = [tuple(rng.randint(0, top) for _ in range(k)) for _ in range(6)]
        polys = {}

        def lookup(m):
            if m not in polys:
                polys[m] = Poly(k, rng.sample(pool, rng.randint(0, 4)))
            return polys[m]

        m = tuple(rng.randint(0, 3) for _ in range(k - 1))
        i = rng.randint(1, k - 1)
        j = rng.randint(i, k - 1)
        got = g_recurrence_step(ctx, m, i, j, lookup)
        assert got == g_recurrence_step_reference(ctx, m, i, j, lookup), (m, i, j)


def test_recurrence_step_overflow_boundary():
    # W = 4 at (2, 2): an exponent the step raises may be at most 2^W - 2
    ctx = GrassmannContext(2, 2)
    top = (1 << GroebnerFamily(ctx).width) - 1
    assert top == 15

    def lookup_with(a, b):
        # g_{M^j} = g_(1,) gets w_1, g_{M^{i-1}} = g_(0,) gets w_2
        return lambda m: Poly(2, [(a, top)] if m == (1,) else [(top, b)])

    for a, b in ((top - 1, 0), (0, top - 1), (top - 1, top - 1)):
        lookup = lookup_with(a, b)
        got = g_recurrence_step(ctx, (0,), 1, 1, lookup)
        assert got == g_recurrence_step_reference(ctx, (0,), 1, 1, lookup)
        assert got == Poly(2, [(a + 1, top), (top, b + 1)])
    for a, b in ((top, 0), (0, top)):
        with pytest.raises(OverflowError):
            g_recurrence_step(ctx, (0,), 1, 1, lookup_with(a, b))
    # the third summand is not shifted, so 2^W - 1 fits there (W = 5 at (3, 3))
    ctx = GrassmannContext(3, 3)
    top = (1 << GroebnerFamily(ctx).width) - 1
    third = Poly(3, [(top, top, top)])
    lookup = lambda m: third if m == (0, 1) else Poly.zero(3)
    assert g_recurrence_step(ctx, (0, 0), 1, 1, lookup) == third
    with pytest.raises(OverflowError):
        g_recurrence_step(ctx, (0, 0), 1, 1, lambda m: Poly(3, [(top + 1, 0, 0)]))


def test_family_width_holds_every_exponent():
    # g_M has weighted degree at most k(n+1), which bounds every exponent
    # and the exponent sum; W = bitlen(kn) + 1 gives 2^W > 2kn >= k(n+1)
    for k in range(2, 9):
        for n in range(k, 301):
            family = GroebnerFamily(GrassmannContext(k, n))
            assert k * (n + 1) < 1 << family.width, (k, n)
            assert family.width == (k * n).bit_length() + 1


@pytest.mark.parametrize("k,n", [(2, 3), (4, 6), (6, 7)])
def test_packing_round_trips_in_grlex_order(k, n):
    family = GroebnerFamily(GrassmannContext(k, n))
    rng = random.Random(k * 100 + n)
    top = k * (n + 1)
    monomials = [tuple(rng.randint(0, top) for _ in range(k)) for _ in range(300)]
    packed = [family.pack(t) for t in monomials]
    assert list(family.unpack(packed)) == monomials
    assert sorted(monomials, key=grlex_key) == list(family.unpack(sorted(packed)))
    # w_j times a monomial is one add
    for j in range(1, k + 1):
        t = monomials[j]
        raised_t = t[: j - 1] + (t[j - 1] + 1,) + t[j:]
        assert family.pack(raised_t) == family.pack(t) + family.pack(
            Poly.variable(k, j).leading_term()
        )


def test_memo_holds_packed_terms():
    ctx = GrassmannContext(4, 6)
    family = build_family(ctx)
    for m, terms in family.packed_items():
        assert all(type(v) is int for v in terms)
        assert family.to_poly(terms) == g_direct(ctx, m)
        assert family.packed_terms(m) is terms


def _assert_walk_matches_recurrence(built: GroebnerFamily) -> None:
    # each g_M is one tuple of packed ints, strictly decreasing with the
    # lead first, and the walk and the recurrence give the same tuple
    ctx = built.context
    unbuilt = GroebnerFamily(ctx)
    for m, terms in built.packed_items():
        walked = unbuilt.packed_terms(m)
        for t in (terms, walked):
            assert type(t) is tuple and all(type(v) is int for v in t), m
            assert all(a > b for a, b in zip(t, t[1:])), m
            assert t[0] == built.pack(leading_term_of(ctx, m)), m
        assert walked == terms, m
    assert not unbuilt._memo


# k*n = 2^j - 1 or 2^j: the family's field width is as tight as it gets
@pytest.mark.parametrize("k,n", [(3, 5), (3, 21), (2, 8), (4, 4), (4, 16)])
def test_walk_matches_recurrence_at_width_edges(k, n):
    _assert_walk_matches_recurrence(build_family(GrassmannContext(k, n)))


def test_g_direct_above_the_family_width():
    # exponents 34 and 35, above the fields of the (2,2) and (3,4) families
    for k, n, m in ((2, 2, (39,)), (3, 4, (39, 0))):
        assert g_direct(GrassmannContext(k, n), m) == g_direct_reference(k, n, m)


# the k = 2..6 grid, n in {k, 7, 9}, and one larger family
FAMILY_GRID = [(k, n) for k in range(2, 7) for n in sorted({k, 7, 9})] + [(5, 12)]


@pytest.mark.parametrize("k,n", FAMILY_GRID)
def test_whole_family_by_recurrence_matches_direct(k, n):
    ctx = GrassmannContext(k, n)
    family = build_family(ctx)
    for m, g in family.items():
        assert g == g_direct(ctx, m), m
    assert list(dict(family.items())) == indices_up_to_reference(k, n + 1)
    _assert_walk_matches_recurrence(family)


def test_element_unpacks_packed_terms():
    ctx = GrassmannContext(4, 6)
    built, unbuilt = build_family(ctx), GroebnerFamily(ctx)
    for family in (built, unbuilt):
        for m in family.multi_indices():
            assert family.element(m) == family.to_poly(family.packed_terms(m)), m
    # S_M = n+2 lies outside the family; g_direct still gives g_M there
    for m in ((8, 0, 0), (0, 3, 5), (2, 2, 4)):
        for family in (built, unbuilt):
            with pytest.raises(ValueError, match="exceeds"):
                family.element(m)
        assert g_direct(ctx, m) == g_direct_reference(4, 6, m), m
    assert not unbuilt._memo


def test_packed_terms_takes_any_index_sequence():
    ctx = GrassmannContext(3, 4)
    for family in (build_family(ctx), GroebnerFamily(ctx)):
        assert family.packed_terms([1, 0]) == family.packed_terms((1, 0))


def test_items_keeps_elements_already_filled():
    ctx = GrassmannContext(4, 6)
    family = GroebnerFamily(ctx)
    for m in ((0, 0, 0), (1, 2, 0), (0, 3, 4), (2, 0, 5)):
        assert family.element(m) == g_direct(ctx, m)
    assert not family._memo  # only the recurrence fills the memo
    table = dict(family.items())
    assert all(table[m] == g_direct(ctx, m) for m in table)
    assert family.polynomials() == list(table.values())


@pytest.mark.parametrize("k", range(2, 7))
def test_indices_match_reference(k):
    for bound in range(13):
        assert _indices_up_to(k, bound) == indices_up_to_reference(k, bound), bound


def test_recurrence_derivation_of_eq9():
    # w_k g_{N_{k-1}} = g_{N^1} + w_1 g_N at k=5
    n = 6
    ctx = GrassmannContext(5, n)
    n_tuple = (0, 0, 0, n)
    n_minus = (0, 0, 0, n - 1)
    lhs = Poly.variable(5, 5) * g_direct(ctx, n_minus)
    rhs = g_direct(ctx, raised(n_tuple, 1)) + Poly.variable(5, 1) * g_direct(ctx, n_tuple)
    assert lhs == rhs


def test_lemma_m00_identity():
    for k, n in ((2, 3), (3, 4)):
        ctx = GrassmannContext(k, n)
        for m in range(7):
            index = (m,) + (0,) * (k - 2)
            expected = Poly.zero(k)
            for i in range(m + 1):
                if binom_parity(m, i):
                    expected = expected + Poly.monomial(
                        (m - i,) + (0,) * (k - 1)
                    ) * wbar_recurrence(n + 1 + i, k)
            assert g_direct(ctx, index) == expected, (k, n, m)


def test_index_validation():
    with pytest.raises(ValueError):
        g_direct(CTX22, (1, 1))
    with pytest.raises(ValueError):
        g_direct(CTX22, (-1,))


def test_parity_rule_matches_binom_parity():
    # the kernel's admissibility test for a coordinate x with offset c
    for c in range(-299, 300):
        for x in range(200):
            assert (x & c == 0) == bool(binom_parity(x + c, x)), (x, c)


def test_g_direct_matches_reference_on_random_indices():
    rng = random.Random(20261018)
    for _ in range(200):
        k = rng.randint(2, 6)
        n = rng.randint(k, 14)
        m = tuple(rng.randint(0, n + 1) for _ in range(k - 1))
        if sum(m) > n + 3:
            m = tuple(x * (n + 3) // sum(m) for x in m)
        ctx = GrassmannContext(k, n)
        assert g_direct(ctx, m) == g_direct_reference(k, n, m), (k, n, m)


def test_g_direct_matches_reference_on_edge_indices():
    for k, n in ((2, 2), (2, 7), (3, 5), (4, 6), (5, 8), (6, 6)):
        ctx = GrassmannContext(k, n)
        indices = {(0,) * (k - 1)}
        for pos in range(k - 1):
            for value in (n - 1, n, n + 1):
                m = [0] * (k - 1)
                m[pos] = value
                indices.add(tuple(m))
        # S_M = n+1 and S_M > n+1, with the mass spread out
        indices.add((1,) * (k - 2) + (n + 1 - (k - 2),))
        indices.add((1,) * (k - 2) + (n + 3 - (k - 2),))
        indices.add((n + 2,) + (0,) * (k - 2))
        for m in sorted(indices):
            assert g_direct(ctx, m) == g_direct_reference(k, n, m), (k, n, m)


def test_memo_lives_on_the_family():
    ctx = GrassmannContext(3, 4)
    first, second = GroebnerFamily(ctx), GroebnerFamily(ctx)
    g = first.element((1, 2))
    assert first.element([1, 2]) == g
    assert not first._memo  # a single element is not kept
    first.polynomials()
    assert first._memo and not second._memo
    assert first.element([1, 2]) == second.element((1, 2)) == g
    assert not hasattr(g_direct, "cache_info")
    assert not hasattr(monomials_of_weighted_degree, "cache_info")
