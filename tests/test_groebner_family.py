import bisect
import itertools
import math
import os
import random
import re
import subprocess
import sys
from collections.abc import Mapping

import pytest
from reference import (
    binom_parity,
    g_direct_reference,
    g_recurrence_step_reference,
    indices_up_to_reference,
    poly_mul_reference,
    weighted_components,
)

import grassgb
from grassgb import groebner_family
from grassgb.cohomology import CohomologyClass, cup
from grassgb.dual_classes import wbar_recurrence
from grassgb.f2poly import (
    MAX_EXPONENT,
    Poly,
    grlex_key,
    monomials_of_weighted_degree,
    parse,
    weighted_degree,
)
from grassgb.groebner_family import (
    GrassmannContext,
    GroebnerFamily,
    Packing,
    _least_admissible,
    _print_order,
    build_family,
    g_closed_form,
    g_direct,
    g_recurrence_step,
    leading_term_of,
    raised,
    raised2,
)
from grassgb.steenrod import normal_bundle_sw

from conftest import random_poly

CTX22 = GrassmannContext(2, 2)


def test_context_validation():
    with pytest.raises(ValueError):
        GrassmannContext(3, 2)
    with pytest.raises(ValueError):
        GrassmannContext(1, 5)
    # a float k broke the family's packing later; a float n compared equal
    # to the int context while its family could not reduce
    for k, n in ((2.5, 5), (3, 4.0), ("3", 4), (3, None)):
        with pytest.raises(TypeError, match="k and n must be integers"):
            GrassmannContext(k, n)


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
    indices = [m for m, _ in family.items()]
    assert indices == sorted(indices, key=lambda m: m[::-1])
    assert indices[0] == (0, 0)


def test_reducedness():
    ctx = GrassmannContext(3, 4)
    family = build_family(ctx)
    lts = [leading_term_of(ctx, m) for m in indices_up_to_reference(3, 5)]
    for m, g in family.items():
        own = leading_term_of(ctx, m)
        for t in g.terms:
            for lt in lts:
                if lt != own:
                    assert not all(x <= y for x, y in zip(lt, t)), (m, t, lt)


@pytest.mark.parametrize("k,n", [(2, 3), (3, 4), (5, 6)])
def test_closed_form_agrees_with_direct(k, n):
    ctx = GrassmannContext(k, n)
    covered = 0
    for m in indices_up_to_reference(k, n + 1):
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
    # the summands must be polynomials in k variables
    with pytest.raises(ValueError, match="variable counts differ: 3 != 4"):
        g_recurrence_step(ctx, (0, 0), 1, 1, lambda m: Poly.one(4))
    with pytest.raises(TypeError, match="expected Poly"):
        g_recurrence_step(ctx, (0, 0), 1, 1, lambda m: {(1, 0, 0)})


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
    # the step packs in fields sized to its summands, not the family's, so
    # exponents at and past the family's field limit 2^W - 1 (W = 3 at
    # (2, 2)) are raised like any other
    ctx = GrassmannContext(2, 2)
    top = (1 << GroebnerFamily(ctx).width) - 1
    assert top == 7

    def lookup_with(a, b):
        # g_{M^j} = g_(1,) gets w_1, g_{M^{i-1}} = g_(0,) gets w_2
        return lambda m: Poly(2, [(a, top)] if m == (1,) else [(top, b)])

    for a, b in ((top - 1, 0), (0, top - 1), (top - 1, top - 1)):
        lookup = lookup_with(a, b)
        got = g_recurrence_step(ctx, (0,), 1, 1, lookup)
        assert got == g_recurrence_step_reference(ctx, (0,), 1, 1, lookup)
        assert got == Poly(2, [(a + 1, top), (top, b + 1)])
    for a, b in ((top, 0), (0, top)):
        got = g_recurrence_step(ctx, (0,), 1, 1, lookup_with(a, b))
        assert got == Poly(2, [(a + 1, top), (top, b + 1)])
    # W = 4 at (3, 3): the third summand is added as it is
    ctx = GrassmannContext(3, 3)
    top = (1 << GroebnerFamily(ctx).width) - 1
    third = Poly(3, [(top, top, top)])
    lookup = lambda m: third if m == (0, 1) else Poly.zero(3)
    assert g_recurrence_step(ctx, (0, 0), 1, 1, lookup) == third
    got = g_recurrence_step(ctx, (0, 0), 1, 1, lambda m: Poly(3, [(top + 1, 0, 0)]))
    assert got == Poly(3, [(top + 2, 0, 0), (top + 1, 1, 0), (top + 1, 0, 0)])


def test_family_width_holds_every_exponent():
    # the build's fields hold n+2: every exponent of g_M is at most n+1 by
    # the leading-term law, a build step's transient v + w_i at most n+2;
    # the family's hold kn, as a normal form meets weighted degree <= kn
    # only, and so every term of the memo moved into them, n+1 <= kn
    for k in range(2, 9):
        for n in range(k, 301):
            family = GroebnerFamily(GrassmannContext(k, n))
            assert family.build_packing.width == (n + 2).bit_length(), (k, n)
            assert family.width == (k * n).bit_length(), (k, n)
            assert k * n < 1 << family.width, (k, n)
            assert n + 1 <= k * n, (k, n)


@pytest.mark.parametrize("k,n", [(2, 3), (4, 6), (6, 7), (7, 20)])
def test_packing_round_trips_in_grlex_order(k, n):
    family = GroebnerFamily(GrassmannContext(k, n))
    rng = random.Random(k * 100 + n)
    # the fields' contract: each exponent at most kn
    top = k * n
    monomials = [tuple(rng.randint(0, top) for _ in range(k)) for _ in range(300)]
    packed = [family.pack(t) for t in monomials]
    # at (7,20) the packed ints pass 64 bits
    assert (max(packed).bit_length() > 64) == (k == 7)
    assert list(family.unpack(packed)) == monomials
    assert list(family.unpack(iter(packed))) == monomials
    assert sorted(monomials, key=grlex_key) == list(family.unpack(sorted(packed)))
    # w_j times a monomial is one add
    for j in range(1, k + 1):
        t = monomials[j]
        raised_t = t[: j - 1] + (t[j - 1] + 1,) + t[j:]
        assert family.pack(raised_t) == family.pack(t) + family.pack(
            Poly.variable(k, j).leading_term()
        )


@pytest.mark.parametrize("k", range(1, 8))
def test_packing_layout(k):
    # seeded monomials with fields at 0, at their largest value 2^W - 1
    # and in between: the exponent sum sits above the fields, so a full
    # field never spills into its neighbour.  Fields made to hold 2^W - 1
    # are W bits wide.
    rng = random.Random(7100 + k)
    for width in (1, 2, 5, 13):
        top = (1 << width) - 1
        packing = Packing(k, top)
        assert packing.width == width
        monomials = [(top,) * k, (0,) * k] + [
            tuple(rng.choice((0, top, rng.randint(0, top))) for _ in range(k)) for _ in range(200)
        ]
        packed = [packing.pack(t) for t in monomials]
        assert list(packing.unpack(packed)) == monomials, width
        assert list(packing.unpack(sorted(packed))) == sorted(monomials, key=grlex_key), width
        # fields gives the same exponents a field at a time, a_1 first
        assert list(map(list, packing.fields(packed))) == list(map(list, zip(*monomials))), width
        # a monomial product is an int sum whenever the product's fields
        # fit, up to 2^W - 1 each
        for a in monomials:
            b = tuple(rng.choice((top - x, rng.randint(0, top - x))) for x in a)
            product = tuple(x + y for x, y in zip(a, b))
            assert packing.pack(a) + packing.pack(b) == packing.pack(product), (width, a, b)
        assert packing.times[0] == packing.pack((0,) * k) == 0
        for j in range(1, k + 1):
            assert packing.times[j] == packing.pack(Poly.variable(k, j).leading_term()), (width, j)
    # fields of 32 bits: every field at 2^31 - 1 unpacks, and a field at 2^31
    # in any position raises
    packing = Packing(k, 2**31)
    top = (MAX_EXPONENT,) * k
    assert list(packing.unpack([packing.pack(top)])) == [top]
    for p in range(k):
        t = top[:p] + (2**31,) + top[p + 1 :]
        with pytest.raises(OverflowError, match="^exponent overflow in the term "):
            packing.unpack([packing.pack(t)])
        # fields checks as it is called, before any field is read
        with pytest.raises(OverflowError, match="^exponent overflow in the term "):
            packing.fields([packing.pack(top), packing.pack(t)])


def test_memo_holds_packed_terms():
    ctx = GrassmannContext(4, 6)
    family = build_family(ctx)
    for (m, g), (lead, terms) in zip(family.items(), family.packed_items()):
        assert all(type(v) is int for v in terms)
        assert lead == terms[0] == family.build_packing.pack(leading_term_of(ctx, m))
        assert family.build_packing.to_poly(terms) == g == g_direct(ctx, m)
        # a single element is walked, not read from the memo, and equal to it
        assert family.packed_terms(m) == terms


def _assert_walk_matches_recurrence(built: GroebnerFamily) -> None:
    # each g_M is one tuple of packed ints, strictly decreasing with the
    # lead first, and the walk and the recurrence give the same tuple
    ctx = built.context
    unbuilt = GroebnerFamily(ctx)
    for (m, _), (lead, terms) in zip(built.items(), built.packed_items()):
        assert lead == terms[0], m
        walked = unbuilt.packed_terms(m)
        for t in (terms, walked):
            assert type(t) is tuple and all(type(v) is int for v in t), m
            assert all(a > b for a, b in zip(t, t[1:])), m
            assert t[0] == built.build_packing.pack(leading_term_of(ctx, m)), m
        assert walked == terms, m
    assert not unbuilt._memo


# the family's fields hold k*n: at k*n = 2^j - 1 that fills all j bits, the
# tight case, and at k*n = 2^j the width has just grown by one bit
@pytest.mark.parametrize("k,n", [(3, 5), (3, 21), (2, 8), (4, 4), (4, 16)])
def test_walk_matches_recurrence_at_width_edges(k, n):
    _assert_walk_matches_recurrence(build_family(GrassmannContext(k, n)))


def _memo_monomials(family: GroebnerFamily):
    """The whole family in print order as its leads (n+1-S_M, M), its term
    counts and every term unpacked in turn, so two families built in
    different packings compare as monomials."""
    leads, items = zip(*family.packed_items())
    unpack = family.build_packing.unpack
    terms = list(unpack([v for t in items for v in t]))
    return list(unpack(leads)), [len(t) for t in items], terms


def _assert_build_matches_a_wide_build(ctx: GrassmannContext) -> None:
    # a build in fields that hold k*n >= n+2 gives the same memo as the
    # family's build in fields that hold n+2
    family, wide = build_family(ctx), GroebnerFamily(ctx)
    wide.build_packing = Packing(ctx.k, ctx.k * ctx.n)
    assert _memo_monomials(family) == _memo_monomials(wide)


# the build's fields hold n+2: at n = 6 and 14, n+2 = 2^W has just grown
# the width by one bit and n+1 = 2^(W-1) - 1 fills the bits below; at
# n = 7 and 15, n+1 = 2^(W-1) needs the top bit, which fields of n lack
@pytest.mark.parametrize("n", (6, 7, 14, 15))
@pytest.mark.parametrize("k", range(2, 7))
def test_build_matches_a_wide_build_at_width_edges(k, n):
    _assert_build_matches_a_wide_build(GrassmannContext(k, n))


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
    # every partial term of the pruned walk has fields at most its bound
    # n+1, so the walk runs in fields narrower than the build's n+2
    walk_packing = Packing(k, n + 1)
    for m, g in family.items():
        assert g == g_direct(ctx, m), m
        walked = groebner_family._walk(m, n + 1 + weighted_degree(m), walk_packing.times, n + 1)
        assert len(set(walked)) == len(walked) and walk_packing.to_poly(walked) == g, m
    assert list(dict(family.items())) == indices_up_to_reference(k, n + 1)
    _assert_walk_matches_recurrence(family)
    _assert_build_matches_a_wide_build(ctx)


def test_element_unpacks_packed_terms():
    ctx = GrassmannContext(4, 6)
    built, unbuilt = build_family(ctx), GroebnerFamily(ctx)
    for family in (built, unbuilt):
        for m in indices_up_to_reference(4, 7):
            assert family.element(m) == family.build_packing.to_poly(family.packed_terms(m)), m
    # S_M = n+2 lies outside the family; g_direct still gives g_M there
    for m in ((8, 0, 0), (0, 3, 5), (2, 2, 4)):
        for family in (built, unbuilt):
            with pytest.raises(ValueError, match="exceeds"):
                family.element(m)
        assert g_direct(ctx, m) == g_direct_reference(4, 6, m), m
    assert not unbuilt._memo


def test_element_past_the_exponent_cap_raises():
    # g_(0, 2^31) = (w1^2 + w2) w3^(2^31): two terms, so the walk is instant,
    # and unpacking them meets the cap
    family = GroebnerFamily(GrassmannContext(3, 2**31 + 1))
    with pytest.raises(OverflowError, match=re.escape("in the term w1^2*w3^2147483648")):
        family.element((0, 2**31))


def test_element_lead_past_the_exponent_cap_raises_before_the_walk(monkeypatch):
    # g_0 = wbar_{n+1} has about n/2 terms, a walk that would not end in
    # time; its lead w1^(n+1) is refused first
    def walk(*args):
        pytest.fail("walked g_0 past the exponent cap")

    monkeypatch.setattr(groebner_family, "_walk", walk)
    family = GroebnerFamily(GrassmannContext(2, 2**31 + 5))
    with pytest.raises(OverflowError, match=re.escape("in the term w1^2147483654")):
        family.element((0,))


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


def _assert_print_order(k, bound):
    # the leads (bound - S_M, M), in the order of the reference indices
    packing = Packing(k, max(bound, 1))
    expected = [(bound - sum(m),) + m for m in indices_up_to_reference(k, bound)]
    leads = _print_order(packing, bound)
    assert leads == [packing.pack(t) for t in expected], (k, bound)
    assert list(packing.unpack(leads)) == expected, (k, bound)


@pytest.mark.parametrize("k", range(2, 7))
def test_indices_match_reference(k):
    for bound in range(13):
        _assert_print_order(k, bound)


# the benchmark's family sizes, k = 2 up to a large bound, and (4,12);
# the bound is n+1, as for a family, and k = 1 is the empty index alone
INDEX_GRID = [(2, 0), (2, 100), (3, 5), (4, 12), (4, 14), (5, 9), (5, 10), (6, 7), (7, 4)]


@pytest.mark.parametrize("k,n", INDEX_GRID)
def test_indices_match_reference_on_the_grid(k, n):
    _assert_print_order(k, n + 1)
    _assert_print_order(1, n)


@pytest.mark.parametrize("k,n", FAMILY_GRID)
def test_summand_offsets_match_raised_indices(k, n):
    # every index T of sum >= 2 built by the step, T = M^{i,j} with i <= j
    # its first and last nonzero positions: its lead plus each (i, j)
    # offset is the lead of the summand raised and raised2 name
    ctx = GrassmannContext(k, n)
    family = GroebnerFamily(ctx)

    def lead(m):
        return family.build_packing.pack(leading_term_of(ctx, m))

    seen = set()
    for t in indices_up_to_reference(k, n + 1):
        if sum(t) < 2:
            continue
        nonzero = [p for p, x in enumerate(t, start=1) if x]
        i, j = nonzero[0], nonzero[-1]
        m = list(t)
        m[i - 1] -= 1
        m[j - 1] -= 1
        m = tuple(m)
        assert raised2(m, i, j) == t
        first, second, third = family._offsets(i, j)
        assert lead(t) + first == lead(raised(m, j)), (t, i, j)
        assert lead(t) + second == lead(raised(m, i - 1)), (t, i, j)
        if j < k - 1:
            assert lead(t) + third == lead(raised2(m, i - 1, j + 1)), (t, i, j)
        else:
            assert third is None, (t, i, j)
        seen.add((i, j))
    # every pair 1 <= i <= j <= k-1 is met, i = 1 and j = k-1 included
    assert seen == {(i, j) for i in range(1, k) for j in range(i, k)}


def test_packed_product_matches_poly_product(rng):
    # factors reaching past k*n, so the pair filter is met on both sides
    for _ in range(80):
        k = rng.randint(2, 6)
        n = rng.randint(k, 8)
        family = GroebnerFamily(GrassmannContext(k, n))
        f, g = (random_poly(rng, k, max_exp=n, max_terms=8) for _ in range(2))
        if rng.random() < 0.25:
            g = f + g  # shares terms with f, so products cancel
        expected = {
            d: part
            for d, part in weighted_components(poly_mul_reference(f, g)).items()
            if d <= k * n
        }
        parts = family.packed_product(f, g)
        assert all(d <= k * n for d in parts), (k, n, f, g)
        got = {d: family.to_poly(p) for d, p in parts.items() if p}
        assert got == expected, (k, n, f, g)


def test_packed_product_edges():
    family = GroebnerFamily(GrassmannContext(3, 4))
    w1, one, zero = Poly.variable(3, 1), Poly.one(3), Poly.zero(3)
    assert family.packed_product(zero, w1) == {}
    assert family.packed_product(one, one) == {0: {0}}
    # w1^12 has the top degree k*n = 12; w1^13 lies above it
    assert family.packed_product(w1**6, w1**6) == {12: {family.pack((12, 0, 0))}}
    assert family.packed_product(w1**6, w1**7) == {}
    # a factor of degree above k*n, whose exponent no field holds, is dropped
    assert family.packed_product(w1**40, one) == {}


@pytest.mark.parametrize("f,g", [((1, 1), (1, 0, 0)), ((1, 0, 0), (1, 0)), ((1, 1), (1, 0))])
def test_packed_product_checks_each_factor(f, g):
    # a factor in 2 variables on a k = 3 family is refused, as reduce
    # refuses it, not packed into the wrong fields
    family = GroebnerFamily(GrassmannContext(3, 4))
    with pytest.raises(ValueError, match="variable count does not match the context"):
        family.packed_product(Poly(len(f), [f]), Poly(len(g), [g]))
    assert family.packed == {}


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


def test_index_entries_must_be_integers():
    # 1.5 would otherwise give the lead (3.5, 1.5, 0), and 1.0 a bare
    # TypeError from the packed walk
    ctx = GrassmannContext(3, 4)
    message = re.escape("multi-index entries must be integers: ")
    for m in ((1.5, 0), (1.0, 0), (0, "1")):
        with pytest.raises(TypeError, match=message + re.escape(str(m))):
            leading_term_of(ctx, m)
        with pytest.raises(TypeError, match=message):
            GroebnerFamily(ctx).element(m)
        with pytest.raises(TypeError, match=message):
            g_direct(ctx, m)


def test_family_size_is_one_closed_form():
    # len() stops at an index-sized int; size is the count past it too
    for k, n in ((2, 2), (3, 4), (5, 9), (5, 2**32)):
        assert GroebnerFamily(GrassmannContext(k, n)).size == math.comb(n + k, k - 1)
    huge = GroebnerFamily(GrassmannContext(5, 2**32)).size
    assert huge == 14178432001255530832199756818174443525 > 2**63
    assert len(GroebnerFamily(GrassmannContext(5, 9))) == 1001


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


@pytest.mark.parametrize("k,n", [(2, 9), (3, 9), (4, 7), (5, 6)])
def test_reference_cap_keeps_every_term(k, n):
    # the references reduce by and print g_M enumerated up to exponent sum
    # n+1 only, where the leading-term law puts every term: the full
    # enumeration and the package's unpruned one give the same g_M
    ctx = GrassmannContext(k, n)
    for m in indices_up_to_reference(k, n + 1):
        g = g_direct_reference(k, n, m)
        assert g_direct_reference(k, n, m, n + 1) == g == g_direct(ctx, m), m


@pytest.mark.parametrize("k,n", FAMILY_GRID)
def test_leading_term_law_bounds_every_exponent_sum(k, n):
    # the law the pruned walk relies on, read off the unpruned g_direct:
    # no term of g_M has exponent sum above its lead's, n+1
    ctx = GrassmannContext(k, n)
    for m in indices_up_to_reference(k, n + 1):
        assert max(map(sum, g_direct(ctx, m).terms)) == n + 1, m


def test_least_admissible_matches_brute_force():
    for c in range(-300, 300):
        # for c < 0 every admissible value is at most -c - 1 < 300
        admissible = [x for x in range(1024) if x & c == 0]
        for lo in range(300):
            i = bisect.bisect_left(admissible, lo)
            expected = admissible[i] if i < len(admissible) else 0
            assert _least_admissible(c, lo) == expected, (c, lo)


def _assert_pruned_walk_matches_g_direct(ctx: GrassmannContext, m) -> None:
    family = GroebnerFamily(ctx)
    expected = tuple(sorted(map(family.build_packing.pack, g_direct(ctx, m).terms), reverse=True))
    assert family.packed_terms(m) == expected, (ctx, m)


def test_pruned_walk_matches_g_direct_on_random_indices():
    # the limit binds only when the weight of M sits high, so the entries
    # are drawn from m_k down, each out of what the ones above it leave
    rng = random.Random(20261019)
    for _ in range(150):
        k = rng.randint(2, 6)
        n = rng.randint(k, 20)
        m, left = [], n + 1
        for _ in range(k - 1):
            m.append(rng.randint(0, left))
            left -= m[-1]
        _assert_pruned_walk_matches_g_direct(GrassmannContext(k, n), tuple(reversed(m)))


def test_pruned_walk_matches_g_direct_on_edge_indices():
    for k, n in ((2, 2), (2, 7), (2, 20), (3, 5), (4, 6), (5, 8), (5, 17), (6, 6)):
        ctx = GrassmannContext(k, n)
        zero = (0,) * (k - 2)
        indices = {zero + (0,), zero + (n - 1,), zero + (n,), (n + 1,) + zero}
        # S_M = n and n+1 beside m_k = n-1 and m_k = n, and S_M = n+1 spread out
        for pos in range(k - 2):
            for last in (n - 1, n):
                m = [0] * (k - 1)
                m[pos], m[-1] = 1, last
                indices.add(tuple(m))
        indices.add((1,) * (k - 2) + (n + 1 - (k - 2),))
        for m in sorted(indices):
            _assert_pruned_walk_matches_g_direct(ctx, m)


def _two_term_elements(n: int) -> tuple[Poly, Poly]:
    """(w1 w2 + w3) w5^(n-1) and (w2^2 + w4) w5^(n-1), the g_M at
    (1,0,0,n-1) and (2,0,0,n-1) in G_{5,n}."""
    return (
        Poly(5, [(1, 1, 0, 0, n - 1), (0, 0, 1, 0, n - 1)]),
        Poly(5, [(0, 2, 0, 0, n - 1), (0, 0, 0, 1, n - 1)]),
    )


@pytest.mark.parametrize("n", (16, 24, 40))
def test_two_term_elements_by_g_direct(n):
    ctx = GrassmannContext(5, n)
    expected = _two_term_elements(n)
    assert (g_direct(ctx, (1, 0, 0, n - 1)), g_direct(ctx, (2, 0, 0, n - 1))) == expected


_LARGE_N_SCRIPT = """
from grassgb.groebner_family import GrassmannContext, GroebnerFamily
from grassgb.steenrod import immersion_obstruction_check

n = 2**30
report = immersion_obstruction_check(n)
print(report.sq1_value.value, report.k1_obstruction_value.value, report.lift_possible)
family = GroebnerFamily(GrassmannContext(5, n))
for m in ((1, 0, 0, n - 1), (2, 0, 0, n - 1)):
    print(family.element(m))
"""


def test_immersion_check_and_two_term_elements_at_n_2_to_30():
    # the walk bounded by the leading-term law visits a handful of nodes
    # here; an unbounded one runs for years, so a subprocess with a
    # timeout turns a regression into a failure instead of a hang
    n = 2**30
    src = os.path.dirname(os.path.dirname(grassgb.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LARGE_N_SCRIPT],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    sq1, k1 = Poly.monomial((0, 0, 0, 0, n)), Poly.monomial((0, 0, 0, 1, n - 1))
    expected = [f"{sq1} {k1} True", *map(str, _two_term_elements(n))]
    assert proc.stdout.splitlines() == expected


def _cup_stream(ctx, seed, count=100):
    # pairs of classes of eight standard monomials of exponent sum n/2 to
    # n, drawn from a seeded generator, as the cup benchmark draws them
    k, n = ctx.k, ctx.n
    pool = [t for t in itertools.product(range(n + 1), repeat=k) if (n + 1) // 2 <= sum(t) <= n]
    draw = random.Random(seed)

    def cls():
        return CohomologyClass(ctx, Poly(k, draw.sample(pool, 8)))

    return [(cls(), cls()) for _ in range(count)]


def _assert_tails_match_g_direct(family):
    # each tail, in whatever order it was stored, is the offsets from the
    # lead of every other term of g_M by the unpruned enumeration
    for lead, tail in family.packed.items():
        m = next(family.unpack([lead]))[1:]
        terms = set(map(family.pack, g_direct(family.context, m).terms))
        assert max(terms) == lead, m
        assert len(set(tail)) == len(tail), m
        assert set(tail) == {p - lead for p in terms - {lead}}, m


def test_pruned_walk_matches_g_direct_on_the_normal_bundle_elements():
    # the dense elements a normal-bundle reduction touches, each walked
    # once under the bound n+1 and kept as its packed tail
    family = GroebnerFamily(GrassmannContext(5, 16))
    normal_bundle_sw(16, family)
    assert len(family.packed) > 1000
    _assert_tails_match_g_direct(family)


@pytest.fixture
def walks(monkeypatch):
    """The index of every g_M walk, as the calls are made."""
    calls = []
    walk = groebner_family._walk

    def counted(m, *args):
        calls.append(m)
        return walk(m, *args)

    monkeypatch.setattr(groebner_family, "_walk", counted)
    return calls


def test_one_walk_per_table_entry_of_the_normal_bundle(walks):
    family = GroebnerFamily(GrassmannContext(5, 8))
    first = normal_bundle_sw(8, family)
    assert len(walks) == len(family.packed) == 277
    walks.clear()
    assert normal_bundle_sw(8, family) == first
    assert not walks


def _assert_one_walk_per_table_entry(walks, ctx):
    family = GroebnerFamily(ctx)
    stream = _cup_stream(ctx, f"walks at ({ctx.k},{ctx.n})")
    first = [cup(ctx, a, b, family) for a, b in stream]
    assert len(walks) == len(family.packed) > 200
    _assert_tails_match_g_direct(family)
    walks.clear()
    assert [cup(ctx, a, b, family) for a, b in stream] == first
    assert not walks
    # on a family built whole, a miss walks its g_M at the family's width
    # as on a fresh family: one walk per table entry, the same tails
    built = build_family(ctx)
    assert built.build_packing.width < built.width
    walks.clear()
    products = [a.value * b.value for a, b in stream[:20]]
    assert [built.reduce(f) for f in products] == [c.value for c in first[:20]]
    assert [cup(ctx, a, b, built) for a, b in stream] == first
    assert len(walks) == len(built.packed) and built.packed.keys() == family.packed.keys()
    assert all(set(built.packed[lead]) == set(t) for lead, t in family.packed.items())


def test_one_walk_per_table_entry_of_a_cup_stream(walks):
    _assert_one_walk_per_table_entry(walks, GrassmannContext(4, 10))


def test_one_walk_per_table_entry_where_kn_fills_the_fields(walks):
    # k*n = 63 fills the family's fields, and the build's hold n+2 = 23
    _assert_one_walk_per_table_entry(walks, GrassmannContext(3, 21))


class _UnreadableMemo(Mapping):
    """A memo that fails any test that reads it."""

    def _read(self, *args):
        raise AssertionError("the memo was read")

    __getitem__ = __iter__ = __len__ = _read


@pytest.mark.parametrize("k,n", [(4, 10), (3, 21)])
def test_only_the_printers_read_the_memo(k, n):
    # a built family whose memo can no longer be read reduces, multiplies
    # and hands out single elements as a family never built does
    ctx = GrassmannContext(k, n)
    built, fresh = build_family(ctx), GroebnerFamily(ctx)
    assert len(built._memo) == built.size
    built._memo = _UnreadableMemo()
    stream = _cup_stream(ctx, f"memo unread at ({k},{n})", count=40)
    assert [cup(ctx, a, b, built) for a, b in stream] == [cup(ctx, a, b, fresh) for a, b in stream]
    products = [a.value * b.value for a, b in stream[:10]]
    assert [built.reduce(f) for f in products] == [fresh.reduce(f) for f in products]
    for m in indices_up_to_reference(k, n + 1):
        assert built.packed_terms(m) == fresh.packed_terms(m), m
        assert built.element(m) == fresh.element(m), m


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
