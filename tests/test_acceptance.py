"""Acceptance suite: one test per criterion, exact F2 equality throughout.

Each test prints a PASS line on success so a -s run doubles as a report.
"""

import itertools
import math
import random

import pytest
from reference import (
    binom_int,
    binom_parity,
    indices_up_to_reference,
    normal_form_reference,
    weighted_components,
)

from grassgb.buchberger_oracle import buchberger, oracle_reduce, reduce_basis
from grassgb.cohomology import normal_form, standard_basis
from grassgb.dual_classes import wbar_recurrence
from grassgb.f2poly import Poly
from grassgb.groebner_family import (
    GrassmannContext,
    build_family,
    g_closed_form,
    g_direct,
    g_recurrence_step,
    leading_term_of,
    raised2,
)
from grassgb.steenrod import immersion_obstruction_check, normal_bundle_sw, sq, tensor_square_sw

from conftest import random_homogeneous, random_poly

INSTANCES = [
    (2, 2),
    (2, 3),
    (2, 4),
    (2, 5),
    (3, 3),
    (3, 4),
    (3, 5),
    (4, 4),
    (4, 5),
    (5, 5),
]


@pytest.fixture(scope="module")
def oracle_bases():
    out = {}
    for k, n in INSTANCES:
        gens = [wbar_recurrence(n + j, k) for j in range(1, k + 1)]
        out[(k, n)] = reduce_basis(buchberger(gens))
    return out


@pytest.fixture(scope="module")
def families():
    return {(k, n): build_family(GrassmannContext(k, n)) for k, n in INSTANCES}


def test_criterion_01_oracle_equivalence(oracle_bases, families):
    for k, n in INSTANCES:
        oracle = set(oracle_bases[(k, n)])
        family = set(families[(k, n)].polynomials())
        assert oracle == family, (k, n)
    print("PASS criterion 1: oracle equivalence on all 10 instances")


def test_criterion_02_leading_term_law(families):
    for k, n in INSTANCES:
        ctx = GrassmannContext(k, n)
        for m, g in families[(k, n)].items():
            lt = g.leading_term()
            assert lt == leading_term_of(ctx, m), (k, n, m)
            for t in g.terms - {lt}:
                assert sum(t) <= n, (k, n, m, t)
    print("PASS criterion 2: leading-term law and tail degree bound")


def test_criterion_03_family_size(families):
    for k, n in INSTANCES:
        assert len(families[(k, n)]) == math.comb(n + k, k - 1), (k, n)
    extra = build_family(GrassmannContext(5, 8))
    assert len(extra) == math.comb(13, 4)
    # one element under each lead, which is its first term
    leads = {lead for lead, terms in extra.packed_items() if lead == terms[0]}
    assert len(leads) == sum(1 for _ in extra.items()) == math.comb(13, 4)
    print("PASS criterion 3: family sizes match binom(n+k, k-1)")


def test_criterion_04_recurrence_identity():
    checks = 0
    for k, n in ((3, 3), (4, 4), (5, 5)):
        ctx = GrassmannContext(k, n)
        lookup = lambda m: g_direct(ctx, m)
        base_indices = [
            m
            for m in itertools.product(range(n), repeat=k - 1)
            if sum(m) <= n - 1
        ]
        for m in base_indices:
            for i in range(1, k):
                for j in range(i, k):
                    got = g_recurrence_step(ctx, m, i, j, lookup)
                    assert got == g_direct(ctx, raised2(m, i, j)), (k, n, m, i, j)
                    checks += 1
    print(f"PASS criterion 4: recurrence identity ({checks} cases)")


def test_criterion_05_lemma_m00():
    for k, n in ((3, 4), (4, 5)):
        ctx = GrassmannContext(k, n)
        for m in range(6):
            index = (m,) + (0,) * (k - 2)
            expected = Poly.zero(k)
            for i in range(m + 1):
                if binom_int(m, i) % 2:
                    w1_pow = Poly.monomial((m - i,) + (0,) * (k - 1))
                    expected = expected + w1_pow * wbar_recurrence(n + 1 + i, k)
            assert g_direct(ctx, index) == expected, (k, n, m)
    print("PASS criterion 5: dual-class expansion of g_(m,0,...,0)")


def test_criterion_06_closed_forms():
    covered = 0
    for k, n in ((3, 4), (4, 5), (5, 6), (5, 8)):
        ctx = GrassmannContext(k, n)
        for m in indices_up_to_reference(k, n + 1):
            cf = g_closed_form(ctx, m)
            if cf is not None:
                assert cf == g_direct(ctx, m), (k, n, m)
                covered += 1
    # the four k=5 displayed elements must be covered shapes
    for n in (6, 8):
        ctx = GrassmannContext(5, n)
        displayed = {
            (0, 0, 0, n - 1): f"w1^2*w5^{n - 1} + w2*w5^{n - 1}",
            (1, 0, 0, n - 1): f"w1*w2*w5^{n - 1} + w3*w5^{n - 1}",
            (0, 1, 0, n - 1): f"w1*w3*w5^{n - 1} + w4*w5^{n - 1}",
            (0, 0, 1, n - 1): f"w1*w4*w5^{n - 1} + w5^{n}",
        }
        from grassgb.f2poly import parse

        for m, text in displayed.items():
            cf = g_closed_form(ctx, m)
            assert cf is not None, m
            assert cf == parse(text, 5) == g_direct(ctx, m), m
    print(f"PASS criterion 6: closed forms agree with g_direct ({covered} covered)")


def test_criterion_07_membership_both_ways(oracle_bases, families):
    for k, n in INSTANCES:
        ctx = GrassmannContext(k, n)
        oracle = oracle_bases[(k, n)]
        family = families[(k, n)]
        for _, g in family.items():
            assert not oracle_reduce(g, oracle), (k, n)
        for j in range(1, k + 1):
            nf = normal_form(ctx, wbar_recurrence(n + j, k), family)
            assert not nf, (k, n, j)
    print("PASS criterion 7: two-way ideal membership")


def test_criterion_08_jaworowski_dimension(oracle_bases):
    for k, n in INSTANCES:
        ctx = GrassmannContext(k, n)
        basis = standard_basis(ctx)
        assert len(basis) == math.comb(n + k, k), (k, n)
        lts = [g.leading_term() for g in oracle_bases[(k, n)]]
        for mono in itertools.product(range(n + 2), repeat=k):
            if sum(mono) > n + 1:
                continue
            divisible = any(all(x <= y for x, y in zip(lt, mono)) for lt in lts)
            assert divisible == (sum(mono) > n), (k, n, mono)
    print("PASS criterion 8: standard monomials are exactly sum <= n")


def test_criterion_09_immersion_obstructions():
    for n in (8, 16, 24):
        report = immersion_obstruction_check(n)
        assert report.sq1_value.value == Poly.monomial((0, 0, 0, 0, n)), n
        assert report.k1_obstruction_value.value == Poly.monomial(
            (0, 0, 0, 1, n - 1)
        ), n
        assert report.lift_possible, n
    print("PASS criterion 9: immersion obstructions at n = 8, 16, 24")


def test_criterion_10_normal_bundle():
    from grassgb.f2poly import parse

    nb = normal_bundle_sw(8)
    assert nb[2].value == parse("w1^2 + w2", 5)
    for d, cls in nb.items():
        if d >= 36:
            assert not cls, d
    assert max(nb) < 36
    comps = weighted_components(tensor_square_sw(5))
    assert 1 not in comps and 2 not in comps
    assert all(d % 2 == 0 for d in comps)
    assert max(comps) == 20
    print("PASS criterion 10: normal-bundle classes at n = 8")


def test_criterion_11_property_suites():
    # exhaustive binomial identities on |alpha|, |beta| <= 64
    for a in range(-64, 65):
        for b in range(-64, 65):
            assert binom_parity(a, b) == binom_int(a, b) % 2
            assert binom_parity(a, b) == (
                binom_parity(a - 1, b) ^ binom_parity(a - 1, b - 1)
            )
            if binom_int(a, b) != 0:
                assert a >= b or a <= -1

    # normal-form idempotence / linearity / confluence at (3, 4)
    ctx = GrassmannContext(3, 4)
    family = build_family(ctx)
    indices = indices_up_to_reference(3, 5)
    rng = random.Random(11)

    def random_divisor(ctx_, family_, term):
        options = [
            m
            for m in indices
            if all(x <= y for x, y in zip(leading_term_of(ctx_, m), term))
        ]
        return rng.choice(options)

    for _ in range(1000):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        nf = normal_form(ctx, f, family)
        assert normal_form(ctx, nf.value, family) == nf
        assert (
            normal_form(ctx, f + g, family).value
            == nf.value + normal_form(ctx, g, family).value
        )
        randomized = normal_form_reference(
            ctx, f, family, choose_divisor=random_divisor
        )
        assert randomized == nf.value

    # Cartan and squaring identities at k = 5, weighted degree <= 10
    for _ in range(30):
        d1 = rng.randint(1, 5)
        d2 = rng.randint(1, 5)
        f = random_homogeneous(rng, 5, d1)
        g = random_homogeneous(rng, 5, d2)
        for i in range(4):
            expected = Poly.zero(5)
            for a in range(i + 1):
                expected = expected + sq(a, f) * sq(i - a, g)
            assert sq(i, f * g) == expected
        h = random_homogeneous(rng, 5, rng.randint(1, 10))
        dh = rng.randint(1, 10)
        h = random_homogeneous(rng, 5, dh)
        assert sq(dh, h) == h.square()
        assert not sq(dh + 1, h)
        assert sq(0, h) == h
    print("PASS criterion 11: property suites")
