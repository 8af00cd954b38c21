import importlib
import math
import pkgutil
import random
import time

import pytest
from reference import normal_form_reference, structured_divisor

import grassgb
from grassgb.buchberger_oracle import buchberger, oracle_reduce, reduce_basis
from grassgb.cohomology import (
    CohomologyClass,
    cup,
    is_zero,
    normal_form,
    standard_basis,
)
from grassgb.dual_classes import wbar_recurrence
from grassgb.f2poly import (
    Poly,
    grlex_key,
    monomials_of_weighted_degree,
    parse,
    weighted_degree,
)
from grassgb.groebner_family import (
    GrassmannContext,
    GroebnerFamily,
    build_family,
    leading_term_of,
)

from conftest import random_homogeneous, random_poly

CTX22 = GrassmannContext(2, 2)


def test_normal_form_examples():
    assert not normal_form(CTX22, parse("w1^3", 2))
    assert normal_form(CTX22, parse("w1^2*w2", 2)).value == parse("w2^2", 2)
    assert normal_form(CTX22, parse("w1*w2", 2)).value == parse("w1*w2", 2)
    ctx = GrassmannContext(5, 8)
    assert normal_form(ctx, parse("w5^8", 5)).value == parse("w5^8", 5)


def test_class_invariant_enforced():
    with pytest.raises(ValueError):
        CohomologyClass(CTX22, parse("w1^3", 2))
    with pytest.raises(ValueError):
        CohomologyClass(CTX22, parse("w1", 3))


def test_is_zero_on_family_and_generators():
    for k, n in ((2, 2), (3, 3), (3, 4)):
        ctx = GrassmannContext(k, n)
        family = build_family(ctx)
        for _, g in family.items():
            assert is_zero(ctx, g, family)
        for j in range(1, k + 1):
            assert is_zero(ctx, wbar_recurrence(n + j, k), family)
    assert not is_zero(GrassmannContext(5, 8), parse("w5^8", 5))


def test_cup_examples():
    family = build_family(CTX22)
    one = normal_form(CTX22, Poly.one(2), family)
    w1 = normal_form(CTX22, parse("w1", 2), family)
    w1sq = normal_form(CTX22, parse("w1^2", 2), family)
    w2 = normal_form(CTX22, parse("w2", 2), family)
    w2sq = normal_form(CTX22, parse("w2^2", 2), family)
    assert not cup(CTX22, w1sq, w1, family)
    assert cup(CTX22, w1, one, family) == w1
    assert not cup(CTX22, w2, w2sq, family)


def test_cup_context_mismatch():
    family = build_family(CTX22)
    other = GrassmannContext(2, 3)
    a = normal_form(CTX22, parse("w1", 2), family)
    b = normal_form(other, parse("w1", 2))
    with pytest.raises(ValueError):
        cup(CTX22, a, b, family)


def test_family_context_mismatch():
    # a family of G_{2,3} reduces w1^3 to w1*w2 + w2^2, which is wrong in G_{2,2}
    family = GroebnerFamily(GrassmannContext(2, 3))
    with pytest.raises(ValueError, match="family"):
        normal_form(CTX22, parse("w1^3", 2), family)
    a = normal_form(CTX22, parse("w1^2", 2))
    b = normal_form(CTX22, parse("w1", 2))
    with pytest.raises(ValueError, match="family"):
        cup(CTX22, a, b, family)


def test_variable_count_mismatch():
    with pytest.raises(ValueError, match="variable count does not match"):
        normal_form(GrassmannContext(3, 4), Poly.one(2))


def test_family_reduce_is_the_normal_form():
    ctx = GrassmannContext(3, 4)
    family = GroebnerFamily(ctx)
    f = parse("w1^5*w2 + w2^4*w3 + w1^2", 3)
    assert family.reduce(f) == normal_form_reference(ctx, f)
    assert family.packed
    assert normal_form(ctx, f, family).value == family.reduce(f)
    with pytest.raises(ValueError, match="variable count does not match"):
        family.reduce(Poly.one(2))


def test_normal_form_matches_reference_on_random_polys():
    rng = random.Random(9151)
    families = {}
    for _ in range(300):
        k = rng.randint(2, 6)
        n = rng.randint(k, 12)
        ctx = GrassmannContext(k, n)
        family = families.setdefault((k, n), GroebnerFamily(ctx))
        f = random_poly(rng, k, max_exp=rng.choice((n // 2, n, 2 * n)))
        assert normal_form(ctx, f, family).value == normal_form_reference(
            ctx, f, family
        ), (k, n, f)


def _edge_inputs(rng, k, n):
    yield Poly.zero(k)
    yield Poly.one(k)
    yield Poly(k, rng.sample(standard_basis(GrassmannContext(k, n)), 5))
    # degrees 2^j - 1 and 2^j differ in bit length, and the larger ones lie
    # above the top degree k*n, so both sides of the cut are met
    for j in range(1, 7):
        for d in (2**j - 1, 2**j):
            monos = monomials_of_weighted_degree(d, k)
            yield Poly.monomial(monos[0])  # w_1^d
            yield Poly.monomial(monos[-1])
            yield Poly.monomial(rng.choice(monos))
            yield Poly(k, [monos[0], (1,) + (0,) * (k - 1)])


@pytest.mark.parametrize("k,n", [(2, 2), (3, 4), (4, 5), (5, 8)])
def test_normal_form_matches_reference_on_edge_inputs(k, n):
    # one family meets the inputs in ascending degree, then descending, so a
    # lead packed for one input is looked up by every other
    rng = random.Random(k * 100 + n)
    ctx = GrassmannContext(k, n)
    family = GroebnerFamily(ctx)
    inputs = list(_edge_inputs(rng, k, n))
    leads = set()

    def recording_divisor(ctx, family, t):
        m = structured_divisor(ctx, family, t)
        if weighted_degree(t) <= k * n:  # normal_form drops the other terms
            leads.add(m)
        return m

    cases = [
        (f, normal_form_reference(ctx, f, family, recording_divisor)) for f in inputs
    ]
    for f, expected in cases + cases[::-1]:
        assert normal_form(ctx, f, family).value == expected, f
    # one packed tail per divisor lead, whatever the degree of the input
    assert len(family.packed) == len(leads)
    assert not normal_form(ctx, Poly.zero(k), family)
    assert normal_form(ctx, Poly.one(k), family).value == Poly.one(k)


def test_normal_form_large_exponent():
    for k, n in ((2, 2), (3, 3), (4, 5)):
        ctx = GrassmannContext(k, n)
        big = Poly.monomial((0,) * (k - 1) + (2**20,))
        w1 = Poly.variable(k, 1)
        assert not normal_form(ctx, big)
        assert normal_form(ctx, big + w1).value == w1
        mixed = Poly.monomial((n + 1,) + (0,) * (k - 2) + (2**20,)) + w1
        assert normal_form(ctx, mixed).value == normal_form_reference(ctx, mixed)


@pytest.mark.parametrize("k,n", [(2, 2), (3, 4), (4, 5), (5, 8)])
def test_terms_above_the_top_degree_vanish(k, n):
    # no standard monomial lies above the weighted degree k*n of w_k^n
    rng = random.Random(k * 10 + n)
    ctx = GrassmannContext(k, n)
    family = GroebnerFamily(ctx)
    top = Poly.monomial((0,) * (k - 1) + (n,))
    w1 = Poly.variable(k, 1)
    for f in (w1 * top, Poly.monomial((2**20,) + (0,) * (k - 1))):
        assert not normal_form(ctx, f, family)
    assert not family.packed
    assert normal_form(ctx, top, family).value == top
    assert not family.packed
    mixed = top + w1 * top + w1 ** (k * n)
    for d in range(k * n - 2, k * n + 3):
        mixed = mixed + random_homogeneous(rng, k, d, max_terms=3)
    assert normal_form(ctx, mixed, family).value == normal_form_reference(ctx, mixed)


def test_standard_input_at_huge_n_is_left_alone():
    # the levels of the working set are the exponent sums present, never a
    # range sized by n or by the largest sum
    n = 10**6
    ctx = GrassmannContext(5, n)
    f = (
        Poly.variable(5, 1)
        + Poly.monomial((0, 0, 0, 1, n - 1))
        + Poly.monomial((0, 0, 0, 0, n))
    )
    start = time.perf_counter()
    assert normal_form(ctx, f).value == f
    assert time.perf_counter() - start < 1.0


def test_tail_term_above_n_raises_instead_of_looping(monkeypatch):
    # a tail term of exponent sum n+2 lands above the level being swept
    ctx = GrassmannContext(3, 4)
    family = GroebnerFamily(ctx)
    packed_terms = family.packed_terms
    extra = family.pack((6, 0, 0))

    def bad_packed_terms(m):
        terms = packed_terms(m)
        return terms + (extra,) if m == (0, 0) else terms

    monkeypatch.setattr(family, "packed_terms", bad_packed_terms)
    with pytest.raises(ValueError, match="tail term"):
        normal_form(ctx, parse("w1^5", 3), family)


def test_packed_memo_belongs_to_the_family():
    ctx = GrassmannContext(3, 4)
    first, second = GroebnerFamily(ctx), GroebnerFamily(ctx)
    f = parse("w1^5*w2 + w2^4*w3", 3)
    normal_form(ctx, f, first)
    assert first.packed and not second.packed
    normal_form(ctx, f, second)
    assert first.packed.keys() == second.packed.keys()
    assert first.packed is not second.packed


MODULES = ["grassgb"] + [
    f"grassgb.{info.name}" for info in pkgutil.iter_modules(grassgb.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_level_state(name):
    # memos live on a GroebnerFamily or in one call; the only module-level
    # dict is the CLI's dispatch table
    module = importlib.import_module(name)
    caches = [a for a, v in vars(module).items() if hasattr(v, "cache_info")]
    dicts = [
        f"{name}.{a}"
        for a, v in vars(module).items()
        if not a.startswith("__") and isinstance(v, dict)
    ]
    assert caches == []
    assert [d for d in dicts if d != "grassgb.cli._COMMANDS"] == []


def test_standard_basis():
    basis22 = standard_basis(CTX22)
    assert basis22 == [
        (0, 0),
        (0, 1),
        (1, 0),
        (0, 2),
        (1, 1),
        (2, 0),
    ]
    assert len(standard_basis(GrassmannContext(3, 3))) == 20
    assert len(standard_basis(GrassmannContext(5, 8))) == math.comb(13, 5)
    for ctx in (CTX22, GrassmannContext(3, 4)):
        basis = standard_basis(ctx)
        assert basis == sorted(basis, key=grlex_key)
        assert all(sum(m) <= ctx.n for m in basis)


def test_idempotence_and_linearity(rng):
    ctx = GrassmannContext(3, 4)
    family = build_family(ctx)
    for _ in range(100):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        nf = normal_form(ctx, f, family)
        assert normal_form(ctx, nf.value, family) == nf
        assert (
            normal_form(ctx, f + g, family).value
            == nf.value + normal_form(ctx, g, family).value
        )


def test_confluence_under_random_divisor_choice(rng):
    ctx = GrassmannContext(3, 4)
    family = build_family(ctx)
    indices = list(family.multi_indices())

    def random_divisor(ctx_, family_, term):
        options = [
            m
            for m in indices
            if all(x <= y for x, y in zip(leading_term_of(ctx_, m), term))
        ]
        return rng.choice(options)

    for _ in range(100):
        f = random_poly(rng, 3)
        randomized = normal_form_reference(
            ctx, f, family, choose_divisor=random_divisor
        )
        assert randomized == normal_form(ctx, f, family).value


def test_degree_preservation(rng):
    ctx = GrassmannContext(3, 4)
    family = build_family(ctx)
    for _ in range(50):
        f = random_poly(rng, 3)
        input_degrees = {weighted_degree(t) for t in f.terms}
        for t in normal_form(ctx, f, family).value.terms:
            assert weighted_degree(t) in input_degrees


def _ideal_rank_in_degree(ctx, d):
    """Brute-force F2 rank of the degree-d slice of the ideal."""
    from grassgb.f2poly import monomials_of_weighted_degree

    monos = list(monomials_of_weighted_degree(d, ctx.k))
    position = {m: i for i, m in enumerate(monos)}
    rows = []
    generators = [wbar_recurrence(ctx.n + j, ctx.k) for j in range(1, ctx.k + 1)]
    for gen in generators:
        gen_deg = weighted_degree(gen.leading_term())
        if gen_deg > d:
            continue
        for q in monomials_of_weighted_degree(d - gen_deg, ctx.k):
            vec = 0
            for t in gen.terms:
                shifted = tuple(map(sum, zip(t, q)))
                vec ^= 1 << position[shifted]
            rows.append(vec)
    pivots = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top in pivots:
                row ^= pivots[top]
            else:
                pivots[top] = row
                break
    return len(pivots)


@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 3)])
def test_dimension_matches_brute_force_rank(k, n):
    from grassgb.f2poly import monomials_of_weighted_degree

    ctx = GrassmannContext(k, n)
    basis = standard_basis(ctx)
    # quotient dimension per weighted degree d equals #monomials - ideal rank
    max_d = max(weighted_degree(m) for m in basis)
    for d in range(0, max_d + 4):
        total = len(monomials_of_weighted_degree(d, k))
        expected = total - _ideal_rank_in_degree(ctx, d)
        standard_count = sum(1 for m in basis if weighted_degree(m) == d)
        assert standard_count == expected, d


# -- known theorems about the ring: checks of normal form past the oracle ---


@pytest.mark.parametrize("k,n", [(2, 5), (3, 4), (3, 6), (4, 5), (5, 6)])
def test_poincare_duality(k, n):
    # standard monomials of weighted degree d and kn - d multiply to 0 or to
    # the top class w_k^n, and the pairing matrix is invertible over F_2
    ctx = GrassmannContext(k, n)
    family = GroebnerFamily(ctx)
    top = Poly.monomial((0,) * (k - 1) + (n,))
    by_degree = {}
    for m in standard_basis(ctx):
        by_degree.setdefault(weighted_degree(m), []).append(m)
    assert max(by_degree) == k * n
    for d, rows in by_degree.items():
        cols = by_degree[k * n - d]
        assert len(rows) == len(cols), d
        pivots = {}
        for a in rows:
            row = 0
            for j, b in enumerate(cols):
                product = Poly.monomial(tuple(x + y for x, y in zip(a, b)))
                value = normal_form(ctx, product, family).value
                assert value in (Poly.zero(k), top), (a, b)
                row |= bool(value) << j
            while row:
                high = row.bit_length() - 1
                if high not in pivots:
                    pivots[high] = row
                    break
                row ^= pivots[high]
            assert row, (d, a)  # the row of a is a sum of earlier rows


def w1_height(k, n):
    """The height of w_1 in H*(G_{k,n}; F_2) by Stong's rule (Hiller for
    k = 2): with 2^s < n+k <= 2^{s+1}, it is 2^{s+1} - 2 when k = 2 or when
    k = 3 and n+k = 2^s + 1, and 2^{s+1} - 1 otherwise."""
    s = (n + k - 1).bit_length() - 1
    if k == 2 or (k == 3 and n + k == 2**s + 1):
        return 2 ** (s + 1) - 2
    return 2 ** (s + 1) - 1


def _w1_power(k, e):
    return Poly.monomial((e,) + (0,) * (k - 1))


@pytest.mark.parametrize(
    "k,n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5)]
)
def test_w1_height_rule_pinned_by_the_oracle(k, n):
    # the rule is checked against the oracle's own basis and reduction
    # first, then the family's normal form must agree with both
    generators = [wbar_recurrence(n + j, k) for j in range(1, k + 1)]
    basis = reduce_basis(buchberger(generators))
    ctx = GrassmannContext(k, n)
    family = GroebnerFamily(ctx)
    h = w1_height(k, n)
    for e in (h, h + 1):
        expected = oracle_reduce(_w1_power(k, e), basis)
        assert bool(expected) == (e == h), (k, n, e)
        assert normal_form(ctx, _w1_power(k, e), family).value == expected


W1_HEIGHT_SIZES = (
    [(2, n) for n in range(2, 40)]  # n + k <= 41
    + [(k, n) for k in (3, 4) for n in range(k, 20)]
    + [(5, 59), (4, 50), (3, 100)]
)


def test_w1_height_at_scale():
    # past the oracle's cap: w_1^h != 0 = w_1^{h+1} with h from the rule
    for k, n in W1_HEIGHT_SIZES:
        ctx = GrassmannContext(k, n)
        family = GroebnerFamily(ctx)
        h = w1_height(k, n)
        assert normal_form(ctx, _w1_power(k, h), family), (k, n)
        assert not normal_form(ctx, _w1_power(k, h + 1), family), (k, n)
