import pytest
from reference import (
    alpha,
    normal_bundle_sw_reference,
    sq_reference,
    structured_divisor,
    tensor_square_sw_permanent_reference,
    tensor_square_sw_reference,
    weighted_components,
    wu_reference,
)

from grassgb.f2poly import MAX_EXPONENT, Poly, parse, weighted_degree
from grassgb.cohomology import CohomologyClass, normal_form
from grassgb.groebner_family import (
    GrassmannContext,
    GroebnerFamily,
    build_family,
    leading_term_of,
)
from grassgb import steenrod
from grassgb.steenrod import (
    ObstructionReport,
    immersion_obstruction_check,
    normal_bundle_sw,
    sq,
    sq_on_generator,
    tensor_square_sw,
)

from conftest import random_homogeneous, random_poly


class TestWuFormula:
    def test_anchor_values(self):
        assert sq_on_generator(1, 4, 5) == parse("w1*w4 + w5", 5)
        assert sq_on_generator(1, 5, 5) == parse("w1*w5", 5)
        assert sq_on_generator(1, 2, 3) == parse("w1*w2 + w3", 3)

    def test_identity_and_top_square(self):
        for k in (2, 3, 5):
            for j in range(1, k + 1):
                assert sq_on_generator(0, j, k) == Poly.variable(k, j)
                assert sq_on_generator(j, j, k) == Poly.variable(k, j).square()

    def test_vanishing_above_degree(self):
        assert not sq_on_generator(3, 2, 4)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            sq_on_generator(1, 6, 5)
        with pytest.raises(ValueError):
            sq_on_generator(-1, 2, 5)

    def test_matches_exact_binomials(self):
        for k in range(1, 11):
            for j in range(1, k + 1):
                for i in range(j + 2):
                    assert sq_on_generator(i, j, k) == wu_reference(i, j, k), (i, j, k)
                assert not sq_on_generator(j + 1, j, k)

    def test_matches_sq_on_single_variable(self):
        for k in (3, 5):
            for j in range(1, k + 1):
                for i in range(j + 1):
                    assert sq_on_generator(i, j, k) == sq(i, Poly.variable(k, j))


class TestCartan:
    def test_sq_of_one(self):
        for i in (1, 2, 5):
            assert not sq(i, Poly.one(3))
        assert sq(0, Poly.one(3)) == Poly.one(3)

    def test_negative_square_raises(self):
        with pytest.raises(ValueError, match="negative square"):
            sq(-1, Poly.one(2))

    def test_cartan_consistency(self, rng):
        for _ in range(40):
            d1 = rng.randint(1, 5)
            d2 = rng.randint(1, 5)
            f = random_homogeneous(rng, 5, d1)
            g = random_homogeneous(rng, 5, d2)
            for i in range(0, 5):
                expected = Poly.zero(5)
                for a in range(i + 1):
                    expected = expected + sq(a, f) * sq(i - a, g)
                assert sq(i, f * g) == expected, (f, g, i)

    def test_squaring_identities(self, rng):
        for _ in range(40):
            d = rng.randint(1, 10)
            f = random_homogeneous(rng, 5, d)
            assert sq(d, f) == f.square()
            assert not sq(d + 1, f)
            assert not sq(d + 3, f)
            assert sq(0, f) == f

    def test_matches_reference(self, rng):
        # 504 random polynomials: seven for each k = 1..6 and i = 0..11
        for k in range(1, 7):
            for i in range(12):
                for _ in range(7):
                    f = random_poly(rng, k, max_exp=4, max_terms=3)
                    assert sq(i, f) == sq_reference(i, f), (f, i)
        # one exponent near 2^30, the fields' working range at large n
        for k in (1, 2, 5, 6):
            for _ in range(6):
                exps = [rng.randint(0, 3) for _ in range(k)]
                exps[rng.randrange(k)] = 2**30 - rng.randint(0, 8)
                f = Poly.monomial(exps)
                for i in range(8):
                    assert sq(i, f) == sq_reference(i, f), (f, i)

    def test_edges_match_reference(self, rng):
        for k in (1, 3, 6):
            for _ in range(10):
                f = random_poly(rng, k, max_exp=3, max_terms=3)
                d = max(map(weighted_degree, f), default=0)
                assert sq(0, f) == f == sq_reference(0, f)
                # above the degree every square vanishes
                for i in (d + 1, d + 2, 2 * d + 3):
                    assert not sq(i, f), (f, i)
                # on a square, every exponent even, odd squares vanish
                g = f.square()
                for i in range(1, 13):
                    expected = sq_reference(i, g)
                    assert sq(i, g) == expected, (g, i)
                    if i % 2:
                        assert not expected

    def test_exponent_overflow(self):
        # Sq^1(w1^m) = m w1^{m+1}, and MAX_EXPONENT = 2^31 - 1 is odd
        top = Poly.monomial((MAX_EXPONENT - 1,))
        assert sq(1, Poly.monomial((MAX_EXPONENT - 2,))) == top
        with pytest.raises(OverflowError, match="^exponent overflow"):
            sq(1, Poly.monomial((MAX_EXPONENT,)))
        # Sq^1(w4 w5^{m-1}) = w5^m for even m, in five variables
        assert sq(1, Poly.monomial((0, 0, 0, 1, MAX_EXPONENT - 2))) == Poly.monomial(
            (0, 0, 0, 0, MAX_EXPONENT - 1)
        )
        with pytest.raises(OverflowError, match="^exponent overflow"):
            sq(1, Poly.monomial((0, 0, 0, 1, MAX_EXPONENT)))

    def test_large_squares_match_reference(self, rng):
        # i from 12 up to the degree, where the recursion's branches share
        # most of their subterms within one call
        for k in range(2, 7):
            for d in (20, 30):
                f = random_homogeneous(rng, k, d, max_terms=4)
                for i in range(12, d + 2):
                    assert sq(i, f) == sq_reference(i, f), (f, i)

    def test_power_worked_example(self):
        # Sq^1(w4 w5^{n-1}) collapses to w5^n for even n, before reduction
        n = 8
        f = Poly.monomial((0, 0, 0, 1, n - 1))
        got = sq(1, f)
        # raw Cartan output: (w1w4 + w5)w5^{n-1} + (n-1) w1 w4 w5^{n-1}
        expected = parse(f"w5^{n}", 5)
        assert got == expected


class TestTensorSquare:
    def test_low_degrees_vanish_for_k5(self):
        comps = weighted_components(tensor_square_sw(5))
        assert 1 not in comps
        assert 2 not in comps

    @pytest.mark.parametrize("k", (2, 3, 4, 5, 6, 7))
    def test_no_odd_degrees_and_no_linear_part(self, k):
        comps = weighted_components(tensor_square_sw(k))
        assert all(d % 2 == 0 for d in comps)
        assert 1 not in comps

    @pytest.mark.parametrize("k", (2, 3, 4, 5, 6, 7))
    def test_is_a_square(self, k):
        # w(gamma (x) gamma) = w(Lambda^2 gamma)^2: every exponent is even
        for t in tensor_square_sw(k).terms:
            assert all(e % 2 == 0 for e in t), t

    @pytest.mark.parametrize("k", (2, 3, 4, 5, 6))
    def test_matches_permanent_over_poly(self, k):
        assert tensor_square_sw(k) == tensor_square_sw_permanent_reference(k)

    def test_top_degree_k5(self):
        comps = weighted_components(tensor_square_sw(5))
        assert max(comps) == 20

    def test_k2_degree_two_component(self):
        comps = weighted_components(tensor_square_sw(2))
        assert comps[2] == parse("w1^2", 2)

    def test_direct_expansion_small_k(self):
        # brute force in the roots for k=3: product of (1+xi+xj)^2 pairs
        from itertools import product as iproduct

        k = 3
        full = {(0,) * k: 1}
        pairs = [(0, 1), (0, 2), (1, 2)]
        for i, j in pairs:
            factor = {}
            for e in ((0, 0, 0),):
                factor[e] = 1
            fi = [0] * k
            fi[i] = 1
            fj = [0] * k
            fj[j] = 1
            base = [(0,) * k, tuple(fi), tuple(fj)]
            sq_factor = {}
            for a in base:
                for b in base:
                    key = tuple(x + y for x, y in zip(a, b))
                    sq_factor[key] = sq_factor.get(key, 0) + 1
            new = {}
            for t1, c1 in full.items():
                for t2, c2 in sq_factor.items():
                    key = tuple(x + y for x, y in zip(t1, t2))
                    new[key] = new.get(key, 0) + c1 * c2
            full = new
        odd = {t for t, c in full.items() if c % 2}
        assert all(sum(t) % 2 == 0 for t in odd)

    @pytest.mark.parametrize("k", (2, 3, 4, 5, 6))
    def test_matches_full_degree_expansion(self, k):
        # the reference alone takes ~9.5 s at (6, 36) on a 2-vCPU Xeon VM,
        # so k = 6 stops at D = 16
        top = k * k if k < 6 else 16
        full = tensor_square_sw(k)
        for d in range(top + 1):
            part = Poly(k, (t for t in full.terms if weighted_degree(t) <= d))
            assert part == tensor_square_sw_reference(k, d), d

    def test_k_guard(self):
        for k in (0, 1):
            with pytest.raises(ValueError):
                tensor_square_sw(k)


class TestNormalBundle:
    def test_n8(self):
        nb = normal_bundle_sw(8)
        assert nb[2].value == parse("w1^2 + w2", 5)
        for d, cls in nb.items():
            if d >= 36:
                assert not cls
        assert max(nb) == 35

    @pytest.mark.parametrize("n", (8, 16))
    def test_every_class_inverts_the_tangent_class(self, n):
        # w(nu) w(gamma)^{n+5} = w(gamma (x) gamma) in every degree, with
        # no oracle: w(gamma)^{n+5} / w(gamma (x) gamma) is w(T)
        ctx = GrassmannContext(5, n)
        family = GroebnerFamily(ctx)
        nu = sum((cls.value for cls in normal_bundle_sw(n, family).values()), Poly.zero(5))
        total_w = sum((Poly.variable(5, j) for j in range(1, 6)), Poly.one(5))
        lhs = normal_form(ctx, nu * total_w ** (n + 5), family)
        assert lhs == normal_form(ctx, tensor_square_sw(5), family)

    @pytest.mark.parametrize("n", (8, 16))
    @pytest.mark.parametrize("make", (GroebnerFamily, build_family))
    def test_matches_poly_reference(self, n, make):
        # on a fresh family and on a built one, against the reference, which
        # reaches neither the packed product nor reduce_packed
        ctx = GrassmannContext(5, n)
        packed = make(ctx)
        got = normal_bundle_sw(n, packed)
        used = set()

        def record(ctx, family, term):
            m = structured_divisor(ctx, family, term)
            used.add(m)
            return m

        expected = normal_bundle_sw_reference(n, record)
        assert got.keys() == expected.keys()
        for d in expected:
            assert got[d] == expected[d], d
        # the packed path reduces by exactly the g_M the reference does
        assert packed.packed.keys() == {packed.pack(leading_term_of(ctx, m)) for m in used}

    def test_exponent_congruence(self):
        # 2^{r+1} - n - 5 = 3 and 3 mod 8 = 3 for n = 8
        n = 8
        r = (n + 4).bit_length() - 1
        assert 2**r < n + 5 <= 2 ** (r + 1)
        assert 2 ** (r + 1) - n - 5 == 3
        assert (2 ** (r + 1) - n - 5) % 8 == 3

    def test_unreduced_top_dimension(self):
        total_w = Poly.one(5)
        for j in range(1, 6):
            total_w = total_w + Poly.variable(5, j)
        unreduced = tensor_square_sw(5) * total_w**3
        assert max(weighted_degree(t) for t in unreduced.terms) <= 35

    def test_each_touched_element_kept_once(self):
        # a reduction keeps a touched g_M only as its packed tail
        family = GroebnerFamily(GrassmannContext(5, 16))
        normal_bundle_sw(16, family)
        assert family.packed and not family._memo

    def test_guard(self):
        with pytest.raises(ValueError):
            normal_bundle_sw(12)
        with pytest.raises(ValueError):
            normal_bundle_sw(0)


class TestImmersionObstruction:
    @pytest.mark.parametrize("n", (8, 16))
    def test_obstruction_values(self, n):
        report = immersion_obstruction_check(n)
        assert report.sq1_value.value == Poly.monomial((0, 0, 0, 0, n))
        assert report.k1_obstruction_value.value == Poly.monomial(
            (0, 0, 0, 1, n - 1)
        )
        assert report.lift_possible

    @pytest.mark.parametrize("n", (*range(8, 65, 8), 2**20 - 8))
    def test_matches_poly_reference(self, n):
        # the slow Sq on Poly, reduced by normal_form on a family of its own
        ctx = GrassmannContext(5, n)
        w4_w5 = Poly.monomial((0, 0, 0, 1, n - 1))
        w2_w5 = Poly.monomial((0, 1, 0, 0, n - 1))
        nu2 = parse("w1^2 + w2", 5)
        report = immersion_obstruction_check(n)
        assert report.sq1_value == normal_form(ctx, sq_reference(1, w4_w5))
        k1 = sq_reference(2, w2_w5) + nu2 * w2_w5
        assert report.k1_obstruction_value == normal_form(ctx, k1)

    def test_exponent_overflow_boundary(self):
        # 2^31 - 8, the largest multiple of 8 below 2^31, still fits;
        # at n = 2^31 the term w5^n of Sq^1 does not
        n = 2**31 - 8
        report = immersion_obstruction_check(n)
        assert report.sq1_value.value == Poly.monomial((0, 0, 0, 0, n))
        assert report.k1_obstruction_value.value == Poly.monomial((0, 0, 0, 1, n - 1))
        with pytest.raises(OverflowError, match="^exponent overflow"):
            immersion_obstruction_check(2**31)

    def test_exponent_overflow_raised_before_squaring(self, monkeypatch):
        # n past 2^31 - 1 is refused on the input, before the Cartan kernel
        def no_kernel(packing):
            pytest.fail("squared before the exponent check")

        monkeypatch.setattr(steenrod, "_cartan", no_kernel)
        with pytest.raises(OverflowError, match="^exponent overflow: w5\\^2147483648 "):
            immersion_obstruction_check(2**31)

    def test_guard(self):
        with pytest.raises(ValueError):
            immersion_obstruction_check(12)

    def test_lift_possible_is_read_off_the_classes(self):
        # a report holds its two classes, and lift_possible is their
        # conjunction, so no report can contradict them
        nonzero = immersion_obstruction_check(8).sq1_value
        zero = CohomologyClass(nonzero.context, Poly.zero(5))
        assert ObstructionReport.__slots__ == ("n", "sq1_value", "k1_obstruction_value")
        for sq1, k1 in ((nonzero, nonzero), (zero, nonzero), (nonzero, zero), (zero, zero)):
            report = ObstructionReport(8, sq1, k1)
            assert report.lift_possible is (sq1 is nonzero and k1 is nonzero), (sq1, k1)
            with pytest.raises(AttributeError, match="cannot assign to field 'lift_possible'"):
                report.lift_possible = True

    def test_family_context_checked(self):
        with pytest.raises(ValueError):
            immersion_obstruction_check(8, GroebnerFamily(GrassmannContext(5, 16)))


class TestAlpha:
    def test_values(self):
        assert alpha(40) == 2
        assert alpha(1) == 1
        for r in range(1, 10):
            assert alpha(5 * 2**r) == 2

    def test_guard(self):
        with pytest.raises(ValueError):
            alpha(0)

    def test_characterization_of_alpha5n_eq_2(self):
        # among multiples of 8, alpha(5n) == 2 exactly for
        # n = 2^r + sum_{i=0}^{s} (2^{r+2+4i} + 2^{r+3+4i}), r >= 3, s >= -1
        special = set()
        bound = 2**14
        for r in range(3, 15):
            n = 2**r
            s = -1
            while n <= bound:
                special.add(n)
                s += 1
                n += 2 ** (r + 2 + 4 * s) + 2 ** (r + 3 + 4 * s)
        for n in range(8, bound + 1, 8):
            assert (alpha(5 * n) == 2) == (n in special), n
