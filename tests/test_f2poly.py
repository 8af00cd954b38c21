import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import random_poly
from reference import (
    grlex_compare,
    parse_reference,
    poly_mul_reference,
    weighted_degree_reference,
)

from grassgb.f2poly import (
    MAX_EXPONENT,
    ParseError,
    Poly,
    format_poly,
    grlex_key,
    monomials_of_weighted_degree,
    parse,
    weighted_degree,
)


def monomials(k):
    return st.tuples(*[st.integers(min_value=0, max_value=5)] * k)


def polys(k):
    return st.builds(lambda ts: Poly(k, ts), st.lists(monomials(k), max_size=8))


class TestGrlex:
    def test_examples(self):
        assert grlex_compare((1, 1, 0), (0, 0, 2)) == 1
        assert grlex_compare((0, 3), (2, 0)) == 1
        assert grlex_compare((2, 1), (2, 1)) == 0
        assert grlex_compare((0, 2), (1, 1)) == -1

    def test_mismatched_k(self):
        with pytest.raises(ValueError):
            grlex_compare((1, 0), (1, 0, 0))

    @given(monomials(3), monomials(3), monomials(3))
    def test_compatible_with_multiplication(self, a, b, c):
        if grlex_key(a) < grlex_key(b):
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert grlex_key(ac) < grlex_key(bc)


class TestArithmetic:
    def test_char_two(self):
        w1 = Poly.variable(2, 1)
        assert not (w1 + w1)

    def test_add_examples(self):
        w1, w2 = Poly.variable(2, 1), Poly.variable(2, 2)
        assert (w1 + w2).terms == frozenset({(1, 0), (0, 1)})
        assert w1 + Poly.zero(2) == w1

    def test_mul_examples(self):
        w1, w2 = Poly.variable(2, 1), Poly.variable(2, 2)
        f = w1 + w2
        assert f * f == Poly(2, [(2, 0), (0, 2)])  # Frobenius
        assert w1 * w2**3 == Poly(2, [(1, 3)])
        assert f * Poly.one(2) == f

    def test_mismatched_k(self):
        with pytest.raises(ValueError):
            Poly.variable(2, 1) + Poly.variable(3, 1)
        with pytest.raises(ValueError):
            Poly.variable(2, 1) * Poly.variable(3, 1)

    @given(polys(3), polys(3), polys(3))
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f + f == Poly.zero(3)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @given(polys(2), st.integers(min_value=0, max_value=6))
    def test_pow_matches_repeated_multiplication(self, f, e):
        expected = Poly.one(2)
        for _ in range(e):
            expected = expected * f
        assert f**e == expected

    def test_pow_up_to_40_matches_repeated_multiplication(self):
        f = parse("w1 + w1*w2 + w2^3", 2)
        expected = Poly.one(2)
        for e in range(41):
            assert f**e == expected, e
            expected = expected * f

    def test_pow_takes_no_square_past_the_top_bit(self):
        big = Poly.monomial((2**30, 0))
        assert big**1 == big
        with pytest.raises(OverflowError):
            big**2

    def test_overflow_reported(self):
        big = Poly(2, [(2**30, 0)])
        with pytest.raises(OverflowError):
            big * big * big


class TestMulMatchesReference:
    def test_random(self, rng):
        for k in range(1, 7):
            for _ in range(60):
                f = random_poly(rng, k, max_exp=6, max_terms=9)
                g = random_poly(rng, k, max_exp=6, max_terms=9)
                assert f * g == poly_mul_reference(f, g), (f, g)

    def test_edges(self, rng):
        for k in range(1, 7):
            f = random_poly(rng, k, max_terms=9)
            g = random_poly(rng, k, max_terms=9)
            zero, one = Poly.zero(k), Poly.one(k)
            single = Poly.monomial(range(k))
            for a, b in ((zero, f), (f, zero), (zero, zero), (one, f), (single, f),
                         (f, single), (single, single), (f + g, f + g)):
                assert a * b == poly_mul_reference(a, b) == b * a, (a, b)
            # the cross terms of (f + g)^2 cancel in pairs
            assert (f + g) * (f + g) == f * f + g * g == (f + g).square()

    def test_overflow_boundary(self):
        w1 = Poly.variable(2, 1)
        top = Poly.monomial((MAX_EXPONENT - 1, 0)) * w1
        assert top == Poly.monomial((MAX_EXPONENT, 0)) == poly_mul_reference(
            Poly.monomial((MAX_EXPONENT - 1, 0)), w1
        )
        for mul in (Poly.__mul__, poly_mul_reference):
            with pytest.raises(OverflowError, match="exponent overflow"):
                mul(top, w1)


class TestLeadingTerm:
    def test_examples(self):
        assert parse("w1^2*w2 + w2^2", 2).leading_term() == (2, 1)
        assert parse("w1 + w2", 2).leading_term() == (1, 0)
        assert parse("w1*w2^3", 2).leading_term() == (1, 3)

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            Poly.zero(2).leading_term()

    @given(polys(3), polys(3))
    def test_multiplicative(self, f, g):
        if f and g:
            lt = (f * g).leading_term()
            expected = tuple(
                x + y for x, y in zip(f.leading_term(), g.leading_term())
            )
            assert lt == expected


class TestWeightedDegree:
    def test_matches_reference_on_random_monomials(self, rng):
        # small, mid-sized and near-2^31 exponents, k = 1..7
        for k in range(1, 8):
            for _ in range(60):
                mono = tuple(
                    rng.choice((0, 1, rng.randint(2, 60), MAX_EXPONENT - rng.randint(0, 5)))
                    for _ in range(k)
                )
                assert weighted_degree(mono) == weighted_degree_reference(mono), mono

    def test_edges(self):
        for k in range(1, 8):
            assert weighted_degree((0,) * k) == 0
            top = (MAX_EXPONENT,) * k
            assert weighted_degree(top) == weighted_degree_reference(top)
            assert weighted_degree(top) == MAX_EXPONENT * k * (k + 1) // 2
        assert weighted_degree(()) == weighted_degree_reference(()) == 0
        assert weighted_degree((0, 0, 0, 1)) == 4


class TestTextFormat:
    def test_parse_examples(self):
        assert parse("w1^2*w2 + w2^2", 2).terms == frozenset({(2, 1), (0, 2)})
        assert parse("1", 3).terms == frozenset({(0, 0, 0)})
        assert not parse("0", 2)

    def test_format_examples(self):
        assert format_poly(Poly(2, [(2, 1), (0, 2)])) == "w1^2*w2 + w2^2"
        assert format_poly(Poly.zero(2)) == "0"
        assert format_poly(Poly.one(2)) == "1"

    def test_whitespace_tolerated(self):
        assert parse("w1   +   w2", 2) == parse("w1 + w2", 2)

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse("w1 + ?", 2)
        assert exc.value.position == 5
        with pytest.raises(ParseError):
            parse("w3", 2)  # index out of range
        with pytest.raises(ParseError):
            parse("", 2)
        with pytest.raises(ParseError):
            parse("w1^99999999999999", 2)
        for text, message, position in (
            ("0 + w1", "'0' must stand alone", 0),
            ("w1 w2", "expected '+'", 3),
            ("1*w2", "expected '+'", 1),
            ("w1^0", "exponent must be >= 1", 3),
            # the running sum overflows, not the literal
            ("w1^2147483647*w1", "exponent overflow", 16),
        ):
            with pytest.raises(ParseError, match=re.escape(message)) as exc:
                parse(text, 2)
            assert exc.value.position == position, text
        assert parse("w1^2147483647", 2) == Poly.monomial((2147483647, 0))

    @pytest.mark.parametrize(
        "text, position",
        [("w1^\u00b2", 3), ("w\u00b2", 1)],
        ids=["superscript_exponent", "superscript_index"],
    )
    def test_non_ascii_digits_rejected(self, text, position):
        # str.isdigit accepts the superscript two, which int() then refuses
        with pytest.raises(ParseError, match="expected a number") as exc:
            parse(text, 3)
        assert exc.value.position == position

    @settings(max_examples=200)
    @given(polys(4))
    def test_round_trip(self, f):
        assert parse(format_poly(f), 4) == f

    def test_format_decreasing_grlex(self):
        f = parse("w2^2 + w1^2*w2 + 1 + w1", 2)
        assert format_poly(f) == "w1^2*w2 + w2^2 + w1 + 1"


# unusual whitespace (str.isspace: the separator \x1c, NEL, the ideographic
# and no-break spaces), a digit int() refuses (superscript two) and one it
# takes (Arabic-Indic three), and literals at 2^31 - 1 and 2^31; weighted so
# that about a third of the strings get past their first factor
_PARSE_ALPHABET = {
    "w": 8, "0": 2, "1": 4, "2": 4, "3": 2, "9": 1, "^": 3, "*": 2, "+": 2,
    " ": 2, "\t": 1, "\x1c": 1, "\x85": 1, "\u3000": 1, "\u00a0": 1,
    "\u00b2": 1, "\u0663": 1, "x": 1, str(MAX_EXPONENT): 1, str(MAX_EXPONENT + 1): 1,
}


def _random_text(rng: random.Random) -> str:
    chars, weights = zip(*_PARSE_ALPHABET.items())
    return "".join(rng.choices(chars, weights, k=rng.randint(0, 12)))


def _structured_text(rng: random.Random, k: int) -> str:
    """A sum of products of w<index>^<exponent>, mostly well formed."""

    def factor() -> str:
        index = rng.choice(["", "0", "01", str(k + 1)] + [str(i) for i in range(1, k + 1)] * 8)
        exp = rng.choice(
            [None] * 12 + ["1", "07", "12"] * 2
            + ["", "0", str(MAX_EXPONENT), str(MAX_EXPONENT + 1)]
        )
        return f"w{index}" + ("" if exp is None else f"^{exp}")

    def term() -> str:
        if rng.random() < 0.1:
            return rng.choice(["1", "0"])
        return "*".join(factor() for _ in range(rng.randint(1, 3)))

    def space() -> str:
        return rng.choice(["", "", " ", "\t", "\u3000", "\x85"])

    terms = [term() for _ in range(rng.randint(1, 4))]
    return space() + (space() + "+" + space()).join(terms) + space()


def _parse_outcome(parser, text: str, k: int):
    try:
        return parser(text, k)
    except ParseError as exc:
        return str(exc), exc.position


def test_parse_matches_reference():
    rng = random.Random(16016)
    for case in range(50_000):
        k = rng.randint(1, 4)
        text = _random_text(rng) if case < 40_000 else _structured_text(rng, k)
        expected = _parse_outcome(parse_reference, text, k)
        assert _parse_outcome(parse, text, k) == expected, (text, k)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Poly(0, []), ValueError, "need at least one variable"),
        (lambda: Poly(2, [(1,)]), ValueError, "does not have 2 exponents"),
        (lambda: Poly(2, [(1, -1)]), ValueError, "negative exponent"),
        # 0.5 would print as w2 and fail later inside normal_form
        (lambda: Poly(2, [(0.5, 1)]), TypeError, "exponents must be integers, got (0.5, 1)"),
        (lambda: Poly.variable(2, 3), ValueError, "out of 1..2"),
        (lambda: Poly.one(2) ** -1, ValueError, "negative power"),
        (lambda: Poly.one(2) + 3, TypeError, "expected Poly, got int"),
    ],
    ids=["no_variables", "short_monomial", "negative_exponent", "non_integer_exponent",
         "variable_index", "negative_power", "add_non_poly"],
)
def test_input_guards(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_every_constructor_checks_the_variable_count():
    # 2.0 would equal k = 2 and fail later in (0,) * k or range(k), with a
    # message that does not name k; every constructor checks k first
    for build in (
        lambda: Poly(2.0, [(1, 1)]),
        lambda: Poly.zero(2.0),
        lambda: Poly.one(2.0),
        lambda: Poly.variable(2.0, 1),
    ):
        with pytest.raises(TypeError, match=re.escape("must be an integer, got 2.0")):
            build()
    for build in (lambda: Poly.zero(0), lambda: Poly.one(-1), lambda: Poly.one(0)):
        with pytest.raises(ValueError, match="need at least one variable"):
            build()
    assert Poly.zero(3) == Poly(3) and Poly.one(3) == Poly(3, [(0, 0, 0)])
    assert Poly.variable(3, 2) == Poly(3, [(0, 1, 0)])


def test_monomial_enumeration():
    assert set(monomials_of_weighted_degree(3, 2)) == {(3, 0), (1, 1)}
    assert set(monomials_of_weighted_degree(4, 2)) == {(4, 0), (2, 1), (0, 2)}
    # every enumerated tuple has the requested weighted degree
    for a in monomials_of_weighted_degree(9, 4):
        assert sum(j * x for j, x in enumerate(a, start=1)) == 9
