import heapq
import math
import random

import pytest

from grassgb import buchberger_oracle
from grassgb.buchberger_oracle import (
    OracleCapExceeded,
    _Reducer,
    _update_pairs,
    buchberger,
    oracle_equals_family,
    oracle_reduce,
    reduce_basis,
    s_polynomial,
)
from grassgb.dual_classes import wbar_recurrence, wbar_sequence
from grassgb.f2poly import Poly, grlex_key, parse
from grassgb.groebner_family import GrassmannContext, build_family

import reference
from conftest import random_poly
from reference import (
    buchberger_reference,
    dividing_reference,
    oracle_reduce_reference,
    reduce_basis_reference,
)
from reference import _update_pairs as _update_pairs_reference

# the ten acceptance instances, then larger ones with more pairs and wider leads
REFERENCE_INSTANCES = [
    (2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5),
    (3, 8), (3, 12), (4, 6), (5, 4),
]


def dual_class_generators(k, n):
    return [wbar_recurrence(n + j, k) for j in range(1, k + 1)]


class TestSPolynomial:
    def test_identical_inputs_cancel(self):
        f = parse("w1^2*w2 + w2^2", 2)
        assert not s_polynomial(f, f)

    def test_coprime_monomials_cancel(self):
        assert not s_polynomial(parse("w1^2", 2), parse("w2^2", 2))

    def test_worked_example(self):
        f = parse("w1^2*w2 + w2^2", 2)
        g = parse("w1*w2^2", 2)
        assert s_polynomial(f, g) == parse("w2^3", 2)

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            s_polynomial(Poly.zero(2), parse("w1", 2))


class TestBuchberger:
    def test_single_generator(self):
        assert buchberger([parse("w1", 2)]) == [parse("w1", 2)]

    def test_monomial_generators_unchanged(self):
        gens = [parse("w1^2", 3), parse("w2*w3", 3), parse("w3^4", 3)]
        gb = buchberger(gens)
        assert set(gb) == set(gens)

    def test_dual_class_run_k2(self):
        gens = [wbar_recurrence(3, 2), wbar_recurrence(4, 2)]
        assert gens[0] == parse("w1^3", 2)
        assert gens[1] == parse("w1^4 + w1^2*w2 + w2^2", 2)
        reduced = reduce_basis(buchberger(gens))
        expected = {
            parse("w1^3", 2),
            parse("w1^2*w2 + w2^2", 2),
            parse("w1*w2^2", 2),
            parse("w2^3", 2),
        }
        assert set(reduced) == expected

    def test_self_consistency(self):
        gens = [wbar_recurrence(4, 3), wbar_recurrence(5, 3), wbar_recurrence(6, 3)]
        gb = buchberger(gens)
        for i, g in enumerate(gb):
            others = gb[:i] + gb[i + 1 :]
            for j, h in enumerate(others):
                assert not oracle_reduce(s_polynomial(g, h), gb), (i, j)

    def test_each_pair_queued_once(self, monkeypatch):
        pushed = []
        real_push = heapq.heappush

        def push(heap, item):
            if isinstance(item, tuple):  # (lcm key, pair); normal_form pushes ints
                pushed.append(item[1])
            real_push(heap, item)

        monkeypatch.setattr(heapq, "heappush", push)
        buchberger(dual_class_generators(3, 4))
        assert pushed
        assert len(pushed) == len(set(pushed))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            buchberger([])
        with pytest.raises(ValueError):
            buchberger([Poly.zero(2)])
        with pytest.raises(ValueError):
            buchberger([parse("w1", 2), parse("w1", 3)])


class TestSugarStrategy:
    """Pairs go by weighted sugar; on the homogeneous dual-class ideal the
    run then builds no element the reduced basis drops."""

    @pytest.mark.parametrize("k,n", [(3, 8), (3, 12), (4, 5), (4, 6), (5, 5), (6, 4)])
    def test_dual_class_builds_no_redundant_element(self, k, n):
        assert len(buchberger(dual_class_generators(k, n))) == math.comb(n + k, k - 1)

    def test_popped_sugar_never_decreases(self, monkeypatch, rng):
        popped = []
        real_pop = heapq.heappop

        def pop(heap):
            item = real_pop(heap)
            if isinstance(item, tuple):  # (sugar key, pair); normal_form pops ints
                popped.append(item[0][0])
            return item

        monkeypatch.setattr(heapq, "heappop", pop)
        runs = [dual_class_generators(3, 5), dual_class_generators(4, 5)]
        for _ in range(15):
            k = rng.choice((2, 3))
            runs.append([g for g in (random_poly(rng, k) for _ in range(rng.randint(2, 4))) if g])
        counts = []
        for gens in filter(None, runs):
            popped.clear()
            buchberger(gens)
            assert popped == sorted(popped), gens
            counts.append(len(popped))
        assert all(counts[:2])  # the dual-class runs pop pairs


class TestRejectsBadInput:
    """Every entry point refuses a zero element and mixed variable counts,
    as ``buchberger`` does."""

    def test_mixed_variable_counts(self):
        with pytest.raises(ValueError, match="mixed variable counts"):
            oracle_reduce(parse("w1^2", 2), [parse("w1", 3)])
        with pytest.raises(ValueError, match="mixed variable counts"):
            reduce_basis([parse("w1", 2), parse("w1", 3)])

    def test_zero_basis_element(self):
        with pytest.raises(ValueError, match="zero basis element at index 1"):
            oracle_reduce(parse("w1^2", 2), [parse("w2", 2), Poly.zero(2)])
        with pytest.raises(ValueError, match="zero basis element at index 0"):
            reduce_basis([Poly.zero(2)])


class TestReduceBasis:
    def test_already_reduced_fixed(self):
        fam = build_family(GrassmannContext(2, 2))
        polys = fam.polynomials()
        assert set(reduce_basis(polys)) == set(polys)

    def test_divisible_lead_dropped(self):
        out = reduce_basis([parse("w1", 2), parse("w1^2", 2)])
        assert out == [parse("w1", 2)]

    def test_sorted_by_leading_term(self):
        out = reduce_basis(buchberger([wbar_recurrence(3, 2), wbar_recurrence(4, 2)]))
        keys = [grlex_key(g.leading_term()) for g in out]
        assert keys == sorted(keys)

    def test_invariant_under_generator_permutation(self):
        gens = [wbar_recurrence(4 + j, 3) for j in range(3)]
        a = reduce_basis(buchberger(gens))
        b = reduce_basis(buchberger(list(reversed(gens))))
        assert a == b


class TestMembership:
    def test_two_way_ideal_equality(self):
        gens = [wbar_recurrence(4, 3), wbar_recurrence(5, 3), wbar_recurrence(6, 3)]
        reduced = reduce_basis(buchberger(gens))
        for g in gens:
            assert not oracle_reduce(g, reduced)
        # converse: each reduced element lies in the ideal; check by reducing
        # against a Groebner basis computed from a permuted generator list
        other = buchberger(list(reversed(gens)))
        for g in reduced:
            assert not oracle_reduce(g, other)


class TestOracleEqualsFamily:
    @pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 3)])
    def test_small_instances(self, k, n):
        assert oracle_equals_family(GrassmannContext(k, n))

    def test_generators_come_from_one_recurrence_run(self, monkeypatch):
        runs = []

        def sequence(r, k):
            runs.append((r, k))
            return wbar_sequence(r, k)

        monkeypatch.setattr(buchberger_oracle, "wbar_sequence", sequence)
        assert oracle_equals_family(GrassmannContext(3, 4))
        assert runs == [(7, 3)]

    def test_cap_guard(self):
        with pytest.raises(OracleCapExceeded):
            oracle_equals_family(GrassmannContext(5, 8), cap=100)


def test_becker_standard_monomials():
    # terms not divisible by any oracle leading term are exactly sum <= n
    import itertools

    for k, n in ((2, 2), (3, 3)):
        gens = [wbar_recurrence(n + j, k) for j in range(1, k + 1)]
        reduced = reduce_basis(buchberger(gens))
        lts = [g.leading_term() for g in reduced]
        for mono in itertools.product(range(n + 2), repeat=k):
            if sum(mono) > n + 1:
                continue
            divisible = any(
                all(x <= y for x, y in zip(lt, mono)) for lt in lts
            )
            assert divisible == (sum(mono) == n + 1), mono


class TestMatchesReference:
    """Identical lists, in order and terms, to the tuple-based references."""

    @pytest.mark.parametrize("k,n", REFERENCE_INSTANCES)
    def test_dual_class_generators(self, k, n):
        gens = dual_class_generators(k, n)
        gb = buchberger_reference(gens)
        assert buchberger(gens) == gb
        assert reduce_basis(gb) == reduce_basis_reference(gb)

    def test_random_nonhomogeneous_generators(self, rng):
        checked = 0
        while checked < 30:
            k = rng.choice((2, 3))
            gens = [g for g in (random_poly(rng, k) for _ in range(rng.randint(1, 4))) if g]
            if not gens:
                continue
            gb = buchberger_reference(gens)
            assert buchberger(gens) == gb, gens
            assert reduce_basis(gb) == reduce_basis_reference(gb), gens
            checked += 1

    @pytest.fixture
    def raw_basis(self):
        return buchberger_reference(dual_class_generators(3, 5))

    def test_reduce_basis_non_minimal_input(self, raw_basis, rng):
        w1, w3 = parse("w1", 3), parse("w3", 3)
        multiples = [w1 * g for g in raw_basis[::3]]
        mixed = [w3 * g + h for g, h in zip(raw_basis, raw_basis[5:])]
        basis = raw_basis + multiples + mixed
        rng.shuffle(basis)
        assert reduce_basis(basis) == reduce_basis_reference(basis)

    def test_reduce_basis_duplicate_leads(self, raw_basis):
        lead = lambda g: grlex_key(g.leading_term())
        twins = [g + h for g in raw_basis for h in raw_basis if lead(h) < lead(g)][::7]
        assert any(g.leading_term() == t.leading_term() for g in raw_basis for t in twins)
        for basis in (twins + raw_basis, raw_basis + twins):
            assert reduce_basis(basis) == reduce_basis_reference(basis)

    def test_reduce_basis_already_reduced(self, raw_basis):
        reduced = reduce_basis_reference(raw_basis)
        assert reduce_basis(reduced) == reduced == reduce_basis_reference(reduced)


class TestDividingMask:
    """``dividing`` tests every lead at once; each block must agree with the
    tuple test of its lead, and ``divisor`` must pick the lowest."""

    @staticmethod
    def lead(rng, red):
        top = red._top
        # 0, the field's edges, a lead that forces widening, one far above
        # 2^16, and small exponents that make divisions likely
        big = rng.randint(1 << 16, 1 << 17)
        pool = (0, top, top + 1, big, 1, 2, rng.randint(0, top))
        return tuple(rng.choice(pool) for _ in range(red.k))

    @staticmethod
    def probes(rng, red):
        top, k = red._top, red.k
        huge = (1 << 20) + 7
        # past every lead exponent in every field
        yield tuple(top + 1 + rng.randint(0, huge) for _ in range(k))
        for _ in range(6):
            lt = rng.choice(red.lts)
            yield tuple(e + rng.choice((0, 0, 1, top, huge)) for e in lt)
            i = rng.randrange(k)
            if lt[i]:  # a near miss: one field one short
                yield lt[:i] + (lt[i] - 1,) + lt[i + 1 :]
            yield tuple(rng.choice((0, 1, 2, top, top + 1, huge)) for _ in range(k))

    @pytest.mark.parametrize("k", range(2, 7))
    def test_matches_tuple_divisibility(self, k):
        rng = random.Random(7919 * k)
        red = _Reducer(k)
        widened = 0
        for _ in range(30):
            width = red.width
            lead = self.lead(rng, red)
            red.fit(sum(lead))
            red.add(frozenset([red.pack(lead)]))
            widened += red.width != width
            for t in self.probes(rng, red):
                red.fit(sum(t))  # the fields hold every sum a normal form meets
                block = red.block
                expected = dividing_reference(red.lts, t)
                v = red.pack(t)
                mask = red.dividing(v & red.fields | red.guard)
                assert mask == sum(1 << (block * i + block - 1) for i in expected), t
                assert red.divisor(v) == (expected[0] if expected else None), t
        assert widened >= 3


class TestPackedQuotient:
    """With every field wide enough for the sums, v - lead is the packed
    quotient when the lead divides v, and otherwise sets a guard bit, on
    which ``normal_form`` raises."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_guard_bits_decide_division(self, k, monkeypatch):
        monkeypatch.setattr(_Reducer, "divisor", lambda self, v: 0)
        rng = random.Random(104729 * k)
        raised = 0
        for _ in range(200):
            red = _Reducer(k)
            red.fit(rng.choice((1, 7, 8, 63)) * k)
            edge = red._top // k
            a = tuple(rng.choice((0, 1, edge, rng.randint(0, edge))) for _ in range(k))
            b = tuple(rng.choice((0, 1, edge, x, x + 1, x - 1)) for x in a)
            b = tuple(min(max(y, 0), edge) for y in b)
            red.add(frozenset([red.pack(a)]))
            q = red.pack(b) - red.pack(a)
            if all(x <= y for x, y in zip(a, b)):
                assert q == red.pack(tuple(y - x for x, y in zip(a, b))), (a, b)
                assert not red.normal_form([red.pack(b)])
            else:
                assert q & red.guard, (a, b)
                with pytest.raises(RuntimeError, match="does not divide"):
                    red.normal_form([red.pack(b)])
                raised += 1
        assert 20 < raised < 180


class TestPairStream:
    """After each new basis element the queued pairs equal those of the
    tuple-based Gebauer-Moller update."""

    def streams(self, monkeypatch, gens):
        ours, theirs = [], []

        def record(red, pairs, h):
            fresh = _update_pairs(red, pairs, h)
            ours.append((h, set(pairs)))
            return fresh

        def record_ref(lts, pairs, h):
            out = _update_pairs_reference(lts, pairs, h)
            theirs.append((h, set(out)))
            return out

        monkeypatch.setattr(buchberger_oracle, "_update_pairs", record)
        monkeypatch.setattr(reference, "_update_pairs", record_ref)
        buchberger(gens)
        buchberger_reference(gens)
        return ours, theirs

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 4), (3, 5), (4, 4)])
    def test_dual_class_generators(self, monkeypatch, k, n):
        ours, theirs = self.streams(monkeypatch, dual_class_generators(k, n))
        assert ours and ours == theirs

    def test_random_nonhomogeneous_generators(self, monkeypatch, rng):
        for _ in range(15):
            k = rng.choice((2, 3))
            gens = [g for g in (random_poly(rng, k) for _ in range(rng.randint(2, 4))) if g]
            if gens:
                ours, theirs = self.streams(monkeypatch, gens)
                assert ours == theirs, gens


class TestWidthEdges:
    """Exponent sums at and past the packed field width: fitted when the
    generators are loaded, or when a popped pair's lcm outgrows the fields."""

    CASES = {
        # exponents at and above 2^16 from the first generator on
        "above_2_16": (2, ["w1^65536 + w2^3", "w1*w2^2 + w2^65537"]),
        # one lead is far wider than the other
        "lead_outgrows_width": (2, ["w1*w2^3", "w1^131072 + w2"]),
        "outgrows_with_a_pair_queued": (2, ["w1*w2^3", "w1^2*w2 + w2^2", "w1^131072 + w2"]),
        # a pair whose S-polynomial adds an element, beside a term of sum 23
        "queued_lcm_repacked": (2, ["w1^3*w2 + w2^2", "w1*w2", "w2^23 + w2^2"]),
        "three_variables": (3, ["w1^3 + w2*w3", "w2^70000*w3 + w1", "w3^5 + w1*w2"]),
        # w2^(2^20 + 7) beside the leads w1 and w2
        "probe_above_every_field": (2, ["w1 + w2", "w2^1048583 + w2"]),
        # the pair of w1*w2^2 and w2^3 has the lcm w1*w2^3, whose sum 4
        # widens the 2-bit fields while the pair of w1*w2^2 and w1^3 is
        # queued; left at the old width, that pair's lcm would make the
        # Gebauer-Moller update go wrong
        "lcm_widens_with_a_pair_queued": (2, ["w1*w2^2 + w2", "w2^3", "w1^3"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reference(self, case):
        k, texts = self.CASES[case]
        gens = [parse(text, k) for text in texts]
        gb = buchberger_reference(gens)
        assert buchberger(gens) == gb
        assert reduce_basis(gb) == reduce_basis_reference(gb)

    def test_pair_lcm_outgrowing_the_width(self, monkeypatch):
        # the generators' sums fit 2 bits, and the S-pair of the leads w1^3
        # and w1*w2^2 has the lcm w1^3*w2^2 of sum 5, so the fields widen
        # to 3 bits once that pair is popped, outside every normal form
        real_fit, real_normal_form = _Reducer.fit, _Reducer.normal_form
        widths, reducing = [], []

        def fit(self, total):
            width = self.width
            real_fit(self, total)
            if self.width != width:
                assert not reducing, "widened inside a normal form"
                widths.append((self.width, len(self.polys)))

        def normal_form(self, terms):
            reducing.append(terms)
            try:
                return real_normal_form(self, terms)
            finally:
                reducing.pop()

        monkeypatch.setattr(_Reducer, "fit", fit)
        monkeypatch.setattr(_Reducer, "normal_form", normal_form)
        gens = [parse("w1^3 + w2", 2), parse("w1*w2^2 + w1", 2)]
        gb = buchberger_reference(gens)
        assert buchberger(gens) == gb
        assert widths == [(1, 0), (2, 0), (3, 2)]

    def test_oracle_reduce_probe_above_every_field(self):
        basis = [parse(text, 3) for text in ("w1", "w2^2*w3 + w1*w3", "w3^3")]
        probes = ("w2^1048583", "w2^1048583*w3 + w3^2097157", "w1^1048583*w2^7 + w2*w3^2")
        for text in probes:
            f = parse(text, 3)
            assert oracle_reduce(f, basis) == oracle_reduce_reference(f, basis), text


def test_wrong_divisor_raises_instead_of_running_forever(monkeypatch):
    # lead w2^2 does not divide w1^3; reducing by it anyway would shift
    # terms to ever lower degrees without end
    calls = []

    def wrong_divisor(self, t):
        calls.append(t)
        if len(calls) > 1000:
            pytest.fail("normal_form kept reducing by a non-divisor")
        return 0

    monkeypatch.setattr(_Reducer, "divisor", wrong_divisor)
    with pytest.raises(RuntimeError, match="does not divide"):
        oracle_reduce(parse("w1^3", 2), [parse("w1 + w2^2", 2)])
    assert len(calls) == 1


def test_missed_divisor_raises_instead_of_running_forever(monkeypatch):
    # with every divisor missed, the second generator's lead w1^6 is kept
    # although the first one's, w1^5, divides it
    calls = []

    def blind(self, probe):
        calls.append(probe)
        if len(calls) > 1000:
            pytest.fail("buchberger kept running with every divisor missed")
        return 0

    monkeypatch.setattr(_Reducer, "dividing", blind)
    missed = r"lead \(5, 0, 0\) divides the new lead \(6, 0, 0\)"
    with pytest.raises(RuntimeError, match=missed):
        buchberger(dual_class_generators(3, 4))
