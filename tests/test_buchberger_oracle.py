import math
import os
import subprocess
import sys
from itertools import combinations

import pytest

import grassgb
from grassgb import buchberger_oracle
from grassgb.buchberger_oracle import (
    ORACLE_CAP,
    OracleCapExceeded,
    _Packing,
    _times_units,
    buchberger,
    oracle_equals_family,
    oracle_reduce,
    reduce_basis,
    s_polynomial,
)
from grassgb.dual_classes import wbar_recurrence, wbar_sequence
from grassgb.f2poly import (
    Poly,
    grlex_key,
    monomials_of_weighted_degree,
    parse,
    weighted_degree,
)
from grassgb.cli import run
from grassgb.groebner_family import GrassmannContext, GroebnerFamily, build_family

from conftest import random_homogeneous, random_poly
from reference import (
    buchberger_reference,
    oracle_reduce_reference,
    reduce_basis_reference,
)

# the ten acceptance instances, then larger ones with more rows and wider leads
REFERENCE_INSTANCES = [
    (2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5),
    (3, 8), (3, 12), (4, 6), (5, 4),
]


# with REFERENCE_INSTANCES, every dual-class size whose basis, binom(n+k,
# k-1) elements, is within 256 elements: all of them at k >= 3, and at
# k = 2, where the tuple reference takes seconds per size past n = 100,
# the sizes up to n = 12 and the last one within 256, n = 254
CAP_SIZES = [
    (k, n)
    for k in range(2, 6)
    for n in range(k, 255)
    if math.comb(n + k, k - 1) <= 256
    and (k > 2 or n <= 12 or n == 254)
    and (k, n) not in REFERENCE_INSTANCES
]


def dual_class_generators(k, n):
    return [wbar_recurrence(n + j, k) for j in range(1, k + 1)]


_SINGLE_GENERATOR_SCRIPT = """
from grassgb.buchberger_oracle import buchberger
from grassgb.f2poly import parse

try:
    buchberger([parse("w1", 2)])
except ValueError as e:
    print(e)
"""


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
        # (w1) is not zero-dimensional: w2^e is a lead in no degree, so a
        # run without the degree bound would never stop, and a subprocess
        # with a timeout turns that into a failure instead of a hang
        src = os.path.dirname(os.path.dirname(grassgb.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _SINGLE_GENERATOR_SCRIPT],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == (
            "a monomial of degree 2 is no lead: the ideal is not zero-dimensional"
        )

    def test_monomial_generators_unchanged(self):
        gens = [parse(t, 3) for t in ("w1^2", "w2*w3", "w3^4", "w2^3")]
        assert buchberger(gens) == sorted(gens, key=lambda g: grlex_key(g.leading_term()))

    def test_dropped_monomials_are_recorded_as_leads(self):
        # degree 1 is full, degree 2 is not (w2 is no lead), degrees 3 and 4
        # are: degree 3 drops w1*w2 and degree 4 drops w1^4 and w1^2*w2, and
        # each must keep them as leads, or a later degree finds a multiple of
        # them minimal
        gens = [parse("w1", 2), parse("w2^2", 2)]
        assert buchberger(gens) == gens

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

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            buchberger([])
        with pytest.raises(ValueError):
            buchberger([Poly.zero(2)])
        with pytest.raises(ValueError):
            buchberger([parse("w1", 2), parse("w1", 3)])

    def test_rejects_nonhomogeneous_generator(self):
        gens = [parse("w1^2", 2), parse("w1*w2 + w2", 2), parse("w2^3", 2)]
        with pytest.raises(ValueError, match="generator 1 is not weighted-homogeneous"):
            buchberger(gens)


class TestColumns:
    """The columns of each degree, built packed from the lower degrees with
    no recursion, are its monomials, and int order on them is grlex."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_match_the_monomial_enumeration(self, k):
        packing = _Packing(k, 40)
        units = [packing.pack(tuple(int(i == j) for i in range(k))) for j in range(k)]
        columns = [[0]]
        while len(columns) <= 40:
            columns.append(sorted(_times_units(columns, units)))
        for d, cols in enumerate(columns):
            monomials = monomials_of_weighted_degree(d, k)
            assert cols == sorted(map(packing.pack, monomials)), d
            assert list(packing.unpack(cols)) == sorted(monomials, key=grlex_key), d


def _fields_one_by_one(v, k, width):
    """The k fields of v below its exponent sum, a_1 first, read from the
    lowest up with one divmod each."""
    fields = []
    for _ in range(k):
        v, a = divmod(v, 1 << width)
        fields.append(a)
    return tuple(reversed(fields))


class TestUnpack:
    """``_Packing.unpack`` reads every field of many terms in one pass; it
    must agree with reading each term's fields one by one."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_empty_input(self, k):
        packing = _Packing(k, 40)
        assert list(packing.unpack([])) == []
        assert list(packing.unpack(iter(()))) == []

    @pytest.mark.parametrize("k", range(2, 7))
    # fields of W = 3, 6, 17 and 21 bits
    @pytest.mark.parametrize("total", [5, 40, 1 << 16, (1 << 20) + 3])
    def test_matches_the_fields_one_by_one(self, k, total, rng):
        packing = _Packing(k, total)
        width = packing.width
        assert width == total.bit_length()
        full = (1 << width) - 1
        # a field holding 2^W - 1, alone and beside full or empty neighbours
        terms = [tuple(full if i == j else 0 for i in range(k)) for j in range(k)]
        terms += [(full,) * k, (0,) * k, (full,) + (0,) * (k - 2) + (full,)]
        terms += [tuple(rng.randint(0, full) for _ in range(k)) for _ in range(50)]
        packed = list(map(packing.pack, terms))
        assert [_fields_one_by_one(v, k, width) for v in packed] == terms
        assert list(packing.unpack(packed)) == terms
        assert list(packing.unpack(iter(packed))) == terms
        # one pass over many terms equals one pass per term
        assert list(packing.unpack(packed)) == [t for v in packed for t in packing.unpack([v])]


class TestSugarStrategy:
    """The run goes one weighted degree at a time, the order weighted sugar
    gives on homogeneous input, and on the dual classes it returns the
    binom(n+k, k-1) elements of the reduced basis, none of which
    ``reduce_basis`` drops or changes."""

    @pytest.mark.parametrize("k,n", [(3, 8), (3, 12), (4, 5), (4, 6), (5, 5), (6, 4)])
    def test_dual_class_builds_no_redundant_element(self, k, n):
        gb = buchberger(dual_class_generators(k, n))
        assert len(gb) == math.comb(n + k, k - 1)
        assert reduce_basis(gb) == gb


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

    def test_cap_guard(self, monkeypatch):
        # at k = 2 the family has n+2 elements, so n = ORACLE_CAP - 1 is the
        # first n past the guard; it fails on the guard before any elimination
        monkeypatch.setattr(
            buchberger_oracle, "_reduced_basis", lambda gens: pytest.fail("eliminated")
        )
        n = ORACLE_CAP - 1
        assert GroebnerFamily(GrassmannContext(2, n)).size == ORACLE_CAP + 1
        with pytest.raises(OracleCapExceeded) as caught:
            oracle_equals_family(GrassmannContext(2, n))
        assert str(caught.value) == (
            f"instance has {ORACLE_CAP + 1} basis elements, above ORACLE_CAP = {ORACLE_CAP}"
        )

    def test_last_size_inside_the_cap_reaches_the_oracle(self, monkeypatch):
        # the last n inside the guard passes it and hands the dual classes
        # to the elimination, which is recorded, not run
        calls = []

        class Reached(Exception):
            pass

        def record(gens):
            calls.append(gens)
            raise Reached

        monkeypatch.setattr(buchberger_oracle, "_reduced_basis", record)
        n = ORACLE_CAP - 2
        assert GroebnerFamily(GrassmannContext(2, n)).size == ORACLE_CAP
        with pytest.raises(Reached):
            oracle_equals_family(GrassmannContext(2, n))
        assert calls == [[wbar_recurrence(n + 1, 2), wbar_recurrence(n + 2, 2)]]


def _tails(memo):
    """The leads of the memo's elements that have a tail, in increasing order."""
    return [v for v in sorted(memo) if len(memo[v]) > 1]


def _drop_a_tail_term(memo):
    lead = _tails(memo)[0]
    memo[lead] = memo[lead][:-1]


def _add_a_foreign_term(memo):
    # a term of another element, below this element's lead
    lead = _tails(memo)[-1]
    g = memo[lead]
    u = next(t for h in memo.values() for t in h if t < lead and t not in g)
    memo[lead] = tuple(sorted(g + (u,), reverse=True))


def _swap_tail_terms(memo):
    # one tail term of each of two elements trades places; each is below
    # both leads and in neither other element, so every lead, every count
    # and the union of all the terms stay as they were
    for a, b in combinations(_tails(memo), 2):
        ta = [t for t in memo[a][1:] if t not in memo[b] and t < b]
        tb = [t for t in memo[b][1:] if t not in memo[a] and t < a]
        if ta and tb:
            break
    memo[a] = tuple(sorted(set(memo[a]) - {ta[0]} | {tb[0]}, reverse=True))
    memo[b] = tuple(sorted(set(memo[b]) - {tb[0]} | {ta[0]}, reverse=True))


class TestCorruptedFamily:
    """A family whose whole build is corrupted after the fact, with every
    lead and the element count kept, so only a comparison of whole term
    sets tells it from the true one: ``oracle_equals_family`` must say
    False and ``grassgb verify`` must exit 1 with the MISMATCH line."""

    CORRUPTIONS = [_drop_a_tail_term, _add_a_foreign_term, _swap_tail_terms]

    @pytest.fixture
    def corrupt(self, monkeypatch):
        def install(corruption):
            materialise = GroebnerFamily._materialise

            def corrupted(self):
                memo = materialise(self)
                corruption(memo)
                return memo

            monkeypatch.setattr(GroebnerFamily, "_materialise", corrupted)

        return install

    @pytest.mark.parametrize("k,n", [(3, 4), (4, 5)])
    @pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda c: c.__name__.strip("_"))
    def test_mismatch(self, corrupt, capsys, corruption, k, n):
        ctx = GrassmannContext(k, n)
        true = GroebnerFamily(ctx).polynomials()
        corrupt(corruption)
        wrong = GroebnerFamily(ctx).polynomials()
        assert len(wrong) == len(true)
        assert [g.leading_term() for g in wrong] == [g.leading_term() for g in true]
        assert set(wrong) != set(true)
        assert not oracle_equals_family(ctx)
        assert run(["verify", "-k", str(k), "-n", str(n)]) == 1
        assert capsys.readouterr().out == f"MISMATCH: family and oracle disagree for k={k}, n={n}\n"


def _swap_two_smallest(memo):
    a, b = sorted(memo)[:2]
    memo[a], memo[b] = memo[b], memo[a]


def _copy_under_another_lead(memo):
    # the smallest element's terms kept under the next lead too
    a, b = sorted(memo)[:2]
    memo[b] = memo[a]


def _lead_not_first(memo):
    # the longest element's terms kept whole under its own lead, but led by
    # a tail term, which generate would print first
    lead = max(memo, key=lambda v: len(memo[v]))
    memo[lead] = memo[lead][1:] + memo[lead][:1]


class TestMisplacedElements:
    """A family whose elements are all right but kept under the wrong
    leads, or led by the wrong term: as a set of term sets the swap and the
    rotation equal the true basis, so only a check of each element under
    its own index tells them apart."""

    @pytest.mark.parametrize("k,n", [(3, 4), (4, 5)])
    @pytest.mark.parametrize("misplace", [_swap_two_smallest, _copy_under_another_lead, _lead_not_first],
                             ids=lambda c: c.__name__.strip("_"))
    def test_mismatch(self, monkeypatch, capsys, misplace, k, n):
        ctx = GrassmannContext(k, n)
        true = list(GroebnerFamily(ctx).packed_items())
        materialise = GroebnerFamily._materialise

        def misplaced(self):
            memo = materialise(self)
            misplace(memo)
            return memo

        monkeypatch.setattr(GroebnerFamily, "_materialise", misplaced)
        wrong = list(GroebnerFamily(ctx).packed_items())
        assert [terms for _, terms in wrong] != [terms for _, terms in true]
        if misplace is not _copy_under_another_lead:
            assert {frozenset(terms) for _, terms in wrong} == {frozenset(terms) for _, terms in true}
        assert not oracle_equals_family(ctx)
        assert run(["verify", "-k", str(k), "-n", str(n)]) == 1
        assert capsys.readouterr().out == f"MISMATCH: family and oracle disagree for k={k}, n={n}\n"


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
        assert buchberger(gens) == reduce_basis_reference(gb)
        assert reduce_basis(gb) == reduce_basis_reference(gb)

    @pytest.mark.parametrize("k,n", CAP_SIZES)
    def test_dual_class_sizes_up_to_the_cap(self, k, n):
        gens = dual_class_generators(k, n)
        assert buchberger(gens) == reduce_basis_reference(buchberger_reference(gens))

    def test_random_sets_spanning_the_dual_class_ideal(self, rng):
        # g_i + sum_{j<i} h_ij g_j with each h_ij homogeneous of degree i - j
        # spans the same ideal as the dual classes g_i and is still a
        # regular sequence; one extra member of the ideal breaks that
        extras = 0
        for trial in range(24):
            k = 2 + trial % 3
            n = rng.randint(k, k + 3)
            duals = dual_class_generators(k, n)
            gens = []
            for i, g in enumerate(duals):
                for j in range(i):
                    if rng.random() < 0.7:
                        g = g + random_homogeneous(rng, k, i - j) * duals[j]
                gens.append(g)
            if trial % 2:
                top = n + k + rng.randint(0, 2)
                extra = Poly.zero(k)
                for j, g in enumerate(duals, 1):
                    extra = extra + random_homogeneous(rng, k, top - n - j) * g
                if extra:
                    gens.append(extra)
                    extras += 1
            rng.shuffle(gens)
            gb = buchberger(gens)
            assert gb == reduce_basis_reference(buchberger_reference(gens)), (k, n, gens)
            assert gb == buchberger(duals), (k, n)
            assert reduce_basis(gb) == gb, (k, n)
        assert extras >= 8

    def test_random_zero_dimensional_sets(self, rng):
        # a power of each w_j makes degrees full early, and the random forms
        # then add rows in the projected degrees above them, where the F5
        # criterion must skip no row for a dropped lead
        for _ in range(300):
            k = rng.randint(2, 4)
            powers = [[rng.randint(1, 3) * (i == j) for i in range(k)] for j in range(k)]
            gens = list(map(Poly.monomial, powers))
            for _ in range(rng.randint(1, 3)):
                gens.append(random_homogeneous(rng, k, rng.randint(1, 3 * k)))
            rng.shuffle(gens)
            assert buchberger(gens) == reduce_basis_reference(buchberger_reference(gens)), gens

    def test_random_nonhomogeneous_generators(self, rng):
        # buchberger refuses these; reduce_basis stays generic, so it must
        # still agree with the reference on their Groebner bases
        checked = 0
        while checked < 30:
            k = rng.choice((2, 3))
            gens = [g for g in (random_poly(rng, k) for _ in range(rng.randint(1, 4))) if g]
            if not any(len(set(map(weighted_degree, g.terms))) > 1 for g in gens):
                continue
            with pytest.raises(ValueError, match="is not weighted-homogeneous"):
                buchberger(gens)
            gb = buchberger_reference(gens)
            assert reduce_basis(gb) == reduce_basis_reference(gb), gens
            checked += 1

    def test_oracle_reduce_on_bases_that_are_not_groebner(self, rng):
        # on such a basis the remainder depends on the rule: the largest
        # term first, reduced by the first lead that divides it; the last
        # dividing lead is the first of the reversed basis, and the sample
        # must tell the two apart
        apart = 0
        for _ in range(200):
            k = rng.randint(2, 4)
            size, basis = rng.randint(2, 4), []
            while len(basis) < size:
                basis = [g for g in basis + [random_poly(rng, k)] if g]
            f = random_poly(rng, k)
            expected = oracle_reduce_reference(f, basis)
            assert oracle_reduce(f, basis) == expected, (f, basis)
            apart += oracle_reduce_reference(f, basis[::-1]) != expected
        assert apart >= 10

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


class TestWidthEdges:
    """Exponent sums at and above 2^16, far apart within one input, which
    ``reduce_basis`` and ``oracle_reduce`` divide as exponent tuples.
    Every case has a generator that is not weighted-homogeneous, which
    ``buchberger`` refuses, so both take their bases from the tuple
    reference."""

    CASES = {
        # exponents at and above 2^16 from the first generator on
        "above_2_16": (2, ["w1^65536 + w2^3", "w1*w2^2 + w2^65537"]),
        # one lead is far wider than the other
        "lead_outgrows_width": (2, ["w1*w2^3", "w1^131072 + w2"]),
        "outgrows_with_a_pair_queued": (2, ["w1*w2^3", "w1^2*w2 + w2^2", "w1^131072 + w2"]),
        # an S-polynomial adds an element, beside a term of sum 23
        "queued_lcm_repacked": (2, ["w1^3*w2 + w2^2", "w1*w2", "w2^23 + w2^2"]),
        "three_variables": (3, ["w1^3 + w2*w3", "w2^70000*w3 + w1", "w3^5 + w1*w2"]),
        # w2^(2^20 + 7) beside the leads w1 and w2
        "probe_above_every_field": (2, ["w1 + w2", "w2^1048583 + w2"]),
        # the pair of w1*w2^2 and w2^3 has the lcm w1*w2^3, whose sum 4
        # is past every sum of the input
        "lcm_widens_with_a_pair_queued": (2, ["w1*w2^2 + w2", "w2^3", "w1^3"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reference(self, case):
        k, texts = self.CASES[case]
        gens = [parse(text, k) for text in texts]
        with pytest.raises(ValueError, match="is not weighted-homogeneous"):
            buchberger(gens)
        gb = buchberger_reference(gens)
        assert reduce_basis(gb) == reduce_basis_reference(gb)
        product = gens[0] * gens[-1] + gens[-1]
        assert oracle_reduce(product, gb) == oracle_reduce_reference(product, gb)

    def test_oracle_reduce_probe_above_every_field(self):
        basis = [parse(text, 3) for text in ("w1", "w2^2*w3 + w1*w3", "w3^3")]
        probes = ("w2^1048583", "w2^1048583*w3 + w3^2097157", "w1^1048583*w2^7 + w2*w3^2")
        for text in probes:
            f = parse(text, 3)
            assert oracle_reduce(f, basis) == oracle_reduce_reference(f, basis), text

