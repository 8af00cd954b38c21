import pytest
from reference import g_direct_reference

from grassgb.cli import run
from grassgb.dual_classes import wbar_explicit, wbar_recurrence, wbar_sequence
from grassgb.f2poly import Poly, parse, weighted_degree


def test_small_values():
    assert wbar_recurrence(1, 4) == parse("w1", 4)
    assert wbar_recurrence(2, 3) == parse("w1^2 + w2", 3)
    assert wbar_recurrence(3, 2) == parse("w1^3", 2)
    assert wbar_explicit(3, 2) == parse("w1^3", 2)
    assert wbar_explicit(4, 2) == parse("w1^4 + w1^2*w2 + w2^2", 2)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        wbar_recurrence(0, 3)
    with pytest.raises(ValueError):
        wbar_explicit(2, 1)


def test_deep_recurrence_needs_no_recursion():
    # far past the default recursion limit of 1000
    assert wbar_recurrence(3000, 2) == wbar_explicit(3000, 2)


@pytest.mark.parametrize("k", range(2, 7))
def test_explicit_equals_recurrence(k):
    for r in range(1, 61):
        assert wbar_explicit(r, k) == wbar_recurrence(r, k), (r, k)


@pytest.mark.parametrize("k", range(2, 7))
def test_sequence_lists_every_class(k):
    classes = wbar_sequence(30, k)
    assert classes[0] == Poly.one(k)
    assert classes[1:] == [wbar_explicit(r, k) for r in range(1, 31)]


@pytest.mark.parametrize("k", range(2, 6))
def test_explicit_is_g0_of_the_filter_path(k):
    # wbar_r = g_0 at n = r-1, there by enumerate-then-filter; r < k too,
    # where no G_{k,r-1} exists and the kernel's fields hold only r
    for r in range(1, 16):
        assert wbar_explicit(r, k) == g_direct_reference(k, r - 1, (0,) * (k - 1)), (r, k)


def test_many_variables_small_degree():
    # the walk skips the levels of w_j with j > r, which stay at exponent 0,
    # so its recursion does not grow with k
    for r in (1, 2, 5):
        assert wbar_explicit(r, 1500) == wbar_recurrence(r, 1500), r


def test_degree_past_max_exponent_is_an_overflow(capsys):
    # w1^r is a term of wbar_r, so r = 2^31 fails at once, with no terms built
    with pytest.raises(OverflowError, match="exponent overflow: w1\\^2147483648"):
        wbar_explicit(2**31, 2)
    assert run(["dual", "-k", "2", "-r", str(2**31)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: exponent overflow")


def test_homogeneity():
    for k in (2, 3, 5):
        for r in range(1, 15):
            for t in wbar_explicit(r, k).terms:
                assert weighted_degree(t) == r


@pytest.mark.parametrize("k", (2, 3, 4))
def test_defining_identity(k):
    big_r = 20
    total = Poly.one(k)
    for j in range(1, k + 1):
        total = total + Poly.variable(k, j)
    dual_total = Poly.one(k)
    for r in range(1, big_r + 1):
        dual_total = dual_total + wbar_recurrence(r, k)
    product = total * dual_total
    degrees = {weighted_degree(t) for t in product.terms}
    assert not degrees & set(range(1, big_r + 1))
