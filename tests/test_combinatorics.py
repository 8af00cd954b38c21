import pytest
from reference import binom_int, binom_parity, multinomial_parity, p_factor, p_product

RANGE = range(-64, 65)


def test_binom_int_values():
    assert binom_int(5, 2) == 10
    assert binom_int(-3, 1) == -3
    assert binom_int(3, 5) == 0
    assert binom_int(4, -1) == 0
    assert binom_int(0, 0) == 1
    assert binom_int(-1, 3) == -1


def test_binom_parity_values():
    assert binom_parity(5, 2) == 0
    assert binom_parity(7, 3) == 1
    assert binom_parity(-3, 1) == 1


def test_binom_parity_matches_binom_int_exhaustively():
    for a in RANGE:
        for b in RANGE:
            assert binom_parity(a, b) == binom_int(a, b) % 2, (a, b)


def test_pascal_identity_mod2():
    for a in RANGE:
        for b in RANGE:
            assert binom_parity(a, b) == (
                binom_parity(a - 1, b) ^ binom_parity(a - 1, b - 1)
            ), (a, b)


def test_nonzero_implies_bound():
    for a in RANGE:
        for b in RANGE:
            if binom_int(a, b) != 0:
                assert a >= b or a <= -1, (a, b)


def test_multinomial_parity_values():
    assert multinomial_parity((2, 0)) == 1
    assert multinomial_parity((1, 1)) == 0
    assert multinomial_parity((0, 1)) == 1


def test_multinomial_rejects_negative():
    with pytest.raises(ValueError):
        multinomial_parity((1, -1))


def test_p_factor_values():
    assert p_factor(2, (2, 1), (1,)) == 1  # binom(3-1, 2) = 1
    assert p_factor(2, (4, 0), (1,)) == 0  # binom(4-1, 4) = 0


def test_p_factor_on_extended_index_is_one():
    # A = (n+1-S_M, m_2, ..., m_k) makes every factor binom(m_{t-1}, m_{t-1})
    m = (1, 2, 0, 3)
    n = 7
    a = (n + 1 - sum(m),) + m
    for t in range(2, len(a) + 1):
        assert p_factor(t, a, m) == 1


def test_p_factor_range_check():
    with pytest.raises(ValueError):
        p_factor(1, (1, 2), (0,))


def test_p_product_at_zero_index_is_multinomial(rng):
    for _ in range(200):
        k = rng.randint(2, 5)
        a = tuple(rng.randint(0, 6) for _ in range(k))
        assert p_product(a, (0,) * (k - 1)) == multinomial_parity(a)


def test_p_product_single_factor_cases():
    assert p_product((2, 1), (1,)) == 1
    assert p_product((4, 0), (1,)) == 0


def test_tail_inequalities_when_product_nonzero(rng):
    # nonzero P(A, M) with S_A >= S_M forces all k-1 suffix inequalities
    for _ in range(2000):
        k = rng.randint(2, 5)
        a = tuple(rng.randint(0, 5) for _ in range(k))
        m = tuple(rng.randint(0, 5) for _ in range(k - 1))
        if p_product(a, m) and sum(a) >= sum(m):
            for t in range(2, k + 1):
                assert sum(a[t - 1 :]) >= sum(m[t - 2 :]), (a, m, t)
