import random

import pytest

from grassgb import steenrod
from grassgb.f2poly import Poly, monomials_of_weighted_degree


def random_poly(rng: random.Random, k: int, max_exp: int = 4, max_terms: int = 6) -> Poly:
    terms = [
        tuple(rng.randint(0, max_exp) for _ in range(k))
        for _ in range(rng.randint(0, max_terms))
    ]
    return Poly(k, terms)


def random_homogeneous(rng: random.Random, k: int, wdeg: int, max_terms: int = 5) -> Poly:
    pool = monomials_of_weighted_degree(wdeg, k)
    count = min(len(pool), rng.randint(1, max_terms))
    return Poly(k, rng.sample(pool, count))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture
def g5n_families(monkeypatch) -> list:
    """Every family ``steenrod._g5n_family`` returns, as the calls are
    made: the fresh family each G_{5,n} computation reduces in."""
    families = []
    make = steenrod._g5n_family

    def recorded(n):
        families.append(make(n))
        return families[-1]

    monkeypatch.setattr(steenrod, "_g5n_family", recorded)
    return families
