"""The four benchmark workloads: seeded inputs, the timed ops, their checks.

Every builder takes the imported ``grassgb`` package, a ``random.Random``
seeded from the run's seed, and ``quick`` (tiny sizes for the self-test).  It returns
``Op``s whose ``run`` is timed and whose ``check`` runs after the timed
region, returning ``None`` or a description of what is wrong.  Package
functions are looked up at call time (``g.cli.run``, ``g.cup``), so the
tracer's wrappers are the ones called in a traced pass.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

CUP_OPS = 100
CUP_CHECKED = 4  # oracle_reduce costs ~0.2 s an op at G_{4,10}
RECURRENCE_CHECKED = 6


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def _cli(g, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = g.cli.run(argv)
        return code, buf.getvalue()

    return run


def _grlex(t):
    return (sum(t), t)


# -- family: generate --format json ---------------------------------------


def _check_family(g, k: int, n: int, rng):
    sample = random.Random(rng.getrandbits(64))

    def check(output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        records = json.loads(text)
        if len(records) != math.comb(n + k, k - 1):
            return f"{len(records)} elements, expected {math.comb(n + k, k - 1)}"
        table = {}
        for rec in records:
            m, lt = tuple(rec["M"]), tuple(rec["lt"])
            poly = [tuple(t) for t in rec["poly"]]
            if len(m) != k - 1 or sum(m) > n + 1 or m in table:
                return f"bad or repeated index {m}"
            if lt != (n + 1 - sum(m),) + m:
                return f"lt {lt} of g_{m} breaks the leading-term law"
            if not poly or max(poly, key=_grlex) != lt:
                return f"lt {lt} is not the grlex-max term of g_{m}"
            table[m] = poly
        bases = [m for m in table if sum(m) <= n - 1]
        ctx = g.GrassmannContext(k, n)

        def lookup(idx):
            return g.Poly(k, table[idx])

        for _ in range(RECURRENCE_CHECKED):
            m = sample.choice(bases)
            i = sample.randint(1, k - 1)
            j = sample.randint(i, k - 1)
            target = list(m)
            target[i - 1] += 1
            target[j - 1] += 1
            got = g.g_recurrence_step(ctx, m, i, j, lookup)
            if got != lookup(tuple(target)):
                return f"recurrence fails at M={m}, i={i}, j={j}"
        return None

    return check


def family(g, rng, quick: bool) -> list[Op]:
    sizes = [(2, 3), (3, 4), (2, 4)] if quick else [(4, 14), (5, 9), (6, 7), (5, 10)]
    ops = [
        Op(
            f"generate k={k} n={n}",
            _cli(g, ["generate", "-k", str(k), "-n", str(n), "--format", "json"]),
            _check_family(g, k, n, rng),
        )
        for k, n in sizes
    ]
    rng.shuffle(ops)
    return ops


# -- obstruction: immersion-check and the normal bundle of G_{5,8} ---------


def _check_immersion(n: int):
    expected = (
        f"n: {n}\n"
        f"Sq1(w4*w5^{n - 1}) = w5^{n}\n"
        f"(Sq2 + w1^2 + w2)(w2*w5^{n - 1}) = w4*w5^{n - 1}\n"
        "lift_possible: yes\n"
    )

    def check(output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        return None if text == expected else f"unexpected report {text!r}"

    return check


def _check_normal_bundle(g):
    def check(nb):
        if nb[0].value != g.Poly(5, [(0,) * 5]):
            return "nb[0] != 1"
        if nb[2].value != g.Poly(5, [(2, 0, 0, 0, 0), (0, 1, 0, 0, 0)]):
            return f"nb[2] = {nb[2]}, expected w1^2 + w2"
        nonzero = [d for d, c in nb.items() if d >= 36 and c]
        return f"nonzero classes in degrees {nonzero}" if nonzero else None

    return check


def obstruction(g, rng, quick: bool) -> list[Op]:
    sizes = [8] if quick else [16, 24, 32, 40]
    ops = [
        Op(
            f"immersion-check n={n}",
            _cli(g, ["immersion-check", "-n", str(n)]),
            _check_immersion(n),
        )
        for n in sizes
    ]
    ops.append(
        Op("normal_bundle_sw n=8", lambda: g.normal_bundle_sw(8), _check_normal_bundle(g))
    )
    # Fixed order: these ops share module caches across n, so under a seeded
    # order an op's time moved by up to 40% and the seed set the percentiles.
    return ops


# -- cup: one family held across a seeded stream of cup products -----------


def cup(g, rng, quick: bool) -> list[Op]:
    k, n = (3, 4) if quick else (4, 10)
    count, checked = (10, 2) if quick else (CUP_OPS, CUP_CHECKED)
    ctx = g.GrassmannContext(k, n)
    fam = g.GroebnerFamily(ctx)
    # standard monomials (exponent sum <= n) of exponent sum >= n/2
    pool = [
        t
        for t in itertools.product(range(n + 1), repeat=k)
        if (n + 1) // 2 <= sum(t) <= n
    ]

    # The pairs are drawn once; the seed orders the stream and picks the
    # checked sample.  Streams of 100 independently drawn pairs differ by
    # 5-8% in cost from seed to seed, more than the bound can absorb.
    draw = random.Random(f"cup pairs k={k} n={n}")

    def cls():
        return g.CohomologyClass(ctx, g.Poly(k, draw.sample(pool, 8)))

    pairs = [(cls(), cls()) for _ in range(count)]
    rng.shuffle(pairs)
    sampled = set(rng.sample(range(count), checked))
    basis: list = []

    def make(idx, a, b):
        def run():
            return g.cup(ctx, a, b, fam)

        def check(result):
            if result.context != ctx or any(sum(t) > n for t in result.value.terms):
                return "result is not in normal form"
            if idx not in sampled:
                return None
            if not basis:
                basis.extend(g.GroebnerFamily(ctx).polynomials())
            expected = g.buchberger_oracle.oracle_reduce(a.value * b.value, basis)
            return None if result.value == expected else "differs from oracle_reduce"

        return Op(f"cup #{idx}", run, check)

    return [make(idx, a, b) for idx, (a, b) in enumerate(pairs)]


# -- verify: family against the Buchberger oracle -------------------------


def _check_verify(k: int, n: int):
    expected = (
        "OK: reduced Groebner basis matches oracle "
        f"({math.comb(n + k, k - 1)} elements)\n"
    )

    def check(output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        return None if text == expected else f"unexpected output {text!r}"

    return check


def verify(g, rng, quick: bool) -> list[Op]:
    sizes = [(2, 3), (3, 4)] if quick else [(3, 8), (3, 12), (4, 5), (4, 6)]
    ops = [
        Op(
            f"verify k={k} n={n}",
            _cli(g, ["verify", "-k", str(k), "-n", str(n)]),
            _check_verify(k, n),
        )
        for k, n in sizes
    ]
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "family": family,
    "obstruction": obstruction,
    "cup": cup,
    "verify": verify,
}
