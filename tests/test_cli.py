import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys

import pytest
from reference import (
    generate_json_reference,
    indices_up_to_reference,
    normal_form_reference,
    standard_basis_reference,
)

import grassgb
from grassgb import buchberger_oracle, cli
from grassgb.cli import run
from grassgb.f2poly import Poly, format_poly
from grassgb.groebner_family import GrassmannContext, GroebnerFamily, g_direct


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_text(capsys):
    code, out, _ = invoke(capsys, "generate", "-k", "2", "-n", "2")
    assert code == 0
    assert out.splitlines() == [
        "g[0] = w1^3",
        "g[1] = w1^2*w2 + w2^2",
        "g[2] = w1*w2^2",
        "g[3] = w2^3",
    ]


def text_lines(ctx, indices):
    """``generate`` text lines for the indices, each g_M by g_direct and
    printed by format_poly."""
    return [f"g[{','.join(map(str, m))}] = {format_poly(g_direct(ctx, m))}\n" for m in indices]


@pytest.mark.parametrize("k", range(2, 8))
def test_generate_text_matches_format_poly(capsys, k):
    # the grid of the JSON test below, both formats sharing one term table,
    # and (7,7), which the JSON tests reach past that grid
    for n in sorted({k, 7, 9}) if k < 7 else (7,):
        ctx = GrassmannContext(k, n)
        code, out, _ = invoke(capsys, "generate", "-k", str(k), "-n", str(n))
        assert code == 0
        indices = indices_up_to_reference(k, n + 1)
        assert out == "".join(text_lines(ctx, indices)), n
        # --only-m on the first, the last and a few between
        for m in indices[:: max(1, len(indices) // 4)] + indices[-1:]:
            only = ",".join(map(str, m))
            code, out, _ = invoke(capsys, "generate", "-k", str(k), "-n", str(n), "--only-m", only)
            assert (code, out) == (0, text_lines(ctx, [m])[0]), (n, m)


def test_generate_json_round_trips(capsys):
    code, out, _ = invoke(capsys, "generate", "-k", "2", "-n", "2", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 4
    assert records[0] == {"M": [0], "lt": [3, 0], "poly": [[3, 0]]}
    assert json.dumps(records, indent=2) == out.strip()


@pytest.mark.parametrize("k", range(2, 7))
def test_generate_json_matches_json_dumps(capsys, k):
    for n in sorted({k, 7, 9}):
        ctx = GrassmannContext(k, n)
        argv = ("generate", "-k", str(k), "-n", str(n), "--format", "json")
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        indices = indices_up_to_reference(k, n + 1)
        assert out == generate_json_reference(ctx, indices) + "\n", n


@pytest.mark.parametrize("k,n", [(4, 14), (5, 10)])
def test_generate_json_matches_reference_at_benchmark_sizes(capsys, k, n):
    # the two family benchmark sizes the k-grid above does not reach
    ctx = GrassmannContext(k, n)
    argv = ("generate", "-k", str(k), "-n", str(n), "--format", "json")
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out == generate_json_reference(ctx, indices_up_to_reference(k, n + 1)) + "\n"


@pytest.mark.parametrize("k,n", [(7, 7), (2, 14), (3, 14), (2, 30)])
def test_generate_json_matches_reference_past_the_grid(capsys, k, n):
    # k = 7, past the k = 2..6 grid above, and sizes whose build fields hold
    # n+2 = 2^W, one bit more than the largest printed exponent, n+1, needs
    ctx = GrassmannContext(k, n)
    argv = ("generate", "-k", str(k), "-n", str(n), "--format", "json")
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out == generate_json_reference(ctx, indices_up_to_reference(k, n + 1)) + "\n"


def test_generate_json_only_m_at_n_2_to_the_30():
    # the build fields are 31 bits wide here; the per-field text tables hold
    # only the values present, so one element prints at once
    n = 2**30
    m = [2, 0, 0, n - 1]
    only = ",".join(map(str, m))
    argv = ("generate", "-k", "5", "-n", str(n), "--only-m", only, "--format", "json")
    proc = subprocess.run(
        [sys.executable, "-m", "grassgb.cli", *argv],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=30,
    )
    lead = [0, *m]
    record = {"M": m, "lt": lead, "poly": [lead, [0, 0, 0, 1, n - 1]]}
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == json.dumps([record], indent=2) + "\n"


# sha256 prefixes of ``generate`` stdout at the family benchmark sizes
GOLDEN_GENERATE = {
    (4, 14): ("cada906b172aaea1", "e067915dc3945cf1"),
    (5, 9): ("0d57bcc731411b1e", "17f8e17e0b24ada5"),
    (6, 7): ("b953245936859d9a", "ff0e6d01ca42ce8a"),
    (5, 10): ("1b4bb56a8eca814e", "894508ca03d7a1fa"),
}


@pytest.mark.parametrize("k,n", GOLDEN_GENERATE)
def test_generate_output_is_golden(capsys, k, n):
    digests = []
    for fmt in ("json", "text"):
        code, out, _ = invoke(capsys, "generate", "-k", str(k), "-n", str(n), "--format", fmt)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert tuple(digests) == GOLDEN_GENERATE[k, n]


# (exit code, sha256 prefix of stdout, of stderr) of command lines that no
# other test pins byte for byte, EMPTY that of the empty text.  The
# verify cases hold its OK line and its guard line, at k = 2 the first n
# past ORACLE_CAP = 792 and at k = 5 the first n past it, (5,9)
EMPTY = hashlib.sha256(b"").hexdigest()[:16]
GOLDEN_COMMANDS = {
    ("reduce", "-k", "3", "-n", "5", "w1^7*w2 + w3^4"): (0, "fb8a0cff17c83e14", EMPTY),
    ("reduce", "-k", "4", "-n", "6", "w1^11 + w2^3*w4^2 + w3^5"): (0, "ca21822d55dd4814", EMPTY),
    ("reduce", "-k", "2", "-n", "3", "1 + w1^4 + w2^2"): (0, "dabe7da2fd341e26", EMPTY),
    ("reduce", "-k", "2", "-n", "2", "w1 w2"): (2, EMPTY, "03b3850ee3121bb7"),
    ("dual", "-k", "3", "-r", "12"): (0, "832351428a495bc4", EMPTY),
    ("dual", "-k", "5", "-r", "9"): (0, "57527ac501e80047", EMPTY),
    ("basis", "-k", "3", "-n", "5"): (0, "3705417bbb2f8c2d", EMPTY),
    ("basis", "-k", "4", "-n", "4"): (0, "fa05b57d7c147b37", EMPTY),
    ("immersion-check", "-n", "16"): (0, "5ae32e29d6e89f09", EMPTY),
    ("immersion-check", "-n", "24"): (0, "fb094f90a3e0252d", EMPTY),
    ("immersion-check", "-n", "12"): (2, EMPTY, "e95c5afedd00e921"),
    ("verify", "-k", "2", "-n", "5"): (0, "b36af227a7e65685", EMPTY),
    ("verify", "-k", "4", "-n", "4"): (0, "f104f1af849be8e9", EMPTY),
    ("verify", "-k", "2", "-n", "791"): (2, EMPTY, "cc2c1c0ea6a940af"),
    ("verify", "-k", "5", "-n", "9"): (2, EMPTY, "91f9dbebf25fcae1"),
}


@pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=" ".join)
def test_command_output_is_golden(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    digests = [hashlib.sha256(text.encode()).hexdigest()[:16] for text in (out, err)]
    assert (code, *digests) == GOLDEN_COMMANDS[argv]


@pytest.mark.parametrize("k,n,m", [(2, 2, (1,)), (4, 9, (2, 0, 3)), (6, 7, (1, 1, 1, 1, 1))])
def test_generate_json_only_m_matches_json_dumps(capsys, k, n, m):
    only = ",".join(map(str, m))
    argv = ("generate", "-k", str(k), "-n", str(n), "--only-m", only, "--format", "json")
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out == generate_json_reference(GrassmannContext(k, n), [m]) + "\n"


# S_M = n+1, so a_1 = 0: the lead's a_1 text and the M block's texts come
# from tables of the same value, in "lt" and in "M"
A_1_IS_ZERO = [(2, 5, (6,)), (2, 2, (3,)), (5, 6, (0, 3, 0, 4)), (5, 5, (6, 0, 0, 0))]


@pytest.mark.parametrize("k,n,m", A_1_IS_ZERO)
def test_generate_only_m_with_a_1_zero(capsys, k, n, m):
    ctx, only = GrassmannContext(k, n), ",".join(map(str, m))
    assert sum(m) == n + 1
    code, out, _ = invoke(capsys, "generate", "-k", str(k), "-n", str(n), "--only-m", only, "--format", "json")
    assert (code, out) == (0, generate_json_reference(ctx, [m]) + "\n")
    assert json.loads(out)[0]["lt"] == [0, *m]
    code, out, _ = invoke(capsys, "generate", "-k", str(k), "-n", str(n), "--only-m", only)
    assert (code, out) == (0, text_lines(ctx, [m])[0])


class WriteLog:
    """A stdout that keeps each ``write`` call's text apart."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return len(text)


@pytest.mark.parametrize("k,n", [(2, 2), (3, 4), (5, 6)])
def test_generate_json_writes_one_record_per_call(monkeypatch, k, n):
    log = WriteLog()
    monkeypatch.setattr(sys, "stdout", log)
    assert run(["generate", "-k", str(k), "-n", str(n), "--format", "json"]) == 0
    indices = indices_up_to_reference(k, n + 1)
    assert "".join(log.calls) == generate_json_reference(GrassmannContext(k, n), indices) + "\n"
    # each record has one "M" key: no call holds two records
    assert [call.count('"M"') for call in log.calls] == [1] * len(indices) + [0]


def test_generate_only_m(capsys):
    code, out, _ = invoke(capsys, "generate", "-k", "2", "-n", "2", "--only-m", "1")
    assert code == 0
    assert out.strip() == "g[1] = w1^2*w2 + w2^2"


@pytest.mark.parametrize("only", ["1", "1,2,3", "-1,0", "9,0", "1,x", ""])
def test_generate_only_m_rejects_bad_index(capsys, only):
    code, out, err = invoke(capsys, "generate", "-k", "3", "-n", "4", f"--only-m={only}")
    assert (code, out) == (2, "")
    # an entry that is no integer is a parse error, like -n x: the usage
    # line, then the entry named under the flag
    bad = {"1,x": "'x'", "": "''"}.get(only)
    if bad is None:
        assert err.startswith("error:") and len(err.splitlines()) == 1
    else:
        assert err == (
            GENERATE_USAGE
            + f"grassgb generate: error: argument --only-m: invalid int value: {bad}\n"
        )


def test_generate_deterministic(capsys):
    _, first, _ = invoke(capsys, "generate", "-k", "3", "-n", "3")
    _, second, _ = invoke(capsys, "generate", "-k", "3", "-n", "3")
    assert first == second


def test_reduce(capsys):
    code, out, _ = invoke(capsys, "reduce", "-k", "2", "-n", "2", "w1^2*w2")
    assert code == 0
    assert out.strip() == "w2^2"


@pytest.mark.parametrize("k,n", [(4, 10), (5, 8)])
def test_reduce_matches_reference(capsys, k, n):
    rng = random.Random(k * 1000 + n)
    ctx = GrassmannContext(k, n)
    family = GroebnerFamily(ctx)
    for _ in range(8):
        # a mix of terms near the standard range and terms up to w_j^(2n)
        hi = rng.choice((n // 2, 2 * n))
        terms = [
            tuple(rng.randint(0, hi) for _ in range(k))
            for _ in range(rng.randint(1, 4))
        ]
        f = Poly(k, terms)
        argv = ("reduce", "-k", str(k), "-n", str(n), format_poly(f))
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert out == format_poly(normal_form_reference(ctx, f, family)) + "\n"


def test_reduce_bad_poly(capsys):
    code, _, err = invoke(capsys, "reduce", "-k", "2", "-n", "2", "w9")
    assert code == 2
    assert "error" in err


def test_dual(capsys):
    code, out, _ = invoke(capsys, "dual", "-k", "2", "-r", "4")
    assert code == 0
    assert out.strip() == "w1^4 + w1^2*w2 + w2^2"


def test_dual_rejects_r_below_1(capsys):
    code, out, err = invoke(capsys, "dual", "-k", "2", "-r", "0")
    assert (code, out) == (2, "")
    assert err == "error: degree must be >= 1, got 0\n"


def test_verify_ok(capsys):
    code, out, _ = invoke(capsys, "verify", "-k", "3", "-n", "3")
    assert code == 0
    assert out.strip() == "OK: reduced Groebner basis matches oracle (15 elements)"


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("grassgb.cli.oracle_equals_family", lambda ctx: False)
    code, out, _ = invoke(capsys, "verify", "-k", "2", "-n", "2")
    assert code == 1
    assert out == "MISMATCH: family and oracle disagree for k=2, n=2\n"


def test_verify_cap(capsys, monkeypatch):
    # at k = 2 the family has n+2 elements: n = 791 is the first past
    # ORACLE_CAP = 792, and it exits 2 on the guard before any elimination
    monkeypatch.setattr(
        buchberger_oracle, "_reduced_basis", lambda gens: pytest.fail("eliminated")
    )
    assert buchberger_oracle.ORACLE_CAP == 792
    code, out, err = invoke(capsys, "verify", "-k", "2", "-n", "791")
    assert (code, out) == (2, "")
    assert err == "error: instance has 793 basis elements, above ORACLE_CAP = 792\n"


def test_verify_cap_past_an_index_sized_count(capsys):
    # the family's size is past 2^63 - 1, which len() cannot return
    code, out, err = invoke(capsys, "verify", "-k", "5", "-n", "4294967296")
    assert (code, out) == (2, "")
    assert err == (
        "error: instance has 14178432001255530832199756818174443525 basis elements,"
        " above ORACLE_CAP = 792\n"
    )


def test_immersion_check(capsys):
    code, out, _ = invoke(capsys, "immersion-check", "-n", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n: 8"
    assert lines[1] == "Sq1(w4*w5^7) = w5^8"
    assert lines[2] == "(Sq2 + w1^2 + w2)(w2*w5^7) = w4*w5^7"
    assert lines[3] == "lift_possible: yes"


def test_basis(capsys):
    code, out, _ = invoke(capsys, "basis", "-k", "2", "-n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines == ["1", "w2", "w1", "w2^2", "w1*w2", "w1^2", "count: 6"]


@pytest.mark.parametrize("k,n", [(2, 2), (3, 6), (5, 8), (2, 40), (4, 12), (6, 6)])
def test_basis_matches_format_poly(capsys, k, n):
    # against the box of all k-tuples, filtered and sorted
    code, out, _ = invoke(capsys, "basis", "-k", str(k), "-n", str(n))
    assert code == 0
    monos = standard_basis_reference(k, n)
    expected = [format_poly(Poly.monomial(m)) for m in monos] + [f"count: {len(monos)}"]
    assert out.splitlines() == expected


def test_usage_errors_exit_2(capsys):
    assert invoke(capsys, "nonsense")[0] == 2
    assert invoke(capsys, "generate", "-k", "2")[0] == 2
    assert invoke(capsys, "generate", "-k", "5", "-n", "2")[0] == 2
    assert invoke(capsys)[0] == 2


def test_exponent_overflow_exits_2(capsys):
    # n = 2^31 passes the multiple-of-8 guard; w5^(n-1) times w5 overflows
    code, out, err = invoke(capsys, "immersion-check", "-n", str(2**31))
    assert code == 2
    assert out == ""
    assert err.startswith("error: exponent overflow")


@pytest.mark.parametrize(
    "k,n,only,term",
    [
        (5, 2**32, "2,0,0,4294967295", "w2^2*w5^4294967295"),
        (2, 2**31 - 1, "2147483648", "w2^2147483648"),
        # the lead's w1^(n+1) stops g_0 before a walk that would not end
        (5, 2**32, "0,0,0,0", "w1^4294967297"),
        (2, 2**32, "0", "w1^4294967297"),
    ],
)
def test_generate_only_m_exponent_overflow_exits_2(capsys, k, n, only, term):
    # the exponent cap of reduce and immersion-check holds for --only-m too
    code, out, err = invoke(capsys, "generate", "-k", str(k), "-n", str(n), "--only-m", only)
    assert (code, out) == (2, "")
    assert err == f"error: exponent overflow in the term {term}\n"


def test_generate_only_m_at_the_exponent_cap(capsys):
    # n+1 passes the cap, but no exponent of this g_M does
    cap = str(2**31 - 1)
    code, out, _ = invoke(capsys, "generate", "-k", "2", "-n", cap, "--only-m", cap)
    assert (code, out) == (0, "g[2147483647] = w1*w2^2147483647\n")


DEEP_K = "error: k is too large for the g_M walk, which recurses once per variable\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("basis", "-k", "1000", "-n", "1000"),
        ("generate", "-k", "1000", "-n", "1000"),
        ("dual", "-k", "1000", "-r", "1000"),
        ("reduce", "-k", "1000", "-n", "1000", "w1^1001"),
        ("generate", "-k", "1000", "-n", "1000", "--only-m", ",".join(["0"] * 999)),
    ],
)
def test_deep_recursion_exits_2(capsys, argv):
    # basis and whole-family generate stop at the size guard; the others
    # at the recursion limit, since the g_M walk recurses once per variable
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    if "--only-m" in argv or argv[0] in ("dual", "reduce"):
        assert err == DEEP_K
    else:
        assert err.startswith("error:") and "size budget" in err


def src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(grassgb.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize(
    "argv,count",
    [
        (("basis", "-k", "5", "-n", "200"), math.comb(205, 5)),
        (("generate", "-k", "5", "-n", "60"), math.comb(65, 4)),
    ],
)
def test_size_guard_exits_2_before_any_work(argv, count):
    # without the guard both end in MemoryError; the timeout turns a
    # missing guard into a failure instead of a long run
    proc = subprocess.run(
        [sys.executable, "-m", "grassgb.cli", *argv],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error:")
    assert f" {count} " in line


@pytest.mark.parametrize(
    "argv,count",
    [
        (("basis", "-k", "3", "-n", "4"), 35),
        (("generate", "-k", "3", "-n", "4"), 21),
        (("generate", "-k", "3", "-n", "4", "--format", "json"), 21),
    ],
)
def test_size_guard_edge(capsys, monkeypatch, argv, count):
    monkeypatch.setattr(cli, "SIZE_BUDGET", count)
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    monkeypatch.setattr(cli, "SIZE_BUDGET", count - 1)
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith(f"error: {count} ")


def test_size_guard_spares_one_element(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SIZE_BUDGET", 0)
    code, out, _ = invoke(capsys, "generate", "-k", "3", "-n", "4", "--only-m", "0,0")
    assert code == 0
    assert out.startswith("g[0,0] = ")


TOP_USAGE = (
    "usage: grassgb [-h] {generate,reduce,dual,verify,immersion-check,basis} ...\n"
)
GENERATE_USAGE = (
    "usage: grassgb generate [-h] -k K -n N [--format {text,json}] [--only-m M2,...,MK]\n"
)
REDUCE_USAGE = "usage: grassgb reduce [-h] -k K -n N POLY\n"


@pytest.mark.parametrize(
    "argv,usage,error",
    [
        ((), TOP_USAGE, "grassgb: error: the following arguments are required: subcommand"),
        (
            ("nonsense",),
            TOP_USAGE,
            "grassgb: error: argument subcommand: invalid choice: 'nonsense' (choose from"
            " 'generate', 'reduce', 'dual', 'verify', 'immersion-check', 'basis')",
        ),
        (
            ("generate", "-k", "2"),
            GENERATE_USAGE,
            "grassgb generate: error: the following arguments are required: -n",
        ),
        (
            ("reduce", "-n", "2"),
            REDUCE_USAGE,
            "grassgb reduce: error: the following arguments are required: -k, POLY",
        ),
        (
            ("generate", "-n", "2", "-k"),
            GENERATE_USAGE,
            "grassgb generate: error: argument -k: expected one argument",
        ),
        (
            ("generate", "-k", "2", "-n", "x"),
            GENERATE_USAGE,
            "grassgb generate: error: argument -n: invalid int value: 'x'",
        ),
        (
            ("generate", "-k", "2", "-n", "2", "--format", "xml"),
            GENERATE_USAGE,
            "grassgb generate: error: argument --format: invalid choice: 'xml'"
            " (choose from 'text', 'json')",
        ),
        (
            ("generate", "-k", "2", "-n", "2", "--bogus"),
            GENERATE_USAGE,
            "grassgb generate: error: unrecognized arguments: --bogus",
        ),
        # no abbreviations: --form is no prefix of --format here
        (
            ("generate", "-k", "2", "-n", "2", "--form", "json"),
            GENERATE_USAGE,
            "grassgb generate: error: unrecognized arguments: --form json",
        ),
        (
            ("generate", "-k", "2", "-n", "2", "--"),
            GENERATE_USAGE,
            "grassgb generate: error: unrecognized arguments: --",
        ),
        # an extra positional is reported under the subcommand's own usage
        (
            ("reduce", "-k", "3", "-n", "4", "w1^5", "extra"),
            REDUCE_USAGE,
            "grassgb reduce: error: unrecognized arguments: extra",
        ),
        # each --only-m entry is read as -n reads its value
        (
            ("generate", "-k", "2", "-n", "2", "--only-m", "1,x"),
            GENERATE_USAGE,
            "grassgb generate: error: argument --only-m: invalid int value: 'x'",
        ),
        (
            ("generate", "-k", "2", "-n", "2", "--only-m="),
            GENERATE_USAGE,
            "grassgb generate: error: argument --only-m: invalid int value: ''",
        ),
        (
            ("generate", "-k", "2", "-n", "2", "--only-m", "1,,2"),
            GENERATE_USAGE,
            "grassgb generate: error: argument --only-m: invalid int value: ''",
        ),
        # -k= attaches an empty value, as argparse reads it, not the next token
        (
            ("reduce", "-k=", "-n", "4", "w1^5"),
            REDUCE_USAGE,
            "grassgb reduce: error: argument -k: invalid int value: ''",
        ),
        # verify takes no --cap: its guard is the constant ORACLE_CAP
        (
            ("verify", "-k", "3", "-n", "4", "--cap", "256"),
            "usage: grassgb verify [-h] -k K -n N\n",
            "grassgb verify: error: unrecognized arguments: --cap 256",
        ),
    ],
)
def test_parse_errors_exit_2_with_usage_and_one_error_line(capsys, argv, usage, error):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"{usage}{error}\n"
    assert [line for line in err.splitlines() if "error:" in line] == [error]


def test_value_starting_with_dash_reaches_the_package(capsys):
    # -n takes the next token whatever it starts with, so -8 meets the
    # package's own guard, not a parse error
    code, out, err = invoke(capsys, "immersion-check", "-n", "-8")
    assert (code, out) == (2, "")
    assert err == "error: n must be a positive multiple of 8, got -8\n"


@pytest.mark.parametrize(
    "argv,spaced",
    [
        (("generate", "-k3", "-n4"), ("generate", "-k", "3", "-n", "4")),
        (
            ("generate", "-k", "2", "-n", "2", "--format=json"),
            ("generate", "-k", "2", "-n", "2", "--format", "json"),
        ),
        (
            ("generate", "-k", "3", "-n", "4", "--only-m=0,1"),
            ("generate", "-k", "3", "-n", "4", "--only-m", "0,1"),
        ),
        (("reduce", "w1^5", "-k", "3", "-n", "4"), ("reduce", "-k", "3", "-n", "4", "w1^5")),
        (("reduce", "-k", "3", "w1^5", "-n4"), ("reduce", "-k", "3", "-n", "4", "w1^5")),
        # a repeated option: the last one wins
        (("generate", "-k", "9", "-n", "4", "-k", "3"), ("generate", "-k", "3", "-n", "4")),
        (
            ("generate", "-k", "3", "-n", "3", "--format", "json", "--format=text"),
            ("generate", "-k", "3", "-n", "3"),
        ),
        (("dual", "-r4", "-k2"), ("dual", "-k", "2", "-r", "4")),
        # like -k3, a short option's value attached after '=', as argparse took it;
        # appended, so the ids of the cases above stay
        (("reduce", "-k=3", "-n", "4", "w1^5"), ("reduce", "-k", "3", "-n", "4", "w1^5")),
        (("reduce", "-k=3", "-n=4", "w1^5"), ("reduce", "-k", "3", "-n", "4", "w1^5")),
        (("dual", "-k=2", "-r=5"), ("dual", "-k", "2", "-r", "5")),
    ],
)
def test_accepted_spellings_match_the_spaced_form(capsys, argv, spaced):
    expected = invoke(capsys, *spaced)
    assert expected[0] == 0 and expected[1]
    assert invoke(capsys, *argv) == expected


# each help text, byte for byte, by the subcommand it is asked of ("" for the top level)
HELP_TEXTS = {
    "": (
        "usage: grassgb [-h] {generate,reduce,dual,verify,immersion-check,basis} ...\n"
        "\n"
        "Groebner-basis computations in the mod-2 cohomology of real Grassmann manifolds.\n"
        "\n"
        "subcommands:\n"
        "  generate         print the reduced Groebner basis\n"
        "  reduce           normal form of a polynomial\n"
        "  dual             print a dual Stiefel-Whitney class\n"
        "  verify           compare the family with the oracle\n"
        "  immersion-check  run the obstruction checks\n"
        "  basis            list the standard monomials\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
    ),
    "generate": (
        "usage: grassgb generate [-h] -k K -n N [--format {text,json}] [--only-m M2,...,MK]\n"
        "\n"
        "print the reduced Groebner basis\n"
        "\n"
        "arguments:\n"
        "  -h, --help            show this help message and exit\n"
        "  -k K                  the dimension k of the subspaces\n"
        "  -n N                  n, for the Grassmannian of k-planes in R^(n+k)\n"
        "  --format {text,json}  output format (default: text)\n"
        "  --only-m M2,...,MK    restrict output to the element with this multi-index\n"
    ),
    "reduce": (
        "usage: grassgb reduce [-h] -k K -n N POLY\n"
        "\n"
        "normal form of a polynomial\n"
        "\n"
        "arguments:\n"
        "  -h, --help  show this help message and exit\n"
        "  -k K        the dimension k of the subspaces\n"
        "  -n N        n, for the Grassmannian of k-planes in R^(n+k)\n"
        "  POLY        polynomial text, e.g. 'w1^2*w2 + w2^2'\n"
    ),
    "dual": (
        "usage: grassgb dual [-h] -k K -r R\n"
        "\n"
        "print a dual Stiefel-Whitney class\n"
        "\n"
        "arguments:\n"
        "  -h, --help  show this help message and exit\n"
        "  -k K        the dimension k of the subspaces\n"
        "  -r R        the degree r of the class\n"
    ),
    "verify": (
        "usage: grassgb verify [-h] -k K -n N\n"
        "\n"
        "compare the family with the oracle\n"
        "\n"
        "arguments:\n"
        "  -h, --help  show this help message and exit\n"
        "  -k K        the dimension k of the subspaces\n"
        "  -n N        n, for the Grassmannian of k-planes in R^(n+k)\n"
    ),
    "immersion-check": (
        "usage: grassgb immersion-check [-h] -n N\n"
        "\n"
        "run the obstruction checks\n"
        "\n"
        "arguments:\n"
        "  -h, --help  show this help message and exit\n"
        "  -n N        n of G_{5,n}, a positive multiple of 8\n"
    ),
    "basis": (
        "usage: grassgb basis [-h] -k K -n N\n"
        "\n"
        "list the standard monomials\n"
        "\n"
        "arguments:\n"
        "  -h, --help  show this help message and exit\n"
        "  -k K        the dimension k of the subspaces\n"
        "  -n N        n, for the Grassmannian of k-planes in R^(n+k)\n"
    ),
}


@pytest.mark.parametrize("sub", HELP_TEXTS, ids=lambda sub: sub or "top")
def test_help_text_is_pinned(capsys, sub):
    argv = (sub, "--help") if sub else ("--help",)
    assert invoke(capsys, *argv) == (0, HELP_TEXTS[sub], "")


@pytest.mark.parametrize("entry", cli._COMMANDS, ids=lambda entry: entry[0])
def test_subcommand_help_names_every_option(capsys, entry):
    sub, _, _, arguments = entry
    code, out, err = invoke(capsys, sub, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: grassgb {sub} [-h]")
    assert "-h, --help" in out
    for flag, metavar, *_ in arguments:
        assert (flag if flag.startswith("-") else metavar) in out, flag
    # -h is --help, and help comes first wherever it stands
    assert invoke(capsys, sub, "-h") == (0, out, "")
    assert invoke(capsys, sub, "-k", "2", "--help") == (0, out, "")


def test_top_level_help_names_every_subcommand(capsys):
    code, out, err = invoke(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(TOP_USAGE)
    for sub, _, summary, _ in cli._COMMANDS:
        assert f"  {sub} " in out and summary in out, sub
    assert invoke(capsys, "-h") == (0, out, "")


def test_parser_reuse_leaks_nothing(capsys):
    # in-process runs, one after another, match fresh processes: the
    # option table is read, never changed
    calls = [
        ["generate", "-k", "3", "-n", "4"],
        ["generate", "-k", "3", "-n", "x"],
        ["verify", "-k", "3", "-n", "4"],
        ["--help"],
        ["reduce", "-k", "3", "-n", "4", "w1^5", "extra"],
        ["generate", "--help"],
        ["generate", "-k", "3", "-n", "4"],
    ]
    invoke(capsys, "basis", "-k", "2", "-n", "2")
    codes = []
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "grassgb.cli", *argv],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=120,
        )
        assert invoke(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(fresh.returncode)
    assert codes == [0, 2, 0, 0, 2, 0, 0]


# modules that ``import grassgb, grassgb.cli`` must not load: -S keeps
# site's own imports out, no module loads heapq, the records are no
# dataclasses, the command line is parsed without argparse (and so without
# gettext and locale), and parse compiles its patterns on first use
NOT_AT_IMPORT = ["argparse", "dataclasses", "gettext", "heapq", "inspect", "locale", "re", "typing"]


def python_s(code: str) -> str:
    """stdout of ``python -S -c code`` with this checkout's ``src``."""
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=src_env(),
        check=True,
        timeout=120,
    ).stdout


def test_import_loads_no_dataclasses_or_typing():
    code = f"import sys, grassgb, grassgb.cli; print(sorted(sys.modules.keys() & {NOT_AT_IMPORT}))"
    assert python_s(code) == "[]\n"


def test_import_loads_no_re():
    # parse compiles its patterns on first use, and the CLI has no argparse
    for modules in ("grassgb", "grassgb, grassgb.cli"):
        assert python_s(f"import sys, {modules}; print('re' in sys.modules)") == "False\n"


def test_command_loads_no_argparse():
    # a whole command, parse and report, still leaves argparse, gettext
    # and locale unloaded
    code = (
        "import sys, grassgb.cli; code = grassgb.cli.run(['immersion-check', '-n', '16']); "
        "print(code, sorted({'argparse', 'gettext', 'locale'} & sys.modules.keys()))"
    )
    out = python_s(code)
    assert out.splitlines()[0] == "n: 16"
    assert out.endswith("lift_possible: yes\n0 []\n")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_pipe_ends_quietly(fmt):
    argv = ["generate", "-k", "5", "-n", "14", "--format", fmt]
    proc = subprocess.Popen(
        [sys.executable, "-m", "grassgb.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=src_env(),
    )
    # the output is far larger than a pipe holds, so the writer is still
    # running when the reader goes away
    assert proc.stdout.readline()
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == -signal.SIGPIPE
    assert err == b""
