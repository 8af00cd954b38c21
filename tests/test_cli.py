import json
import os
import random
import signal
import subprocess
import sys

import pytest
from reference import generate_json_reference, normal_form_reference

import grassgb
from grassgb.cli import run
from grassgb.f2poly import Poly, format_poly
from grassgb.groebner_family import GrassmannContext, GroebnerFamily


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
        indices = GroebnerFamily(ctx).multi_indices()
        assert out == generate_json_reference(ctx, indices) + "\n", n


@pytest.mark.parametrize("k,n", [(4, 14), (5, 10)])
def test_generate_json_matches_reference_at_benchmark_sizes(capsys, k, n):
    # the two family benchmark sizes the k-grid above does not reach
    ctx = GrassmannContext(k, n)
    argv = ("generate", "-k", str(k), "-n", str(n), "--format", "json")
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out == generate_json_reference(ctx, GroebnerFamily(ctx).multi_indices()) + "\n"


@pytest.mark.parametrize("k,n,m", [(2, 2, (1,)), (4, 9, (2, 0, 3)), (6, 7, (1, 1, 1, 1, 1))])
def test_generate_json_only_m_matches_json_dumps(capsys, k, n, m):
    only = ",".join(map(str, m))
    argv = ("generate", "-k", str(k), "-n", str(n), "--only-m", only, "--format", "json")
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out == generate_json_reference(GrassmannContext(k, n), [m]) + "\n"


def test_generate_only_m(capsys):
    code, out, _ = invoke(capsys, "generate", "-k", "2", "-n", "2", "--only-m", "1")
    assert code == 0
    assert out.strip() == "g[1] = w1^2*w2 + w2^2"


@pytest.mark.parametrize("only", ["1", "1,2,3", "-1,0", "9,0", "1,x", ""])
def test_generate_only_m_rejects_bad_index(capsys, only):
    code, out, err = invoke(capsys, "generate", "-k", "3", "-n", "4", f"--only-m={only}")
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


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
    assert err == "error: -r must be >= 1\n"


def test_verify_ok(capsys):
    code, out, _ = invoke(capsys, "verify", "-k", "3", "-n", "3")
    assert code == 0
    assert out.strip() == "OK: reduced Groebner basis matches oracle (15 elements)"


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("grassgb.cli.oracle_equals_family", lambda ctx, cap: False)
    code, out, _ = invoke(capsys, "verify", "-k", "2", "-n", "2")
    assert code == 1
    assert out == "MISMATCH: family and oracle disagree for k=2, n=2\n"


def test_verify_cap(capsys):
    code, _, err = invoke(capsys, "verify", "-k", "5", "-n", "8")
    assert code == 2
    assert "cap" in err


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


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_pipe_ends_quietly(fmt):
    src = os.path.dirname(os.path.dirname(grassgb.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["generate", "-k", "5", "-n", "14", "--format", fmt]
    proc = subprocess.Popen(
        [sys.executable, "-m", "grassgb.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
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
