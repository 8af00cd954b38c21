"""The benchmark harness's self-test: every workload on tiny sizes, with the
traced run, so a renamed tracer target or a broken workload check fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_quick_self_test():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
