"""The benchmark harness's self-test: every workload on tiny sizes, with the
traced run, so a renamed tracer target or a broken workload check fails here.
And the committed BENCH_*.json files, checked against BENCHMARK.json."""

import json
import statistics
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


def test_bench_files_match_the_benchmark():
    # each committed BENCH_*.json holds parent/change pairs of bench/run.py:
    # every record names exactly BENCHMARK.json's end-to-end metrics with
    # their units and had no failed op, and each summary is the medians of
    # its records and the count of pairs where the change read lower
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        data = json.loads(path.read_text())
        records = data["records"]
        for r in records:
            metrics = r["output"]["metrics"]
            assert {name: m["unit"] for name, m in metrics.items()} == units, (path.name, r)
            assert metrics["ok_ratio"]["value"] == 1, (path.name, r)
            assert r["output"]["correct"] and not r["output"]["failed"], (path.name, r)
        workloads = {r["workload"] for r in records}
        assert set(data["summary"]) == workloads, path.name
        for workload, table in data["summary"].items():
            mine = [r for r in records if r["workload"] == workload]
            value = {(r["seed"], r["side"]): r["output"]["metrics"] for r in mine}
            seeds = sorted({s for s, side in value if side == "parent"} & {s for s, side in value if side == "change"})
            assert set(table) == set(units), (path.name, workload)
            for name, row in table.items():
                assert row["unit"] == units[name]
                for side in ("parent", "change"):
                    values = [r["output"]["metrics"][name]["value"] for r in mine if r["side"] == side]
                    assert row[side] == statistics.median(values), (path.name, workload, name, side)
                lower = sum(value[s, "change"][name]["value"] < value[s, "parent"][name]["value"] for s in seeds)
                assert (row["pairs"], row["lower"]) == (len(seeds), lower), (path.name, workload, name)
