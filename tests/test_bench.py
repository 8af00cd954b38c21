"""The benchmark harness's self-test: every workload on tiny sizes, with the
traced run, so a renamed tracer target or a broken workload check fails here.
And the committed BENCH_*.json files, checked against BENCHMARK.json, and the
refusals of tools/bench_pairs.py, which writes them."""

import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

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
    # its records, their quartiles where the summary has them, and the
    # count of pairs where the change read lower
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
        # one commit per side and one run length: a summary mixes no two runs
        for side in ("parent", "change"):
            assert len({r["commit"] for r in records if r["side"] == side}) == 1, (path.name, side)
        assert len({r["seconds"] for r in records}) == 1, path.name
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
                    # the quartiles, in the files whose summaries have them
                    if f"{side}_q" in row:
                        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
                        assert row[f"{side}_q"] == [q1, q3], (path.name, workload, name, side)
                lower = sum(value[s, "change"][name]["value"] < value[s, "parent"][name]["value"] for s in seeds)
                assert (row["pairs"], row["lower"]) == (len(seeds), lower), (path.name, workload, name)


@pytest.fixture
def bench_pairs(monkeypatch):
    """tools/bench_pairs.py, imported by its path, whose benchmark runs fail
    the test: each refusal must come before the first one."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run_once(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(module, "run_once", run_once)
    return module


def _trees(tmp_path):
    # two trees that each hold a harness file, which no test runs
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    return tmp_path / "parent", tmp_path / "change"


def _main(bench_pairs, parent, change, out, *extra):
    return bench_pairs.main([
        "--parent", str(parent), "--change", str(change), "--parent-commit", "p1",
        "--change-commit", "c1", "--workload", "cup", "--out", str(out), *extra,
    ])


def test_bench_pairs_refuses_empty_or_descending_seeds(bench_pairs, tmp_path, capsys):
    assert bench_pairs.seeds("1-3,7,9-9") == [1, 2, 3, 7, 9]
    for text in ("3-1", "", "1,,2", "2-", "-2"):
        with pytest.raises(ValueError):
            bench_pairs.seeds(text)
    parent, change = _trees(tmp_path)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_:
        _main(bench_pairs, parent, change, out, "--seeds", "3-1")
    assert exit_.value.code == 2 and "--seeds" in capsys.readouterr().err
    assert not out.exists()


def test_bench_pairs_refuses_an_unknown_workload(bench_pairs, tmp_path, capsys):
    parent, change = _trees(tmp_path)
    out = tmp_path / "out.json"
    assert _main(bench_pairs, parent, change, out, "--workload", "nope") == 2
    assert capsys.readouterr().err == (
        "bench_pairs: --workload nope is not in BENCHMARK.json (family, obstruction, cup, verify)\n"
    )
    assert not out.exists()


def test_bench_pairs_ends_on_a_failed_run(bench_pairs, tmp_path, capsys, monkeypatch):
    # the second run, the change side of pair 1, exits 3: the tool ends
    # with one line and exit 1, and writes no half pair
    parent, change = _trees(tmp_path)
    out = tmp_path / "out.json"
    runs = []

    def run_once(tree, workload, seed, seconds):
        runs.append((tree, seed))
        if len(runs) == 2:
            raise subprocess.CalledProcessError(3, ["bench/run.py"])
        return {"metrics": {"wall_ref_s": {"unit": "ref_s", "value": 1.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(sys, "path", [*sys.path])  # main puts bench/ in front
    assert _main(bench_pairs, parent, change, out, "--seeds", "4-5") == 1
    captured = capsys.readouterr()
    assert captured.err == "bench_pairs: the change run of seed 4 exited with code 3\n"
    assert runs == [(parent, 4), (change, 4)]
    assert not out.exists()


def test_bench_pairs_refuses_a_tree_without_the_harness(bench_pairs, tmp_path, capsys):
    parent, change = _trees(tmp_path)
    out = tmp_path / "out.json"
    missing = tmp_path / "missing"
    assert _main(bench_pairs, missing, change, out) == 2
    assert capsys.readouterr().err == f"bench_pairs: --parent {missing} has no bench/run.py\n"
    (change / "bench" / "run.py").unlink()
    assert _main(bench_pairs, parent, change, out) == 2
    assert capsys.readouterr().err == f"bench_pairs: --change {change} has no bench/run.py\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "extra,reason",
    [
        (("--parent-commit", "p2"), "holds parent commit p1, not p2"),
        (("--change-commit", "c2"), "holds change commit c1, not c2"),
    ],
)
def test_bench_pairs_refuses_to_mix_runs(bench_pairs, tmp_path, capsys, extra, reason):
    parent, change = _trees(tmp_path)
    out = tmp_path / "out.json"
    records = [
        {"side": "parent", "commit": "p1", "seconds": 20.0},
        {"side": "change", "commit": "c1", "seconds": 20.0},
    ]
    out.write_text(json.dumps({"records": records}))
    before = out.read_text()
    # argparse keeps the last of a repeated option, so extra overrides _main's
    assert _main(bench_pairs, parent, change, out, *extra) == 2
    assert capsys.readouterr().err == f"bench_pairs: {out} {reason}\n"
    assert out.read_text() == before


def test_bench_pairs_refuses_runs_of_another_length(bench_pairs, tmp_path, capsys):
    # the run length is BENCHMARK.json's run_seconds, 20 s, and no option:
    # an --out whose records ran 10 s is refused, and --seconds is unknown
    parent, change = _trees(tmp_path)
    out = tmp_path / "out.json"
    out.write_text(json.dumps({"records": [{"side": "parent", "commit": "p1", "seconds": 10.0}]}))
    before = out.read_text()
    assert _main(bench_pairs, parent, change, out) == 2
    assert capsys.readouterr().err == f"bench_pairs: {out} holds runs of 10.0 s, not run_seconds 20\n"
    with pytest.raises(SystemExit) as exit_:
        _main(bench_pairs, parent, change, out, "--seconds", "20")
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seconds 20" in capsys.readouterr().err
    assert out.read_text() == before


def test_bench_pairs_summary_has_quartiles(bench_pairs):
    # each side's first and third quartile sit beside its median, so a claim
    # reads off one row; one run is its own quartiles
    def record(seed, side, value):
        metrics = {"wall_ref_s": {"unit": "ref_s", "value": value}}
        return {"workload": "cup", "seed": seed, "side": side, "output": {"metrics": metrics}}

    parent, change = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.5, 2.5, 3.5, 4.5]
    records = [record(s, "parent", p) for s, p in enumerate(parent)]
    records += [record(s, "change", c) for s, c in enumerate(change)]
    row = bench_pairs.summarise(records)["cup"]["wall_ref_s"]
    assert row == {
        "unit": "ref_s", "parent": 3.0, "parent_q": [2.0, 4.0], "change": 2.5,
        "change_q": [1.5, 3.5], "pairs": 5, "lower": 5,
    }
    row = bench_pairs.summarise(records[:1] + records[5:6])["cup"]["wall_ref_s"]
    assert (row["parent_q"], row["change_q"], row["lower"]) == ([1.0, 1.0], [0.5, 0.5], 1)
