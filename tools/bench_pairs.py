"""Run parent/change pairs of the benchmark and keep them in one file.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --parent-commit REV --change-commit REV \\
        --workload family --seeds 1-10 --out BENCH_<n>.json

DIR is a checkout of each side, made by ``git archive`` or a plain copy.
Each pair runs ``bench/run.py --workload W --seed S --seconds X --trace 0``
once in each tree, X being ``BENCHMARK.json``'s ``run_seconds``, each side
with the harness of its own tree and with PYTHONDONTWRITEBYTECODE=1, so
that neither tree gains a ``__pycache__`` the other lacks.  Odd pairs run
the parent first, even pairs the change.

The file keeps every raw record: workload, seed, pair, side, run order,
commit, run length and the harness's result line.  It also keeps a
summary per workload and end-to-end metric: each side's median and first
and third quartiles over the records, and in how many pairs the change
read lower.  Running the tool again on the same file adds records, so
workloads can be run one at a time, and the summary is rewritten from all
of them.  ``tests/test_bench.py`` checks every ``BENCH_*.json`` at the
root against ``BENCHMARK.json``.

The tool refuses, with exit 2 and before any run, what it cannot run or
would mix into one summary: an empty or descending part of ``--seeds``
(argparse's own error), a ``--workload`` that ``BENCHMARK.json`` does not
list, a tree with no ``bench/run.py``, and an ``--out`` file whose records
name another commit for a side or ran for another length than
``run_seconds``.  A harness run that exits non-zero ends the tool with
exit 1 and one line that names the side, the seed and the exit code;
``--out`` keeps the pairs before it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def seeds(text: str) -> list[int]:
    """'1-10' or '3' or '1,4,7'.  An empty or descending part raises
    ``ValueError``, which argparse reports with exit 2."""
    out = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        first, last = int(lo), int(hi if dash else lo)
        if last < first:
            raise ValueError(f"descending seed range {part!r}")
        out.extend(range(first, last + 1))
    return out


def refusal(
    spec: dict, workload: str, trees: dict, commits: dict, out: Path, records: list[dict]
) -> str | None:
    """Why the run must not start, or None: a workload the benchmark
    ``spec`` does not declare, a tree with no harness, or a record of
    ``out`` from another commit of its side or of a run length other than
    the spec's ``run_seconds``, which one summary would mix with the new
    ones."""
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        return f"--workload {workload} is not in BENCHMARK.json ({', '.join(names)})"
    for side, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            return f"--{side} {tree} has no bench/run.py"
    for r in records:
        if r["commit"] != commits[r["side"]]:
            return f"{out} holds {r['side']} commit {r['commit']}, not {commits[r['side']]}"
        if r["seconds"] != spec["run_seconds"]:
            return f"{out} holds runs of {r['seconds']} s, not run_seconds {spec['run_seconds']}"
    return None


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The harness's result line for one untraced run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    """The first and third quartile of ``values``, inclusive method; a
    single value is its own quartiles."""
    if len(values) < 2:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarise(records: list[dict]) -> dict:
    """{workload: {metric: {unit, parent, change, parent_q, change_q,
    pairs, lower}}}: each side's median value and its first and third
    quartile, the number of (workload, seed) pairs with both sides, and
    the number of those where the change read lower.  A claim reads off
    one row: ``lower`` out of ``pairs``, and the median gap against the
    parent's interquartile range."""
    summary: dict = {}
    for workload in sorted({r["workload"] for r in records}):
        mine = [r for r in records if r["workload"] == workload]
        by_pair = {(r["seed"], r["side"]): r["output"]["metrics"] for r in mine}
        pairs = sorted({s for s, _ in by_pair if (s, "parent") in by_pair and (s, "change") in by_pair})
        table = summary[workload] = {}
        for name, metric in mine[0]["output"]["metrics"].items():
            row = table[name] = {"unit": metric["unit"]}
            for side in SIDES:
                values = [r["output"]["metrics"][name]["value"] for r in mine if r["side"] == side]
                row[side] = statistics.median(values)
                row[f"{side}_q"] = quartiles(values)
            row["pairs"] = len(pairs)
            row["lower"] = sum(
                by_pair[s, "change"][name]["value"] < by_pair[s, "parent"][name]["value"] for s in pairs
            )
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    data = json.loads(args.out.read_text()) if args.out.exists() else {"records": []}
    trees = {"parent": args.parent, "change": args.change}
    commits = {"parent": args.parent_commit, "change": args.change_commit}
    reason = refusal(spec, args.workload, trees, commits, args.out, data["records"])
    if reason:
        print(f"bench_pairs: {reason}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "bench"))
    from run import machine

    data["machine"] = machine()
    data["command"] = "python3 bench/run.py --workload W --seed S --seconds X --trace 0"
    for pair, seed in enumerate(args.seeds, start=1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for position, side in enumerate(order):
            try:
                output = run_once(trees[side], args.workload, seed, seconds)
            except subprocess.CalledProcessError as e:
                print(f"bench_pairs: the {side} run of seed {seed} exited with code {e.returncode}",
                      file=sys.stderr)
                return 1
            data["records"].append({
                "workload": args.workload, "seed": seed, "seconds": seconds,
                "pair": pair, "order": position, "side": side, "commit": commits[side],
                "output": output,
            })
            wall = output["metrics"]["wall_ref_s"]["value"]
            print(f"{args.workload} seed {seed} {side}: wall_ref_s {wall:.4f}", flush=True)
        data["summary"] = summarise(data["records"])
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
