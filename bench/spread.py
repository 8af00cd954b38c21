"""Run-to-run spread of the end-to-end metrics, and drift between two sets.

    python3 bench/spread.py [--out FILE]

Runs bench/run.py for every workload once per seed, one run at a time, at
BENCHMARK.json's run_seconds, in two sets: seeds 1..10, then 11..20.  For
each set and end-to-end metric it reports the median, quartiles and spread:
the distance between the quartiles as a share of the median, which should
stay below a third of the metric's bound.  It then reports how far the
second set's median moved from the first's, which must stay within the
bound.  One traced run (seed 1) per workload follows.  --out writes
everything, with the machine, as JSON; that is how bench/baseline.json was
made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import BENCH_DIR, ROOT, WORKLOADS, machine

SEEDS = 10  # runs per set, as the acceptance check makes them


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1]), time.perf_counter() - start


def one_set(workload: str, seeds: range, seconds: int, bounds: dict) -> dict:
    runs, elapsed = [], []
    for seed in seeds:
        result, took = one_run(workload, seed, seconds, 0)
        if not result["correct"] or result["failed"]:
            print(f"{workload} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
        runs.append(result)
        elapsed.append(took)
    entry = {"seeds": [seeds.start, seeds.stop - 1], "run_elapsed_s": max(elapsed),
             "metrics": {}}
    print(f"{workload}, seeds {seeds.start}-{seeds.stop - 1}: "
          f"slowest run took {max(elapsed):.1f} s")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < bound / 3 else "  <-- above bound/3"
        print(f"  {name:13s} median {med:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}"
              f"  spread {spread:6.3f} (bound {bound}){flag}")
        entry["metrics"][name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3, "spread": spread,
        }
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    summary = {"machine": machine(), "seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        sets = [
            one_set(workload, range(1 + i * SEEDS, 1 + (i + 1) * SEEDS), seconds, bounds)
            for i in range(2)
        ]
        entry = {"sets": sets, "drift": {}}
        for name, bound in bounds.items():
            first, second = (s["metrics"][name]["median"] for s in sets)
            worse = (second - first if better[name] == "lower" else first - second) / first
            entry["drift"][name] = worse
            flag = "" if worse <= bound else "  <-- worse than the bound"
            print(f"  {name:13s} second median worse than first by {worse:+.3f}"
                  f" (bound {bound}){flag}")
        traced, took = one_run(workload, 1, seconds, 1)
        entry["traced_seed_1"] = {name: m["value"] for name, m in traced["metrics"].items()}
        print(f"  traced run took {took:.1f} s")
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
