"""grassgb benchmark: end-to-end metrics per workload, per-layer metrics
from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # every workload
    python3 bench/run.py --quick                               # self-test

One client, closed loop: a pass is one session in a fresh interpreter
(bench/worker.py) whose next op starts when the previous one returns, and
only one pass runs at a time.  The seed fixes the session's inputs and op
order; a run repeats that same session a fixed number of passes, which fill
S seconds on the baseline machine (PASS_S), and each op is timed by its
median over the passes, at the reference speed of the machine (see
REFERENCE_LOOP_S).  Metric names and units come from BENCHMARK.json; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("family", "obstruction", "cup", "verify")

MIN_PASSES = 3
# Seconds one pass takes on the baseline machine at full speed, spawn and
# checks included.
# An untraced run makes round(--seconds / PASS_S) passes whatever the
# program's speed, so the per-op statistic does not change with the speed it
# measures.
PASS_S = {"family": 3.5, "obstruction": 3.0, "cup": 3.5, "verify": 2.0}
SETUP_PROBES = 16  # spawn-and-import processes per untraced run
PASS_BUDGET_S = 60.0  # a pass still running after this is killed
OP_BUDGET_S = 30.0  # an op that returns after this counts as failed
RUN_LIMIT_S = 150.0  # no pass is started or kept alive past this
# Duration of worker.py's reference loop when the baseline machine runs at
# full speed.  The machine has slow spells of 1.5x lasting from a second to
# minutes, which stretch the loop and the ops alike; an op's time scaled by
# REFERENCE_LOOP_S / (the loop's duration meanwhile) stays put through them.
REFERENCE_LOOP_S = 25e-6


def run_pass(workload: str, seed: int, trace: bool, quick: bool, budget: float) -> dict:
    """Run one pass in a fresh interpreter and collect its JSON lines."""
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable,
            str(BENCH_DIR / "worker.py"),
            str(ROOT),
            workload,
            str(seed),
            "1" if trace else "0",
            "1" if quick else "0",
            repr(spawned_at),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        timed_out = True
    result = {"ops": {}, "checks": {}, "done": False, "timed_out": timed_out}
    for line in out.splitlines():
        record = json.loads(line)
        if "op" in record:
            result["ops"][record["op"]] = record
        elif "check" in record:
            result["checks"][record["check"]] = record["error"]
        else:
            result.update(record)
    result["done"] = result["done"] and proc.returncode == 0
    return result


def op_failures(pass_result: dict, planned: int) -> dict[int, tuple[str, bool]]:
    """Every op of a pass that raised, failed its check, ran over budget,
    or never finished because the pass was killed or crashed, mapped to
    (reason, whether the output was wrong rather than late or missing)."""
    missing = "timeout" if pass_result["timed_out"] else "pass crashed"
    failures = {}
    for idx in range(planned):
        op = pass_result["ops"].get(idx)
        check = pass_result["checks"].get(idx, f"unchecked ({missing})")
        if op is None:
            failures[idx] = (missing, False)
        elif op["error"]:
            failures[idx] = (op["error"], True)
        elif op["s"] > OP_BUDGET_S:
            failures[idx] = (f"over budget ({op['s']:.1f} s)", False)
        elif check:
            failures[idx] = (check, idx in pass_result["checks"])
    return failures


def reference_s(op: dict) -> float:
    """An op's (or a set-up's) duration at the reference speed of the machine."""
    return op["s"] * REFERENCE_LOOP_S / op["loop_s"]


def op_times(passes: list[dict], duration=lambda op: op["s"]) -> list[float]:
    """Each op's median duration over the passes, which repeat one session."""
    return [
        statistics.median(duration(p["ops"][idx]) for p in passes)
        for idx in sorted(passes[0]["ops"])
    ]


def decile(values: list[float], q: int) -> float:
    """The q-th decile of the values (q = 5 is the median)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


class Run:
    """The passes of one workload run, with every failure they had."""

    def __init__(self, workload: str, seed: int, quick: bool):
        self.workload, self.seed, self.quick = workload, seed, quick
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.planned = 1
        self.attempted = 0
        self.failures: list[str] = []
        self.correct = True
        self.timed_out = False
        self.setups: list[dict] = []  # {"s", "loop_s"} per set-up probe

    def probe_setup(self) -> None:
        probe = run_pass("setup", self.seed, False, self.quick, PASS_BUDGET_S)
        if "setup_s" not in probe:
            raise RuntimeError("set-up probe could not import grassgb")
        self.setups.append({"s": probe["setup_s"], "loop_s": probe["loop_s"]})

    def one_pass(self, trace: bool) -> dict | None:
        """Run a pass; return it if it ran to its end, wrong outputs included."""
        budget = min(PASS_BUDGET_S, self.deadline - time.perf_counter())
        result = run_pass(self.workload, self.seed, trace, self.quick, budget)
        self.planned = result.get("planned", self.planned)
        self.attempted += self.planned
        bad = op_failures(result, self.planned)
        for idx, (why, wrong) in sorted(bad.items()):
            name = result["ops"].get(idx, {}).get("name", f"op {idx}")
            self.failures.append(f"{'traced ' if trace else ''}{name}: {why}")
            self.correct = self.correct and not wrong
        self.timed_out = self.timed_out or result["timed_out"]
        return result if result["done"] else None


def measure(workload, seed, seconds, trace, quick, min_passes):
    """Run one workload; return (metrics, run, notes)."""
    run = Run(workload, seed, quick)
    plain: list[dict] = []
    traced: list[dict] = []
    # a traced run alternates an untraced and a traced pass, so makes half the rounds
    rounds_planned = max(min_passes, round(seconds / PASS_S[workload] / (1 + trace)))
    rounds = 0
    while rounds < rounds_planned and not run.timed_out and time.perf_counter() < run.deadline:
        rounds += 1
        # set-up probes are spread over the run, a few before each round
        while not trace and len(run.setups) < SETUP_PROBES * rounds // rounds_planned:
            run.probe_setup()
        for is_traced, kept in ((False, plain), (True, traced))[: 1 + trace]:
            result = run.one_pass(is_traced)
            if result is not None:
                kept.append(result)
    if not plain or (trace and not traced):
        raise RuntimeError(f"no pass of {workload} completed: {run.failures[:5]}")

    typical = op_times(plain)
    notes = [
        f"{rounds} rounds of passes, {run.attempted} ops attempted, {len(run.failures)} failed"
    ]
    notes += [f"failure: {f}" for f in run.failures[:20]]
    if trace:
        # the layer figures come from the traced pass of median duration
        by_time = sorted(traced, key=lambda p: sum(op["s"] for op in p["ops"].values()))
        middle = by_time[(len(by_time) - 1) // 2]
        metrics = dict(middle["layers"])
        metrics["trace.wall_s"] = sum(op_times([middle]))
        metrics["trace.overhead_s"] = sum(op_times(traced)) - sum(typical)
        metrics["trace.unattributed_s"] = metrics["trace.wall_s"] - metrics.pop(
            "trace.layer_self_s"
        )
    else:
        ref = op_times(plain, reference_s)
        ref_ms = [s * 1e3 for s in ref]
        metrics = {
            "setup_s": statistics.median(reference_s(p) for p in run.setups),
            "wall_ref_s": sum(ref),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
            "ok_ratio": (run.attempted - len(run.failures)) / run.attempted,
            "op_p50_ref_ms": decile(ref_ms, 5),
            "op_p90_ref_ms": decile(ref_ms, 9),
        }
        notes.append(
            f"fail_ratio = {len(run.failures) / run.attempted:.4g} "
            f"({len(run.failures)}/{run.attempted}); ops per pass = {len(typical)}, "
            f"median of {len(plain)} passes; set-up samples = {len(run.setups)}"
        )
        notes.append(f"wall_s = {sum(typical):.6g} s as measured (median pass per op)")
        notes.append(
            f"setup_s = {statistics.median(p['s'] for p in run.setups):.6g} s "
            "as measured (median)"
        )
    return metrics, run, notes


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(workload, seed, seconds, trace, quick, min_passes=MIN_PASSES) -> dict:
    """Measure one workload, print its metrics by name and unit, and return
    the result object of the output contract."""
    metrics, run, notes = measure(workload, seed, seconds, trace, quick, min_passes)
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for note in notes:
        print(f"{workload}: {note}")
    for name, unit in units.items():
        print(f"{workload}: {name} = {metrics[name]:.6g} {unit}")
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def self_test() -> bool:
    """Every workload, every check and the traced run on tiny sizes."""
    ok = True
    for workload in WORKLOADS:
        plain = report(workload, 1, 0, False, True, min_passes=1)
        traced = report(workload, 1, 0, True, True, min_passes=1)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        for res in (plain, traced):
            if not res["correct"] or res["failed"]:
                print(f"SELF-TEST FAIL: {workload} had failures")
                ok = False
        unattributed = abs(layer["trace.unattributed_s"])
        if unattributed > 0.05 * layer["trace.wall_s"] + 0.005:
            print(f"SELF-TEST FAIL: {workload} layer self times miss {unattributed:.4f} s")
            ok = False
    print("self-test", "passed" if ok else "FAILED")
    return ok


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(), "python": sys.version.split()[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="self-test on tiny sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "grassgb" / "__init__.py").is_file():
        print(f"error: no grassgb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.quick:
        return 0 if self_test() else 1
    if args.workload != "all":
        result = report(args.workload, args.seed, args.seconds, bool(args.trace), False)
        print(json.dumps(result))
        return 0
    results = {
        w: report(w, args.seed, args.seconds, bool(args.trace), False) for w in WORKLOADS
    }
    print(json.dumps({"machine": machine(), "seed": args.seed, "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
