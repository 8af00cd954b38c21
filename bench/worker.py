"""One benchmark pass in a fresh interpreter; started by run.py.

    python3 bench/worker.py ROOT WORKLOAD SEED TRACE QUICK SPAWNED_AT

Imports grassgb from ROOT/src, times each op of the pass in a closed loop,
together with the reference loop's duration around and during the op, then
checks every output outside the timed region.  It reports on stdout as
JSON lines, flushed as they happen, so a pass killed over its time budget
still shows which ops finished.  Set-up (spawn until ``import grassgb``
returns) is timed with the reference loop sampled during the import, like
an op.  WORKLOAD "setup" only measures set-up.
"""

import signal
import sys
import time


def _reference_loop() -> None:
    # small ints only: no allocation, so the program's heap cannot slow it
    s = 0
    for i in range(600):
        s = (s + i) & 127


class SpeedSampler:
    """Times a fixed reference loop on demand and, while entered, every
    PERIOD_S of wall time (SIGALRM).  The loop's duration tells how fast the
    machine ran at that moment."""

    PERIOD_S = 0.01

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, cost, loop)

    def probe(self, *_) -> None:
        # the first run warms the caches the program just used; only the
        # second is timed, so the program's footprint does not enter it
        start = time.perf_counter()
        _reference_loop()
        warm = time.perf_counter()
        _reference_loop()
        end = time.perf_counter()
        self.samples.append((start, end - start, end - warm))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    root, workload, seed, trace, quick, spawned_at = sys.argv[1:7]
    sys.path.insert(0, root + "/src")
    sampler = SpeedSampler()
    with sampler:
        sampler.probe()
        import grassgb
        import grassgb.cli

        sampler.probe()
    # the probes' own cost is not set-up time
    setup_s = time.perf_counter() - float(spawned_at) - sum(c for _, c, _ in sampler.samples)

    import contextlib
    import json
    import random
    import resource
    import statistics

    out = sys.stdout

    def emit(record) -> None:
        out.write(json.dumps(record) + "\n")
        out.flush()

    if not grassgb.__file__.startswith(root + "/src/"):
        print(f"grassgb imported from {grassgb.__file__}, not {root}/src", file=sys.stderr)
        return 2
    emit({"setup_s": setup_s, "loop_s": statistics.median(l for _, _, l in sampler.samples)})
    if workload == "setup":
        return 0

    from tracer import Tracer, layer_metrics
    from workloads import BUILDERS

    rng = random.Random(f"{workload}:{seed}")
    ops = BUILDERS[workload](grassgb, rng, quick == "1")
    emit({"planned": len(ops)})
    tracer = Tracer() if trace == "1" else None
    clock = time.perf_counter
    results = []
    # a traced pass runs without the sampler's interruptions
    with contextlib.nullcontext() if tracer else sampler:
        if tracer:
            tracer.install()
        for idx, op in enumerate(ops):
            if tracer:
                tracer.op_id = idx
            error = result = None
            sampler.samples.clear()
            sampler.probe()
            start = clock()
            try:
                result = op.run()
            except Exception as exc:  # a failed op is recorded and the pass goes on
                error = f"{type(exc).__name__}: {exc}"
            end = clock()
            sampler.probe()
            inside = sum(cost for t, cost, _ in sampler.samples if start <= t < end)
            emit({
                "op": idx,
                "name": op.name,
                "s": end - start - inside,
                "loop_s": statistics.median(loop for _, _, loop in sampler.samples),
                "error": error,
            })
            results.append((error is None, result))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        emit({"layers": layer_metrics(tracer)})
    emit({"rss_mb": rss_mb})
    for idx, (op, (ran, result)) in enumerate(zip(ops, results)):
        if not ran:
            continue
        try:
            problem = op.check(result)
        except Exception as exc:  # a crashing check is a failed check
            problem = f"check raised {type(exc).__name__}: {exc}"
        emit({"check": idx, "error": problem})
    emit({"done": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
