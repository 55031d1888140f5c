"""Self-tests of the benchmark itself (``run.py --self-test``).

1. Deterministic counts: two traced runs of each workload at one seed,
   in fresh processes, must report identical values for every count in
   ``spec.DETERMINISTIC``.  These are the proxy gates that do not
   depend on the machine's speed.
2. TTFT from the due time: at an overload rate the benchmark's TTFT,
   which includes queue wait, must exceed the scheduler's own
   ``serving/ttft_ms`` histogram, which starts at admission.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Dict

import common
import spec

SEED = 3
SECONDS = 3


def _traced_counts(workload: str) -> Dict[str, float]:
    cmd = [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} traced run failed:\n{proc.stderr[-2000:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in spec.DETERMINISTIC}


def check_deterministic_counts() -> bool:
    ok = True
    for w in spec.WORKLOADS:
        first, second = _traced_counts(w["name"]), _traced_counts(w["name"])
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        status = "PASS" if not diff else "FAIL"
        ok &= not diff
        print(f"{status} deterministic counts repeat on {w['name']}: "
              + (json.dumps(diff) if diff else json.dumps(first)))
    return ok


def check_ttft_includes_queue_wait() -> bool:
    from repro.observability import registry
    from repro.serving import ContinuousBatchingScheduler

    import serve

    dirs = common.RunDirs()
    try:
        bench = serve.ServeRun(SEED)
        _, _, sched = bench._setup()
        sched.close()
        hist = registry().histogram("serving/ttft_ms")
        n0 = hist.count
        items = serve.make_requests(SEED, SECONDS, 3 * serve.RATE_RPS)
        sched = ContinuousBatchingScheduler(sched.engine, max_batch_size=serve.MAX_BATCH)
        loop = serve.OpenLoop(sched, items)
        loop.run()
        sched.close()
    finally:
        dirs.close()
    ttft, _, _ = loop.latencies()
    ours = common.percentile(ttft, 50)
    theirs = common.percentile(hist.values[n0:], 50)
    ok = ours > theirs
    print(f"{'PASS' if ok else 'FAIL'} TTFT from due time exceeds the scheduler's "
          f"admission-based TTFT at 3x rate: p50 {ours:.1f} ms vs {theirs:.1f} ms")
    return ok


def main() -> int:
    ok = check_ttft_includes_queue_wait()
    ok &= check_deterministic_counts()
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
