"""End-to-end benchmark for MoE training and serving.

    python3 perfbench/run.py --workload train-cc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer split.
Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.

Other modes:

    python3 perfbench/run.py --self-test        # benchmark self-tests
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# One BLAS thread: the workloads stay within two busy processes on a
# two-core machine, and run-to-run spread shrinks.  Must precede NumPy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# A fixed string-hash seed keeps set and dict orders, and with them the
# Python call counts, the same in every process.
if os.environ.get("PYTHONHASHSEED") != "0" and __name__ == "__main__":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

import common  # noqa: E402
import spec  # noqa: E402


def _workload(name: str, seed: int, dirs):
    if name in ("train-cc", "train-eager-dp"):
        from train import TrainRun

        return TrainRun(name, seed, dirs)
    from serve import ServeRun

    return ServeRun(seed)


def _print_table(workload: str, rows) -> None:
    print(f"== {workload}: end-to-end")
    print(f"  {'metric':<22} {'value':>14} {'unit':<7} {'samples':>8}")
    for name, value, unit, n in rows:
        print(f"  {name:<22} {value:>14.6g} {unit:<7} {n:>8d}")


def run(args) -> int:
    t_setup0 = time.perf_counter()
    dirs = common.RunDirs()
    try:
        bench = _workload(args.workload, args.seed, dirs)
        if args.setup_probe:
            print(json.dumps({"setup_s": bench.setup_only(t_setup0)}))
            return 0
        if args.trace:
            metrics, extra = bench.per_layer(args.seconds)
            units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
            run_info = extra.get("run") or {}
            print(f"== {args.workload}: self time by span "
                  f"(traced run, overhead {metrics['trace.overhead_pct']:.1f}%)")
            print(extra["span_report"])
            spans = [(s.path, s.start, s.end) for s in extra.pop("spans")]
            correct = run_info.get("correct", True)
            attempted = run_info.get("attempted", 1)
            failed = run_info.get("failed", 0)
        else:
            def setup_probe():
                return [common.probe_setup(args.workload, args.seed)
                        for _ in range(common.SETUP_SAMPLES - 1)]

            metrics, extra = bench.end_to_end(args.seconds, t_setup0, setup_probe)
            units = {m["name"]: m["unit"] for m in spec.END_TO_END}
            _print_table(args.workload, extra["table"])
            run_info = extra["run"]
            spans = None
            correct = run_info["correct"] and run_info["failed"] == 0
            attempted, failed = run_info["attempted"], run_info["failed"]
        env = common.fingerprint()
        print("env " + json.dumps(env))
        result = {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(metrics[name]), "unit": units[name]}
                for name in units
            },
        }
        tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
        common.write_out(f"{tag}.json", {"env": env, "result": result,
                                         "run": run_info, "spans": spans})
        print(json.dumps(result))
        return 0
    finally:
        dirs.close()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-manifest", action="store_true")
    args = p.parse_args(argv)

    if args.write_manifest:
        print(spec.write_manifest(common.ROOT))
        return 0
    if not (common.SRC / "repro").is_dir():
        print(f"error: {common.SRC / 'repro'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    if args.workload is None and not args.self_test:
        p.error("--workload is required")
    try:
        if args.self_test:
            from selftest import main as self_test

            return self_test()
        return run(args)
    finally:
        common.stop_child_processes()


if __name__ == "__main__":
    sys.exit(main())
