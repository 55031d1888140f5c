"""What the benchmark measures: workloads and metric definitions.

``BENCHMARK.json`` at the checkout root is generated from this module
(``python3 perfbench/run.py --write-manifest``), so the names the runs
print and the names the manifest promises cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = [
    {
        "name": "train-cc",
        "why": "closed-loop Fig7-Small dMoE training on the lowered C backend: "
        "capture, replay, native segments and fused Adam do the work",
    },
    {
        "name": "train-eager-dp",
        "why": "same model eager with dp_world=2 over mp and async checkpoints: "
        "tape, NumPy sparse kernels, routing, grad sync and writes do the work",
    },
    {
        "name": "serve-open",
        "why": "open-loop Poisson requests into the continuous-batching scheduler: "
        "inference-mode nn/moe, admission and queueing, no autograd",
    },
]

#: End-to-end metrics.  Every workload reports every one of them; the
#: README's metric table gives the per-workload definition.
#: Timing bounds are the largest the harness allows: on the reference
#: host, speed alone swings by about 10% between runs (README.md).
END_TO_END = [
    {"name": "tokens_per_s", "unit": "tok/s", "better": "higher", "bound": 0.25},
    {"name": "latency_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_ms.p95", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "loss_nats", "unit": "nats", "better": "lower", "bound": 0.1},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

#: Modules whose self time the traced run reports (``<module>.self_ms``).
SELF_TIME_MODULES = [
    "trainer", "autograd", "graph", "sparse", "moe", "nn", "optim", "data",
    "resilience", "dist", "ckpt", "sched", "engine", "serving",
]

_PER_LAYER = [
    # graph / lower: the captured-and-lowered step (train-cc)
    ("graph.replay_ms", "ms", "lower"),
    ("graph.fallbacks", "count", "lower"),
    ("graph.captures", "count", "lower"),
    ("graph.capture_ms", "ms", "lower"),
    ("lower.coverage", "ratio", "higher"),
    ("lower.segment_fallbacks", "count", "lower"),
    ("lower.toolchain_fallbacks", "count", "lower"),
    ("lower.compile_ms", "ms", "lower"),
    # autograd
    ("autograd.py_calls_per_step", "count", "lower"),
    ("autograd.tape_nodes", "count", "lower"),
    ("autograd.forward_ms", "ms", "lower"),
    ("autograd.backward_ms", "ms", "lower"),
    ("autograd.arena_hit_rate", "ratio", "higher"),
    # sparse kernels
    ("sparse.kernel_ms", "ms", "lower"),
    ("sparse.flops_per_step", "count", "lower"),
    ("sparse.topology_cache_hit_rate", "ratio", "higher"),
    # moe
    ("moe.route_ms", "ms", "lower"),
    ("moe.permute_ms", "ms", "lower"),
    ("moe.padding_ratio", "ratio", "lower"),
    ("moe.expert_load_cv", "ratio", "lower"),
    ("moe.inference_ms", "ms", "lower"),
    # nn
    ("nn.attention_ms", "ms", "lower"),
    # optimizer, data, guardrails
    ("optim.step_ms", "ms", "lower"),
    ("optim.clip_ms", "ms", "lower"),
    ("data.wait_ms", "ms", "lower"),
    ("resilience.guard_ms", "ms", "lower"),
    # distribution
    ("dist.grad_sync_ms", "ms", "lower"),
    ("dist.bytes_per_step", "bytes", "lower"),
    ("dist.calls_per_step", "count", "lower"),
    ("dist.collective_faults", "count", "lower"),
    # checkpointing
    ("ckpt.stall_ms", "ms", "lower"),
    ("ckpt.backpressure_ms", "ms", "lower"),
    ("ckpt.write_ms", "ms", "lower"),
    ("ckpt.bytes", "bytes", "lower"),
    ("ckpt.failed_writes", "count", "lower"),
    # serving: scheduler, engine, sampling
    ("sched.queue_wait_ms.p50", "ms", "lower"),
    ("sched.queue_wait_ms.p95", "ms", "lower"),
    ("sched.batch_occupancy", "ratio", "higher"),
    ("sched.step_ms", "ms", "lower"),
    ("sched.max_rate_rps", "1/s", "higher"),
    ("engine.prefill_ms", "ms", "lower"),
    ("engine.prefill_tokens", "count", "lower"),
    ("engine.reprefills", "count", "lower"),
    ("engine.decode_ms", "ms", "lower"),
    ("serving.sample_ms", "ms", "lower"),
    ("serving.py_calls_per_token", "count", "lower"),
    # self-checks of the benchmark
    ("gen.lateness_ms.max", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
] + [(f"{m}.self_ms", "ms", "lower") for m in SELF_TIME_MODULES]

PER_LAYER = [
    {"name": name, "unit": unit, "better": better}
    for name, unit, better in _PER_LAYER
]

#: Counts that must repeat exactly across two runs at one seed.
DETERMINISTIC = [
    "autograd.py_calls_per_step",
    "autograd.tape_nodes",
    "lower.coverage",
    "sparse.flops_per_step",
    "dist.bytes_per_step",
    "dist.calls_per_step",
    "serving.py_calls_per_token",
    "engine.prefill_tokens",
    "engine.reprefills",
]


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def write_manifest(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    with open(path, "w") as fh:
        json.dump(manifest(), fh, indent=2)
        fh.write("\n")
    return path
