"""Measurement from outside the program: span wrappers around public
entry points, a ``sys.setprofile`` call counter, and the self-time
report built from the tracer's spans.

Nothing under ``src/`` changes.  The wrappers replace a class attribute
or a module global while a traced block runs and put the original back
afterwards, so untimed code never pays for them.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
from typing import Callable, Dict, List, Tuple

#: (module, owner attribute or None for a module global, attribute, span).
TARGETS: List[Tuple[str, str, str, str]] = [
    ("repro.nn.transformer", "TransformerLM", "loss", "lm.loss"),
    ("repro.autograd.tensor", "Tensor", "backward", "tensor.backward"),
    ("repro.autograd.graph", "StepGraph", "replay", "graph.replay"),
    ("repro.nn.attention", "CausalSelfAttention", "forward", "attention"),
    ("repro.nn.attention", "CausalSelfAttention", "forward_step", "attention"),
    ("repro.sparse.autograd_ops", "", "sdd", "sparse.sdd"),
    ("repro.sparse.autograd_ops", "", "dsd", "sparse.dsd"),
    ("repro.sparse.autograd_ops", "", "dds", "sparse.dds"),
    ("repro.serving.engine", "InferenceEngine", "prefill", "engine.prefill"),
    ("repro.serving.engine", "InferenceEngine", "decode_step", "engine.decode"),
    ("repro.serving.scheduler", "", "sample_tokens", "serving.sample"),
]

#: Which module each span name (program spans and ours) belongs to.
MODULE_OF: Dict[str, str] = {
    "step": "trainer", "routing": "trainer", "eval": "trainer",
    "arena_retire": "autograd", "forward": "autograd", "backward": "autograd",
    "tensor.backward": "autograd",
    "replay": "graph", "graph.replay": "graph",
    "lm.loss": "nn", "attention": "nn",
    "sdd": "sparse", "dsd": "sparse", "ds^td": "sparse", "dds": "sparse",
    "dds^t": "sparse", "sparse.sdd": "sparse", "sparse.dsd": "sparse",
    "sparse.dds": "sparse",
    "moe": "moe", "route": "moe", "topology": "moe", "topology_build": "moe",
    "permute": "moe", "experts": "moe", "unpermute": "moe",
    "moe_infer": "moe", "dispatch": "moe", "combine": "moe",
    "zero_grad": "optim", "clip": "optim", "optimizer": "optim",
    "data": "data",
    "guard": "resilience", "snapshot": "resilience",
    "grad_sync": "dist", "all_reduce": "dist", "all_to_all": "dist",
    "all_gather": "dist", "reduce_scatter": "dist",
    "ckpt_snapshot": "ckpt", "ckpt_submit": "ckpt", "ckpt_write": "ckpt",
    "serve/step": "sched", "serve/prefill": "sched", "serve/decode": "sched",
    "engine.prefill": "engine", "engine.decode": "engine",
    "serving.sample": "serving",
}


def _timed(fn: Callable, name: str, get_tracer: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = get_tracer()
        if tracer is None:
            return fn(*args, **kwargs)
        s = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(s)

    return wrapper


class SpanProbes:
    """Installs the span wrappers; ``remove`` restores the originals."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            return
        from repro.observability.tracing import get_tracer

        for mod_name, owner_name, attr, span_name in TARGETS:
            owner = importlib.import_module(mod_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _timed(original, span_name, get_tracer))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


class CallCounter:
    """Counts Python function calls in the block (``sys.setprofile``).

    The collector is paused so that finalizers run at the same points
    in every run; the count then repeats exactly for a fixed input.
    """

    def __init__(self) -> None:
        self.calls = 0
        self._running = False

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            self.calls += 1

    def start(self) -> None:
        gc.collect()
        gc.disable()
        self._running = True
        sys.setprofile(self._profile)

    def stop(self) -> None:
        if self._running:
            sys.setprofile(None)
            self._running = False
            gc.enable()

    def __enter__(self) -> "CallCounter":
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


def span_stats(spans) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    Self time is a span's duration minus the part its direct children
    cover.  Spans nest strictly, so a sweep in start order with a stack
    finds each span's parent.
    """
    ordered = sorted(spans, key=lambda s: (s.start, s.depth))
    child_s = {}
    stack: list = []
    for s in ordered:
        while stack and (stack[-1].depth >= s.depth or stack[-1].end <= s.start):
            stack.pop()
        if stack:
            parent = stack[-1]
            child_s[id(parent)] = child_s.get(id(parent), 0.0) + s.duration
        stack.append(s)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += s.duration - child_s.get(id(s), 0.0)
    return out


def module_self_ms(stats: Dict[str, Dict[str, float]], per: int) -> Dict[str, float]:
    """Self time per module in ms, divided by ``per`` (steps or tokens)."""
    out: Dict[str, float] = {}
    for name, row in stats.items():
        module = MODULE_OF.get(name)
        if module is not None:
            out[module] = out.get(module, 0.0) + row["self_s"] * 1e3 / max(per, 1)
    return out


def total_ms(stats: Dict[str, Dict[str, float]], *names: str) -> float:
    return sum(stats.get(n, {}).get("total_s", 0.0) for n in names) * 1e3


def calls(stats: Dict[str, Dict[str, float]], *names: str) -> int:
    return int(sum(stats.get(n, {}).get("calls", 0) for n in names))


def format_span_table(stats: Dict[str, Dict[str, float]], per: int, unit: str) -> str:
    rows = [f"  {'span':<18} {'module':<10} {'calls':>8} {'total ms/' + unit:>14} "
            f"{'self ms/' + unit:>13}"]
    for name, row in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        rows.append(
            f"  {name:<18} {MODULE_OF.get(name, '-'):<10} {row['calls']:>8d} "
            f"{row['total_s'] * 1e3 / max(per, 1):>14.4f} "
            f"{row['self_s'] * 1e3 / max(per, 1):>13.4f}"
        )
    return "\n".join(rows)
