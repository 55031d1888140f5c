"""Training workloads: ``train-cc`` and ``train-eager-dp``.

Both train the Fig7-Small dMoE (hidden 48, 3 layers, 8 experts, block
8, sequence 32, global batch 16 in micro batches of 8: 512 tokens per
step) in a closed loop: the next step starts when the previous one
returns.  The sampled token stream and its order come from ``--seed``.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from common import block_median, mean, median, peak_rss_mb, percentile
from probes import (
    CallCounter,
    SpanProbes,
    calls,
    format_span_table,
    module_self_ms,
    span_stats,
    total_ms,
)
from spec import PER_LAYER

VOCAB = 128
HIDDEN = 48
LAYERS = 3
HEADS = 3
EXPERTS = 8
BLOCK = 8
SEQ = 32
GLOBAL_BATCH = 16
MICRO_BATCH = 8
TOKENS_PER_STEP = GLOBAL_BATCH * SEQ
STREAM_TOKENS = 64_000
LR = 3e-3

#: Steps run before the timed window: capture, lowering and the first
#: replay of each buffer-plan slot happen here.
WARMUP_STEPS = 3
#: ``loss_nats`` is the mean loss of these steps; every run reaches them.
LOSS_STEPS = (100, 300)
#: Steps whose losses must equal the eager reference bit for bit.
CHECK_STEPS = 4
CKPT_EVERY = 10
#: Steps of the counted run measured by the call counter (no
#: checkpoint falls on them).
COUNT_STEPS = (5, 7)
#: ``step_ms.p50`` is the mean of the medians of blocks of this many
#: step intervals (see ``common.block_median``).
STEP_BLOCK = 50
#: Traced runs alternate blocks of this many traced and untraced steps.
TRACE_BLOCK = 8

WORKLOADS = {
    "train-cc": {"backend": "cc", "dp_world": 0, "checkpoint": False},
    "train-eager-dp": {"backend": "eager", "dp_world": 2, "checkpoint": True},
}


class _Stop(Exception):
    """Raised from the step callback to end ``Trainer.fit``."""


def build_trainer(seed: int, backend: str, dp_world: int,
                  steady: bool = True, async_ckpt: bool = False):
    from repro.core import dMoE
    from repro.data import LMDataset, PileConfig, SyntheticPile
    from repro.nn import TransformerLM
    from repro.training import Adam, Trainer, TrainerConfig
    from repro.utils.rng import seed_all

    seed_all(seed)
    # The language (pile seed 7) and the initial weights are those of
    # benchmarks/harness.py; the seed picks the sampled data and order.
    pile = SyntheticPile(
        PileConfig(vocab_size=VOCAB, num_domains=EXPERTS, branching=4), seed=7
    )
    data = LMDataset(pile.token_stream(STREAM_TOKENS, 64, rng=seed), seq_len=SEQ)
    model = TransformerLM(
        VOCAB, HIDDEN, num_layers=LAYERS, num_heads=HEADS, max_seq_len=SEQ,
        ffn_factory=lambda i: dMoE(
            HIDDEN, 4 * HIDDEN, EXPERTS, block_size=BLOCK, rng=1000 + i,
            load_balance_coef=0.01,
        ),
        rng=5,
    )
    cfg = TrainerConfig(
        global_batch=GLOBAL_BATCH, micro_batch=MICRO_BATCH, max_steps=10**9,
        eval_every=0, log_every=1, steady_state=steady, backend=backend,
        dp_world=dp_world, dist_backend="mp" if dp_world > 1 else "sim",
        async_checkpoint=async_ckpt,
    )
    return Trainer(model, data, config=cfg,
                   optimizer=Adam(model.parameters(), lr=LR), rng=seed)


def drive(trainer, stop: Callable[[int], bool], ckpt_dir: Optional[str] = None,
          on_step: Optional[Callable[[int], None]] = None):
    """Run steps back to back until ``stop(steps_done)``.

    Returns ``(completion_times, losses, manager)``; the interval between
    two completions includes everything the loop does between steps
    (gradient exchange, checkpoint snapshot and submit).
    """
    from repro.checkpoint import CheckpointManager

    times: List[float] = []
    losses: List[float] = []

    def callback(record) -> None:
        times.append(time.perf_counter())
        losses.append(record.loss)
        if on_step is not None:
            on_step(len(times))
        if stop(len(times)):
            raise _Stop

    manager = CheckpointManager(ckpt_dir, keep_last=2) if ckpt_dir else None
    try:
        trainer.fit(callback=callback, checkpoint_manager=manager,
                    checkpoint_every=CKPT_EVERY if manager else 0)
    except _Stop:
        pass
    finally:
        if trainer.ckpt_writer is not None:
            trainer.ckpt_writer.drain()
        trainer.close_dist()
    return times, losses, manager


def _moe_layers(model):
    return [m for m in model.modules() if getattr(m, "last_plan", None) is not None]


class TrainRun:
    """One run of a training workload in this process."""

    def __init__(self, workload: str, seed: int, dirs) -> None:
        self.workload = workload
        self.seed = seed
        self.dirs = dirs
        self.cfg = WORKLOADS[workload]

    def _new_trainer(self):
        cfg = self.cfg
        return build_trainer(self.seed, cfg["backend"], cfg["dp_world"],
                             async_ckpt=cfg["checkpoint"])

    def _ckpt_dir(self, tag: str) -> Optional[str]:
        if not self.cfg["checkpoint"]:
            return None
        return str(self.dirs.ckpt / tag)

    # -- set-up -----------------------------------------------------------
    def setup_only(self, t0: float) -> float:
        """Seconds from ``t0`` until step 0 is done (imports, data, model,
        trainer; capture and a cold compile for cc)."""
        trainer = self._new_trainer()
        times, _, _ = drive(trainer, lambda n: n >= 1, self._ckpt_dir("setup"))
        self._close(trainer)
        return times[0] - t0

    @staticmethod
    def _close(trainer) -> None:
        if trainer.ckpt_writer is not None:
            trainer.ckpt_writer.close()
        trainer.close_dist()

    # -- correctness --------------------------------------------------------
    def check_reference(self, losses: List[float]) -> Tuple[int, int]:
        """First ``CHECK_STEPS`` losses against eager, single process,
        no arena: ``(checked, mismatches)``."""
        ref = build_trainer(self.seed, "eager", 0, steady=False)
        _, ref_losses, _ = drive(ref, lambda n: n >= CHECK_STEPS)
        self._close(ref)
        bad = sum(1 for a, b in zip(losses[:CHECK_STEPS], ref_losses) if a != b)
        if bad:
            print(f"loss mismatch vs eager reference: {losses[:CHECK_STEPS]} "
                  f"!= {ref_losses}")
        return CHECK_STEPS, bad

    # -- timed run ---------------------------------------------------------
    def timed(self, seconds: float, t_setup0: float) -> dict:
        from repro.resilience import counters as res_counters

        res0 = res_counters.snapshot()
        trainer = self._new_trainer()
        state = {"setup_s": None, "t_win": None}

        def on_step(n: int) -> None:
            if n == 1:
                state["setup_s"] = time.perf_counter() - t_setup0

        def stop(n: int) -> bool:
            if n == WARMUP_STEPS:
                state["t_win"] = time.perf_counter()
            return (n > WARMUP_STEPS and n >= LOSS_STEPS[1]
                    and time.perf_counter() - state["t_win"] >= seconds)

        times, losses, manager = drive(trainer, stop, self._ckpt_dir("main"),
                                       on_step)
        window = times[WARMUP_STEPS - 1:]
        intervals = [(b - a) * 1e3 for a, b in zip(window, window[1:])]
        writer = trainer.ckpt_writer
        ckpt_failed = writer.failed if writer is not None else 0
        ckpt_submitted = writer.submitted if writer is not None else 0
        self._close(trainer)
        faults = _collective_faults(res0, res_counters.snapshot())
        checked, mismatches = self.check_reference(losses)
        failed = trainer.skipped_steps + ckpt_failed + faults + mismatches
        return {
            "steps": len(times),
            "intervals_ms": intervals,
            "tokens_per_s": len(intervals) * TOKENS_PER_STEP
            / (window[-1] - window[0]),
            "loss_nats": mean(losses[LOSS_STEPS[0]:LOSS_STEPS[1]]),
            "setup_s": state["setup_s"],
            "attempted": len(times) + checked + ckpt_submitted,
            "failed": failed,
            "correct": mismatches == 0,
            "detail": {
                "skipped_steps": trainer.skipped_steps,
                "ckpt_failed": ckpt_failed,
                "ckpt_submitted": ckpt_submitted,
                "collective_faults": faults,
                "reference_mismatches": mismatches,
            },
        }

    def end_to_end(self, seconds: float, t_setup0: float, setup_probe) -> Tuple[dict, dict]:
        r = self.timed(seconds, t_setup0)
        setups = [r["setup_s"]] + setup_probe()
        iv = r["intervals_ms"]
        metrics = {
            "tokens_per_s": r["tokens_per_s"],
            "latency_ms.p50": block_median(iv, STEP_BLOCK),
            "latency_ms.p95": percentile(iv, 95),
            "loss_nats": r["loss_nats"],
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": median(setups),
        }
        table = [
            ("tokens_per_s", r["tokens_per_s"], "tok/s", len(iv)),
            ("step_ms.p50", metrics["latency_ms.p50"], "ms", len(iv)),
            ("step_ms.p95", percentile(iv, 95), "ms", len(iv)),
            ("train_loss", r["loss_nats"], "nats", LOSS_STEPS[1] - LOSS_STEPS[0]),
            ("setup_s", metrics["setup_s"], "s", len(setups)),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1),
            ("error_rate", r["failed"] / r["attempted"], "ratio", r["attempted"]),
        ]
        r["setup_samples_s"] = setups
        return metrics, {"table": table, "run": r}

    # -- traced run --------------------------------------------------------
    def per_layer(self, seconds: float) -> Tuple[dict, dict]:
        from repro.autograd import lower
        from repro.autograd.arena import get_arena
        from repro.autograd.graph import CaptureSession
        from repro.observability import registry
        from repro.observability.tracing import Tracer, set_tracer
        from repro.resilience import counters as res_counters
        from repro.sparse import stats as sparse_stats

        reg = registry()
        setup = _SetupProbe(CaptureSession, lower)
        setup.install()
        counters0 = _counter_values(reg)
        res0 = res_counters.snapshot()
        trainer = self._new_trainer()
        probes = SpanProbes()
        tracer = Tracer()
        traced_steps: List[bool] = []
        routing: List[Tuple[float, float]] = []
        marks: Dict[str, object] = {}
        traced = False

        def on_step(n: int) -> None:
            nonlocal traced
            if n == 1:
                marks["compile_ms"] = (_counter_values(reg)["lower_compile_ms"]
                                       - counters0["lower_compile_ms"])
            if n == WARMUP_STEPS:
                marks["counters"] = _counter_values(reg)
                marks["sparse"] = sparse_stats.snapshot()["cache"]
                a = get_arena().stats()
                marks["arena"] = (a["hits"], a["misses"])
                marks["hist"] = _hist_lengths(reg)
            if n > WARMUP_STEPS:
                traced_steps.append(traced)
                if traced:
                    for layer in _moe_layers(trainer.model):
                        plan = layer.last_plan
                        tpe = plan.tokens_per_expert.astype(float)
                        routed = plan.num_tokens * plan.top_k
                        cv = float(tpe.std() / tpe.mean()) if tpe.mean() else 0.0
                        routing.append((plan.total_padded / routed, cv))
            if n >= WARMUP_STEPS and (n - WARMUP_STEPS) % TRACE_BLOCK == 0:
                traced = (n - WARMUP_STEPS) // TRACE_BLOCK % 2 == 0
                if traced:
                    probes.install()
                    set_tracer(tracer)
                else:
                    set_tracer(None)
                    probes.remove()

        t_win = {}

        def stop(n: int) -> bool:
            if n == WARMUP_STEPS:
                t_win["t"] = time.perf_counter()
            return (n >= WARMUP_STEPS + 2 * TRACE_BLOCK
                    and (n - WARMUP_STEPS) % (2 * TRACE_BLOCK) == 0
                    and time.perf_counter() - t_win["t"] >= seconds)

        try:
            times, losses, manager = drive(trainer, stop, self._ckpt_dir("trace"),
                                           on_step)
        finally:
            set_tracer(None)
            probes.remove()
            setup.remove()
        window = times[WARMUP_STEPS - 1:]
        intervals = [(b - a) * 1e3 for a, b in zip(window, window[1:])]
        on = [x for x, t in zip(intervals, traced_steps) if t]
        off = [x for x, t in zip(intervals, traced_steps) if not t]
        n_traced = len(on)
        counters1 = _counter_values(reg)
        cache1 = sparse_stats.snapshot()["cache"]
        a1 = get_arena().stats()
        writer = trainer.ckpt_writer
        ckpt = _ckpt_metrics(tracer, reg, marks["hist"], writer, manager)
        ckpt_submitted = writer.submitted if writer is not None else 0
        self._close(trainer)
        faults = _collective_faults(res0, res_counters.snapshot())
        checked, mismatches = self.check_reference(losses)
        run = {
            "attempted": len(times) + checked + ckpt_submitted,
            "failed": trainer.skipped_steps + ckpt["ckpt.failed_writes"] + faults
            + mismatches,
            "correct": mismatches == 0,
        }

        stats = span_stats(tracer.spans)

        def per_step(*names: str) -> float:
            return total_ms(stats, *names) / max(n_traced, 1)

        def delta(name: str) -> int:
            """Counter change over the timed steps."""
            return counters1[name] - marks["counters"][name]

        hits = cache1["hits"] - marks["sparse"]["hits"]
        misses = cache1["misses"] - marks["sparse"]["misses"]
        ahits, amiss = a1["hits"] - marks["arena"][0], a1["misses"] - marks["arena"][1]
        replays = calls(stats, "graph.replay")
        counts = self.counted_run()

        m = {item["name"]: 0.0 for item in PER_LAYER}
        m.update({
            "graph.replay_ms": total_ms(stats, "graph.replay") / replays if replays else 0.0,
            "graph.fallbacks": delta("graph_fallbacks"),
            "graph.captures": setup.captures,
            "graph.capture_ms": setup.capture_ms,
            "lower.coverage": setup.coverage,
            "lower.segment_fallbacks": delta("lower_segment_fallbacks"),
            "lower.toolchain_fallbacks": counters1["lower_toolchain_fallbacks"]
            - counters0["lower_toolchain_fallbacks"],
            "lower.compile_ms": marks["compile_ms"],
            "autograd.py_calls_per_step": counts["py_calls_per_step"],
            "autograd.tape_nodes": counts["tape_nodes"],
            "autograd.forward_ms": per_step("lm.loss"),
            "autograd.backward_ms": per_step("tensor.backward"),
            "autograd.arena_hit_rate": ahits / (ahits + amiss) if ahits + amiss else 0.0,
            "sparse.kernel_ms": per_step("sparse.sdd", "sparse.dsd", "sparse.dds"),
            "sparse.flops_per_step": counts["sparse_flops"],
            "sparse.topology_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "moe.route_ms": per_step("route"),
            "moe.permute_ms": per_step("permute"),
            "moe.padding_ratio": mean(r[0] for r in routing),
            "moe.expert_load_cv": mean(r[1] for r in routing),
            "nn.attention_ms": per_step("attention"),
            "optim.step_ms": per_step("optimizer"),
            "optim.clip_ms": per_step("clip"),
            "data.wait_ms": per_step("data"),
            "resilience.guard_ms": per_step("guard"),
            "dist.grad_sync_ms": per_step("grad_sync"),
            "dist.bytes_per_step": counts["dist_bytes"],
            "dist.calls_per_step": counts["dist_calls"],
            "dist.collective_faults": faults,
            "trace.overhead_pct": (median(on) / median(off) - 1.0) * 100.0,
        })
        m.update(ckpt)
        for module, ms in module_self_ms(stats, n_traced).items():
            m[f"{module}.self_ms"] = ms
        report = format_span_table(stats, n_traced, "step")
        run.update(traced_steps=n_traced, untraced_steps=len(off))
        return m, {"spans": tracer.spans, "span_report": report, "run": run}

    def counted_run(self) -> dict:
        """A fresh trainer at the same seed; counts over ``COUNT_STEPS``.

        Every value here is a count and repeats exactly at one seed.
        """
        from repro.autograd import stats as ag_stats
        from repro.sparse import stats as sparse_stats

        trainer = self._new_trainer()
        counter = CallCounter()
        out: Dict[str, float] = {}
        lo, hi = COUNT_STEPS

        def dist_state():
            log = trainer.comm_log
            if log is None:
                return 0.0, 0
            return log.total_bytes_per_rank(), len(log.records)

        def on_step(n: int) -> None:
            if n == lo:
                out["flops0"] = sparse_stats.total_flops()
                out["dist0"] = dist_state()
                counter.start()
            elif n == hi:
                counter.stop()
                out["tape_nodes"] = ag_stats.tape_nodes
                out["sparse_flops"] = (sparse_stats.total_flops() - out["flops0"]) / (hi - lo)
                b1, c1 = dist_state()
                b0, c0 = out["dist0"]
                out["dist_bytes"] = (b1 - b0) / (hi - lo)
                out["dist_calls"] = (c1 - c0) / (hi - lo)

        try:
            drive(trainer, lambda n: n >= hi, self._ckpt_dir("count"), on_step)
        finally:
            counter.stop()
        self._close(trainer)
        out["py_calls_per_step"] = counter.calls / (hi - lo)
        return out


_COUNTERS = ("graph_fallbacks", "lower_segment_fallbacks",
             "lower_toolchain_fallbacks", "lower_compile_ms")


def _counter_values(reg) -> Dict[str, int]:
    return {name: reg.counter(name).value for name in _COUNTERS}


def _hist_lengths(reg) -> Dict[str, int]:
    return {name: reg.histogram(name).count
            for name in ("ckpt/backpressure_wait_time", "ckpt/write_time")}


def _collective_faults(before: Dict[str, int], after: Dict[str, int]) -> int:
    return sum(v - before.get(k, 0) for k, v in after.items()
               if k.startswith("collective_"))


def _ckpt_metrics(tracer, reg, hist0, writer, manager) -> Dict[str, float]:
    if writer is None:
        return {"ckpt.failed_writes": 0}
    snaps = [s for s in tracer.spans if s.name in ("ckpt_snapshot", "ckpt_submit")]
    n_ckpt = sum(1 for s in snaps if s.name == "ckpt_submit")
    bp = reg.histogram("ckpt/backpressure_wait_time").values[hist0["ckpt/backpressure_wait_time"]:]
    wr = reg.histogram("ckpt/write_time").values[hist0["ckpt/write_time"]:]
    size = 0
    latest = manager.latest_path() if manager is not None else None
    if latest is not None:
        if os.path.isdir(latest):
            size = sum(os.path.getsize(os.path.join(d, f))
                       for d, _, fs in os.walk(latest) for f in fs)
        else:
            size = os.path.getsize(latest)
    return {
        "ckpt.stall_ms": sum(s.duration for s in snaps) * 1e3 / max(n_ckpt, 1),
        "ckpt.backpressure_ms": sum(bp) * 1e3 / max(len(wr), 1),
        "ckpt.write_ms": mean(wr) * 1e3,
        "ckpt.bytes": size,
        "ckpt.failed_writes": writer.failed,
    }


class _SetupProbe:
    """Times captures and lowering during set-up (traced runs only)."""

    def __init__(self, capture_cls, lower_mod) -> None:
        self._cls = capture_cls
        self._lower = lower_mod
        self._saved = []
        self.captures = 0
        self.capture_ms = 0.0
        self.coverage = 0.0
        self._t0 = None

    def install(self) -> None:
        cls, lower = self._cls, self._lower
        begin, finalize, attach = cls.begin, cls.finalize, lower.attach
        self._saved = [(cls, "begin", begin), (cls, "finalize", finalize),
                       (lower, "attach", attach)]
        probe = self

        def timed_begin(session, *a, **k):
            probe._t0 = time.perf_counter()
            return begin(session, *a, **k)

        def timed_finalize(session, *a, **k):
            graph = finalize(session, *a, **k)
            probe.captures += 1
            probe.capture_ms += (time.perf_counter() - probe._t0) * 1e3
            return graph

        def recorded_attach(graph, *a, **k):
            plan = attach(graph, *a, **k)
            if plan is not None:
                probe.coverage = plan.records_lowered / max(plan.records_total, 1)
            return plan

        cls.begin, cls.finalize, lower.attach = timed_begin, timed_finalize, recorded_attach

    def remove(self) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved = []
