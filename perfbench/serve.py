"""Serving workload: ``serve-open``.

Seeded Poisson arrivals into ``ContinuousBatchingScheduler(max_batch_size
=4)`` over ``InferenceEngine``.  The loop is open: a request is due at
its arrival time whether or not the server keeps up, and every latency
is measured from that due time.  One process does both jobs: between
scheduler steps it submits every request whose due time has passed, and
when the server is idle it sleeps until the next one is due.

The model is the serving dMoE of ``benchmarks/test_serving.py`` with
fixed weights; ``--seed`` makes the request stream.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from common import mean, median, peak_rss_mb, percentile
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

VOCAB = 256
HIDDEN = 64
HEADS = 4
LAYERS = 2
EXPERTS = 8
MAX_SEQ = 160
MAX_BATCH = 4

#: Request classes: (name, share, prompt range, output range), ranges
#: inclusive.  Every ``window-crossing`` request runs past ``MAX_SEQ``,
#: so each token past the window takes a solo re-prefill.  Shares are
#: exact within every block of ``CLASS_BLOCK`` requests.
MIX = [
    ("long-prompt", 0.45, (64, 96), (2, 6)),
    ("long-output", 0.50, (8, 16), (32, 48)),
    ("window-crossing", 0.05, (156, 159), (6, 9)),
]
CLASS_BLOCK = 20
TEMPERATURE = 0.8
TOP_K = 20

#: Offered load in requests per second, fixed.  About a third of the
#: capacity under the TTFT limit for this mix, measured on the reference
#: machine (README.md).  It does not adapt to the machine, so a slower build
#: shows as higher latency, not as a lighter load.
RATE_RPS = 7.0
#: Requests re-run alone through a 1-slot scheduler for the token check.
CHECK_REQUESTS = 8
#: Fixed closed-loop request set for the deterministic counts.
COUNT_REQUESTS = 24
#: Traced runs alternate blocks of this many traced and untraced steps.
TRACE_BLOCK = 64
#: ``sched.max_rate_rps``: the rate ladder (multiples of ``RATE_RPS``),
#: seconds of arrivals per rung, and the TTFT p95 limit a rung must meet.
LADDER = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
LADDER_SECONDS = 2.0
TTFT_LIMIT_MS = 50.0


def build_model():
    from repro.core import dMoE
    from repro.nn import TransformerLM
    from repro.utils.rng import seed_all

    seed_all(0)
    return TransformerLM(
        vocab_size=VOCAB, hidden_size=HIDDEN, num_layers=LAYERS,
        num_heads=HEADS, max_seq_len=MAX_SEQ,
        ffn_factory=lambda i: dMoE(HIDDEN, 4 * HIDDEN, EXPERTS, top_k=1,
                                   block_size=8, rng=7),
        rng=0,
    )


def make_requests(seed: int, seconds: float, rate: float = RATE_RPS, salt: int = 0):
    """``(due_s, prompt, max_new, request_seed)`` tuples in due order.

    A seeded Poisson stream conditioned on its count: ``rate * seconds``
    arrival times drawn uniformly over the interval.  Classes come in
    shuffled blocks of ``CLASS_BLOCK`` that hold exactly the stated
    shares, so every run carries the same mix.
    """
    import numpy as np

    gen = np.random.default_rng([seed, salt])
    n = max(1, round(rate * seconds))
    due = np.sort(gen.uniform(0.0, seconds, n))
    block = np.concatenate([np.full(round(share * CLASS_BLOCK), k)
                            for k, (_, share, _, _) in enumerate(MIX)])
    out = []
    for i in range(n):
        if i % CLASS_BLOCK == 0:
            gen.shuffle(block)
        _, _, (plo, phi), (olo, ohi) = MIX[int(block[i % CLASS_BLOCK])]
        prompt = gen.integers(0, VOCAB, size=int(gen.integers(plo, phi + 1)))
        max_new = int(gen.integers(olo, ohi + 1))
        out.append((float(due[i]), prompt, max_new,
                    seed * 1_000_003 + salt * 10_007 + i))
    return out


def to_request(item):
    from repro.serving import Request

    _, prompt, max_new, rseed = item
    return Request(prompt=prompt.copy(), max_new_tokens=max_new,
                   temperature=TEMPERATURE, top_k=TOP_K, seed=rseed)


class OpenLoop:
    """Drives one scheduler with due-time arrivals; records from outside."""

    def __init__(self, sched, items, on_step=None) -> None:
        self.sched = sched
        self.items = items
        self.on_step = on_step
        self.submitted_at: List[float] = [0.0] * len(items)
        self.done: Dict[int, Tuple[float, object]] = {}
        self.step_s: List[float] = []
        self.occupancy: List[float] = []
        self.busy_s = 0.0

    def run(self) -> None:
        sched, items = self.sched, self.items
        ids = {}
        idx = 0
        t_start = time.perf_counter()
        while idx < len(items) or sched.queue or sched.active:
            now = time.perf_counter() - t_start
            while idx < len(items) and items[idx][0] <= now:
                rid = sched.submit(to_request(items[idx]))
                ids[rid] = idx
                self.submitted_at[idx] = now
                idx += 1
            if not (sched.queue or sched.active):
                time.sleep(max(0.0, items[idx][0] - now))
                continue
            t0 = time.perf_counter()
            finished = sched.step()
            t1 = time.perf_counter()
            self.step_s.append(t1 - t0)
            self.busy_s += t1 - t0
            self.occupancy.append(len(sched.active) / sched.max_batch_size)
            for res in finished:
                self.done[ids[res.request_id]] = (t1 - t_start, res)
            if self.on_step is not None:
                self.on_step(len(self.step_s))

    def latencies(self):
        """Per finished request: TTFT and queue wait from the due time
        (ms) and TPOT (ms/token, requests with two or more tokens).

        The scheduler reports ``ttft_s`` and ``total_s`` from admission;
        the step that finished a request returned within one step of its
        last token, which places admission and first token in time.
        """
        ttft, wait, tpot = [], [], []
        for idx, (t_ret, res) in sorted(self.done.items()):
            due = self.items[idx][0]
            admitted = t_ret - res.total_s
            ttft.append((admitted + res.ttft_s - due) * 1e3)
            wait.append((admitted - due) * 1e3)
            if res.new_tokens > 1:
                tpot.append((res.total_s - res.ttft_s) / (res.new_tokens - 1) * 1e3)
        return ttft, wait, tpot

    @property
    def output_tokens(self) -> int:
        return sum(res.new_tokens for _, res in self.done.values())

    @property
    def lateness_ms(self) -> float:
        return max((s - it[0]) * 1e3 for s, it in zip(self.submitted_at, self.items))


def _nll(model, tokens, prompt_len: int) -> Tuple[float, int]:
    """Summed NLL (nats) of the generated tokens inside the final window."""
    import numpy as np

    from repro.autograd.tensor import inference_mode

    lo = max(0, len(tokens) - MAX_SEQ)
    window = np.asarray(tokens[lo:], dtype=np.int64)
    with inference_mode():
        logits = model.forward(window[None]).logits.data[0].astype(np.float64)
    first = max(prompt_len, lo + 1) - lo  # first generated position with context
    pos = np.arange(first, len(window))
    rows = logits[pos - 1]
    rows -= rows.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(rows).sum(axis=-1))
    return float((logz - rows[np.arange(len(pos)), window[pos]]).sum()), len(pos)


class ServeRun:
    """One run of ``serve-open`` in this process."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _setup(self):
        import numpy as np

        from repro.serving import ContinuousBatchingScheduler, InferenceEngine

        model = build_model()
        engine = InferenceEngine(model)
        sched = ContinuousBatchingScheduler(engine, max_batch_size=MAX_BATCH)
        # Warm-up: the shortest request of each class fills the pools.
        warm = [(0.0, np.arange(plo) % VOCAB, olo, i)
                for i, (_, _, (plo, _), (olo, _)) in enumerate(MIX)]
        sched.run([to_request(it) for it in warm])
        return model, engine, sched

    def setup_only(self, t0: float) -> float:
        """Seconds from ``t0`` until the warm-up requests are done."""
        _, _, sched = self._setup()
        dt = time.perf_counter() - t0
        sched.close()
        return dt

    def check(self, model, engine, loop) -> Tuple[int, int, float]:
        """Re-run a seeded sample alone through a 1-slot scheduler.

        Returns ``(checked, mismatches, mean NLL of the sampled outputs)``.
        """
        import numpy as np

        from repro.serving import ContinuousBatchingScheduler

        gen = np.random.default_rng([self.seed, 7])
        finished = sorted(loop.done)
        picks = gen.choice(len(finished), size=min(CHECK_REQUESTS, len(finished)),
                           replace=False)
        bad, nll, n_tok = 0, 0.0, 0
        for p in sorted(int(x) for x in picks):
            idx = finished[p]
            solo = ContinuousBatchingScheduler(engine, max_batch_size=1)
            try:
                (alone,) = solo.run([to_request(loop.items[idx])])
            finally:
                solo.close()
            res = loop.done[idx][1]
            if not np.array_equal(alone.tokens, res.tokens):
                bad += 1
                print(f"request {idx}: tokens differ when run alone")
            s, k = _nll(model, res.tokens, res.prompt_len)
            nll += s
            n_tok += k
        return len(picks), bad, nll / max(n_tok, 1)

    def end_to_end(self, seconds: float, t_setup0: float, setup_probe):
        model, engine, sched = self._setup()
        setup_main = time.perf_counter() - t_setup0
        items = make_requests(self.seed, seconds)
        loop = OpenLoop(sched, items)
        loop.run()
        wall = max(t for t, _ in loop.done.values())
        sched.close()
        checked, bad, nll = self.check(model, engine, loop)
        setups = [setup_main] + setup_probe()
        ttft, wait, tpot = loop.latencies()
        unfinished = len(items) - len(loop.done)
        attempted = len(items) + checked
        failed = unfinished + bad
        metrics = {
            "tokens_per_s": loop.output_tokens / loop.busy_s,
            "latency_ms.p50": percentile(ttft, 50),
            "latency_ms.p95": percentile(ttft, 95),
            "loss_nats": nll,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": median(setups),
        }
        table = [
            ("ttft_ms.p50", percentile(ttft, 50), "ms", len(ttft)),
            ("ttft_ms.p95", percentile(ttft, 95), "ms", len(ttft)),
            ("tpot_ms.p50", percentile(tpot, 50), "ms", len(tpot)),
            ("tpot_ms.p95", percentile(tpot, 95), "ms", len(tpot)),
            ("output_tokens_per_s", loop.output_tokens / wall, "tok/s", loop.output_tokens),
            ("busy_tokens_per_s", metrics["tokens_per_s"], "tok/s", loop.output_tokens),
            ("queue_wait_ms.p95", percentile(wait, 95), "ms", len(wait)),
            ("generation_nll", nll, "nats", checked),
            ("setup_s", metrics["setup_s"], "s", len(setups)),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1),
            ("error_rate", failed / attempted, "ratio", attempted),
        ]
        run = {
            "requests": len(items), "finished": len(loop.done),
            "rate_rps": RATE_RPS, "offered_s": items[-1][0],
            "wall_s": wall, "busy_s": loop.busy_s,
            "lateness_ms_max": loop.lateness_ms, "setup_samples_s": setups,
            "attempted": attempted, "failed": failed, "correct": bad == 0,
            "detail": {"unfinished": unfinished, "solo_mismatches": bad},
            "ttft_ms": ttft, "tpot_ms": tpot, "step_ms": [s * 1e3 for s in loop.step_s],
        }
        return metrics, {"table": table, "run": run}

    # -- traced run --------------------------------------------------------
    def per_layer(self, seconds: float):
        from repro.observability.tracing import Tracer, set_tracer

        model, engine, sched = self._setup()
        items = make_requests(self.seed, seconds / 2)
        probes = SpanProbes()
        tracer = Tracer()
        traced_flags: List[bool] = []
        state = {"traced": True}
        probes.install()
        set_tracer(tracer)

        def on_step(n: int) -> None:
            traced_flags.append(state["traced"])
            if n % TRACE_BLOCK == 0:
                state["traced"] = not state["traced"]
                if state["traced"]:
                    probes.install()
                    set_tracer(tracer)
                else:
                    set_tracer(None)
                    probes.remove()

        loop = OpenLoop(sched, items, on_step)
        try:
            loop.run()
        finally:
            set_tracer(None)
            probes.remove()
        sched.close()
        checked, bad, _ = self.check(model, engine, loop)
        ttft, wait, _ = loop.latencies()
        on = [s for s, f in zip(loop.step_s, traced_flags) if f]
        off = [s for s, f in zip(loop.step_s, traced_flags) if not f]
        stats = span_stats(tracer.spans)
        tokens = calls(stats, "serving.sample")
        counts = self.counted_run(engine)
        n_prefill = calls(stats, "engine.prefill")
        n_decode = calls(stats, "engine.decode")
        m = {item["name"]: 0.0 for item in PER_LAYER}
        m.update({
            "sched.queue_wait_ms.p50": percentile(wait, 50),
            "sched.queue_wait_ms.p95": percentile(wait, 95),
            "sched.batch_occupancy": mean(loop.occupancy),
            "sched.step_ms": mean(loop.step_s) * 1e3,
            "sched.max_rate_rps": self.max_rate(engine),
            "engine.prefill_ms": total_ms(stats, "engine.prefill") / max(n_prefill, 1),
            "engine.prefill_tokens": counts["prefill_tokens"],
            "engine.reprefills": counts["reprefills"],
            "engine.decode_ms": total_ms(stats, "engine.decode") / max(n_decode, 1),
            "moe.inference_ms": total_ms(stats, "moe_infer") / max(tokens, 1),
            "nn.attention_ms": total_ms(stats, "attention") / max(tokens, 1),
            "serving.sample_ms": total_ms(stats, "serving.sample") / max(tokens, 1),
            "serving.py_calls_per_token": counts["py_calls_per_token"],
            "gen.lateness_ms.max": loop.lateness_ms,
            "trace.overhead_pct": (mean(on) / mean(off) - 1.0) * 100.0,
        })
        for module, ms in module_self_ms(stats, len(on)).items():
            m[f"{module}.self_ms"] = ms
        run = {"attempted": len(items) + checked,
               "failed": len(items) - len(loop.done) + bad, "correct": bad == 0}
        return m, {"spans": tracer.spans, "run": run,
                   "span_report": format_span_table(stats, len(on), "step")}

    def counted_run(self, engine) -> dict:
        """A fixed closed-loop request set: Python calls per generated
        token (counted pass), then prefills and prefill tokens (traced
        pass).  Both repeat exactly at one seed."""
        from repro.observability import registry
        from repro.observability.tracing import Tracer, tracing
        from repro.serving import ContinuousBatchingScheduler

        items = make_requests(self.seed, COUNT_REQUESTS / RATE_RPS, salt=1)

        def one_pass():
            sched = ContinuousBatchingScheduler(engine, max_batch_size=MAX_BATCH)
            try:
                return sched.run([to_request(it) for it in items])
            finally:
                sched.close()

        with CallCounter() as counter:
            results = one_pass()
        tokens = sum(r.new_tokens for r in results)
        reg = registry()
        before = reg.counter("serving/prefill_tokens").value
        with tracing(Tracer()) as tracer:
            one_pass()
        prefills = sum(1 for s in tracer.spans if s.name == "serve/prefill")
        return {
            "py_calls_per_token": counter.calls / tokens,
            "prefill_tokens": reg.counter("serving/prefill_tokens").value - before,
            "reprefills": prefills - len(items),
        }

    def max_rate(self, engine) -> float:
        """Highest ladder rate whose TTFT p95 meets ``TTFT_LIMIT_MS`` while
        the last third of its requests still wait less than the limit
        (no growing backlog)."""
        from repro.serving import ContinuousBatchingScheduler

        best = 0.0
        for i, mult in enumerate(LADDER):
            rate = RATE_RPS * mult
            items = make_requests(self.seed, LADDER_SECONDS, rate, salt=200 + i)
            sched = ContinuousBatchingScheduler(engine, max_batch_size=MAX_BATCH)
            loop = OpenLoop(sched, items)
            try:
                loop.run()
            finally:
                sched.close()
            ttft, wait, _ = loop.latencies()
            late = wait[len(wait) * 2 // 3:]
            if percentile(ttft, 95) > TTFT_LIMIT_MS or percentile(late, 95) > TTFT_LIMIT_MS:
                break
            best = rate
        return best
