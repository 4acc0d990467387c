"""Spans around calls into camlat's layers, recorded from outside the package.

``Tracer.install`` replaces module attributes of camlat with thin wrappers
that record one span per call: name, owning process, start, end, parent
span and an optional value (a count such as links drawn or bytes pickled).
The engine resolves its callees through module names (``radio.``,
``latency.`` ...) and globals looked up at call time, so patching the module
attribute is enough; ``SubstreamFactory.stream`` is patched on the class.

Pool workers are forked after installation and inherit the wrappers.
Each worker writes its spans to a spill file after every task; ``collect``
merges them into the parent's list once the pool has shut down. Spans
carry per-process keys and ``perf_counter_ns`` stamps, which share one
monotonic clock across processes on Linux.

Spans are kept in memory and only turned into metrics after the run.
"""

from __future__ import annotations

import functools
import glob
import os
import pickle
from collections import defaultdict
from time import perf_counter_ns as _now

# (name, key, parent_key, start_ns, end_ns, value); key = (process token, seq)
Span = tuple


class Tracer:
    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.spans: list[Span] = []
        self._buffer_pid = os.getpid()
        # A (pid, start time) token keeps keys unique even if a pid is reused.
        self._proc = (self._buffer_pid, _now())
        self._stack: list[tuple] = []
        self._seq = 0

    def wrap(self, owner, attr: str, name: str, value=None, also=()):
        """Replace ``owner.attr`` (and each ``(obj, attr)`` in ``also``) by a traced wrapper.

        ``value(args, result)`` gives the span's count, if any.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._seq += 1
            key = (tracer._proc, tracer._seq)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(key)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                tracer._stack.pop()
            tracer.spans.append(
                (name, key, parent, start, end, value(args, result) if value else None)
            )
            return result

        setattr(owner, attr, traced)
        for obj, other in also:
            setattr(obj, other, traced)
        return traced

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        from camlat import channel, cli, config, engine, experiments, latency, radio, rng
        from camlat import scenario, traffic

        self.wrap(config, "load_config", "config.load", also=[(cli, "load_config")])
        self.wrap(rng.SubstreamFactory, "stream", "rng.stream")
        self.wrap(scenario, "sample_scenario", "scenario.sample",
                  value=lambda args, scn: scn.vehicle_count)
        self.wrap(scenario, "advance_vehicles", "scenario.advance")
        self.wrap(traffic, "generate_period", "traffic.generate",
                  value=lambda args, jobs: len(jobs))
        self.wrap(channel, "sample_snr_db", "channel.snr",
                  value=lambda args, snr: getattr(args[1], "size", 1))
        self.wrap(radio, "nearest_member_indices", "radio.cluster_search")
        self.wrap(radio, "ul_latency", "radio.ul")
        self.wrap(radio, "link_rate_bps", "radio.rate")
        self.wrap(latency, "compose_e2e", "latency.compose")
        for attr in ("backhaul_latency", "execution_latency", "sample_tn_cn"):
            self.wrap(latency, attr, "latency.component")
        self.wrap(engine, "evaluate_period", "engine.evaluate")
        self.wrap(engine, "run_replication", "engine.replication")
        self.wrap(engine, "aggregate", "engine.aggregate")
        self.wrap(engine, "run_plan", "engine.run_plan", value=lambda args, _: args[0].workers)
        self.wrap(experiments, "run_point", "experiments.point")
        self.wrap(experiments, "emit_csv", "experiments.emit_csv", also=[(cli, "emit_csv")])
        self.wrap(experiments, "emit_plot", "experiments.emit_plot", also=[(cli, "emit_plot")])

        task = self.wrap(engine, "_replication_task", "engine.task",
                         value=lambda args, result: len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)))
        tracer = self

        @functools.wraps(task)
        def worker_task(args):
            pid = os.getpid()
            if tracer._buffer_pid != pid:  # first task in a freshly forked worker
                tracer.spans = []
                tracer._buffer_pid = pid
                tracer._proc = (pid, _now())
            result = task(args)
            tracer._spill()
            return result

        engine._replication_task = worker_task

        class CountingPool(engine.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                now = _now()
                tracer.spans.append(("engine.pool_start", None, None, now, now, 1))
                super().__init__(*args, **kwargs)

        engine.ProcessPoolExecutor = CountingPool

    def _spill(self) -> None:
        self._seq += 1
        pid, started = self._proc
        path = os.path.join(self.spill_dir, f"spans-{pid}-{started}-{self._seq}.pkl")
        with open(path, "wb") as fh:
            pickle.dump(self.spans, fh, pickle.HIGHEST_PROTOCOL)
        self.spans = []

    def collect(self) -> list[Span]:
        """Parent's spans plus every span that workers spilled."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "spans-*.pkl"))):
            # Only files this benchmark's own workers wrote are unpickled.
            with open(path, "rb") as fh:
                spans.extend(pickle.load(fh))
        return spans


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals, counts and self times from one traced run."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[tuple, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)
        if span[2] is not None:
            children[span[2]].append((span[3], span[4]))

    def total_s(name):
        return sum(s[4] - s[3] for s in by_name[name]) / 1e9

    def count(name):
        return len(by_name[name])

    def value_sum(name):
        return sum(s[5] for s in by_name[name])

    def self_s(name):
        return sum(s[4] - s[3] - _covered_ns(children[s[1]]) for s in by_name[name]) / 1e9

    replications_ms = [(s[4] - s[3]) / 1e6 for s in by_name["engine.replication"]]
    samples = by_name["scenario.sample"]

    # Worker busy time is the replications' time; a serial plan has one worker.
    pool_overhead_ns = 0
    for plan_span in by_name["engine.run_plan"]:
        start, end, workers = plan_span[3], plan_span[4], plan_span[5]
        busy = sum(
            s[4] - s[3] for s in by_name["engine.replication"] if start <= s[3] and s[4] <= end
        )
        pool_overhead_ns += (end - start) - busy / workers

    return {
        "config.load_s": total_s("config.load"),
        "rng.streams": count("rng.stream"),
        "rng.stream_s": total_s("rng.stream"),
        "scenario.sample_s": total_s("scenario.sample"),
        "scenario.advance_s": total_s("scenario.advance"),
        "scenario.vehicles": value_sum("scenario.sample") / len(samples) if samples else 0,
        "traffic.generate_s": total_s("traffic.generate"),
        "traffic.jobs": value_sum("traffic.generate"),
        "channel.snr_s": total_s("channel.snr"),
        "channel.links": value_sum("channel.snr"),
        "radio.cluster_search_s": total_s("radio.cluster_search"),
        "radio.ul_s": total_s("radio.ul"),
        "radio.rate_s": total_s("radio.rate"),
        "latency.compose_s": total_s("latency.compose"),
        "latency.compose_calls": count("latency.compose"),
        "latency.components_s": total_s("latency.component"),
        "engine.evaluate_self_s": self_s("engine.evaluate"),
        "engine.replication_self_s": self_s("engine.replication"),
        "engine.replication_ms_p50": _percentile(replications_ms, 50) if replications_ms else 0,
        "engine.replication_ms_p95": _percentile(replications_ms, 95) if replications_ms else 0,
        "engine.replication_samples": len(replications_ms),
        "engine.aggregate_s": total_s("engine.aggregate"),
        "engine.pools_started": value_sum("engine.pool_start"),
        "engine.ipc_bytes": value_sum("engine.task"),
        "engine.pool_overhead_s": pool_overhead_ns / 1e9,
        "experiments.emit_csv_s": total_s("experiments.emit_csv"),
        "experiments.emit_plot_s": total_s("experiments.emit_plot"),
        "experiments.points": count("experiments.point"),
    }


def evaluate_children_s(spans: list[Span]) -> dict[str, float]:
    """Total time of each direct child of ``engine.evaluate``, by child name."""
    evaluate_keys = {s[1] for s in spans if s[0] == "engine.evaluate"}
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s[2] in evaluate_keys:
            out[s[0]] += (s[4] - s[3]) / 1e9
    return dict(out)
