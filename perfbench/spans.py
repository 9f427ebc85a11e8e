"""Traced run: spans around the calls into each layer, and per-layer metrics.

Spans are recorded from the benchmark's own code by wrapping the layers'
functions for the duration of one pass; the program itself is unchanged.
Each span keeps its name, start, end and parent (the enclosing span on the
same thread).  Spans stay in memory until the pass ends.  A span's *self
time* is its duration minus the time its child spans cover.

Worker-side functions are wrapped only for in-process backends.  A
``multiprocessing`` worker runs in another process, so its numbers come
from the public ``shard_metrics()`` and ``summary()`` counters instead.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.columnar.evaluator import ColumnarRAPQEvaluator
from repro.core.engine import StreamingRPQEngine
from repro.core.rspq import RSPQEvaluator
from repro.runtime import DurabilityManager, ShardWorker, StreamingQueryService, StreamRouter, protocol
from repro.runtime.observability.tracing import chrome_trace_events

#: (owner, attribute, span name) wrapped in the coordinator process.
COORDINATOR_TARGETS = (
    (StreamingQueryService, "ingest", "runtime.service.ingest"),
    (StreamRouter, "route", "runtime.router.route"),
    (protocol, "encode_batch_columnar", "runtime.protocol.encode_batch_columnar"),
    (ShardWorker, "submit", "runtime.worker.submit"),
    (DurabilityManager, "log_tuple", "runtime.durability.log_tuple"),
    (DurabilityManager, "checkpoint", "runtime.durability.checkpoint"),
    (StreamingQueryService, "drain", "runtime.service.drain"),
    (StreamingQueryService, "results", "core.results.fetch"),
)

#: Wrapped only when the shard engines run in this process.  RSPQ has no
#: batch entry point, so the engine calls ``process`` once per relevant
#: tuple.  Deletions have no public entry point or timer of their own; the
#: columnar evaluator's per-tuple delete step is wrapped instead.
ENGINE_TARGETS = (
    (StreamingRPQEngine, "process_batch", "core.engine.process_batch"),
    (ColumnarRAPQEvaluator, "process_batch", "core.rapq.process_batch"),
    (ColumnarRAPQEvaluator, "_delete_interned", "core.rapq.delete"),
    (RSPQEvaluator, "process", "core.rspq.process"),
)


class SpanRecorder:
    """Wraps layer functions and records their spans, one list per thread."""

    def __init__(self, in_process_engines: bool) -> None:
        self.targets = COORDINATOR_TARGETS + (ENGINE_TARGETS if in_process_engines else ())
        self._local = threading.local()
        self._threads: List[Tuple[str, List]] = []
        self._saved: List[Tuple[object, str, object]] = []
        #: Bytes of each checkpoint file written while installed.
        self.checkpoint_bytes: List[int] = []

    def _spans(self) -> List:
        """This thread's span list; each span is ``[name, start, end, parent index or -1]``."""
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
            self._local.stack = []
            self._threads.append((threading.current_thread().name, spans))
        return spans

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        spans = self._spans()
        stack = self._local.stack
        index = len(spans)
        spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._local.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def install(self) -> None:
        for owner, attribute, name in self.targets:
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))
        checkpoint = DurabilityManager.checkpoint
        recorder = self

        def sized_checkpoint(manager, *args, **kwargs):
            entry = checkpoint(manager, *args, **kwargs)
            recorder.checkpoint_bytes.append((manager.directory / entry["file"]).stat().st_size)
            return entry

        DurabilityManager.checkpoint = sized_checkpoint

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # Analysis ---------------------------------------------------------- #

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for _thread, spans in self._threads:
            child_time = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for (name, start, end, _parent), children in zip(spans, child_time):
                row = table[name]
                row["calls"] += 1
                row["total_s"] += end - start
                row["self_s"] += end - start - children
        return dict(table)

    def write_chrome_trace(self, path: Path) -> int:
        """Write all spans as Chrome trace-event JSON; returns the span count."""
        records = []
        for lane, (thread, spans) in enumerate(self._threads):
            for index, (name, start, end, parent) in enumerate(spans):
                records.append(
                    {
                        "name": name,
                        "process": "perfbench",
                        "shard": lane,
                        "thread": thread,
                        "span_id": f"{lane}:{index}",
                        "parent_id": f"{lane}:{parent}" if parent >= 0 else None,
                        "start": start,
                        "duration": end - start,
                    }
                )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": chrome_trace_events(records)}))
        return len(records)


def wal_bytes(registry_text: str) -> float:
    """Sum of ``repro_wal_appended_bytes_total`` over shards."""
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in registry_text.splitlines()
        if line.startswith("repro_wal_appended_bytes_total")
    )


def layer_metrics(
    recorder: SpanRecorder, summary: Dict, wal_text: str, wall_s: float, in_process: bool
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (names and units in BENCHMARK.json).

    ``summary`` is ``service.summary()`` taken after the pass's final drain.
    Without in-process engines, evaluator time is the workers' busy time
    (``shard_metrics()``), which also covers the engine's batch decode; then
    ``core.evaluator_share_of_busy`` is 1 by construction and deletions are
    not timed.
    """
    table = recorder.totals()

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0)

    def per(value: float, count: float, scale: float = 1.0) -> float:
        return value / count * scale if count else 0.0

    totals = summary["totals"]
    tuples = totals["tuples_ingested"]
    shards = summary["shards"]
    shard_tuples = [stats["tuples"] for stats in shards]
    busy = [stats["busy_seconds"] for stats in shards]
    queries = summary["queries"].values()
    rapq = [query for query in queries if query["semantics"] == "arbitrary"]
    rspq = [query for query in queries if query["semantics"] == "simple"]

    def stat(group, key: str) -> float:
        return float(sum(query["stats"].get(key, 0) for query in group))

    def index(group, key: str) -> float:
        return float(sum(query["index"].get(key, 0) for query in group))

    expiry_s = stat(rapq, "expiry_seconds")
    deletions = stat(rapq, "deletions_processed")
    inserts = stat(rapq, "tuples_processed") - deletions
    if in_process:
        rapq_s = total("core.rapq.process_batch")
        delete_s = total("core.rapq.delete")
        engine_s = total("core.engine.process_batch")
    else:
        rapq_s, delete_s, engine_s = sum(busy), 0.0, sum(busy)
    us = 1e6
    return {
        "core.rapq.insert_us_per_tuple": per(rapq_s - expiry_s - delete_s, inserts, us),
        "core.rapq.insert_calls_per_tuple": per(stat(rapq, "insert_calls"), inserts),
        "core.rapq.expiry_s": expiry_s,
        "core.rapq.expiry_runs": stat(rapq, "expiry_runs"),
        "core.rapq.nodes_expired": stat(rapq, "nodes_expired"),
        "core.rapq.index_nodes": index(rapq, "nodes"),
        "core.rapq.index_trees": index(rapq, "trees"),
        "core.rapq.deletions": deletions,
        "core.rapq.delete_us_per_delete": per(delete_s, deletions, us),
        "core.rspq.eval_us_per_tuple": per(total("core.rspq.process"), calls("core.rspq.process"), us),
        "core.rspq.extend_calls": stat(rspq, "extend_calls"),
        "core.rspq.conflicts": stat(rspq, "conflicts_detected"),
        "core.rspq.index_nodes": index(rspq, "nodes"),
        "core.engine.process_batch_us_per_tuple": per(engine_s, sum(shard_tuples), us),
        "runtime.service.ingest_self_us_per_tuple": per(own("runtime.service.ingest"), tuples, us),
        "runtime.router.route_us_per_tuple": per(total("runtime.router.route"), tuples, us),
        "runtime.router.dropped_frac": per(totals["tuples_dropped_unroutable"], tuples),
        "runtime.router.shard_skew": per(max(shard_tuples), sum(shard_tuples) / len(shard_tuples)),
        "runtime.protocol.encode_batch_us_per_tuple": per(
            total("runtime.protocol.encode_batch_columnar"), sum(shard_tuples), us
        ),
        "runtime.worker.submit_blocked_s": own("runtime.worker.submit"),
        "runtime.worker.tuples_per_batch": per(sum(shard_tuples), sum(stats["batches"] for stats in shards)),
        "runtime.worker.busy_s_max": max(busy),
        "runtime.worker.busy_frac_max": per(max(busy), wall_s),
        "runtime.worker.drain_s": own("runtime.service.drain"),
        "core.results.events": float(sum(query["events"] for query in queries)),
        "core.results.fetch_s": total("core.results.fetch"),
        "runtime.merger.merge_s": own("runtime.merger.merge"),
        "runtime.durability.log_us_per_tuple": per(total("runtime.durability.log_tuple"), tuples, us),
        "runtime.durability.wal_bytes_per_tuple": per(wal_bytes(wal_text), tuples),
        "runtime.durability.checkpoint_s": total("runtime.durability.checkpoint"),
        "runtime.durability.checkpoints": float(calls("runtime.durability.checkpoint")),
        "runtime.durability.checkpoint_bytes": float(sum(recorder.checkpoint_bytes)),
        "runtime.durability.share_of_wall": per(
            total("runtime.durability.log_tuple") + total("runtime.durability.checkpoint"), wall_s
        ),
        # Coordinator work only: time blocked in submit waits on the workers
        # and is reported as runtime.worker.submit_blocked_s.
        "bench.coordinator_share": per(
            own("runtime.service.ingest")
            + total("runtime.router.route")
            + total("runtime.protocol.encode_batch_columnar"),
            wall_s,
        ),
        "core.evaluator_share_of_busy": per(rapq_s + total("core.rspq.process"), sum(busy)),
    }
