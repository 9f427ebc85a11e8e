"""Single-threaded load generator driving ``StreamingQueryService``.

A *pass* builds a fresh service, pushes one chunk of the workload (see
``workloads.py``) through ``ingest`` one graph timestamp at a time,
drains, digests the results and stops the service.  A run interleaves
closed-loop and open-loop passes over all chunks (``run_passes``).

* Closed loop: the next timestamp is sent as soon as ``ingest`` returns,
  so backpressure sets the pace.  Throughput is tuples over the wall time
  from the first ``ingest`` to the end of the final ``drain()``.
* Open loop: timestamp ``k`` is due at ``start + first_index(k) / rate``,
  whether or not the service has kept up.  After sending a timestamp the
  generator calls ``drain()``, because ``on_result`` callbacks are only
  delivered while the coordinator talks to its workers; without it a
  result would wait for the next batch to fill.  A result's latency is its
  delivery time minus its timestamp's due time, so a stall also counts
  against every timestamp queued behind it.

The generated input lives in this process beside the coordinator; the
caller freezes it out of the cyclic garbage collector (``gc.freeze``) so
that collections do not rescan it during a pass.
"""

from __future__ import annotations

import itertools
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.runtime import RuntimeConfig, StreamingQueryService

from reference import digest


@dataclass
class PassResult:
    chunk: int
    open_loop: bool
    setup_s: float
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    #: Whether the on_result deliveries disagree with the result streams.
    live_mismatch: bool = False
    latencies_s: List[float] = field(default_factory=list)
    lags_s: List[float] = field(default_factory=list)

    @property
    def throughput_eps(self) -> float:
        return self.attempted / self.wall_s


class Runner:
    """Builds services for one workload and runs passes over its stream."""

    def __init__(self, workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self._services = 0
        self._reported_error = False

    def build(self, on_result: Optional[Callable]) -> tuple:
        """Construct, register, start; returns ``(service, setup_s, wal_dir)``.

        Set-up ends when every shard has answered a ``drain()``, i.e. when
        the first tuple can be ingested.
        """
        workload = self.workload
        wal_dir = None
        options = dict(workload.config)
        if workload.durable:
            self._services += 1
            wal_dir = self.workdir / f"wal-{self._services}"
            options["wal_dir"] = str(wal_dir)
        started = time.perf_counter()
        service = StreamingQueryService(workload.window, RuntimeConfig(**options), on_result=on_result)
        for query in workload.queries:
            service.register(query.name, query.expression, semantics=query.semantics)
        service.start()
        service.drain()
        return service, time.perf_counter() - started, wal_dir

    def run_pass(self, chunk_index: int, rate_eps: Optional[float], probe=None) -> PassResult:
        """One pass over one chunk: closed loop when ``rate_eps`` is None, else open loop.

        ``probe`` (traced runs) is called as ``probe(service, stage)`` with
        stage ``"start"`` before the first ingest and ``"end"`` after the
        final drain, while the service is still running.
        """
        workload = self.workload
        chunk = workload.chunks[chunk_index]
        stream = chunk.stream
        deliveries: List[tuple] = []
        clock = time.perf_counter

        def on_result(name, source, target, timestamp) -> None:
            deliveries.append((timestamp, clock()))

        service, setup_s, wal_dir = self.build(on_result)
        result = PassResult(chunk=chunk_index, open_loop=rate_eps is not None, setup_s=setup_s)
        try:
            if probe is not None:
                probe(service, "start")
            due_of: Dict[int, float] = {}
            started = clock()
            for timestamp, first, end in chunk.groups if rate_eps is None else chunk.open_groups:
                if rate_eps is not None:
                    due = started + first / rate_eps
                    due_of[timestamp] = due
                    now = clock()
                    if now < due:
                        time.sleep(due - now)
                        now = clock()
                    result.lags_s.append(now - due)
                result.attempted += end - first
                try:
                    service.ingest(stream[first:end])
                    if rate_eps is not None:
                        service.drain()
                except Exception:  # the generator keeps going and counts the refusal
                    result.failed += end - first
                    self._report_error()
            try:
                service.drain()
            except Exception:
                self._report_error()
            result.wall_s = clock() - started
            if probe is not None:
                probe(service, "end")
            positives = {query.name: service.results(query.name).positives() for query in workload.queries}
            triples = {
                name: {(event.source, event.target, event.timestamp) for event in found}
                for name, found in positives.items()
            }
            result.digest = digest(triples)
            # on_result fires once per positive event, re-reports included.
            result.live_mismatch = len(deliveries) != sum(len(found) for found in positives.values())
            if rate_eps is not None:
                result.latencies_s = [clock_at - due_of[timestamp] for timestamp, clock_at in deliveries]
        finally:
            self._close(service, wal_dir)
        return result

    def _close(self, service, wal_dir) -> None:
        try:
            service.stop()
        finally:
            if wal_dir is not None:
                shutil.rmtree(wal_dir, ignore_errors=True)

    def _report_error(self) -> None:
        if not self._reported_error:
            self._reported_error = True
            traceback.print_exc(file=sys.stderr)


#: Closed-loop passes per open-loop pass.  Closed passes are the shorter
#: kind, and throughput is the figure the host's speed moves most, so it
#: gets the larger share of samples.
CLOSED_PER_OPEN = 2


def run_passes(runner: Runner, budget_s: float) -> Tuple[List[PassResult], List[PassResult]]:
    """``(closed, open)`` passes filling about ``budget_s`` seconds.

    Each step runs ``CLOSED_PER_OPEN`` closed-loop passes and then one
    open-loop pass, each kind cycling through the chunks on its own, so
    both kinds of sample spread over the whole run and drift in the host's
    speed affects them alike.  Steps continue until every chunk has had an
    open-loop pass, and then while the next step (as long as the longest
    so far) fits in ``budget_s``.
    """
    closed: List[PassResult] = []
    opened: List[PassResult] = []
    rate_eps = runner.workload.rate_eps
    chunks = len(runner.workload.chunks)
    longest = 0.0
    started = time.perf_counter()
    for step in itertools.count(1):
        step_started = time.perf_counter()
        for _ in range(CLOSED_PER_OPEN):
            closed.append(runner.run_pass(len(closed) % chunks, None))
        opened.append(runner.run_pass(len(opened) % chunks, rate_eps))
        now = time.perf_counter()
        longest = max(longest, now - step_started)
        if step >= chunks and (now - started) + longest > budget_s:
            return closed, opened
