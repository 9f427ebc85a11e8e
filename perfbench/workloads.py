"""The benchmark's workloads: inputs, queries, runtime settings and rates.

Each workload is built from the seed alone, so the same seed always gives
the same tuples.  The program under test receives only those tuples.

A workload's input is ``CHUNKS`` independent streams (*chunks*), each made
by the workload's generator from a seed derived from the run's seed.  A
pass runs one chunk through a fresh service.  Taking every metric over
several chunks averages out what one random stream happens to contain, so
a run's figures depend little on which seed it was given.

``LAYER_MAP`` records, before any measurement, which end-to-end metric each
per-layer metric should move and on which workload; ``run.py --describe``
prints it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.datasets import LDBCLikeGenerator, UniformStreamGenerator, YagoLikeGenerator, build_workload
from repro.experiments.workloads import dataset_config
from repro.graph.stream import with_deletions
from repro.graph.window import WindowSpec

#: Independent streams per run.
CHUNKS = 12


@dataclass(frozen=True)
class Query:
    name: str
    expression: str
    semantics: str = "arbitrary"


@dataclass
class Chunk:
    """One stream, with the runs of tuples that share a graph timestamp.

    Closed-loop passes send the whole chunk; open-loop passes send the
    timestamps that start within the first ``open_tuples`` tuples.
    """

    stream: List
    open_tuples: int
    #: (timestamp, first index, end index): the load generator sends one
    #: run at a time.
    groups: List[Tuple[int, int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        index = 0
        for timestamp, run in itertools.groupby(self.stream, key=lambda tup: tup.timestamp):
            size = sum(1 for _ in run)
            self.groups.append((timestamp, index, index + size))
            index += size

    @property
    def open_groups(self) -> List[Tuple[int, int, int]]:
        return [group for group in self.groups if group[1] < self.open_tuples]

    @property
    def open_horizon(self) -> int:
        """The last timestamp an open-loop pass sends."""
        return self.open_groups[-1][0]


@dataclass
class Workload:
    """One workload, materialized for one seed."""

    name: str
    window: WindowSpec
    chunks: List[Chunk]
    queries: List[Query]
    config: Dict[str, object]
    #: Open-loop offered rate in tuples/s.  Sending one timestamp and then
    #: draining costs more than closed-loop streaming, so the rate is set to
    #: keep the service about a quarter busy on a 2-core host: latency then
    #: tracks service time, not a queue that a slower moment would grow.
    rate_eps: float
    #: Whether the runtime needs a fresh durability directory per service.
    durable: bool = False

    @property
    def tuples(self) -> int:
        return sum(len(chunk.stream) for chunk in self.chunks)


def _chunks(seed: int, make: Callable[[int], List], open_tuples: int) -> List[Chunk]:
    return [Chunk(list(make(seed * 1000 + index)), open_tuples) for index in range(CHUNKS)]


def _table2_yago(seed: int) -> Workload:
    workload = build_workload("yago")
    queries = [Query(name, expression) for name, expression in workload.items()]
    queries += [Query(f"{name}-simple", workload[name], "simple") for name in ("Q1", "Q2", "Q8", "Q11")]
    # The "tiny" window and slide of dataset_config, converted from its 25
    # edges per timestamp to YAGO_EDGES_PER_TIMESTAMP: the same number of
    # edges per window and per slide, in finer timestamps, so an open-loop
    # pass sends several hundred timestamps and its p99 does not rest on
    # one or two of them.
    tiny = dataset_config("yago", "tiny")
    scale = YagoLikeGenerator.edges_per_timestamp // YAGO_EDGES_PER_TIMESTAMP
    window = WindowSpec(size=tiny.window.size * scale, slide=tiny.window.slide * scale)

    def make(sub: int) -> List:
        return YagoLikeGenerator(edges_per_timestamp=YAGO_EDGES_PER_TIMESTAMP, seed=sub).generate(YAGO_EDGES)

    return Workload(
        name="table2-yago",
        window=window,
        chunks=_chunks(seed, make, open_tuples=1000),
        queries=queries,
        config={"shards": 1, "backend": "threading"},
        rate_eps=800.0,
    )


def _fanout_mp(seed: int) -> Workload:
    labels = [f"l{index}" for index in range(16)] + [f"noise{index}" for index in range(16)]

    def make(sub: int) -> List:
        generator = UniformStreamGenerator(num_vertices=300, labels=labels, edges_per_timestamp=100, seed=sub)
        return generator.generate(FANOUT_EDGES)

    return Workload(
        name="fanout-mp",
        window=WindowSpec(size=40, slide=4),
        chunks=_chunks(seed, make, open_tuples=9000),
        queries=[Query(f"pair{index}", f"l{2 * index} l{2 * index + 1}") for index in range(8)],
        # One worker process beside the coordinator: two busy processes on
        # a 2-core host.  A third would share a core, and the figures would
        # then follow the scheduler and the host's other load.
        config={"shards": 1, "backend": "multiprocessing"},
        rate_eps=8000.0,
    )


def _ldbc_durable(seed: int) -> Workload:
    workload = build_workload("ldbc")
    # As for table2-yago: the "tiny" window in finer timestamps.
    tiny = dataset_config("ldbc", "tiny")
    scale = LDBCLikeGenerator.edges_per_timestamp // LDBC_EDGES_PER_TIMESTAMP
    window = WindowSpec(size=tiny.window.size * scale, slide=tiny.window.slide * scale)

    def make(sub: int) -> List:
        generator = LDBCLikeGenerator(edges_per_timestamp=LDBC_EDGES_PER_TIMESTAMP, seed=sub)
        return with_deletions(generator.generate(LDBC_EDGES), 0.05, seed=sub)

    return Workload(
        name="ldbc-durable",
        window=window,
        chunks=_chunks(seed, make, open_tuples=1400),
        queries=[Query(name, workload[name]) for name in ("Q5", "Q7", "Q11")],
        # RuntimeConfig defaults except: a WAL directory (set per service),
        # a periodic checkpoint, and round-robin placement so the three
        # queries use both shards (hash placement puts them on one).
        config={"checkpoint_interval": 1000, "sharding": "round_robin"},
        rate_eps=1000.0,
        durable=True,
    )


#: Tuples per chunk.  A closed-loop pass takes about half a second on a
#: 2-core host, so a run holds a few dozen of them; an open-loop pass
#: (``open_tuples`` above) delivers over 1000 results, so its p99 has ten
#: samples beyond it.
YAGO_EDGES = 2000
YAGO_EDGES_PER_TIMESTAMP = 5
FANOUT_EDGES = 16_000
LDBC_EDGES = 2000
LDBC_EDGES_PER_TIMESTAMP = 5

BUILDERS = {
    "table2-yago": _table2_yago,
    "fanout-mp": _fanout_mp,
    "ldbc-durable": _ldbc_durable,
}


def make_workload(name: str, seed: int) -> Workload:
    """Materialize workload ``name`` for ``seed``."""
    return BUILDERS[name](seed)


#: per-layer metric prefix -> (end-to-end metrics it should move, workloads
#: it should move them on).  Where a workload is absent, no change is
#: predicted there.
LAYER_MAP: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "core.rapq (insert, expiry, index)": (("throughput_eps", "latency_p99_ms"), ("table2-yago",)),
    "core.rapq (deletions)": (("throughput_eps",), ("ldbc-durable",)),
    "core.rspq": (("throughput_eps",), ("table2-yago",)),
    "core.engine.process_batch": (("throughput_eps",), ("table2-yago", "ldbc-durable")),
    "runtime.service / runtime.router": (("throughput_eps",), ("fanout-mp",)),
    "runtime.protocol / runtime.worker.submit": (("throughput_eps", "latency_p50_ms"), ("fanout-mp",)),
    "runtime.worker busy and drain": (("throughput_eps",), ("table2-yago", "fanout-mp", "ldbc-durable")),
    "core.results / runtime.merger": (("latency_p99_ms",), ("table2-yago",)),
    "runtime.durability": (("throughput_eps", "latency_p99_ms"), ("ldbc-durable",)),
    "loadgen.lag_p99_ms (guards latency_*)": (("latency_p50_ms", "latency_p99_ms"), tuple(BUILDERS)),
}
