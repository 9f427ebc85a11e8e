"""Result digests and the scalar reference that computes them.

A digest covers every query's positive result triples ``(source, target,
timestamp)``.  The reference feeds the stream tuple at a time through the
scalar ``RAPQEvaluator`` and ``RSPQEvaluator``, outside the runtime, so a
defect in the columnar path or the runtime cannot pass by agreeing with
itself.  ``digests.json`` pins the reference for two seeds, which also
guards the scalar evaluators themselves.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.core.rapq import RAPQEvaluator
from repro.core.rspq import RSPQEvaluator

DIGESTS_PATH = Path(__file__).with_name("digests.json")

Triples = Dict[str, Set[Tuple[object, object, int]]]


def digest(triples: Triples) -> str:
    """SHA-256 over each query's sorted positive triples."""
    canonical = {
        name: sorted(([repr(s), repr(t), ts] for s, t, ts in found), key=lambda row: (row[2], row[0], row[1]))
        for name, found in sorted(triples.items())
    }
    return hashlib.sha256(json.dumps(canonical, separators=(",", ":")).encode()).hexdigest()


def reference_triples(workload, chunk) -> Triples:
    """Positive triples of every query over one chunk, from the scalar evaluators."""
    triples: Triples = {}
    for query in workload.queries:
        cls = RSPQEvaluator if query.semantics == "simple" else RAPQEvaluator
        evaluator = cls(query.expression, workload.window)
        for tup in chunk.stream:
            evaluator.process(tup)
        triples[query.name] = {(e.source, e.target, e.timestamp) for e in evaluator.results.positives()}
    return triples


def pinned_digests(workload_name: str, seed: int) -> Optional[List[List[str]]]:
    """The committed per-chunk digests for ``(workload, seed)``, if any."""
    pinned = json.loads(DIGESTS_PATH.read_text())
    return pinned.get(workload_name, {}).get(str(seed))


def chunk_digests(workload, chunk) -> Tuple[str, str]:
    """Digests of a closed-loop (whole chunk) and an open-loop (prefix) pass.

    The evaluators are online, so the prefix's results are exactly the
    whole chunk's results up to the prefix's last timestamp.
    """
    triples = reference_triples(workload, chunk)
    horizon = chunk.open_horizon
    prefix = {name: {t for t in found if t[2] <= horizon} for name, found in triples.items()}
    return digest(triples), digest(prefix)


def reference_digests(workload, seed: int) -> Tuple[List[List[str]], str]:
    """``(per-chunk [closed, open] digests, source)``: pinned, else computed now."""
    pinned = pinned_digests(workload.name, seed)
    if pinned is not None:
        return pinned, "digests.json"
    return [list(chunk_digests(workload, chunk)) for chunk in workload.chunks], "scalar reference"
