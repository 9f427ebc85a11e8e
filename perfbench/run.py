"""End-to-end and per-layer benchmark of the streaming RPQ service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2-yago --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fanout-mp --trace 1      # per-layer run
    python3 perfbench/run.py --workload ldbc-durable --repeat 5  # spread over seeds
    python3 perfbench/run.py --describe                          # layer map
    python3 perfbench/run.py --pin        # re-pin digests.json after a workload change

``--trace 0`` measures the end-to-end metrics with the runtime's tracing
off: closed-loop passes give ``throughput_eps``, open-loop passes at the
workload's fixed offered rate give ``latency_p50_ms`` and
``latency_p99_ms``, every pass samples ``setup_s``, and the process's
high-water marks give ``peak_rss_mb``.  ``--trace 1`` instead wraps the
layers' functions in spans for closed-loop passes over the first chunk
(see ``spans.py``), writes the first pass's spans as a Chrome trace to
``perfbench/out/`` and reports the per-layer metrics.  Every pass checks its results against the reference
digest; a mismatch fails the run.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Two figures are printed but left out of that JSON's end-to-end metrics:
``errors_frac`` is 0 on every correct run (the result line's ``failed``
and ``attempted`` carry it), and ``latency_p99_ms`` varies across seeds
by more than any regression bound the benchmark may set on a 2-core host,
so it is reported with the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: The benchmark's definition: workloads, and metric names with units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

#: Minimum latency samples per open-loop pass: p99 then has ten beyond it.
MIN_LATENCY_SAMPLES = 1000

#: The seed used while the benchmark was written, and one that was not used
#: for tuning: re-check a claimed gain on it.  ``digests.json`` pins the
#: reference results of both (``--pin`` rewrites it).
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile.

    Kept here rather than imported from ``repro.metrics`` so that a change
    to the program cannot change how the benchmark computes its figures.
    """
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def provenance(args, workload, passes: dict) -> dict:
    import numpy
    from repro.core.columnar import fastpath_name

    commit = "unknown"
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
        if found.returncode == 0:
            commit = found.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "chunk_tuples": [len(chunk.stream) for chunk in workload.chunks],
        "chunk_timestamps": [len(chunk.groups) for chunk in workload.chunks],
        "queries": len(workload.queries),
        "window": [workload.window.size, workload.window.slide],
        "offered_rate_eps": workload.rate_eps,
        "runtime_config": workload.config,
        "passes": passes,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fastpath": fastpath_name(),
        "host": platform.platform(),
        "git_commit": commit,
        # Every number is measured on this host; none is modeled.
        "modeled": [],
    }


def measure_end_to_end(runner, workload, seconds: float):
    """Closed- and open-loop passes over every chunk for about ``seconds``.

    Throughput is all closed-loop tuples over all closed-loop wall time.
    On a shared host the per-pass rate clusters around two or more CPU
    speeds; a median over passes then jumps from one cluster to another
    as the share of time at each speed shifts, while the total moves in
    proportion to it.  Latency percentiles are taken per open-loop pass
    over that pass's result deliveries, and they and ``setup_s`` are
    medians over passes, so neither one chunk's content nor one pass hit
    by a host hiccup sets them.
    """
    from loadgen import run_passes

    closed, opened = run_passes(runner, seconds)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "throughput_eps": sum(p.attempted for p in closed) / sum(p.wall_s for p in closed),
        "latency_p50_ms": statistics.median(percentile(p.latencies_s, 0.50) for p in opened) * 1e3,
        "latency_p99_ms": statistics.median(percentile(p.latencies_s, 0.99) for p in opened) * 1e3,
        "setup_s": statistics.median(p.setup_s for p in closed + opened),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    notes = {
        "closed_passes": len(closed),
        "open_passes": len(opened),
        "throughput_eps_per_pass": [p.throughput_eps for p in closed],
        "latency_p50_ms_per_pass": [percentile(p.latencies_s, 0.50) * 1e3 for p in opened],
        "latency_p99_ms_per_pass": [percentile(p.latencies_s, 0.99) * 1e3 for p in opened],
        "latency_samples_per_pass": [len(p.latencies_s) for p in opened],
        "setup_samples": len(closed) + len(opened),
        "lag_p99_ms": statistics.median(percentile(p.lags_s, 0.99) for p in opened) * 1e3,
    }
    return metrics, closed + opened, notes


#: Traced and untraced closed-loop passes over chunk 0 in a ``--trace 1``
#: run, interleaved; their medians give the tracing overhead.
OVERHEAD_PASSES = 5


def measure_layers(runner, workload, seed: int):
    """Per-layer metrics from a traced closed-loop pass over chunk 0.

    The first traced pass gives the layer figures and the Chrome trace.
    Traced and untraced passes over the same chunk, alternating, give the
    tracing overhead; one open-loop pass gives how late the generator ran.
    """
    from spans import SpanRecorder, layer_metrics

    in_process = workload.config.get("backend", "threading") != "multiprocessing"

    def traced_pass(recorder, captured):
        def probe(service, stage):
            if stage == "start":
                recorder.install()
                return
            with recorder.span("runtime.merger.merge"):
                captured["global_events"] = sum(1 for _ in service.global_events())
            # Unwrap before the result check and stop(), whose final
            # checkpoint is not part of the pass.
            recorder.uninstall()
            captured["summary"] = service.summary()
            captured["registry"] = service.metrics_registry.render()

        try:
            return runner.run_pass(0, None, probe=probe)
        finally:
            recorder.uninstall()

    recorder = SpanRecorder(in_process_engines=in_process)
    captured = {}
    untraced = [runner.run_pass(0, None)]
    traced = [traced_pass(recorder, captured)]
    for _ in range(OVERHEAD_PASSES - 1):
        untraced.append(runner.run_pass(0, None))
        traced.append(traced_pass(SpanRecorder(in_process_engines=in_process), {}))
    first = traced[0]
    opened = runner.run_pass(0, workload.rate_eps)
    metrics = layer_metrics(recorder, captured["summary"], captured["registry"], first.wall_s, in_process)
    metrics["latency_p99_ms"] = percentile(opened.latencies_s, 0.99) * 1e3
    metrics["loadgen.lag_p99_ms"] = percentile(opened.lags_s, 0.99) * 1e3
    untraced_eps = statistics.median(p.throughput_eps for p in untraced)
    traced_eps = statistics.median(p.throughput_eps for p in traced)
    metrics["bench.trace_overhead_frac"] = 1.0 - traced_eps / untraced_eps
    trace_path = OUT / f"{workload.name}-seed{seed}.trace.json"
    span_count = recorder.write_chrome_trace(trace_path)
    notes = {
        "overhead_passes": OVERHEAD_PASSES,
        "untraced_eps_per_pass": [p.throughput_eps for p in untraced],
        "traced_eps_per_pass": [p.throughput_eps for p in traced],
        "traced_wall_s": first.wall_s,
        "traced_throughput_eps": traced_eps,
        "untraced_throughput_eps": untraced_eps,
        "spans": span_count,
        "chrome_trace": str(trace_path.relative_to(ROOT)),
        "global_events": captured["global_events"],
    }
    return metrics, untraced + traced + [opened], notes, recorder.totals(), first.wall_s


def print_layer_table(table: dict, wall_s: float) -> None:
    print(f"{'span':44s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'self/wall':>9s}")
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        print(
            f"{name:44s} {row['calls']:9d} {row['total_s']:10.4f} {row['self_s']:10.4f} "
            f"{row['self_s'] / wall_s:9.3f}"
        )


def run_once(args) -> int:
    from loadgen import Runner
    from reference import reference_digests
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed)
    # The generated stream lives in the coordinator's process.  Freezing it
    # keeps the cyclic collector from rescanning it during every pass,
    # which otherwise shows as tens-of-milliseconds stalls in the open loop.
    gc.collect()
    gc.freeze()
    runner = Runner(workload, OUT / "work")
    if args.trace:
        metrics, passes, notes, table, wall_s = measure_layers(runner, workload, args.seed)
        units = PER_LAYER
    else:
        metrics, passes, notes = measure_end_to_end(runner, workload, args.seconds)
        units = END_TO_END
    if not args.trace and min(notes["latency_samples_per_pass"]) < MIN_LATENCY_SAMPLES:
        print(
            f"error: an open-loop pass delivered fewer than {MIN_LATENCY_SAMPLES} results "
            f"({notes['latency_samples_per_pass']}); p99 would not have ten samples beyond it",
            file=sys.stderr,
        )
        return 3
    expected, source = reference_digests(workload, args.seed)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # expected[chunk] is [closed-loop digest, open-loop digest].
    mismatched = [
        index
        for index, p in enumerate(passes)
        if p.digest != expected[p.chunk][p.open_loop] or p.live_mismatch
    ]
    correct = not mismatched and failed == 0

    print(
        f"workload {workload.name}  seed {args.seed}  chunks {len(workload.chunks)}  "
        f"tuples {workload.tuples}  offered rate {workload.rate_eps:g} tuples/s"
    )
    if args.trace:
        print_layer_table(table, wall_s)
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {END_TO_END.get(name) or PER_LAYER[name]}")
    if not args.trace:
        samples = notes["latency_samples_per_pass"]
        print(
            f"  latency: median over {notes['open_passes']} open-loop passes of "
            f"{min(samples)}-{max(samples)} results each; generator lag p99 {notes['lag_p99_ms']:.3f} ms"
        )
    print(f"{'errors_frac':44s} {failed / attempted:14.6g} fraction ({failed} of {attempted} tuples)")
    print(
        f"result check: {'ok' if correct else 'MISMATCH in passes ' + str(mismatched)} "
        f"({len(passes)} passes against the {source} digests)"
    )
    reported = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    record = provenance(args, workload, notes)
    record["errors_frac"] = failed / attempted
    print("provenance " + json.dumps(record))
    OUT.mkdir(parents=True, exist_ok=True)
    record["metrics"] = reported
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0 if correct else 1


def run_repeat(args) -> int:
    """Run the benchmark ``--repeat`` times, one seed each, and summarize."""
    values = {}
    for offset in range(args.repeat):
        seed = args.seed + offset
        command = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        started = time.perf_counter()
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: {time.perf_counter() - started:.1f}s "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':44s} {'runs':>4s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/median':>10s}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (series[0],) * 3
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:44s} {len(series):4d} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:10.4f}")
    return 0


def pin() -> int:
    """Rewrite digests.json from the scalar reference for the pinned seeds."""
    from reference import DIGESTS_PATH, chunk_digests
    from workloads import make_workload

    pinned = {}
    for spec in SPEC["workloads"]:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            workload = make_workload(spec["name"], seed)
            pinned.setdefault(spec["name"], {})[str(seed)] = [
                list(chunk_digests(workload, chunk)) for chunk in workload.chunks
            ]
            print(f"pinned {spec['name']} seed {seed}")
    DIGESTS_PATH.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


def describe() -> int:
    from workloads import LAYER_MAP

    for workload in SPEC["workloads"]:
        print(f"{workload['name']}: {workload['why']}")
    print()
    for layer, (metrics, workloads) in LAYER_MAP.items():
        print(f"{layer:42s} -> {', '.join(metrics):32s} on {', '.join(workloads)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[workload["name"] for workload in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run N seeds from --seed on and summarize")
    parser.add_argument(
        "--describe", action="store_true", help="print each workload's reason and the layer map"
    )
    parser.add_argument("--pin", action="store_true", help="rewrite digests.json for the pinned seeds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.describe:
        return describe()
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    if args.repeat:
        return run_repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
