"""Per-layer metrics: the layer -> end-to-end map and the traced replay.

A layer is a module of ``src/repro``.  The traced run replays a sample of
the workload's own inputs through each layer's public functions from this
file, with :func:`repro.telemetry.trace.span` around every call, and keeps
the span records in memory until the run ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean

import numpy as np

import repro
from repro.embeddings.hierarchy import hierarchical_decomposition
from repro.graphs.io import parse_graph
from repro.graphs.ops import induced_subgraph
from repro.pipeline import PoolProvider
from repro.serve.protocol import decode_frame_payload, encode_frame
from repro.serve.server import APP_INLINE_CUTOFF
from repro.serve.store import graph_digest
from repro.telemetry import trace

from stats import median, self_times


@dataclass(frozen=True)
class Layer:
    """One per-layer metric: what it times and which e2e metric it moves."""

    unit: str
    better: str
    source: str
    #: workload -> end-to-end metrics this layer should move there; on
    #: every other workload the prediction is no change.
    moves: dict


_COLD, _WARM, _INGEST, _APP = (
    "cold-decompose", "warm-under-cold", "ingest-then-decompose",
    "app-hierarchy",
)
_BFS_MOVES = {
    _COLD: ["latency_p50_ms", "throughput_ops_s", "server_cpu_ms_per_op"],
    _INGEST: ["latency_p50_ms"],
    _APP: ["latency_p50_ms"],
}

LAYERS: dict[str, Layer] = {
    "graphs.parse_ms": Layer(
        "ms", "lower", "graphs.io.parse_graph",
        {_INGEST: ["latency_p50_ms", "throughput_ops_s"]}),
    "graphs.digest_ms": Layer(
        "ms", "lower", "serve.store.graph_digest",
        {_INGEST: ["latency_p50_ms", "throughput_ops_s"]}),
    "runtime.register_ms": Layer(
        "ms", "lower", "runtime.pool.DecompositionPool.register_graph",
        {_INGEST: ["latency_p50_ms"]}),
    "runtime.submit_ms": Layer(
        "ms", "lower", "DecompositionPool.submit until it returns",
        {_WARM: ["latency_tail_ms"], _COLD: ["latency_p50_ms"]}),
    "runtime.roundtrip_ms": Layer(
        "ms", "lower", "DecompositionPool.submit to result",
        {_COLD: ["latency_p50_ms"]}),
    "runtime.overhead_ms": Layer(
        "ms", "lower", "roundtrip minus the worker's trace.wall_time_s",
        {_COLD: ["latency_p50_ms"]}),
    "core.decompose_ms": Layer(
        "ms", "lower", "repro.decompose", _BFS_MOVES),
    "core.shifts_ms": Layer(
        "ms", "lower", "repro.decompose deep-mode phase 'shifts'",
        _BFS_MOVES),
    "bfs.gather_ms": Layer(
        "ms", "lower", "repro.decompose deep-mode phase 'gather'",
        _BFS_MOVES),
    "bfs.resolve_ms": Layer(
        "ms", "lower", "repro.decompose deep-mode phase 'resolve'",
        _BFS_MOVES),
    "core.rounds": Layer(
        "count", "lower", "PartitionTrace.rounds", _BFS_MOVES),
    "core.work": Layer(
        "count", "lower", "PartitionTrace.work", _BFS_MOVES),
    "core.summary_ms": Layer(
        "ms", "lower", "PartitionResult.summary",
        {_WARM: ["latency_tail_ms"], _COLD: ["latency_p50_ms"]}),
    "serve.encode_ms": Layer(
        "ms", "lower", "serve.protocol.encode_frame of the response",
        {_WARM: ["latency_p50_ms"]}),
    "serve.decode_ms": Layer(
        "ms", "lower", "serve.protocol.decode_frame_payload of the response",
        {_WARM: ["latency_p50_ms"]}),
    "serve.response_bytes": Layer(
        "bytes", "lower", "length of the response frame body",
        {_WARM: ["latency_p50_ms"]}),
    "serve.server_exec_ms": Layer(
        "ms", "lower",
        "metrics op: repro_pool_execution_seconds (hierarchy: "
        "repro_request_seconds of the op)",
        {_COLD: ["latency_p50_ms"]}),
    "serve.pool_executions_per_op": Layer(
        "count", "lower", "stats op: pool submitted per operation",
        {_COLD: ["latency_p50_ms"]}),
    "serve.cache_hit_ratio": Layer(
        "ratio", "higher", "stats op: cache hits / lookups",
        {_WARM: ["latency_p50_ms"]}),
    "serve.unattributed_ms": Layer(
        "ms", "lower", "traced e2e p50 minus the blocking layers' medians",
        {_COLD: ["latency_p50_ms"]}),
    "pipeline.batch_ms": Layer(
        "ms", "lower", "pipeline DecompositionProvider.decompose_batch",
        {_APP: ["latency_p50_ms"]}),
    "pipeline.batches_per_op": Layer(
        "count", "lower", "decompose_batch calls per hierarchy",
        {_APP: ["latency_p50_ms"]}),
    "embeddings.self_ms": Layer(
        "ms", "lower", "hierarchical_decomposition minus pipeline.batch_ms",
        {_APP: ["latency_p50_ms"]}),
    "embeddings.levels": Layer(
        "count", "lower", "Hierarchy.num_levels",
        {_APP: ["latency_p50_ms"]}),
    "client.send_lag_ms": Layer(
        "ms", "lower",
        "p99 of send minus due (open loop) or previous completion",
        {_WARM: ["latency_tail_ms"]}),
    "trace.overhead_ratio": Layer(
        "ratio", "lower", "traced e2e p50 / untraced e2e p50", {}),
}

#: In-process samples of the workload's inputs per traced run.
REPLAYS = 5

#: Hierarchies the replay builds; a larger graph is cut down to its first
#: HIERARCHY_PROBE_N vertices (the app-hierarchy graph's size) and built once.
HIERARCHY_REPLAYS = 3
HIERARCHY_PROBE_N = 4900


class TimedProvider(PoolProvider):
    """The server's application provider with each batch in a span."""

    def decompose_batch(self, requests, *, max_concurrent=None):
        with trace.span("pipeline.batch"):
            return super().decompose_batch(
                requests, max_concurrent=max_concurrent
            )


def hierarchy_top_beta(n: int) -> float:
    """β of the first refinement of ``hierarchical_decomposition`` (the
    only level that decomposes the whole graph) with default arguments."""
    levels = max(1, int(math.ceil(math.log2(max(n, 2)))))
    return min(0.9, math.log(max(n, 2)) / 2 ** (levels - 1))


def replay(workload, inp, pool, response_body: bytes) -> None:
    """Time each layer's public calls on the workload's inputs, in spans
    delivered to the caller's trace sink."""
    beta = workload.beta or hierarchy_top_beta(inp.graphs[0].num_vertices)
    for k in range(REPLAYS):
        g = k % len(inp.graphs)
        seed = inp.seeds[k]
        with trace.span("graphs.parse"):
            graph = parse_graph(inp.texts[g], "edges")
        with trace.span("graphs.digest"):
            graph_digest(graph)
        key = f"perfbench-{k}"
        with trace.span("runtime.register"):
            pool.register_graph(key, graph)
        try:
            with trace.span("runtime.roundtrip") as span:
                with trace.span("runtime.submit"):
                    future = pool.submit(key, beta, seed=seed)
                result = future.result()
                span.annotate(worker_ms=result.trace.wall_time_s * 1e3)
        finally:
            pool.unregister_graph(key)
        with trace.span("core.decompose") as span:
            result = repro.decompose(graph, beta, seed=seed)
            phases = result.trace.extra.get("phases", {})
            span.annotate(
                shifts_ms=phases.get("shifts", 0.0) * 1e3,
                gather_ms=phases.get("gather", 0.0) * 1e3,
                resolve_ms=phases.get("resolve", 0.0) * 1e3,
                rounds=result.trace.rounds,
                work=result.trace.work,
            )
        with trace.span("core.summary"):
            result.summary()
        with trace.span("serve.decode"):
            message = decode_frame_payload(response_body)
        with trace.span("serve.encode"):
            encode_frame(message, 2)

    graph, runs = inp.graphs[0], HIERARCHY_REPLAYS
    if graph.num_vertices > HIERARCHY_PROBE_N:
        graph = induced_subgraph(graph, np.arange(HIERARCHY_PROBE_N)).graph
        runs = 1
    with TimedProvider(pool, inline_cutoff=APP_INLINE_CUTOFF) as provider:
        for k in range(runs):
            with trace.span("embeddings.hierarchy") as span:
                h = hierarchical_decomposition(
                    graph, seed=inp.seeds[k], provider=provider
                )
                span.annotate(levels=h.num_levels)


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Medians over the replay's span records, per layer metric."""
    by_name: dict[str, list[dict]] = {}
    for record in records:
        by_name.setdefault(record["name"], []).append(record)

    def dur(name):
        return median(r["dur_ms"] for r in by_name[name])

    def attr(name, key, reduce=median):
        return reduce([float(r["attrs"][key]) for r in by_name[name]])

    selfs = self_times(records)
    hierarchies = by_name["embeddings.hierarchy"]
    batches = by_name.get("pipeline.batch", [])
    per_hierarchy = [
        sum(b["dur_ms"] for b in batches if b["parent_id"] == h["span_id"])
        for h in hierarchies
    ]
    return {
        "graphs.parse_ms": dur("graphs.parse"),
        "graphs.digest_ms": dur("graphs.digest"),
        "runtime.register_ms": dur("runtime.register"),
        "runtime.submit_ms": dur("runtime.submit"),
        "runtime.roundtrip_ms": dur("runtime.roundtrip"),
        "runtime.overhead_ms": median(
            r["dur_ms"] - r["attrs"]["worker_ms"]
            for r in by_name["runtime.roundtrip"]
        ),
        "core.decompose_ms": dur("core.decompose"),
        "core.shifts_ms": attr("core.decompose", "shifts_ms"),
        "bfs.gather_ms": attr("core.decompose", "gather_ms"),
        "bfs.resolve_ms": attr("core.decompose", "resolve_ms"),
        "core.rounds": attr("core.decompose", "rounds", fmean),
        "core.work": attr("core.decompose", "work", fmean),
        "core.summary_ms": dur("core.summary"),
        "serve.encode_ms": dur("serve.encode"),
        "serve.decode_ms": dur("serve.decode"),
        "pipeline.batch_ms": median(per_hierarchy),
        "pipeline.batches_per_op": len(batches) / len(hierarchies),
        "embeddings.self_ms": median(
            selfs[h["span_id"]] for h in hierarchies
        ),
        "embeddings.levels": attr("embeddings.hierarchy", "levels", fmean),
    }
