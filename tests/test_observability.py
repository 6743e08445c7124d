"""End-to-end observability tests: trace trees, the metrics op, slow logs.

The acceptance bar (ISSUE 8): one decompose through the serve stack with
tracing on yields a *single* trace — client root span, router relay span,
shard server span, pool worker span, and the BFS phase spans all sharing
one trace_id — and the ``metrics`` op returns merged histograms from every
shard.  These tests run the real loopback topologies (serve_background /
cluster_background) with real worker processes.

In-process loopback means every shard shares this process's global metric
registry, so metric assertions check presence, never exact counts.
"""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro.cluster import cluster_background
from repro.graphs.generators import grid_2d
from repro.serve import ServeClient, serve_background
from repro.telemetry import trace

GRAPH = grid_2d(8, 8)


@pytest.fixture(autouse=True)
def _restore_tracing():
    yield
    trace.disable_tracing()


@pytest.fixture(scope="module")
def loopback():
    with serve_background(max_workers=1) as server:
        with ServeClient(*server.address) as client:
            digest = client.upload(GRAPH)
            yield server, client, digest


@pytest.fixture(scope="module")
def cluster():
    with cluster_background(num_shards=2, max_workers=1) as router:
        with ServeClient(*router.address) as client:
            digest = client.upload(GRAPH)
            yield router, client, digest


def _by_name(spans):
    index: dict[str, dict] = {}
    for record in spans:
        index.setdefault(record["name"], record)
    return index


# ---------------------------------------------------------------------------
# single-server loopback
# ---------------------------------------------------------------------------
class TestServeTracing:
    def test_decompose_produces_one_cross_process_tree(self, loopback):
        _, client, digest = loopback
        spans: list[dict] = []
        trace.enable_tracing(spans.append)
        client.decompose(digest, 0.3, seed=41)
        trace.disable_tracing()

        names = _by_name(spans)
        for expected in (
            "client.decompose", "server.decompose", "pool.execute",
            "bfs.shifts", "bfs.expand",
        ):
            assert expected in names, f"missing span {expected}: {names.keys()}"

        # One trace end to end.
        assert len({record["trace_id"] for record in spans}) == 1
        # Parent links encode the hop order.
        client_span = names["client.decompose"]
        server_span = names["server.decompose"]
        pool_span = names["pool.execute"]
        assert client_span["parent_id"] is None
        assert server_span["parent_id"] == client_span["span_id"]
        assert pool_span["parent_id"] == server_span["span_id"]
        assert names["bfs.shifts"]["parent_id"] == pool_span["span_id"]
        assert names["bfs.expand"]["parent_id"] == pool_span["span_id"]
        # The pool span really ran in the worker process.
        assert pool_span["pid"] != os.getpid()
        assert client_span["pid"] == os.getpid()
        # And the whole thing pretty-prints as a single tree.
        text = trace.format_trace_tree(spans)
        assert text.count("trace ") == 1
        assert "pool.execute" in text

    def test_upload_layers_are_spans_under_the_server_span(self, loopback):
        _, client, _ = loopback
        text = "4 3\n0 1\n1 2\n2 3\n"
        spans: list[dict] = []
        trace.enable_tracing(spans.append)
        reply = client.upload_text(text, "edges")
        trace.disable_tracing()

        assert reply["num_edges"] == 3
        names = _by_name(spans)
        server_span = names["server.upload"]
        for layer in ("graphs.parse", "graphs.digest", "runtime.register"):
            assert layer in names, f"missing span {layer}: {names.keys()}"
            assert names[layer]["parent_id"] == server_span["span_id"]
        assert len({record["trace_id"] for record in spans}) == 1

    def test_no_tracing_no_spans_header(self, loopback):
        _, client, digest = loopback
        response = client.decompose(digest, 0.3, seed=42)
        # The slim result object exists and tracing never activated.
        assert response.result_digest
        assert not trace.tracing_active()

    def test_metrics_op_exposes_request_series(self, loopback):
        _, client, digest = loopback
        client.decompose(digest, 0.3, seed=43)
        doc = client.metrics()
        assert doc["ok"]
        assert doc["processes"] >= 1
        counters = doc["metrics"]["counters"]
        assert any(
            key.startswith("repro_requests_total") for key in counters
        )
        histograms = doc["metrics"]["histograms"]
        assert any(
            key.startswith("repro_request_seconds") for key in histograms
        )
        assert "# TYPE repro_requests_total counter" in doc["text"]
        assert "text" not in client.metrics(text=False)

    def test_app_op_is_one_traced_pool_task(self, loopback):
        server, client, digest = loopback
        doc = client.stats()
        # No application provider runs server-side any more.
        assert "app_provider" not in doc
        submitted = doc["pool"]["submitted"]
        spans: list[dict] = []
        trace.enable_tracing(spans.append)
        try:
            client.hierarchy(digest, seed=91)
        finally:
            trace.disable_tracing()
        assert client.stats()["pool"]["submitted"] == submitted + 1
        # The worker's spans ship home, with the level kernel's spans
        # under its pool.execute span.
        names = {record["name"] for record in spans}
        assert {
            "server.hierarchy", "pool.execute", "pipeline.level",
            "pipeline.level_shifts",
        } <= names, names
        assert len({record["trace_id"] for record in spans}) == 1
        # Each level's digest-and-draw phase is its own span, counting
        # the pieces it drew for and the distinct draws it made.
        draws = [r for r in spans if r["name"] == "pipeline.level_shifts"]
        levels = [r for r in spans if r["name"] == "pipeline.level"]
        assert len(draws) == len(levels)
        for draw, level in zip(draws, levels):
            pieces = draw["attrs"]["pieces"]
            distinct = draw["attrs"]["distinct"]
            assert min(1, pieces) <= distinct <= pieces
            assert pieces == level["attrs"]["pieces"]


class TestSlowRequestLog:
    def test_slow_request_emits_structured_warning(self, caplog):
        with serve_background(max_workers=1, slow_request_ms=0.0) as server:
            with ServeClient(*server.address) as client:
                digest = client.upload(GRAPH)
                with caplog.at_level(
                    logging.WARNING, logger="repro.serve.server"
                ):
                    client.decompose(digest, 0.3, seed=44)
        slow = [
            record for record in caplog.records
            if record.name == "repro.serve.server"
            and "slow request" in record.getMessage()
        ]
        assert slow, "no slow-request warning was logged"
        payload = json.loads(slow[-1].getMessage().split("slow request: ")[1])
        assert payload["op"] == "decompose"
        assert payload["elapsed_ms"] >= 0.0
        assert payload["threshold_ms"] == 0.0
        assert payload["ok"] is True


# ---------------------------------------------------------------------------
# two-shard cluster
# ---------------------------------------------------------------------------
class TestClusterObservability:
    def test_trace_crosses_the_router(self, cluster):
        router, client, digest = cluster
        spans: list[dict] = []
        trace.enable_tracing(spans.append)
        client.decompose(digest, 0.3, seed=45)
        trace.disable_tracing()

        names = _by_name(spans)
        for expected in (
            "client.decompose", "router.relay", "server.decompose",
            "pool.execute", "bfs.shifts", "bfs.expand",
        ):
            assert expected in names, f"missing span {expected}: {names.keys()}"
        assert len({record["trace_id"] for record in spans}) == 1
        # The relay span re-parents the shard: client -> relay -> server.
        client_span = names["client.decompose"]
        relay_span = names["router.relay"]
        server_span = names["server.decompose"]
        assert relay_span["parent_id"] == client_span["span_id"]
        assert server_span["parent_id"] == relay_span["span_id"]
        assert relay_span["attrs"]["shard"] in router.shard_labels
        assert relay_span["attrs"]["plane"] in ("relay", "task")

    def test_router_parses_an_upload_inside_its_span(self, cluster):
        _, client, _ = cluster
        spans: list[dict] = []
        trace.enable_tracing(spans.append)
        client.upload_text("3 2\n0 1\n1 2\n", "edges")
        trace.disable_tracing()

        router_span = _by_name(spans)["router.upload"]
        parsed = [s for s in spans if s["name"] == "graphs.parse"]
        assert [s["parent_id"] for s in parsed] == [router_span["span_id"]]

    def test_metrics_fan_out_merges_all_shards(self, cluster):
        router, client, digest = cluster
        client.decompose(digest, 0.3, seed=46)
        doc = client.metrics()
        assert doc["ok"]
        # Router process + one per shard (loopback threads still count
        # their own worker processes).
        assert doc["processes"] >= 3
        assert set(doc["shards"]) == set(router.shard_labels)
        assert all(entry["ok"] for entry in doc["shards"].values())
        merged = doc["metrics"]
        assert any(
            key.startswith("repro_requests_total")
            for key in merged["counters"]
        )
        # The router contributed its own relay latency series.
        assert any(
            key.startswith("repro_relay_seconds")
            for key in merged["histograms"]
        )
        assert "repro_relay_seconds_bucket" in doc["text"]
