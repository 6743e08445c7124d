"""Unit tests for repro.telemetry: metrics registry, spans, deep-mode gate.

The registry tests use private :class:`MetricsRegistry` instances so they
never touch the process-global one; the tracing tests install callable
sinks and always restore the module state via the autouse fixture.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.core.ldd_bfs import partition_bfs
from repro.graphs.generators import grid_2d
from repro.telemetry import trace
from repro.telemetry.metrics import (
    COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    merge_snapshots,
    render_prometheus,
    series_key,
    split_series_key,
)


@pytest.fixture(autouse=True)
def _restore_telemetry_state():
    was_enabled = telemetry.enabled()
    yield
    telemetry.set_enabled(was_enabled)
    trace.disable_tracing()


# ---------------------------------------------------------------------------
# series keys
# ---------------------------------------------------------------------------
class TestSeriesKey:
    def test_no_labels_is_bare_name(self):
        assert series_key("repro_requests_total", None) == "repro_requests_total"
        assert series_key("repro_requests_total", {}) == "repro_requests_total"

    def test_single_label(self):
        assert series_key("m", {"op": "decompose"}) == 'm{op="decompose"}'

    def test_multiple_labels_sorted(self):
        key = series_key("m", {"z": "1", "a": "2"})
        assert key == 'm{a="2",z="1"}'

    def test_split_round_trip(self):
        key = series_key("m", {"a": "2", "z": "1"})
        base, body = split_series_key(key)
        assert base == "m"
        assert body == 'a="2",z="1"'
        assert split_series_key("bare") == ("bare", "")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("reqs")
        reg.counter("reqs", 2.0)
        reg.counter("reqs", op="a")
        snap = reg.snapshot()
        assert snap["counters"]["reqs"] == 3.0
        assert snap["counters"]['reqs{op="a"}'] == 1.0

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("inflight", 3)
        reg.gauge("inflight", 1)
        assert reg.snapshot()["gauges"]["inflight"] == 1.0

    def test_histogram_le_bucket_semantics(self):
        # Buckets are upper bounds: a value equal to an edge lands in
        # that edge's bucket; past the last edge is the +Inf slot.
        reg = MetricsRegistry()
        edges = (1.0, 2.0, 4.0)
        for value in (0.5, 1.0, 1.5, 4.0, 5.0):
            reg.observe("h", value, buckets=edges)
        hist = reg.snapshot()["histograms"]["h"]
        assert hist["buckets"] == [1.0, 2.0, 4.0]
        assert hist["counts"] == [2, 1, 1, 1]
        assert hist["count"] == 5
        assert hist["sum"] == pytest.approx(12.0)

    def test_histogram_edges_fixed_by_first_observation(self):
        reg = MetricsRegistry()
        reg.observe("h", 0.5, buckets=(1.0, 2.0))
        reg.observe("h", 0.5, buckets=COUNT_BUCKETS)  # ignored
        hist = reg.snapshot()["histograms"]["h"]
        assert hist["buckets"] == [1.0, 2.0]
        assert hist["count"] == 2

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.counter("c")
        reg.observe("h", 0.1)
        snap = reg.snapshot()
        snap["counters"]["c"] = 99.0
        snap["histograms"]["h"]["counts"][0] = 99
        fresh = reg.snapshot()
        assert fresh["counters"]["c"] == 1.0
        assert 99 not in fresh["histograms"]["h"]["counts"]

    def test_merge_sums_everything(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg in (a, b):
            reg.counter("c", 2.0)
            reg.gauge("g", 3.0)
            reg.observe("h", 0.002)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["c"] == 4.0
        assert merged["gauges"]["g"] == 6.0  # occupancy gauges sum
        assert merged["histograms"]["h"]["count"] == 2
        assert merged["histograms"]["h"]["sum"] == pytest.approx(0.004)

    def test_merge_refuses_mismatched_edges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 0.5, buckets=(1.0, 2.0))
        b.observe("h", 0.5, buckets=(1.0, 3.0))
        with pytest.raises(ValueError, match="bucket edges differ"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_reset_drops_all_series(self):
        reg = MetricsRegistry()
        reg.counter("c")
        reg.gauge("g", 1)
        reg.observe("h", 0.1)
        reg.reset()
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_default_latency_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert list(COUNT_BUCKETS) == sorted(COUNT_BUCKETS)


class TestRenderPrometheus:
    def test_counter_gauge_histogram_exposition(self):
        reg = MetricsRegistry()
        reg.counter("reqs", 3, op="d")
        reg.gauge("inflight", 2)
        reg.observe("lat", 1.5, buckets=(1.0, 2.0), op="d")
        text = render_prometheus(reg.snapshot())
        assert "# TYPE reqs counter\n" in text
        assert 'reqs{op="d"} 3\n' in text
        assert "# TYPE inflight gauge\n" in text
        assert "# TYPE lat histogram\n" in text
        # Bucket counts are cumulative, with a trailing +Inf.
        assert 'lat_bucket{op="d",le="1"} 0\n' in text
        assert 'lat_bucket{op="d",le="2"} 1\n' in text
        assert 'lat_bucket{op="d",le="+Inf"} 1\n' in text
        assert 'lat_sum{op="d"} 1.5\n' in text
        assert 'lat_count{op="d"} 1\n' in text

    def test_unlabelled_histogram_gets_bare_le_labels(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.5, buckets=(1.0,))
        text = render_prometheus(reg.snapshot())
        assert 'lat_bucket{le="1"} 1\n' in text
        assert "lat_sum 0.5\n" in text


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
class TestSpans:
    def test_inactive_span_is_noop(self):
        assert not trace.tracing_active()
        with trace.span("anything", k=1) as live:
            assert live.span_id is None
            live.annotate(extra=2)  # must not raise or record
            assert live.context() is None
            assert trace.current_context() is None

    def test_collect_spans_builds_parent_links(self):
        with trace.collect_spans() as spans:
            with trace.span("outer", depth=0) as outer:
                with trace.span("inner") as inner:
                    inner.annotate(found=True)
                assert outer.context() == trace.current_context()
        assert [record["name"] for record in spans] == ["inner", "outer"]
        inner_rec, outer_rec = spans
        assert inner_rec["trace_id"] == outer_rec["trace_id"]
        assert inner_rec["parent_id"] == outer_rec["span_id"]
        assert outer_rec["parent_id"] is None
        assert outer_rec["attrs"] == {"depth": 0}
        assert inner_rec["attrs"] == {"found": True}
        assert inner_rec["dur_ms"] >= 0.0
        assert isinstance(inner_rec["pid"], int)

    def test_adopt_context_parents_remote_spans(self):
        with trace.collect_spans() as spans:
            with trace.adopt_context("cafe" * 8, "beef" * 4):
                with trace.span("server.decompose"):
                    pass
        (record,) = spans
        assert record["trace_id"] == "cafe" * 8
        assert record["parent_id"] == "beef" * 4

    def test_collector_takes_precedence_over_sink(self):
        sunk: list[dict] = []
        trace.enable_tracing(sunk.append)
        with trace.collect_spans() as collected:
            with trace.span("remote"):
                pass
        assert [r["name"] for r in collected] == ["remote"]
        assert sunk == []  # no double-recording on loopback
        with trace.span("local"):
            pass
        assert [r["name"] for r in sunk] == ["local"]

    def test_emit_spans_reemits_remote_records(self):
        sunk: list[dict] = []
        trace.enable_tracing(sunk.append)
        trace.emit_spans([
            {"span_id": "a", "name": "remote"},
            "junk",  # non-dict entries are skipped
        ])
        assert [r["name"] for r in sunk] == ["remote"]

    def test_file_sink_round_trips_through_read_spans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace.enable_tracing(str(path))
        with trace.span("op", key="value"):
            pass
        trace.disable_tracing()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write(json.dumps({"no": "span ids here"}) + "\n")
        spans = trace.read_spans(path)
        assert [r["name"] for r in spans] == ["op"]
        assert spans[0]["attrs"] == {"key": "value"}

    def test_format_trace_tree_nests_and_orders(self):
        spans = [
            {"trace_id": "t1", "span_id": "s1", "parent_id": None,
             "name": "client.decompose", "ts": 1.0, "dur_ms": 5.0,
             "pid": 1, "attrs": {}},
            {"trace_id": "t1", "span_id": "s2", "parent_id": "s1",
             "name": "server.decompose", "ts": 2.0, "dur_ms": 3.0,
             "pid": 2, "attrs": {"op": "decompose"}},
            {"trace_id": "t1", "span_id": "s3", "parent_id": "missing",
             "name": "orphan", "ts": 3.0, "dur_ms": 1.0, "pid": 3,
             "attrs": {}},
        ]
        text = trace.format_trace_tree(spans)
        assert "trace t1" in text
        assert "(3 span(s)" in text
        # The child is indented under its parent; the orphan is a root.
        client_line, server_line = (
            line for line in text.splitlines()
            if "client.decompose" in line or "server.decompose" in line
        )
        assert client_line.index("client") < server_line.index("server")
        assert "op=decompose" in server_line
        assert any(
            line.startswith(("├─", "└─")) and "orphan" in line
            for line in text.splitlines()
        )

    def test_ids_look_random(self):
        assert trace.new_trace_id() != trace.new_trace_id()
        assert len(trace.new_trace_id()) == 32
        assert len(trace.new_span_id()) == 16


# ---------------------------------------------------------------------------
# the deep-instrumentation gate
# ---------------------------------------------------------------------------
class TestEnabledGate:
    def test_set_enabled_round_trip(self):
        telemetry.set_enabled(True)
        assert telemetry.enabled()
        telemetry.set_enabled(False)
        assert not telemetry.enabled()

    def test_phase_timing_gated_off(self):
        telemetry.set_enabled(False)
        _, result_trace = partition_bfs(grid_2d(6, 6), 0.4, seed=3)
        assert "phases" not in result_trace.extra

    def test_phase_timing_gated_on(self):
        telemetry.set_enabled(True)
        _, result_trace = partition_bfs(grid_2d(6, 6), 0.4, seed=3)
        phases = result_trace.extra["phases"]
        # Unit-suffix-free names are the phase_seconds key contract.
        assert set(phases) == {"shifts", "setup", "gather", "resolve"}
        assert all(seconds >= 0.0 for seconds in phases.values())

    def test_gate_does_not_change_assignments(self):
        telemetry.set_enabled(False)
        off, _ = partition_bfs(grid_2d(6, 6), 0.4, seed=3)
        telemetry.set_enabled(True)
        on, _ = partition_bfs(grid_2d(6, 6), 0.4, seed=3)
        assert (off.center == on.center).all()
        assert (off.hops == on.hops).all()
