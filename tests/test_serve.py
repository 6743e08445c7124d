"""Tests for the decomposition service (repro.serve).

The end-to-end class is the PR's acceptance test: one server, one upload,
32+ concurrent mixed requests with duplicates — every response bit-identical
to serial ``decompose()``, duplicates coalesced/memoized down to one pool
execution per unique configuration, counters consistent.
"""

from __future__ import annotations

import hashlib
import socket
import struct
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.core.decomposition
import repro.graphs.ops
from repro.core.engine import decompose
from repro.core.registry import method_names
from repro.errors import ParameterError, ServeError
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi, grid_2d, path_graph
from repro.graphs.io import to_json, write_edge_list, write_metis
from repro.graphs.weighted import WeightedCSRGraph, weights_by_name
from repro.runtime import DecompositionPool
from repro.serve import (
    ResultCache,
    ServeClient,
    canonical_cache_key,
    decode_array,
    encode_array,
    graph_digest,
    serve_background,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    V2_MAGIC,
    as_array,
    compact_arrays,
    decode_frame_body,
    decode_frame_payload,
    encode_frame,
    frame_protocol,
    parse_frame_length,
)
from repro.serve.store import GraphStore


def serial_digest(graph, beta, *, method="auto", seed=0, **options) -> str:
    """SHA-256 of a serial decomposition's arrays — the ground truth the
    served results are compared against (same hash as ServeResult)."""
    result = decompose(graph, beta, method=method, seed=seed, **options)
    decomposition = result.decomposition
    per_vertex = (
        decomposition.radius
        if isinstance(graph, WeightedCSRGraph)
        else decomposition.hops
    )
    sha = hashlib.sha256()
    sha.update(np.ascontiguousarray(decomposition.center).tobytes())
    sha.update(np.ascontiguousarray(per_vertex).tobytes())
    return sha.hexdigest()


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        message = {"op": "hello", "nested": {"x": [1, 2.5, "s", None, True]}}
        frame = encode_frame(message)
        length = parse_frame_length(frame[:4])
        assert length == len(frame) - 4
        assert decode_frame_body(frame[4:]) == message

    def test_oversized_announcement_rejected(self):
        header = struct.pack(">I", 2**31)
        with pytest.raises(ServeError, match="exceeding"):
            parse_frame_length(header)

    def test_malformed_body_rejected(self):
        with pytest.raises(ServeError, match="malformed frame"):
            decode_frame_body(b"{not json")
        with pytest.raises(ServeError, match="JSON object"):
            decode_frame_body(b"[1, 2]")

    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(17, dtype=np.int64),
            np.linspace(0, 1, 9, dtype=np.float64),
            np.zeros(0, dtype=np.int64),
        ],
    )
    def test_array_codec_bit_exact(self, arr):
        decoded = decode_array(encode_array(arr))
        assert decoded.dtype == arr.dtype.newbyteorder("<")
        np.testing.assert_array_equal(decoded, arr)
        assert decoded.tobytes() == np.ascontiguousarray(arr).tobytes()

    def test_malformed_array_payload(self):
        with pytest.raises(ServeError, match="malformed array"):
            decode_array({"dtype": "<i8", "shape": [2]})  # no data

    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(17, dtype=np.int64),
            np.linspace(0, 1, 9, dtype=np.float64),
            np.zeros(0, dtype=np.int64),          # empty array
            np.zeros((0, 2), dtype=np.int64),     # empty 2-D array
            np.arange(40, dtype=np.int64)[::2],   # non-contiguous stride
            np.arange(12, dtype=np.int32).reshape(3, 4).T,  # transposed
        ],
    )
    def test_v2_frame_round_trip_bit_exact(self, arr):
        message = {"op": "x", "nested": {"arr": arr}, "stack": [arr], "n": 7}
        frame = encode_frame(message, 2)
        body = frame[4:]
        assert frame_protocol(body) == 2
        assert body[:4] == V2_MAGIC
        decoded = decode_frame_payload(body)
        assert decoded["n"] == 7
        for got in (decoded["nested"]["arr"], decoded["stack"][0]):
            assert got.dtype == arr.dtype.newbyteorder("<")
            assert got.shape == arr.shape
            np.testing.assert_array_equal(got, arr)
            assert got.tobytes() == np.ascontiguousarray(arr).tobytes()

    def test_v2_arrays_are_zero_copy_views(self):
        arr = np.arange(32, dtype=np.int64)
        body = encode_frame({"a": arr}, 2)[4:]
        view = decode_frame_payload(body)["a"]
        # The view aliases the frame body (no copy), hence is read-only.
        assert view.base is not None
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 99

    def test_v1_bodies_sniffed_and_arrays_left_encoded(self):
        body = encode_frame({"a": np.arange(3, dtype=np.int64)}, 1)[4:]
        assert frame_protocol(body) == 1
        decoded = decode_frame_payload(body)
        assert isinstance(decoded["a"], dict)  # base64 object, not ndarray
        np.testing.assert_array_equal(
            as_array(decoded["a"]), np.arange(3)
        )

    def test_encode_array_non_contiguous_input(self):
        arr = np.arange(30, dtype=np.int64)[::3]
        decoded = decode_array(encode_array(arr))
        np.testing.assert_array_equal(decoded, arr)

    def test_unknown_protocol_generation_rejected(self):
        with pytest.raises(ServeError, match="unknown protocol"):
            encode_frame({"op": "hello"}, 3)

    def test_oversize_frame_fails_fast_both_codecs(self, monkeypatch):
        import repro.serve.protocol as protocol

        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        big = {"op": "upload", "payload": "x" * 256}
        for generation in (1, 2):
            with pytest.raises(ServeError, match="exceeds the protocol"):
                encode_frame(big, generation)
        # The receive side enforces the same bound on the announcement.
        with pytest.raises(ServeError, match="exceeding"):
            parse_frame_length(struct.pack(">I", 65))

    def test_malformed_v2_frames_rejected(self):
        with pytest.raises(ServeError, match="truncated v2 frame"):
            decode_frame_payload(V2_MAGIC + b"\x00")
        with pytest.raises(ServeError, match="header length"):
            decode_frame_payload(V2_MAGIC + struct.pack(">I", 999) + b"{}")
        # A descriptor pointing outside the tail must not be dereferenced.
        frame = encode_frame({"a": np.arange(4, dtype=np.int64)}, 2)
        body = bytearray(frame[4:])
        tampered = body.replace(b'"__nd__":[0,32]', b'"__nd__":[0,99]')
        with pytest.raises(ServeError, match="malformed array"):
            decode_frame_payload(bytes(tampered))

    def test_compact_arrays_downcasts_transport_only(self):
        arrays = {
            "small": np.arange(100, dtype=np.int64),
            "wide": np.array([0, 2**40], dtype=np.int64),
            "weights": np.linspace(0.5, 2.0, 8, dtype=np.float64),
        }
        compact = compact_arrays(arrays)
        assert compact["small"].dtype == np.int16
        assert compact["wide"].dtype == np.int64  # does not fit narrower
        assert compact["weights"].dtype == np.float64  # floats untouched
        np.testing.assert_array_equal(compact["small"], arrays["small"])

    def test_cache_key_canonicalisation(self):
        a = canonical_cache_key("d", 0.2, "bfs", 3, {"x": 1, "y": 2})
        b = canonical_cache_key("d", 0.2, "bfs", 3, {"y": 2, "x": 1})
        assert a == b
        assert a != canonical_cache_key("d", 0.2, "bfs", 4, {"x": 1, "y": 2})
        assert a != canonical_cache_key(
            "d", 0.2, "bfs", 3, {"x": 1, "y": 2}, validate=True
        )


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------
class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(1000)
        assert cache.get("k") is None
        assert cache.put("k", "value", 10)
        assert cache.get("k") == "value"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["bytes"] == 10

    def test_lru_eviction_by_bytes(self):
        cache = ResultCache(100)
        cache.put("a", "A", 40)
        cache.put("b", "B", 40)
        assert cache.get("a") == "A"  # refresh a: b is now LRU
        cache.put("c", "C", 40)  # must evict b
        assert cache.get("b") is None
        assert cache.get("a") == "A" and cache.get("c") == "C"
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["bytes"] <= 100

    def test_oversize_rejected_not_flushed(self):
        cache = ResultCache(50)
        cache.put("small", "s", 10)
        assert not cache.put("big", "B", 51)
        assert cache.get("small") == "s"  # survived
        assert cache.stats()["oversize"] == 1

    def test_replace_same_key_adjusts_bytes(self):
        cache = ResultCache(100)
        cache.put("k", "v1", 60)
        cache.put("k", "v2", 30)
        assert cache.stats()["bytes"] == 30
        assert cache.get("k") == "v2"

    def test_clear_keeps_counters(self):
        cache = ResultCache(100)
        cache.put("k", "v", 10)
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1

    def test_rejects_negative_budget(self):
        with pytest.raises(ParameterError, match="max_bytes"):
            ResultCache(-1)


# ---------------------------------------------------------------------------
# graph store
# ---------------------------------------------------------------------------
class TestGraphStore:
    def test_digest_is_content_addressed(self):
        a = grid_2d(5, 5)
        b = grid_2d(5, 5)
        assert graph_digest(a) == graph_digest(b)
        assert graph_digest(a) != graph_digest(grid_2d(5, 6))

    def test_weighted_topology_gets_distinct_digest(self):
        g = grid_2d(4, 4)
        w = weights_by_name(g, "unit:1.0")
        assert graph_digest(g) != graph_digest(w)
        w2 = weights_by_name(g, "unit:2.0")
        assert graph_digest(w) != graph_digest(w2)

    def test_put_dedups_and_registers_once(self):
        with DecompositionPool(max_workers=1) as pool:
            store = GraphStore(pool)
            g = grid_2d(6, 6)
            digest, known = store.put(g)
            assert not known
            digest2, known2 = store.put(grid_2d(6, 6))
            assert digest2 == digest and known2
            assert pool.graph_keys == (digest,)
            assert store.get(digest) is g
            assert digest in store and len(store) == 1
            stats = store.stats()
            assert stats["uploads"] == 2 and stats["dedup_hits"] == 1

    def test_unknown_digest(self):
        with DecompositionPool(max_workers=1) as pool:
            store = GraphStore(pool)
            with pytest.raises(ParameterError, match="unknown graph digest"):
                store.get("ffff")

    def test_discard_unregisters(self):
        with DecompositionPool(max_workers=1) as pool:
            store = GraphStore(pool)
            digest, _ = store.put(grid_2d(4, 4))
            store.discard(digest)
            assert digest not in store
            assert pool.graph_keys == ()


# ---------------------------------------------------------------------------
# end-to-end service
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def running_server():
    """One server + graph for the whole module — server startup is the
    expensive part, and the tests exercise disjoint (beta, seed) regions."""
    graph = grid_2d(14, 14)
    with serve_background(max_workers=2) as server:
        with ServeClient(*server.address) as client:
            digest = client.upload(graph)
        yield server, graph, digest


class TestServeEndToEnd:
    def test_acceptance_concurrent_mixed_duplicates(self, running_server):
        """The PR acceptance run: >= 32 concurrent requests, mixed
        beta/method/seed with duplicates, against one uploaded graph."""
        server, graph, digest = running_server
        host, port = server.address

        configs = [
            (beta, method, seed)
            for beta in (0.22, 0.37)
            for method in ("bfs", "sequential")
            for seed in (11, 12, 13)
        ]  # 12 unique configurations
        requests = configs * 3  # 36 requests, every config duplicated
        assert len(requests) >= 32

        with ServeClient(host, port) as probe:
            before = probe.stats()["server"]

        def one_request(config):
            beta, method, seed = config
            with ServeClient(host, port) as client:
                return client.decompose(
                    digest, beta, method=method, seed=seed
                )

        with ThreadPoolExecutor(max_workers=12) as pool:
            results = list(pool.map(one_request, requests))

        # Every response is bit-identical to the serial engine.
        for config, result in zip(requests, results):
            beta, method, seed = config
            assert result.result_digest() == serial_digest(
                graph, beta, method=method, seed=seed
            )

        with ServeClient(host, port) as probe:
            after = probe.stats()
        executions = (
            after["server"]["pool_executions"]
            - before["pool_executions"]
        )
        served = (
            after["server"]["decompose_requests"]
            - before["decompose_requests"]
        )
        coalesced = after["server"]["coalesced"] - before["coalesced"]
        # Duplicates must not reach the pool: one execution per unique
        # configuration, the rest answered by coalescing or the cache.
        assert executions == len(configs)
        assert served == len(requests)
        reused = sum(1 for r in results if r.cached or r.coalesced)
        assert reused == len(requests) - len(configs)
        assert coalesced == sum(1 for r in results if r.coalesced)
        assert after["cache"]["entries"] >= len(configs)

    def test_warm_hit_byte_identical_all_methods(self, running_server):
        """Cache correctness: a warm hit is digest-identical to the cold
        miss (and to serial) for every registered method — the memoization
        license the conformance suite grants."""
        server, graph, digest = running_server
        host, port = server.address
        with ServeClient(host, port) as client:
            for method in method_names("unweighted"):
                cold = client.decompose(digest, 0.3, method=method, seed=41)
                warm = client.decompose(digest, 0.3, method=method, seed=41)
                assert not cold.cached
                assert warm.cached
                assert (
                    cold.result_digest()
                    == warm.result_digest()
                    == serial_digest(graph, 0.3, method=method, seed=41)
                ), f"method {method}"

    def test_weighted_methods_roundtrip_and_memoize(self, running_server):
        server, _, _ = running_server
        host, port = server.address
        weighted = weights_by_name(
            erdos_renyi(40, 0.2, seed=5), "uniform:0.5,2.0", seed=5
        )
        with ServeClient(host, port) as client:
            upload = client.upload_text(to_json(weighted), format="json")
            assert upload["weighted"]
            wdigest = upload["digest"]
            for method in method_names("weighted"):
                cold = client.decompose(wdigest, 0.4, method=method, seed=8)
                warm = client.decompose(wdigest, 0.4, method=method, seed=8)
                assert warm.cached
                assert cold.kind == "weighted"
                np.testing.assert_array_equal(cold.radius, warm.radius)
                assert (
                    cold.result_digest()
                    == serial_digest(weighted, 0.4, method=method, seed=8)
                ), f"method {method}"

    def test_auto_and_explicit_method_share_cache_entry(self, running_server):
        """'auto' resolves to the registry name before the cache key is
        built, so auto and the explicit default hit the same entry."""
        server, _, digest = running_server
        host, port = server.address
        with ServeClient(host, port) as client:
            first = client.decompose(digest, 0.19, method="auto", seed=77)
            second = client.decompose(digest, 0.19, method="bfs", seed=77)
            assert not first.cached
            assert second.cached

    def test_validate_flag_reports_invariants(self, running_server):
        server, _, digest = running_server
        host, port = server.address
        with ServeClient(host, port) as client:
            result = client.decompose(
                digest, 0.28, seed=91, validate=True
            )
            assert result.summary["invariants_ok"] is True

    def test_upload_formats_sniffed(self, running_server, tmp_path):
        server, _, _ = running_server
        host, port = server.address
        graph = erdos_renyi(30, 0.15, seed=9)
        edges_path = tmp_path / "g.edges"
        metis_path = tmp_path / "g.metis"
        write_edge_list(graph, edges_path)
        write_metis(graph, metis_path)
        with ServeClient(host, port) as client:
            digest_json = client.upload(graph)
            for path in (edges_path, metis_path):
                response = client.upload_file(path)
                # Same content => same digest, regardless of wire format.
                assert response["digest"] == digest_json
                assert response["known"]
                assert response["num_edges"] == graph.num_edges

    def test_hello_advertises_registry(self, running_server):
        server, _, digest = running_server
        with ServeClient(*server.address) as client:
            hello = client.hello()
        assert hello["protocol"] >= 1
        names = {m["name"] for m in hello["methods"]}
        assert set(method_names()) == names
        assert hello["default_methods"]["unweighted"] in names
        assert "edges" in hello["formats"]
        assert digest in hello["graphs"]

    def test_error_responses(self, running_server):
        server, _, digest = running_server
        with ServeClient(*server.address) as client:
            with pytest.raises(ServeError, match="unknown graph digest"):
                client.decompose("0" * 64, 0.3)
            with pytest.raises(ServeError, match="beta"):
                client._call({"op": "decompose", "digest": digest})
            with pytest.raises(ServeError, match="unknown op"):
                client._call({"op": "warp"})
            with pytest.raises(ServeError, match="seed"):
                client._call(
                    {"op": "decompose", "digest": digest, "beta": 0.3,
                     "seed": "zero"}
                )
            with pytest.raises(ServeError, match="unknown method"):
                client.decompose(digest, 0.3, method="bogus")
            with pytest.raises(ServeError, match="payload"):
                client._call({"op": "upload"})
            # The connection survives error responses.
            assert client.decompose(digest, 0.3, seed=1).num_pieces >= 1

    def test_oversized_frame_announcement_gets_error_frame(
        self, running_server
    ):
        """A header announcing a too-large frame must be answered with an
        ok:false frame before the server drops the stream — not an abrupt
        close plus an unhandled task exception."""
        from repro.serve.protocol import MAX_FRAME_BYTES

        server, _, _ = running_server
        sock = socket.create_connection(server.address, timeout=10)
        try:
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            from repro.serve.protocol import read_frame_blocking

            response = read_frame_blocking(sock)
            assert response is not None
            assert response["ok"] is False
            assert "maximum" in response["message"]
            # The stream is then closed server-side.
            assert read_frame_blocking(sock) is None
        finally:
            sock.close()

    def test_kind_gated_accessors(self, running_server):
        server, _, digest = running_server
        with ServeClient(*server.address) as client:
            result = client.decompose(digest, 0.3, seed=2)
        assert result.hops is result.per_vertex
        with pytest.raises(ParameterError, match="weighted"):
            result.radius


class TestServerLifecycle:
    def test_shutdown_op_stops_server(self):
        with serve_background(max_workers=1) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                assert client.shutdown()["stopping"]
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                try:
                    ServeClient(
                        host, port, timeout=1.0, connect_window=0
                    ).close()
                except ServeError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("server kept accepting after shutdown")

    def test_idle_ttl_shuts_down(self):
        with serve_background(max_workers=1, idle_ttl=0.3) as server:
            host, port = server.address
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                try:
                    ServeClient(
                        host, port, timeout=1.0, connect_window=0
                    ).close()
                except ServeError:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("idle server did not hit its TTL")

    def test_preloaded_graphs_are_resident(self):
        graph = path_graph(40)
        with serve_background(graph, max_workers=1) as server:
            assert server.preloaded == (graph_digest(graph),)
            with ServeClient(*server.address) as client:
                result = client.decompose(server.preloaded[0], 0.3, seed=6)
                assert result.result_digest() == serial_digest(
                    graph, 0.3, seed=6
                )

    def test_cold_decompose_scans_no_graph_on_the_server(self, monkeypatch):
        """A miss's summary comes back from the pool worker: with the
        server process unable to build an edge array or count cut edges,
        cold requests still answer with the in-process summary."""
        graph = grid_2d(12, 12)
        weighted = weights_by_name(graph, "uniform:0.5,2.0", seed=2)
        expected = {
            "unweighted": decompose(graph, 0.25, seed=4).summary(),
            "weighted": decompose(weighted, 0.25, seed=4).summary(),
        }

        def _no_graph_scan(*_args, **_kwargs):
            raise AssertionError("graph-sized work in the server process")

        with serve_background([graph, weighted], max_workers=1) as server:
            # The fork-started workers are already up, so only the server
            # process sees the patches.
            monkeypatch.setattr(CSRGraph, "edge_array", _no_graph_scan)
            for module in (repro.graphs.ops, repro.core.decomposition):
                monkeypatch.setattr(module, "count_cut_edges", _no_graph_scan)
            with ServeClient(*server.address) as client:
                for digest, kind in zip(
                    server.preloaded, ("unweighted", "weighted")
                ):
                    result = client.decompose(digest, 0.25, seed=4)
                    assert not result.cached
                    want = expected[kind]
                    assert {k: result.summary[k] for k in want} == want

    def test_cache_disabled_still_coalesces_nothing_breaks(self):
        graph = grid_2d(6, 6)
        with serve_background(graph, max_workers=1, cache_bytes=0) as server:
            with ServeClient(*server.address) as client:
                digest = server.preloaded[0]
                first = client.decompose(digest, 0.3, seed=3)
                second = client.decompose(digest, 0.3, seed=3)
                assert not second.cached  # nothing fits in a 0-byte cache
                assert first.result_digest() == second.result_digest()

    def test_client_connect_refused(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # port is now (very likely) closed
        with pytest.raises(ServeError, match="cannot connect"):
            ServeClient("127.0.0.1", port, timeout=2.0, connect_window=0)

    def test_client_connect_reset_by_peer(self, monkeypatch):
        """A server shutting down may accept and reset at once: the client
        must raise ServeError (and close the socket), not a bare OSError."""
        made = []

        class _ResetSocket:
            closed = False

            def getpeername(self):
                raise OSError(107, "Transport endpoint is not connected")

            def close(self):
                self.closed = True

        def _create_connection(*_args, **_kwargs):
            made.append(_ResetSocket())
            return made[-1]

        monkeypatch.setattr(socket, "create_connection", _create_connection)
        with pytest.raises(ServeError, match="cannot connect"):
            ServeClient("127.0.0.1", 1, timeout=2.0, connect_window=0)
        assert made and all(s.closed for s in made)

    def test_client_closes_on_transport_failure(self):
        """A mid-frame failure desynchronizes the stream (no request ids),
        so the client must close rather than risk answering a later call
        with an earlier request's response."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            client = ServeClient(*listener.getsockname(), timeout=5.0)
            conn, _ = listener.accept()
            conn.sendall(b"\x00\x00")  # half a length prefix...
            conn.close()  # ...then hang up mid-frame
            with pytest.raises(ServeError, match="connection to server"):
                client.hello()
            assert client.closed
            with pytest.raises(ServeError, match="closed"):
                client.hello()
        finally:
            listener.close()

    def test_ttl_counts_inflight_work_as_activity(self):
        """The idle watchdog must not kill a server that is mid-execution
        with no frames arriving."""
        with serve_background(max_workers=1, idle_ttl=0.4) as server:
            host, port = server.address
            # Simulate a long-running decomposition: a populated in-flight
            # table is exactly what the watchdog sees during one.
            server._inflight["fake-key"] = object()
            time.sleep(1.2)  # several TTL periods
            ServeClient(host, port, timeout=2.0).close()  # still serving
            server._inflight.clear()
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                try:
                    ServeClient(
                        host, port, timeout=1.0, connect_window=0
                    ).close()
                except ServeError:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("drained server did not hit its TTL")


class TestAsyncClientTimers:
    """Teardown must disarm per-request timeout timers: a handle surviving
    ``close()`` fires ``_expire`` against a dead connection and keeps the
    loop alive until the latest deadline."""

    def test_close_cancels_armed_timeout_timers(self):
        import asyncio

        from repro.serve.aio_client import AsyncServeClient

        async def hang_after_hello(reader, writer):
            # Answer the v1 hello handshake, then go silent forever.
            header = await reader.readexactly(4)
            await reader.readexactly(parse_frame_length(header))
            writer.write(encode_frame({"ok": True, "protocol": 1}, 1))
            await writer.drain()
            while await reader.read(65536):
                pass

        async def run():
            server = await asyncio.start_server(
                hang_after_hello, "127.0.0.1", 0
            )
            host, port = server.sockets[0].getsockname()[:2]
            client = AsyncServeClient(host, port, timeout=60.0, pool_size=1)
            task = asyncio.create_task(client.call({"op": "stats"}))
            for _ in range(500):
                if client._conns and client._conns[0]._timers:
                    break
                await asyncio.sleep(0.01)
            else:
                pytest.fail("request never armed its timeout timer")
            conn = client._conns[0]
            handles = list(conn._timers.values())
            assert handles and not any(h.cancelled() for h in handles)

            await client.aclose()

            # The armed timer is gone with the connection — nothing left
            # to fire `_expire` against the torn-down stream, and the
            # loop is not pinned open for the remaining 60s.
            assert conn._timers == {}
            assert all(h.cancelled() for h in handles)
            with pytest.raises(ServeError, match="connection closed"):
                await task
            server.close()
            await server.wait_closed()

        asyncio.run(run())

    def test_server_disconnect_cancels_timers_too(self):
        import asyncio

        from repro.serve.aio_client import AsyncServeClient

        async def hello_then_drop(reader, writer):
            header = await reader.readexactly(4)
            await reader.readexactly(parse_frame_length(header))
            writer.write(encode_frame({"ok": True, "protocol": 1}, 1))
            await writer.drain()
            # Wait for one more request, then drop the connection.
            await reader.readexactly(4)
            writer.close()

        async def run():
            server = await asyncio.start_server(
                hello_then_drop, "127.0.0.1", 0
            )
            host, port = server.sockets[0].getsockname()[:2]
            client = AsyncServeClient(host, port, timeout=60.0, pool_size=1)
            with pytest.raises(ServeError, match="closed|lost"):
                await client.call({"op": "stats"})
            assert client._conns[0]._timers == {}
            await client.aclose()
            server.close()
            await server.wait_closed()

        asyncio.run(run())


class TestProtocolNegotiation:
    """v1 <-> v2 interop: the hello handshake picks the generation, and a
    v1-only client keeps working against a v2 server unchanged."""

    def test_v1_client_round_trips_against_v2_server(self, running_server):
        server, _, _ = running_server
        graph = erdos_renyi(50, 0.12, seed=91)
        with ServeClient(*server.address, max_protocol=1) as client:
            hello = client.hello()
            assert hello["protocol"] >= 2  # the server speaks v2...
            assert client.protocol == 1  # ...but honours the v1 cap
            digest = client.upload(graph)
            assert digest == graph_digest(graph)
            result = client.decompose(digest, 0.3, seed=4)
            assert result.result_digest() == serial_digest(graph, 0.3, seed=4)

    def test_default_client_negotiates_v2(self, running_server):
        server, _, digest = running_server
        with ServeClient(*server.address) as client:
            hello = client.hello()
            assert 1 in hello["protocols"] and 2 in hello["protocols"]
            assert client.protocol == 2
            result = client.decompose(digest, 0.31, seed=9)
        with ServeClient(*server.address, max_protocol=1) as v1:
            legacy = v1.decompose(digest, 0.31, seed=9)
        # Same cached decomposition, regardless of wire generation.
        assert result.result_digest() == legacy.result_digest()

    def test_binary_and_text_uploads_share_digest(self, running_server):
        server, _, _ = running_server
        graph = erdos_renyi(40, 0.15, seed=92)
        with ServeClient(*server.address, max_protocol=1) as v1:
            first = v1.upload_graph(graph)
        with ServeClient(*server.address) as v2:
            second = v2.upload_graph(graph)
        assert first["digest"] == second["digest"]
        assert first["known"] is False and second["known"] is True

    @pytest.mark.parametrize("max_protocol", [1, 2])
    def test_degenerate_graph_uploads(self, running_server, max_protocol):
        from repro.graphs.csr import CSRGraph

        server, _, _ = running_server
        empty = CSRGraph(
            np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )  # 0 nodes, 0 edges
        lone = path_graph(1)  # 1 node, 0 edges
        with ServeClient(
            *server.address, max_protocol=max_protocol
        ) as client:
            for graph, vertices in ((empty, 0), (lone, 1)):
                response = client.upload_graph(graph)
                assert response["digest"] == graph_digest(graph)
                assert response["num_vertices"] == vertices
                assert response["num_edges"] == 0
