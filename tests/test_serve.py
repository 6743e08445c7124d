"""Tests for the decomposition service (repro.serve).

The end-to-end class is the PR's acceptance test: one server, one upload,
32+ concurrent mixed requests with duplicates — every response bit-identical
to serial ``decompose()``, duplicates coalesced/memoized down to one pool
execution per unique configuration, counters consistent.
"""

from __future__ import annotations

import hashlib
import json
import socket
import struct
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    graph_digest,
    serve_background,
)
from repro.serve.protocol import (
    V2_MAGIC,
    as_array,
    compact_arrays,
    decode_frame_payload,
    encode_frame,
    framing_error_frame,
    parse_frame_length,
    peek_frame_fields,
    restamp_frame,
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
def _v2_body(header: bytes, tail: bytes = b"") -> bytes:
    """A frame body around a raw header (which need not be valid JSON)."""
    return V2_MAGIC + struct.pack(">I", len(header)) + header + tail


def _decoders_only_raise_serve_error(body: bytes) -> None:
    """The three body parsers return or raise ServeError — nothing else."""
    for decode in (
        decode_frame_payload,
        peek_frame_fields,
        lambda b: restamp_frame(b, {"id": 1, "shard": None}),
    ):
        try:
            decode(body)
        except ServeError:
            pass


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()  # NaN and ±Infinity are legal for Python's json
    | st.text(max_size=6)
)
_DESCRIPTORS = st.fixed_dictionaries(
    {
        "__nd__": st.lists(
            st.integers(-(2**66), 2**66) | st.floats(), max_size=3
        )
        | _JSON_LEAVES,
    },
    optional={
        "dtype": st.sampled_from(
            ["<i8", "<f8", "|u1", "<i2", "O", "V0", "S0", "(2,)i4", "i4,f8",
             "bogus"]
        )
        | _JSON_LEAVES,
        "shape": st.lists(st.integers(-3, 2**40) | st.floats(), max_size=3)
        | _JSON_LEAVES,
    },
)
_HEADERS = st.recursive(
    _JSON_LEAVES | _DESCRIPTORS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)
_VALID_BODIES = [
    encode_frame(message)[4:]
    for message in (
        {"op": "hello", "id": 3},
        {"ok": True, "center": np.arange(9, dtype=np.int64),
         "per_vertex": np.zeros((3, 2), dtype=np.int32), "summary": {"a": 1}},
        {"op": "upload", "arrays": {"w": np.linspace(0, 1, 5)}},
    )
]
_FUZZ = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        message = {"op": "hello", "nested": {"x": [1, 2.5, "s", None, True]}}
        frame = encode_frame(message)
        length = parse_frame_length(frame[:4])
        assert length == len(frame) - 4
        assert decode_frame_payload(frame[4:]) == message

    def test_oversized_announcement_rejected(self):
        header = struct.pack(">I", 2**31)
        with pytest.raises(ServeError, match="exceeding"):
            parse_frame_length(header)

    def test_malformed_body_rejected(self):
        with pytest.raises(ServeError, match="malformed frame"):
            decode_frame_payload(_v2_body(b"{not json"))
        with pytest.raises(ServeError, match="JSON object"):
            decode_frame_payload(_v2_body(b"[1, 2]"))
        # Not a frame body of any generation: no magic, not JSON either.
        with pytest.raises(ServeError, match="malformed frame"):
            decode_frame_payload(b"hello")

    def test_malformed_array_payload(self):
        body = _v2_body(b'{"a":{"__nd__":[0,8],"shape":[1]}}', bytes(8))
        with pytest.raises(ServeError, match="malformed array"):
            decode_frame_payload(body)  # no dtype

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

    def test_v1_body_refused_with_clear_error(self):
        legacy = b'{"op":"hello"}'
        for decode in (decode_frame_payload, peek_frame_fields):
            with pytest.raises(ServeError, match="v1.*removed.*v2"):
                decode(legacy)
        with pytest.raises(ServeError, match="v1.*removed"):
            restamp_frame(legacy, {"id": 1})
        # The refusal to a legacy body is plain JSON, readable by a v1
        # peer; to anything else it is a normal frame.
        frame = framing_error_frame("gone", legacy)
        assert json.loads(frame[4:]) == {
            "ok": False, "error": "ServeError", "message": "gone",
        }
        assert parse_frame_length(frame[:4]) == len(frame) - 4
        frame = framing_error_frame("bad", b"junk")
        assert decode_frame_payload(frame[4:])["message"] == "bad"

    def test_as_array_accepts_only_ndarrays(self):
        arr = np.arange(3)
        assert as_array(arr) is arr
        for bogus in ({"dtype": "<i8", "shape": [1], "data": "AAAAAAAAAAA="},
                      [1, 2], "x"):
            with pytest.raises(ServeError, match="expected an array"):
                as_array(bogus)

    def test_unknown_protocol_generation_rejected(self):
        for generation in (1, 3):
            with pytest.raises(ServeError, match="unknown protocol"):
                encode_frame({"op": "hello"}, generation)

    def test_oversize_frame_fails_fast_both_codecs(self, monkeypatch):
        """Both frame writers — encode_frame and the relay's restamp —
        refuse to build a frame past the bound."""
        import repro.serve.protocol as protocol

        small = encode_frame({"op": "upload"})[4:]
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        big = {"op": "upload", "payload": "x" * 256}
        with pytest.raises(ServeError, match="exceeds the protocol"):
            encode_frame(big)
        with pytest.raises(ServeError, match="exceeds the protocol"):
            restamp_frame(small, big)
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
        # Negative or non-finite sizes must not slice or reshape their
        # way to an array.
        for descriptor in (
            b'{"__nd__":[4,-2],"dtype":"<i8","shape":[0]}',
            b'{"__nd__":[0,32],"dtype":"<i8","shape":[-1]}',
            b'{"__nd__":[0,Infinity],"dtype":"<i8","shape":[4]}',
        ):
            body = _v2_body(b'{"a":' + descriptor + b"}", bytes(32))
            with pytest.raises(ServeError, match="malformed array"):
                decode_frame_payload(body)

    @pytest.mark.parametrize("depth", [200, 900, 5_000, 100_000])
    def test_deeply_nested_header_is_a_serve_error(self, depth):
        nested = b'{"a":' + b"[" * depth + b"]" * depth + b"}"
        for body in (_v2_body(b"[" * depth), _v2_body(nested)):
            _decoders_only_raise_serve_error(body)
        with pytest.raises(ServeError, match="malformed frame"):
            decode_frame_payload(_v2_body(b"[" * 100_000))

    @pytest.mark.parametrize("dtype", ["<,8", ",", "("])
    def test_unparseable_dtype_is_a_serve_error(self, dtype):
        header = json.dumps(
            {"op": "upload", "arrays": {"w": {
                "__nd__": [0, 8], "dtype": dtype, "shape": [1],
            }}}
        ).encode("utf-8")
        body = _v2_body(header, bytes(8))
        _decoders_only_raise_serve_error(body)
        with pytest.raises(ServeError, match="malformed array payload"):
            decode_frame_payload(body)

    @_FUZZ
    @given(header=_HEADERS, tail=st.binary(max_size=48))
    def test_random_headers_raise_only_serve_error(self, header, tail):
        _decoders_only_raise_serve_error(
            _v2_body(json.dumps(header).encode("utf-8"), tail)
        )

    @_FUZZ
    @given(
        base=st.sampled_from(_VALID_BODIES),
        edits=st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
            max_size=6,
        ),
        cut=st.integers(0, 10_000),
    )
    def test_mutated_bodies_raise_only_serve_error(self, base, edits, cut):
        body = bytearray(base)
        for position, value in edits:
            body[position % len(body)] = value
        _decoders_only_raise_serve_error(bytes(body))
        _decoders_only_raise_serve_error(bytes(body[: cut % len(body)]))

    @_FUZZ
    @given(body=st.binary(max_size=96))
    def test_random_bytes_raise_only_serve_error(self, body):
        _decoders_only_raise_serve_error(body)
        _decoders_only_raise_serve_error(V2_MAGIC + body)

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

        async def hang(reader, writer):
            # Read every request, answer none of them.
            try:
                while await reader.read(65536):
                    pass
            finally:
                writer.close()

        async def run():
            server = await asyncio.start_server(hang, "127.0.0.1", 0)
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

        async def answer_once_then_drop(reader, writer):
            # Answer the first request in v2, then drop the connection
            # when the second one arrives.
            try:
                header = await reader.readexactly(4)
                request = decode_frame_payload(
                    await reader.readexactly(parse_frame_length(header))
                )
                writer.write(
                    encode_frame({"ok": True, "id": request["id"]})
                )
                await writer.drain()
                await reader.readexactly(4)
            finally:
                writer.close()

        async def run():
            server = await asyncio.start_server(
                answer_once_then_drop, "127.0.0.1", 0
            )
            host, port = server.sockets[0].getsockname()[:2]
            client = AsyncServeClient(host, port, timeout=60.0, pool_size=1)
            assert (await client.call({"op": "stats"}))["ok"] is True
            with pytest.raises(ServeError, match="closed|lost"):
                await client.call({"op": "stats"})
            assert client._conns[0]._timers == {}
            await client.aclose()
            server.close()
            await server.wait_closed()

        asyncio.run(run())


class TestProtocolNegotiation:
    """What is left of negotiation: ``hello`` advertises the one protocol
    generation, every client speaks it, and a peer sending a legacy v1
    (plain JSON) body gets one clear refusal instead of silence."""

    def test_default_client_negotiates_v2(self, running_server):
        server, graph, digest = running_server
        with ServeClient(*server.address) as client:
            hello = client.hello()
            assert hello["protocol"] == 2
            assert "protocols" not in hello
            result = client.decompose(digest, 0.31, seed=9)
        assert result.result_digest() == serial_digest(graph, 0.31, seed=9)

    def test_binary_and_text_uploads_share_digest(self, running_server):
        server, _, _ = running_server
        graph = erdos_renyi(40, 0.15, seed=92)
        with ServeClient(*server.address) as client:
            first = client.upload_text(to_json(graph), "json")
            second = client.upload_graph(graph)
        assert first["digest"] == second["digest"] == graph_digest(graph)
        assert first["known"] is False and second["known"] is True

    @pytest.mark.parametrize("encoding", ["binary", "text"])
    def test_degenerate_graph_uploads(self, running_server, encoding):
        from repro.graphs.csr import CSRGraph

        server, _, _ = running_server
        empty = CSRGraph(
            np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )  # 0 nodes, 0 edges
        lone = path_graph(1)  # 1 node, 0 edges
        with ServeClient(*server.address) as client:
            for graph, vertices in ((empty, 0), (lone, 1)):
                if encoding == "binary":
                    response = client.upload_graph(graph)
                else:
                    response = client.upload_text(to_json(graph), "json")
                assert response["digest"] == graph_digest(graph)
                assert response["num_vertices"] == vertices
                assert response["num_edges"] == 0

    def test_v1_body_gets_one_plain_json_refusal(self, running_server):
        server, _, _ = running_server
        reply = _send_raw_body(server.address, b'{"op":"hello"}')
        refusal = json.loads(reply)  # plain JSON: a v1 peer can read it
        assert refusal["ok"] is False and refusal["error"] == "ServeError"
        assert "v1" in refusal["message"] and "removed" in refusal["message"]
        assert "v2" in refusal["message"]
        with ServeClient(*server.address) as client:
            assert client.stats()["ok"]

    def test_unframed_garbage_keeps_the_malformed_frame_error(
        self, running_server
    ):
        server, _, _ = running_server
        reply = _send_raw_body(server.address, b"hello there")
        response = decode_frame_payload(reply)
        assert response["ok"] is False
        assert "malformed frame" in response["message"]

    def test_deeply_nested_frame_gets_an_error_frame(self, running_server):
        """A header nested past the JSON parser's recursion limit is
        answered with an ok:false frame (not a silent EOF), and the server
        keeps serving fresh clients."""
        server, _, digest = running_server
        reply = _send_raw_body(server.address, _v2_body(b"[" * 100_000))
        response = decode_frame_payload(reply)
        assert response["ok"] is False
        assert response["error"] == "ServeError"
        assert "malformed frame" in response["message"]
        with ServeClient(*server.address) as client:
            assert client.decompose(digest, 0.3, seed=3).num_pieces >= 1


def _send_raw_body(address, body: bytes) -> bytes:
    """Send one frame around ``body``; return the single reply body and
    check the peer then closes the connection."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(struct.pack(">I", len(body)) + body)
        stream = sock.makefile("rb")
        length = parse_frame_length(stream.read(4))
        reply = stream.read(length)
        assert len(reply) == length
        assert stream.read(1) == b""  # one reply, then the stream closes
    return reply
