"""Tests for the sharded serve cluster (repro.cluster).

The acceptance bar is cross-shard conformance: for every registered
decomposition method and multiple seeds, a request routed through the
cluster router must return results digest-identical to a direct
single-server round trip and to serial ``decompose()`` — sharding must
never change an answer, only where it is computed.
"""

from __future__ import annotations

import asyncio
import hashlib
import socket
import threading
import time

import numpy as np
import pytest

from repro.cluster import (
    DEFAULT_REPLICAS,
    ClusterProvider,
    ClusterRouter,
    HashRing,
    cluster_background,
    router_background,
)
from repro.core.engine import decompose
from repro.core.registry import method_names
from repro.embeddings.hierarchy import hierarchical_decomposition
from repro.errors import ParameterError, ServeError
from repro.graphs.generators import erdos_renyi, grid_2d
from repro.graphs.io import to_json
from repro.graphs.weighted import WeightedCSRGraph, weights_by_name
from repro.lowstretch.akpw import akpw_spanning_tree
from repro.pipeline import EngineProvider, provider_from_spec
from repro.serve import ServeClient, graph_digest, serve_background
from repro.serve.aio_client import AsyncServeClient
from repro.serve.protocol import decode_frame_payload, parse_frame_length
from repro.spanners.cluster_spanner import ldd_spanner

SEEDS = (31, 32)

GRID = grid_2d(10, 10)
WEIGHTED = weights_by_name(
    erdos_renyi(40, 0.2, seed=5), "uniform:0.5,2.0", seed=5
)


def serial_digest(graph, beta, *, method="auto", seed=0, **options) -> str:
    """SHA-256 of a serial decomposition's arrays (same hash as
    ServeResult.result_digest) — the sharding-independent ground truth."""
    result = decompose(graph, beta, method=method, seed=seed, **options)
    decomposition = result.decomposition
    per_vertex = (
        decomposition.radius
        if isinstance(graph, WeightedCSRGraph)
        else decomposition.hops
    )
    sha = hashlib.sha256()
    for arr in (decomposition.center, per_vertex):
        sha.update(np.ascontiguousarray(arr).tobytes())
    return sha.hexdigest()


def _free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


# ---------------------------------------------------------------------------
# hash ring
# ---------------------------------------------------------------------------
class TestHashRing:
    NODES = ["10.0.0.1:9000", "10.0.0.2:9000", "10.0.0.3:9000"]

    def test_owner_deterministic_and_order_independent(self):
        ring = HashRing(self.NODES)
        keys = [f"digest-{i:04d}" for i in range(200)]
        owners = [ring.owner(k) for k in keys]
        assert owners == [ring.owner(k) for k in keys]  # stable
        shuffled = HashRing(list(reversed(self.NODES)))
        assert owners == [shuffled.owner(k) for k in keys]

    def test_distribution_reaches_every_node(self):
        ring = HashRing(self.NODES)
        keys = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(3000)]
        counts = ring.distribution(keys)
        assert set(counts) == set(self.NODES)
        # Consistent hashing is only statistically balanced; with 64
        # vnodes each node should still land well above a token share.
        assert min(counts.values()) > len(keys) * 0.10

    def test_single_node_owns_everything(self):
        ring = HashRing(["only:1"])
        assert ring.owner("anything") == "only:1"
        assert len(ring) == 1 and "only:1" in ring

    def test_constructor_validation(self):
        with pytest.raises(ParameterError):
            HashRing([])
        with pytest.raises(ParameterError):
            HashRing(["a:1", "a:1"])
        with pytest.raises(ParameterError):
            HashRing(["a:1"], replicas=0)

    def test_default_replica_count(self):
        assert HashRing(["a:1"]).replicas == DEFAULT_REPLICAS


# ---------------------------------------------------------------------------
# a live 3-shard cluster + a direct single server for comparison
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def running_cluster():
    with cluster_background(
        [GRID, WEIGHTED], num_shards=3, max_workers=1
    ) as router:
        yield router


@pytest.fixture(scope="module")
def direct_server():
    with serve_background([GRID, WEIGHTED], max_workers=1) as server:
        yield server


class TestClusterConformance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cross_shard_conformance(self, seed, running_cluster, direct_server):
        """Every registered method, through the router vs a direct server
        vs serial — all three digest-identical."""
        cases = [
            (GRID, 0.3, "unweighted"),
            (WEIGHTED, 0.4, "weighted"),
        ]
        with ServeClient(*running_cluster.address) as routed, ServeClient(
            *direct_server.address
        ) as direct:
            for graph, beta, kind in cases:
                digest = graph_digest(graph)
                for method in method_names(kind):
                    via_router = routed.decompose(
                        digest, beta, method=method, seed=seed
                    ).result_digest()
                    via_direct = direct.decompose(
                        digest, beta, method=method, seed=seed
                    ).result_digest()
                    serial = serial_digest(
                        graph, beta, method=method, seed=seed
                    )
                    assert via_router == via_direct == serial, (
                        f"cluster drift for {kind} method={method} "
                        f"seed={seed}"
                    )

    def test_routing_is_stable_and_matches_the_ring(self, running_cluster):
        router = running_cluster
        ring = HashRing(list(router.shard_labels), replicas=router.ring.replicas)
        with ServeClient(*router.address) as client:
            for graph in (GRID, WEIGHTED):
                digest = graph_digest(graph)
                beta = 0.4 if isinstance(graph, WeightedCSRGraph) else 0.3
                shards = {
                    client._call(
                        {"op": "decompose", "digest": digest, "beta": beta,
                         "seed": s}
                    )["shard"]
                    for s in (1, 2, 1)
                }
                # one digest -> one shard, the one the ring names
                assert shards == {router.owner_of(digest)}
                assert router.owner_of(digest) == ring.owner(digest)

    def test_graphs_reside_only_on_their_owner(self, running_cluster):
        router = running_cluster
        residency = {}
        for label in router.shard_labels:
            host, port = label.rsplit(":", 1)
            with ServeClient(host, int(port)) as shard:
                residency[label] = set(shard.hello()["graphs"])
        for graph in (GRID, WEIGHTED):
            digest = graph_digest(graph)
            holders = {
                label for label, resident in residency.items()
                if digest in resident
            }
            assert holders == {router.owner_of(digest)}

    def test_hello_reports_cluster_membership(self, running_cluster):
        router = running_cluster
        with ServeClient(*router.address) as client:
            hello = client.hello()
        assert hello["server"] == "repro.cluster"
        assert sorted(hello["cluster"]["shards"]) == sorted(router.shard_labels)
        assert sorted(hello["cluster"]["alive"]) == sorted(router.shard_labels)
        for graph in (GRID, WEIGHTED):
            assert graph_digest(graph) in hello["graphs"]

    def test_stats_aggregates_and_names_shards(self, running_cluster):
        router = running_cluster
        with ServeClient(*router.address) as client:
            stats = client.stats()
        assert stats["router"]["shards"] == 3
        assert stats["router"]["alive"] == 3
        assert stats["router"]["forwarded"] >= stats["store"]["graphs"]
        assert stats["store"]["graphs"] >= 2  # both preloads resident
        assert set(stats["shards"]) == set(router.shard_labels)
        assert all(entry["ok"] for entry in stats["shards"].values())

    def test_upload_through_router_lands_once(self, running_cluster):
        router = running_cluster
        graph = erdos_renyi(35, 0.15, seed=61)
        with ServeClient(*router.address) as client:
            response = client.upload_graph(graph)
            assert response["digest"] == graph_digest(graph)
            assert response["shard"] == router.owner_of(response["digest"])
            again = client.upload_graph(graph)
            assert again["known"] is True
            assert again["shard"] == response["shard"]


class TestUploadOnMiss:
    def test_inline_graph_is_replayed_to_the_owner(self, running_cluster):
        router = running_cluster
        graph = erdos_renyi(30, 0.2, seed=77)
        digest = graph_digest(graph)
        with ServeClient(*router.address) as client:
            before = client.stats()["router"]["miss_uploads"]
            response = client._call(
                {
                    "op": "decompose",
                    "digest": digest,
                    "beta": 0.3,
                    "seed": 1,
                    "graph": {"payload": to_json(graph), "format": "json"},
                }
            )
            assert response["shard"] == router.owner_of(digest)
            after = client.stats()["router"]["miss_uploads"]
        assert after == before + 1
        # the decomposition itself is still bit-exact
        sha = hashlib.sha256()
        from repro.serve.protocol import as_array

        for key in ("center", "per_vertex"):
            sha.update(
                np.ascontiguousarray(as_array(response[key])).tobytes()
            )
        assert sha.hexdigest() == serial_digest(graph, 0.3, seed=1)

    def test_wrong_inline_graph_is_rejected(self, running_cluster):
        router = running_cluster
        wrong = erdos_renyi(31, 0.2, seed=78)
        missing = graph_digest(erdos_renyi(32, 0.2, seed=79))
        with ServeClient(*router.address) as client:
            with pytest.raises(ServeError, match="wrong graph"):
                client._call(
                    {
                        "op": "decompose",
                        "digest": missing,
                        "beta": 0.3,
                        "seed": 1,
                        "graph": {
                            "payload": to_json(wrong),
                            "format": "json",
                        },
                    }
                )


class TestChunkedUploadThroughRouter:
    def test_chunks_land_on_the_digest_owner_and_decompose_is_warm(
        self, running_cluster
    ):
        router = running_cluster
        graph = erdos_renyi(45, 0.12, seed=83)
        digest = graph_digest(graph)
        owner = router.owner_of(digest)
        with ServeClient(*router.address) as client:
            response = client.upload_chunked(graph, chunk_bytes=256)
            assert response["digest"] == digest
            assert response["complete"] is True
            # every chunk routed on upload_id == digest, so the graph is
            # resident only on the ring owner
            for label in router.shard_labels:
                host, port = label.rsplit(":", 1)
                with ServeClient(host, int(port)) as shard:
                    resident = digest in shard.hello()["graphs"]
                assert resident == (label == owner), label
            # a later decompose by digest is a warm hit on that shard —
            # no inline-graph replay needed
            before = client.stats()["router"]["miss_uploads"]
            served = client.decompose(digest, beta=0.3, seed=2)
            after = client.stats()["router"]["miss_uploads"]
            assert after == before
            assert served.result_digest() == serial_digest(
                graph, 0.3, seed=2
            )
            client.discard(digest)


# ---------------------------------------------------------------------------
# failure behaviour: dead shards fail loudly, ring stays put
# ---------------------------------------------------------------------------
class TestDeadShard:
    def test_dead_shard_errors_name_it_and_others_keep_serving(self):
        with serve_background(max_workers=1) as shard_a, serve_background(
            max_workers=1
        ) as shard_b:
            with router_background(
                [shard_a.address, shard_b.address],
                timeout=15.0,
                connect_window=0.2,
            ) as router:
                # find one resident graph per shard
                owned: dict[str, str] = {}
                with ServeClient(*router.address) as client:
                    for seed in range(40):
                        graph = erdos_renyi(25, 0.2, seed=seed)
                        label = router.owner_of(graph_digest(graph))
                        if label in owned:
                            continue
                        owned[label] = client.upload_graph(graph)["digest"]
                        if len(owned) == 2:
                            break
                assert len(owned) == 2, "seeds never covered both shards"

                dead_label = f"{shard_b.address[0]}:{shard_b.address[1]}"
                live_label = next(l for l in owned if l != dead_label)
                shard_b.request_shutdown()
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    try:
                        ServeClient(
                            *shard_b.address, timeout=1.0, connect_window=0
                        ).close()
                    except ServeError:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("shard b kept accepting after shutdown")

                with ServeClient(*router.address) as client:
                    with pytest.raises(
                        ServeError, match=f"shard {dead_label} unreachable"
                    ):
                        client.decompose(owned[dead_label], 0.3, seed=1)
                    # the surviving shard is untouched
                    result = client.decompose(owned[live_label], 0.3, seed=1)
                    assert result.num_pieces >= 1
                    stats = client.stats()
                assert stats["router"]["alive"] == 1
                assert stats["shards"][dead_label]["ok"] is False
                assert stats["shards"][live_label]["ok"] is True
                # the ring is never remapped on failure
                assert router.owner_of(owned[dead_label]) == dead_label


# ---------------------------------------------------------------------------
# async client against the cluster
# ---------------------------------------------------------------------------
class TestAsyncClient:
    def test_pipelined_burst_is_bit_exact(self, running_cluster):
        router = running_cluster
        digest = graph_digest(GRID)

        async def burst():
            async with AsyncServeClient(
                *router.address, pool_size=2
            ) as client:
                jobs = [
                    client.decompose(digest, 0.3, seed=seed)
                    for seed in range(6)
                    for _ in range(2)  # duplicates in flight together
                ]
                return await asyncio.gather(*jobs)

        results = asyncio.run(burst())
        for seed, pair in zip(range(6), zip(results[::2], results[1::2])):
            expected = serial_digest(GRID, 0.3, seed=seed)
            assert pair[0].result_digest() == expected
            assert pair[1].result_digest() == expected

    def test_error_frames_do_not_poison_the_connection(self, running_cluster):
        router = running_cluster

        async def run():
            async with AsyncServeClient(
                *router.address, pool_size=1
            ) as client:
                with pytest.raises(ServeError, match="unknown graph digest"):
                    await client.decompose("0" * 64, 0.3)
                return await client.decompose(
                    graph_digest(GRID), 0.3, seed=2
                )

        result = asyncio.run(run())
        assert result.result_digest() == serial_digest(GRID, 0.3, seed=2)

    def test_async_connect_refused(self):
        port = _free_port()

        async def run():
            client = AsyncServeClient("127.0.0.1", port, connect_window=0)
            try:
                await client.hello()
            finally:
                await client.aclose()

        with pytest.raises(ServeError, match="cannot connect"):
            asyncio.run(run())


# ---------------------------------------------------------------------------
# relay data plane: zero-decode splice for same-generation round trips
# ---------------------------------------------------------------------------
class TestRelayPlane:
    def test_fast_path_engages_for_digest_keyed_ops(self, running_cluster):
        """Warm digest-keyed ops ride the relay channels (no task, no
        decode) once they are connected — the counter must move."""
        router = running_cluster
        digest = graph_digest(GRID)

        def relayed() -> int:
            return sum(ch._next_id for ch in router._relays.values())

        before = relayed()
        with ServeClient(*router.address) as client:
            # The first request finds the channel cold and falls back to
            # the task path while kicking off the connect; keep asking
            # until the relay picks the traffic up.
            for _ in range(100):
                result = client.decompose(digest, 0.3, seed=11)
                assert result.result_digest() == serial_digest(
                    GRID, 0.3, seed=11
                )
                if relayed() > before:
                    break
                time.sleep(0.02)
        assert relayed() > before, "relay fast path never engaged"


# ---------------------------------------------------------------------------
# connect backoff (satellite: retry with exponential backoff)
# ---------------------------------------------------------------------------
class TestConnectBackoff:
    def test_backoff_bridges_a_startup_race(self):
        """A client launched a beat before its server must connect once the
        server is up, instead of failing on the first refused attempt."""
        port = _free_port()
        outcome: dict[str, object] = {}

        def connect_early():
            try:
                with ServeClient(
                    "127.0.0.1", port, timeout=15.0, connect_window=10.0
                ) as client:
                    outcome["hello"] = client.hello()
            except BaseException as exc:  # pragma: no cover - failure path
                outcome["error"] = exc

        thread = threading.Thread(target=connect_early)
        thread.start()
        time.sleep(0.4)  # the client is now inside its backoff loop
        with serve_background(max_workers=1, port=port):
            thread.join(timeout=30)
        assert "hello" in outcome, f"client never connected: {outcome}"

    def test_window_bounds_the_retries(self):
        port = _free_port()
        start = time.monotonic()
        with pytest.raises(ServeError, match="cannot connect"):
            ServeClient("127.0.0.1", port, connect_window=0.5)
        elapsed = time.monotonic() - start
        assert 0.3 <= elapsed < 10.0  # it retried, then gave up


# ---------------------------------------------------------------------------
# pipeline seam: cluster as a provider
# ---------------------------------------------------------------------------
class TestClusterProvider:
    def test_spec_string_resolves_to_cluster_provider(self, running_cluster):
        host, port = running_cluster.address
        provider = provider_from_spec(f"cluster:{host}:{port}")
        try:
            assert isinstance(provider, ClusterProvider)
            assert provider.backend == "cluster"
        finally:
            provider.close()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_applications_identical_through_the_cluster(
        self, seed, running_cluster
    ):
        host, port = running_cluster.address
        engine = EngineProvider()
        with ClusterProvider(address=(host, port)) as provider:
            for via in (engine, provider):
                spanner = ldd_spanner(GRID, 0.3, seed=seed, provider=via)
                tree = akpw_spanning_tree(
                    GRID, beta=0.4, seed=seed, provider=via
                )
                hierarchy = hierarchical_decomposition(
                    GRID, seed=seed, provider=via
                )
                digests = tuple(
                    hashlib.sha256(
                        np.ascontiguousarray(arr).tobytes()
                    ).hexdigest()
                    for arr in (
                        spanner.spanner.edge_array(),
                        tree.forest.parent,
                        *hierarchy.labels,
                    )
                )
                if via is engine:
                    expected = digests
                else:
                    assert digests == expected, (
                        f"cluster provider drifted from engine at "
                        f"seed={seed}"
                    )


class TestBatchFaultInjection:
    """A batch that hits a dead shard or times out must fail the whole
    level loudly — without wedging sibling requests, the provider, or
    its memo."""

    @staticmethod
    def _graphs_covering_both_shards(router):
        """One graph per shard label, found by seed search."""
        owned: dict[str, object] = {}
        for seed in range(60):
            graph = erdos_renyi(25, 0.2, seed=seed)
            label = router.owner_of(graph_digest(graph))
            if label not in owned:
                owned[label] = graph
                if len(owned) == 2:
                    return owned
        pytest.fail("seeds never covered both shards")

    def test_dead_shard_fails_batch_loudly_not_provider(self):
        from repro.pipeline import DecomposeRequest

        with cluster_background(num_shards=2, max_workers=1) as router:
            owned = self._graphs_covering_both_shards(router)
            dead_label = router.shard_labels[1]
            dead_graph = owned[dead_label]
            live_label = next(l for l in owned if l != dead_label)
            live_graph = owned[live_label]
            with ClusterProvider(
                address=router.address, memo_bytes=0, timeout=20.0
            ) as provider:
                requests = [
                    DecomposeRequest(live_graph, 0.3, seed=1),
                    DecomposeRequest(dead_graph, 0.3, seed=1),
                    DecomposeRequest(live_graph, 0.35, seed=2),
                ]
                # Uploads land while both shards are alive; the failure
                # is injected mid-workload, between two batches.
                provider.decompose_batch(requests)

                dead_shard = next(
                    s for s in router.shard_servers
                    if f"{s.address[0]}:{s.address[1]}" == dead_label
                )
                dead_shard.request_shutdown()
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    try:
                        ServeClient(
                            *dead_shard.address, timeout=1.0,
                            connect_window=0,
                        ).close()
                    except ServeError:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("shard kept accepting after shutdown")

                fresh = [
                    DecomposeRequest(live_graph, 0.3, seed=11),
                    DecomposeRequest(dead_graph, 0.3, seed=11),
                    DecomposeRequest(live_graph, 0.35, seed=12),
                ]
                with pytest.raises(
                    ServeError,
                    match=f"batch decompose failed.*{dead_label} unreachable",
                ):
                    provider.decompose_batch(fresh)

                # The provider is not wedged: live-shard requests keep
                # serving, serially and batched, with correct results.
                single = provider.decompose(live_graph, 0.3, seed=11)
                assert _result_digest(single) == serial_digest(
                    live_graph, 0.3, seed=11
                )
                again = provider.decompose_batch(
                    [DecomposeRequest(live_graph, 0.35, seed=12)]
                )
                assert _result_digest(again[0]) == serial_digest(
                    live_graph, 0.35, seed=12
                )
                # The memo holds nothing from the failed batch: repeating
                # it fails the same way instead of serving a stale mix.
                assert provider.stats()["memo_hits"] == 0
                with pytest.raises(ServeError, match="unreachable"):
                    provider.decompose_batch(fresh)

    def test_timeout_fails_batch_and_drains_siblings(self):
        """Against a server that answers uploads but never decomposes,
        every request in the batch times out; the failure is one loud
        ServeError and the provider survives."""
        from repro.pipeline import DecomposeRequest, ServeProvider
        from repro.serve.protocol import encode_frame

        graph = erdos_renyi(20, 0.2, seed=7)
        digest = graph_digest(graph)
        loop_holder: dict = {}

        async def serve_conn(reader, writer):
            try:
                await answer_uploads_only(reader, writer)
            finally:
                writer.close()

        async def answer_uploads_only(reader, writer):
            while True:
                try:
                    header = await reader.readexactly(4)
                    body = await reader.readexactly(
                        parse_frame_length(header)
                    )
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                message = decode_frame_payload(body)
                # decompose: never answer — the timeout must fire.
                if message.get("op") == "upload":
                    reply = {"ok": True, "digest": digest, "known": False}
                    if "id" in message:
                        reply["id"] = message["id"]
                    writer.write(encode_frame(reply))
                    await writer.drain()

        def run_server(ready):
            async def main():
                server = await asyncio.start_server(
                    serve_conn, "127.0.0.1", 0
                )
                loop_holder["loop"] = asyncio.get_running_loop()
                loop_holder["address"] = server.sockets[0].getsockname()[:2]
                loop_holder["stop"] = asyncio.Event()
                ready.set()
                async with server:
                    await loop_holder["stop"].wait()

            asyncio.run(main())

        ready = threading.Event()
        thread = threading.Thread(target=run_server, args=(ready,))
        thread.start()
        assert ready.wait(10)
        try:
            with ServeProvider(
                address=loop_holder["address"], timeout=0.5, memo_bytes=0
            ) as provider:
                requests = [
                    DecomposeRequest(graph, 0.3, seed=s) for s in range(3)
                ]
                before = time.monotonic()
                with pytest.raises(
                    ServeError, match="batch decompose failed.*timed out"
                ):
                    provider.decompose_batch(requests)
                # All three timed out concurrently, not one after another.
                assert time.monotonic() - before < 5.0
                assert not provider.closed
                assert provider.stats()["memo_hits"] == 0
        finally:
            loop_holder["loop"].call_soon_threadsafe(
                loop_holder["stop"].set
            )
            thread.join(timeout=10)


def _result_digest(result) -> str:
    decomposition = result.decomposition
    sha = hashlib.sha256()
    for arr in (decomposition.center, decomposition.hops):
        sha.update(np.ascontiguousarray(arr).tobytes())
    return sha.hexdigest()


class TestRouterValidation:
    def test_router_requires_shards(self):
        with pytest.raises(ParameterError, match="at least one shard"):
            ClusterRouter([])

    def test_graph_op_requires_digest(self, running_cluster):
        with ServeClient(*running_cluster.address) as client:
            with pytest.raises(ServeError, match="digest"):
                client._call({"op": "decompose", "beta": 0.3})

    def test_unknown_op_is_reported(self, running_cluster):
        with ServeClient(*running_cluster.address) as client:
            with pytest.raises(ServeError, match="unknown op"):
                client._call({"op": "warp"})
