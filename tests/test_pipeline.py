"""Pipeline-layer tests: provider conformance, memoization, serve app ops.

The pipeline contract is that *which backend executes a decomposition never
changes an application's output*: for every registered unweighted method
and several seeds, the cluster spanner's edge set, the AKPW forest's parent
array, and the HST hierarchy's label stack must be bit-identical whether
the decompositions ran on the serial engine (:class:`EngineProvider`), the
shared-memory pool (:class:`PoolProvider`), or a live decomposition server
(:class:`ServeProvider`).  The serve application ops must in turn match the
local pipeline exactly, and repeats must be warm cache hits.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.registry import method_names
from repro.embeddings.hierarchy import hierarchical_decomposition
from repro.errors import ParameterError, ServeError
from repro.graphs.generators import erdos_renyi, grid_2d
from repro.graphs.weighted import weights_by_name
from repro.lowstretch.akpw import akpw_spanning_tree
from repro.pipeline import (
    DecomposeRequest,
    DecompositionProvider,
    EngineProvider,
    PoolProvider,
    ServeProvider,
    default_provider,
    resolve_provider,
)
from repro.rng.seeding import derive_seed, ensure_int_seed
from repro.serve import ServeClient, serve_background
from repro.spanners.cluster_spanner import ldd_spanner

SEEDS = (0, 7)
BETA = 0.3

GRAPH = grid_2d(8, 8)
ER_GRAPH = erdos_renyi(48, 0.12, seed=3)


def _digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for arr in arrays:
        sha.update(np.ascontiguousarray(arr).tobytes())
    return sha.hexdigest()


def _app_digests(graph, method: str, seed: int, provider) -> dict[str, str]:
    """One digest per application output for a configuration."""
    spanner = ldd_spanner(
        graph, BETA, seed=seed, method=method, provider=provider
    )
    tree = akpw_spanning_tree(
        graph, beta=0.4, seed=seed, method=method, provider=provider
    )
    hierarchy = hierarchical_decomposition(
        graph, seed=seed, method=method, provider=provider
    )
    return {
        "spanner": _digest(spanner.spanner.edge_array()),
        "tree": _digest(tree.forest.parent),
        "hierarchy": _digest(*hierarchy.labels),
    }


@pytest.fixture(scope="module")
def serve_stack():
    """One server + one client/provider pair for the whole module."""
    with serve_background(max_workers=2) as server:
        with ServeClient(*server.address) as client:
            yield server, client


@pytest.fixture(scope="module")
def pool_provider():
    with PoolProvider(max_workers=2) as provider:
        yield provider


@pytest.fixture(scope="module")
def serve_provider(serve_stack):
    _, client = serve_stack
    with ServeProvider(client=client) as provider:
        yield provider


@pytest.fixture(scope="module")
def cluster_provider():
    from repro.cluster import ClusterProvider, cluster_background

    with cluster_background(num_shards=2, max_workers=2) as router:
        with ClusterProvider(address=router.address) as provider:
            yield provider


class _CountingEngine(EngineProvider):
    """Engine provider that records every backend execution's graph."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.executed: list = []

    def _decompose_impl(self, graph, digest, beta, method, seed,
                        validate, options):
        self.executed.append(graph)
        return super()._decompose_impl(
            graph, digest, beta, method, seed, validate, options
        )


# ---------------------------------------------------------------------------
# cross-provider application conformance
# ---------------------------------------------------------------------------
class TestApplicationConformance:
    @pytest.mark.parametrize("method", method_names("unweighted"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_apps_identical_across_providers(
        self, method, seed, pool_provider, serve_provider
    ):
        engine = EngineProvider()
        expected = _app_digests(GRAPH, method, seed, engine)
        for provider in (pool_provider, serve_provider):
            got = _app_digests(GRAPH, method, seed, provider)
            assert got == expected, (
                f"{provider.backend} provider drifted from engine for "
                f"method={method} seed={seed}"
            )

    def test_er_graph_conformance_default_method(
        self, pool_provider, serve_provider
    ):
        engine = EngineProvider()
        expected = _app_digests(ER_GRAPH, "auto", 1, engine)
        for provider in (pool_provider, serve_provider):
            assert _app_digests(ER_GRAPH, "auto", 1, provider) == expected

    def test_weighted_decompose_identical_across_providers(
        self, pool_provider, serve_provider
    ):
        weighted = weights_by_name(GRAPH, "uniform:0.5,2.0", seed=5)
        engine = EngineProvider()
        ref = engine.decompose(weighted, BETA, seed=2).decomposition
        for provider in (pool_provider, serve_provider):
            got = provider.decompose(weighted, BETA, seed=2).decomposition
            np.testing.assert_array_equal(got.center, ref.center)
            np.testing.assert_array_equal(got.radius, ref.radius)


# ---------------------------------------------------------------------------
# provider semantics
# ---------------------------------------------------------------------------
class TestProviderSemantics:
    def test_memo_hit_on_repeat(self):
        provider = EngineProvider()
        a = provider.decompose(GRAPH, BETA, seed=3)
        b = provider.decompose(GRAPH, BETA, seed=3)
        stats = provider.stats()
        assert stats["requests"] == 2
        assert stats["memo_hits"] == 1
        np.testing.assert_array_equal(
            a.decomposition.center, b.decomposition.center
        )

    def test_memo_rehydrates_against_callers_graph(self):
        provider = EngineProvider()
        twin_a = grid_2d(6, 6)
        twin_b = grid_2d(6, 6)  # equal content, distinct object
        provider.decompose(twin_a, BETA, seed=0)
        result = provider.decompose(twin_b, BETA, seed=0)
        assert result.decomposition.graph is twin_b
        assert provider.stats()["memo_hits"] == 1

    def test_memo_disabled(self):
        provider = EngineProvider(memo_bytes=0)
        provider.decompose(GRAPH, BETA, seed=0)
        provider.decompose(GRAPH, BETA, seed=0)
        assert provider.stats()["memo_hits"] == 0

    def test_integer_seed_required(self):
        provider = EngineProvider()
        with pytest.raises(ParameterError, match="integer seed"):
            provider.decompose(GRAPH, BETA, seed=np.random.default_rng(0))
        with pytest.raises(ParameterError, match="integer seed"):
            provider.decompose(GRAPH, BETA, seed=True)

    def test_unknown_method_and_option_fail_fast(self):
        provider = EngineProvider()
        with pytest.raises(ParameterError, match="unknown method"):
            provider.decompose(GRAPH, BETA, method="nope", seed=0)
        with pytest.raises(ParameterError, match="no option"):
            provider.decompose(GRAPH, BETA, seed=0, bogus=1)

    def test_closed_provider_rejects_requests(self):
        provider = EngineProvider()
        provider.close()
        with pytest.raises(ParameterError, match="closed"):
            provider.decompose(GRAPH, BETA, seed=0)

    def test_resolve_provider_default_and_passthrough(self):
        assert resolve_provider(None) is default_provider()
        provider = EngineProvider()
        assert resolve_provider(provider) is provider
        with pytest.raises(ParameterError, match="DecompositionProvider"):
            resolve_provider(object())

    def test_graph_key_matches_store_digest(self):
        from repro.serve.store import graph_digest

        provider = EngineProvider()
        assert provider.graph_key(GRAPH) == graph_digest(GRAPH)
        # Cached second lookup returns the same digest.
        assert provider.graph_key(GRAPH) == graph_digest(GRAPH)

    def test_digest_is_hashed_once_per_graph_object(self, monkeypatch):
        import pickle

        from repro.serve import store

        hashed = []
        real = store._hash_array_bytes

        def counting(sha, arr):
            hashed.append(arr.nbytes)
            real(sha, arr)

        monkeypatch.setattr(store, "_hash_array_bytes", counting)
        provider = EngineProvider()
        graph = grid_2d(9, 7)
        digest = store.graph_digest(graph)
        assert len(hashed) == 2  # indptr and indices
        assert provider.graph_key(graph) == digest
        assert store.graph_digest(graph) == digest
        assert provider.graph_key(graph) == digest
        assert len(hashed) == 2, "a repeat lookup hashed the graph again"
        # An equal-content object is hashed on its own and keys equally.
        twin = grid_2d(9, 7)
        assert provider.graph_key(twin) == digest
        assert len(hashed) == 4
        # A graph unpickled without the memo slot set digests afresh.
        clone = pickle.loads(pickle.dumps(grid_2d(9, 7)))
        del clone._digest
        assert store.graph_digest(clone) == digest
        assert len(hashed) == 6

    def test_pool_provider_bounds_resident_graphs(self):
        with PoolProvider(max_workers=1, max_resident_graphs=2) as provider:
            graphs = [grid_2d(4 + i, 4) for i in range(4)]
            for g in graphs:
                provider.decompose(g, BETA, seed=0)
            stats = provider.stats()
            assert stats["resident_graphs"] <= 2
            assert stats["pool"]["graphs"] <= 2

    def test_pool_provider_inline_cutoff_skips_pool(self):
        with PoolProvider(max_workers=1, inline_cutoff=10**6) as provider:
            result = provider.decompose(GRAPH, BETA, seed=0)
            stats = provider.stats()
            assert stats["inline_runs"] == 1
            assert stats["pool"]["submitted"] == 0
            ref = EngineProvider().decompose(GRAPH, BETA, seed=0)
            np.testing.assert_array_equal(
                result.decomposition.center, ref.decomposition.center
            )

    def test_pool_provider_concurrent_threads_with_eviction(self):
        """The serve layer shares one PoolProvider across executor threads;
        a tiny residency bound must not corrupt concurrent requests."""
        from concurrent.futures import ThreadPoolExecutor

        graphs = [grid_2d(4 + i, 5) for i in range(6)]
        expected = [
            EngineProvider().decompose(g, BETA, seed=1).decomposition.center
            for g in graphs
        ]
        # spawn: this pool is created while the module's serve thread is
        # alive, and the test then submits from a thread pool — fork-safe
        # start method removes the fork-under-threads hazard entirely.
        with PoolProvider(
            max_workers=2, max_resident_graphs=2, memo_bytes=0,
            start_method="spawn",
        ) as provider:
            def run(i):
                return provider.decompose(
                    graphs[i], BETA, seed=1
                ).decomposition.center

            with ThreadPoolExecutor(max_workers=4) as tpe:
                results = list(tpe.map(run, list(range(6)) * 3))
        for idx, center in zip(list(range(6)) * 3, results):
            np.testing.assert_array_equal(center, expected[idx])

    def test_serve_provider_needs_client_or_address(self):
        with pytest.raises(ParameterError, match="ServeClient"):
            ServeProvider()

    def test_serve_provider_bounds_server_uploads(self, serve_stack):
        """Own uploads are LRU-discarded server-side past the budget; a
        re-request of an evicted digest self-heals by re-uploading."""
        _, client = serve_stack
        graphs = [grid_2d(3 + i, 4) for i in range(4)]
        before = client.stats()["store"]["graphs"]
        with ServeProvider(
            client=client, max_uploaded_graphs=2, memo_bytes=0
        ) as provider:
            for g in graphs:
                provider.decompose(g, BETA, seed=0)
            resident = client.stats()["store"]["graphs"]
            assert resident - before <= 2
            # The first graph was evicted; requesting it again re-uploads
            # and still returns the right (engine-identical) result.
            ref = EngineProvider().decompose(graphs[0], BETA, seed=0)
            again = provider.decompose(graphs[0], BETA, seed=0)
            np.testing.assert_array_equal(
                again.decomposition.center, ref.decomposition.center
            )

    def test_serve_provider_never_discards_shared_graphs(self, serve_stack):
        """A digest the server already held (preload/another client) is
        not this provider's to discard, whatever the budget."""
        server, client = serve_stack
        shared = grid_2d(9, 9)
        shared_digest = client.upload(shared)  # owned by "another client"
        with ServeProvider(
            client=client, max_uploaded_graphs=1, memo_bytes=0
        ) as provider:
            provider.decompose(shared, BETA, seed=0)
            for g in (grid_2d(3, 7), grid_2d(3, 8)):
                provider.decompose(g, BETA, seed=0)
            # Still resident: a direct decompose by digest must succeed.
            assert client.decompose(shared_digest, BETA, seed=0) is not None

    def test_discard_op_frees_and_reupload_restores(self, serve_stack):
        _, client = serve_stack
        g = grid_2d(7, 3)
        digest = client.upload(g)
        client.decompose(digest, BETA, seed=5)
        client.discard(digest)
        with pytest.raises(ServeError, match="unknown graph digest"):
            client.decompose(digest, BETA, seed=6)
        # Content addressing: the re-upload lands on the same digest and
        # earlier cached results are still valid for it.
        assert client.upload(g) == digest
        assert client.decompose(digest, BETA, seed=5).cached

    def test_abstract_provider_unimplemented(self):
        provider = DecompositionProvider()
        with pytest.raises(NotImplementedError):
            provider.decompose(GRAPH, BETA, seed=0)


class TestSeedDerivation:
    def test_ensure_int_seed_passthrough_and_draw(self):
        assert ensure_int_seed(17) == 17
        drawn = ensure_int_seed(None)
        assert isinstance(drawn, int)
        gen_a = ensure_int_seed(np.random.default_rng(5))
        gen_b = ensure_int_seed(np.random.default_rng(5))
        assert gen_a == gen_b  # same stream, same draw

    def test_ensure_int_seed_rejects_negative_and_bool(self):
        with pytest.raises(ValueError, match="non-negative"):
            ensure_int_seed(-1)
        with pytest.raises(TypeError, match="bool"):
            ensure_int_seed(True)

    def test_derive_seed_deterministic_and_token_sensitive(self):
        assert derive_seed(1, "akpw", 0) == derive_seed(1, "akpw", 0)
        assert derive_seed(1, "akpw", 0) != derive_seed(1, "akpw", 1)
        assert derive_seed(1, "akpw", 0) != derive_seed(2, "akpw", 0)
        assert 0 <= derive_seed(123, "x") < 2**63

    def test_hierarchy_reuses_stable_pieces_across_levels(self):
        # A per-piece method: the shift methods run on the level kernel
        # and send the provider nothing to memoize.
        provider = EngineProvider()
        hierarchical_decomposition(
            GRAPH, seed=0, method="sequential", provider=provider
        )
        stats = provider.stats()
        # Content-keyed sub-seeds make a piece that survives a level issue
        # the identical request again — the memo must see real reuse.
        assert stats["memo_hits"] > 0


# ---------------------------------------------------------------------------
# decompose_batch semantics
# ---------------------------------------------------------------------------
class TestDecomposeBatch:
    def _requests(self):
        return [
            DecomposeRequest(GRAPH, BETA, seed=1),
            DecomposeRequest(ER_GRAPH, 0.4, seed=2),
            DecomposeRequest(GRAPH, BETA, seed=1),  # duplicate of [0]
            DecomposeRequest(GRAPH, 0.5, method="bfs", seed=3),
        ]

    def _serial(self, requests):
        engine = EngineProvider()
        return [
            engine.decompose(
                r.graph, r.beta, method=r.method, seed=r.seed, **r.options
            )
            for r in requests
        ]

    def test_empty_batch(self):
        assert EngineProvider().decompose_batch([]) == []

    def test_results_in_request_order_match_serial(
        self, pool_provider, serve_provider, cluster_provider
    ):
        requests = self._requests()
        expected = self._serial(requests)
        for provider in (
            EngineProvider(), pool_provider, serve_provider,
            cluster_provider,
        ):
            for max_concurrent in (None, 1, 2):
                got = provider.decompose_batch(
                    requests, max_concurrent=max_concurrent
                )
                for want, out in zip(expected, got):
                    np.testing.assert_array_equal(
                        out.decomposition.center, want.decomposition.center
                    )
                    assert out.decomposition.graph is want.decomposition.graph

    def test_equal_requests_execute_once(self):
        provider = _CountingEngine(memo_bytes=0)
        requests = self._requests()
        provider.decompose_batch(requests)
        # 4 requests, one duplicate pair -> 3 backend executions, even
        # with the memo disabled (dedup is batch-local).
        assert len(provider.executed) == 3
        stats = provider.stats()
        assert stats["requests"] == 4
        assert stats["memo_hits"] == 0

    def test_memo_answers_warm_batches(self):
        provider = _CountingEngine()
        requests = self._requests()
        provider.decompose_batch(requests)
        executed = len(provider.executed)
        provider.decompose_batch(requests)
        assert len(provider.executed) == executed  # no new executions
        assert provider.stats()["memo_hits"] == 4
        # decompose() and decompose_batch() share one memo.
        provider.decompose(GRAPH, BETA, seed=1)
        assert len(provider.executed) == executed

    def test_batch_rehydrates_against_each_requests_graph(self):
        provider = EngineProvider()
        twin_a, twin_b = grid_2d(6, 6), grid_2d(6, 6)
        out = provider.decompose_batch([
            DecomposeRequest(twin_a, BETA, seed=0),
            DecomposeRequest(twin_b, BETA, seed=0),
        ])
        assert out[0].decomposition.graph is twin_a
        assert out[1].decomposition.graph is twin_b

    def test_request_validation(self):
        provider = EngineProvider()
        with pytest.raises(ParameterError, match="DecomposeRequest"):
            provider.decompose_batch([object()])
        with pytest.raises(ParameterError, match="integer seed"):
            provider.decompose_batch(
                [DecomposeRequest(GRAPH, BETA, seed=True)]
            )
        with pytest.raises(ParameterError, match="unknown method"):
            provider.decompose_batch(
                [DecomposeRequest(GRAPH, BETA, method="nope")]
            )
        with pytest.raises(ParameterError, match="no option"):
            provider.decompose_batch(
                [DecomposeRequest(GRAPH, BETA, options={"bogus": 1})]
            )

    def test_max_concurrent_validation(self):
        provider = EngineProvider()
        requests = [DecomposeRequest(GRAPH, BETA, seed=0)]
        for bad in (0, -1, True, 1.5):
            with pytest.raises(ParameterError, match="max_concurrent"):
                provider.decompose_batch(requests, max_concurrent=bad)

    def test_closed_provider_rejects_batches(self):
        provider = EngineProvider()
        provider.close()
        with pytest.raises(ParameterError, match="closed"):
            provider.decompose_batch([DecomposeRequest(GRAPH, BETA)])

    def test_inline_cutoff_applies_to_batches(self):
        with PoolProvider(max_workers=1, inline_cutoff=10**6) as provider:
            out = provider.decompose_batch(
                [DecomposeRequest(GRAPH, BETA, seed=0)]
            )
            stats = provider.stats()
            assert stats["inline_runs"] == 1
            assert stats["pool"]["submitted"] == 0
        ref = EngineProvider().decompose(GRAPH, BETA, seed=0)
        np.testing.assert_array_equal(
            out[0].decomposition.center, ref.decomposition.center
        )

    def test_pool_batch_bounds_residency_and_pins_inflight(self):
        """A wide batch over many distinct graphs must respect the
        residency bound without evicting a graph mid-request."""
        graphs = [grid_2d(4 + i, 4) for i in range(6)]
        expected = [
            EngineProvider().decompose(g, BETA, seed=1).decomposition.center
            for g in graphs
        ]
        with PoolProvider(
            max_workers=2, max_resident_graphs=2, memo_bytes=0
        ) as provider:
            out = provider.decompose_batch(
                [DecomposeRequest(g, BETA, seed=1) for g in graphs]
            )
            assert provider.stats()["resident_graphs"] <= 2
        for want, got in zip(expected, out):
            np.testing.assert_array_equal(got.decomposition.center, want)


# ---------------------------------------------------------------------------
# level-parallel applications: determinism across backends and windows
# ---------------------------------------------------------------------------
class TestLevelParallelDeterminism:
    @pytest.mark.parametrize("method", method_names("unweighted"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_akpw_and_hst_bit_identical_at_any_concurrency(
        self, method, seed, pool_provider, serve_provider, cluster_provider
    ):
        """Level-parallel AKPW/HST ≡ serial, for every registered method,
        on all four providers, serial-forced and unbounded."""
        engine = EngineProvider()
        expected = None
        for provider in (
            engine, pool_provider, serve_provider, cluster_provider
        ):
            for max_concurrent in (1, None):
                tree = akpw_spanning_tree(
                    GRAPH, beta=0.4, seed=seed, method=method,
                    provider=provider, max_concurrent=max_concurrent,
                )
                hierarchy = hierarchical_decomposition(
                    GRAPH, seed=seed, method=method, provider=provider,
                    max_concurrent=max_concurrent,
                )
                got = (
                    _digest(tree.forest.parent),
                    _digest(*hierarchy.labels),
                )
                if expected is None:
                    expected = got
                else:
                    assert got == expected, (
                        f"{provider.backend} drifted at method={method} "
                        f"seed={seed} max_concurrent={max_concurrent}"
                    )

    def test_trivial_pieces_never_reach_the_backend(self):
        """Single-vertex pieces short-circuit locally: every request the
        hierarchy or AKPW sends to the backend has at least one edge."""
        from repro.graphs.build import from_edges

        # Two small components plus three isolated vertices.
        graph = from_edges(
            9, np.asarray([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5]])
        )
        provider = _CountingEngine(memo_bytes=0)
        # A per-piece method: the shift methods send no request at all.
        hierarchical_decomposition(
            graph, seed=0, method="uniform", provider=provider
        )
        akpw_spanning_tree(
            graph, beta=0.4, seed=0, method="uniform", provider=provider
        )
        assert provider.executed, "applications stopped using the provider"
        assert all(g.num_vertices > 1 for g in provider.executed)
        assert all(g.num_edges > 0 for g in provider.executed)

    @pytest.mark.parametrize("method", ["auto", "bfs", "permutation",
                                        "quantile"])
    def test_shift_methods_send_the_provider_nothing(self, method):
        """The shift methods decompose a whole level in one BFS on the
        level kernel: no per-piece request reaches the provider."""
        from repro.graphs.build import from_edges

        graph = from_edges(
            9, np.asarray([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5]])
        )
        provider = _CountingEngine(memo_bytes=0)
        for g in (graph, GRAPH):
            hierarchical_decomposition(
                g, seed=0, method=method, provider=provider
            )
            akpw_spanning_tree(
                g, beta=0.4, seed=0, method=method, provider=provider
            )
        assert provider.executed == []
        assert provider.stats()["requests"] == 0


# ---------------------------------------------------------------------------
# serve application ops
# ---------------------------------------------------------------------------
class TestServeApplicationOps:
    @pytest.fixture(scope="class")
    def uploaded(self, serve_stack):
        _, client = serve_stack
        return client, client.upload(GRAPH)

    def test_spanner_matches_local_and_caches(self, uploaded):
        client, digest = uploaded
        local = ldd_spanner(
            GRAPH, BETA, seed=11, provider=EngineProvider()
        )
        served = client.spanner(digest, BETA, seed=11)
        assert not served.cached
        np.testing.assert_array_equal(
            served.edges, local.spanner.edge_array()
        )
        assert served.stretch_bound == local.stretch_bound
        assert served.num_tree_edges == local.num_tree_edges
        assert served.num_bridge_edges == local.num_bridge_edges
        again = client.spanner(digest, BETA, seed=11)
        assert again.cached
        assert again.result_digest() == served.result_digest()

    def test_tree_matches_local_and_caches(self, uploaded):
        client, digest = uploaded
        local = akpw_spanning_tree(
            GRAPH, beta=0.4, seed=11, provider=EngineProvider()
        )
        served = client.lowstretch_tree(digest, beta=0.4, seed=11)
        np.testing.assert_array_equal(served.parent, local.forest.parent)
        assert served.level_sizes == local.level_sizes
        assert served.level_betas == local.level_betas
        assert client.lowstretch_tree(digest, beta=0.4, seed=11).cached

    def test_hierarchy_matches_local_and_caches(self, uploaded):
        client, digest = uploaded
        local = hierarchical_decomposition(
            GRAPH, seed=11, provider=EngineProvider()
        )
        served = client.hierarchy(digest, seed=11)
        assert served.num_levels == local.num_levels
        for got, want in zip(served.labels, local.labels):
            np.testing.assert_array_equal(got, want)
        assert served.scale == local.scale
        assert client.hierarchy(digest, seed=11).cached

    @pytest.mark.parametrize("method", ["quantile", "sequential"])
    def test_app_ops_match_local_on_both_level_paths(self, uploaded, method):
        """A shift method (the level kernel) and a per-piece method (the
        worker's in-process provider) both serve the local answer."""
        client, digest = uploaded
        local_h = hierarchical_decomposition(GRAPH, seed=5, method=method)
        served_h = client.hierarchy(digest, seed=5, method=method)
        for got, want in zip(served_h.labels, local_h.labels):
            np.testing.assert_array_equal(got, want)
        local_t = akpw_spanning_tree(GRAPH, beta=0.4, seed=5, method=method)
        served_t = client.lowstretch_tree(
            digest, beta=0.4, seed=5, method=method
        )
        np.testing.assert_array_equal(served_t.parent, local_t.forest.parent)

    def test_app_ops_share_cache_namespace_safely(self, uploaded):
        """A spanner and a raw decompose of one config never collide."""
        client, digest = uploaded
        spanner = client.spanner(digest, 0.25, seed=13)
        decomposed = client.decompose(digest, 0.25, seed=13)
        assert spanner.result_digest() != decomposed.result_digest()
        # Both warm independently.
        assert client.spanner(digest, 0.25, seed=13).cached
        assert client.decompose(digest, 0.25, seed=13).cached

    def test_app_op_rejects_weighted_graph(self, serve_stack):
        _, client = serve_stack
        weighted = weights_by_name(grid_2d(5, 5), "unit", seed=0)
        digest = client.upload(weighted)
        with pytest.raises(ServeError, match="unweighted"):
            client.spanner(digest, 0.3, seed=0)

    def test_app_op_unknown_digest(self, serve_stack):
        _, client = serve_stack
        with pytest.raises(ServeError, match="unknown graph digest"):
            client.lowstretch_tree("no-such-digest", seed=0)

    def test_app_op_method_and_options_validated(self, uploaded):
        client, digest = uploaded
        with pytest.raises(ServeError, match="unknown method"):
            client.spanner(digest, BETA, method="nope", seed=0)
        with pytest.raises(ServeError, match="no option"):
            client.spanner(digest, BETA, seed=0, bogus=2)

    def test_stats_report_app_counters(self, serve_stack, uploaded):
        client, digest = uploaded
        client.spanner(digest, BETA, seed=11)  # warm by earlier test or now
        stats = client.stats()
        assert stats["server"]["app_requests"] >= 1
        assert stats["server"]["app_executions"] >= 1
        # An application op is one pool task; no provider runs server-side.
        assert "app_provider" not in stats

    def test_hello_advertises_app_ops(self, serve_stack):
        _, client = serve_stack
        ops = client.hello()["ops"]
        for op in ("spanner", "lowstretch_tree", "hierarchy", "decompose"):
            assert op in ops
