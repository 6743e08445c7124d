"""Tests for the shared-memory batch runtime (repro.runtime)."""

from __future__ import annotations

import pickle
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.core.engine import decompose, decompose_many
from repro.errors import ParameterError
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi, grid_2d, path_graph
from repro.graphs.weighted import WeightedCSRGraph, weights_by_name
from repro.runtime import (
    DecompositionPool,
    DecompositionRequest,
    SharedCSR,
    SharedWeightedCSR,
    attach_shared,
    measure_throughput,
    share_graph,
)


class TestSharedCSR:
    def test_roundtrip_preserves_graph(self):
        graph = grid_2d(9, 7)
        with share_graph(graph) as shared:
            assert shared.owner
            assert shared.graph == graph
            attached = attach_shared(shared.descriptor)
            assert attached.graph == graph
            assert not attached.owner
            attached.close()

    def test_attachment_is_zero_copy(self):
        graph = path_graph(100)
        with share_graph(graph) as shared:
            attached = attach_shared(shared.descriptor)
            # Both sides view the same physical segment: no array owns its
            # data, and the owner's view aliases the attachment's.
            assert not attached.graph.indices.flags.owndata
            assert not shared.graph.indices.flags.owndata
            attached.graph.indices[:]  # readable
            with pytest.raises((ValueError, RuntimeError)):
                attached.graph.indices[0] = 1  # still immutable
            attached.close()

    def test_weighted_roundtrip(self):
        graph = weights_by_name(grid_2d(6, 6), "uniform:0.5,2.0", seed=3)
        shared = share_graph(graph)
        assert isinstance(shared, SharedWeightedCSR)
        attached = attach_shared(shared.descriptor)
        assert isinstance(attached.graph, WeightedCSRGraph)
        np.testing.assert_array_equal(attached.graph.weights, graph.weights)
        attached.close()
        shared.close()

    def test_descriptor_is_small_and_picklable(self):
        graph = grid_2d(40, 40)
        with share_graph(graph) as shared:
            blob = pickle.dumps(shared.descriptor)
            # The whole point: reattachment tokens are O(1), not O(m).
            assert len(blob) < 2000
            restored = pickle.loads(blob)
            attached = attach_shared(restored)
            assert attached.graph == graph
            attached.close()

    def test_close_unlinks_for_owner(self):
        shared = share_graph(path_graph(10))
        descriptor = shared.descriptor
        shared.close()
        assert shared.closed
        with pytest.raises(ParameterError, match="does not exist"):
            attach_shared(descriptor)
        shared.close()  # idempotent

    def test_attached_close_keeps_segment(self):
        shared = share_graph(path_graph(10))
        attached = attach_shared(shared.descriptor)
        attached.close()
        again = attach_shared(shared.descriptor)  # segment still there
        assert again.graph == shared.graph
        again.close()
        shared.close()

    def test_attached_cannot_unlink(self):
        with share_graph(path_graph(10)) as shared:
            attached = attach_shared(shared.descriptor)
            with pytest.raises(ParameterError, match="owning"):
                attached.unlink()
            attached.close()

    def test_graph_access_after_close_raises(self):
        shared = share_graph(path_graph(10))
        shared.close()
        with pytest.raises(ParameterError, match="closed"):
            shared.graph

    def test_share_rejects_non_graphs(self):
        with pytest.raises(ParameterError, match="CSRGraph"):
            share_graph([[0, 1]])

    def test_typed_wrappers_enforce_graph_class(self):
        with pytest.raises(ParameterError, match="WeightedCSRGraph"):
            SharedWeightedCSR.create(grid_2d(3, 3))

    def test_nbytes_matches_graph_arrays(self):
        graph = grid_2d(5, 5)
        with share_graph(graph) as shared:
            expected = sum(a.nbytes for a in graph.csr_arrays().values())
            assert shared.nbytes() == expected

    def test_plain_shared_csr_on_unweighted(self):
        graph = erdos_renyi(30, 0.2, seed=1)
        with SharedCSR.create(graph) as shared:
            assert type(shared) is SharedCSR
            assert shared.graph == graph


class TestFromArrays:
    def test_csr_from_arrays_zero_copy(self):
        graph = grid_2d(4, 4)
        rebuilt = CSRGraph.from_arrays(graph.csr_arrays())
        assert rebuilt == graph
        assert np.shares_memory(rebuilt.indptr, graph.indptr)

    def test_weighted_from_arrays(self):
        graph = weights_by_name(grid_2d(4, 4), "unit:2.0")
        rebuilt = WeightedCSRGraph.from_arrays(graph.csr_arrays())
        np.testing.assert_array_equal(rebuilt.weights, graph.weights)


class TestDecompositionPool:
    def test_matches_serial_bit_for_bit(self):
        graph = grid_2d(12, 12)
        with DecompositionPool(graph, max_workers=2) as pool:
            pooled = pool.decompose("0", 0.2, seed=7, validate=True)
        serial = decompose(graph, 0.2, seed=7, validate=True)
        np.testing.assert_array_equal(
            pooled.decomposition.center, serial.decomposition.center
        )
        np.testing.assert_array_equal(
            pooled.decomposition.hops, serial.decomposition.hops
        )
        assert pooled.trace.method == serial.trace.method
        assert pooled.report is not None
        assert pooled.report.all_invariants_hold()

    def test_result_rehydrates_against_parent_graph(self):
        graph = grid_2d(8, 8)
        with DecompositionPool(graph) as pool:
            result = pool.decompose("0", 0.3, seed=1)
        # The decomposition's graph is the parent's object, not a copy
        # shipped back through the pipe.
        assert result.decomposition.graph is graph

    def test_multiple_graphs_by_key(self):
        graphs = {"grid": grid_2d(8, 8), "path": path_graph(50)}
        with DecompositionPool(graphs, max_workers=2) as pool:
            assert pool.graph_keys == ("grid", "path")
            assert pool.graph("path") is graphs["path"]
            for key, graph in graphs.items():
                pooled = pool.decompose(key, 0.3, seed=5)
                serial = decompose(graph, 0.3, seed=5)
                np.testing.assert_array_equal(
                    pooled.decomposition.center, serial.decomposition.center
                )

    def test_sequence_input_gets_index_keys(self):
        with DecompositionPool([grid_2d(4, 4), path_graph(9)]) as pool:
            assert pool.graph_keys == ("0", "1")

    def test_weighted_graph_through_pool(self):
        graph = weights_by_name(grid_2d(8, 8), "uniform:0.5,2.0", seed=2)
        with DecompositionPool({"w": graph}) as pool:
            pooled = pool.decompose("w", 0.2, seed=4)
        serial = decompose(graph, 0.2, seed=4)
        np.testing.assert_array_equal(
            pooled.decomposition.center, serial.decomposition.center
        )
        np.testing.assert_array_equal(
            pooled.decomposition.radius, serial.decomposition.radius
        )

    def test_run_preserves_request_order(self):
        graph = grid_2d(8, 8)
        requests = [
            DecompositionRequest(graph_key="0", beta=0.3, seed=s)
            for s in (9, 2, 5)
        ]
        with DecompositionPool(graph, max_workers=2) as pool:
            results = pool.run(requests)
        for req, res in zip(requests, results):
            serial = decompose(graph, 0.3, seed=req.seed)
            np.testing.assert_array_equal(
                res.decomposition.center, serial.decomposition.center
            )

    def test_run_empty_batch(self):
        with DecompositionPool(grid_2d(4, 4)) as pool:
            assert pool.run([]) == []

    def test_options_and_method_forwarded(self):
        graph = grid_2d(8, 8)
        with DecompositionPool(graph) as pool:
            result = pool.decompose(
                "0", 0.3, method="bfs", seed=1, tie_break="permutation"
            )
        assert result.trace.method == "bfs-permutation"

    def test_cancelled_future_does_not_poison_the_pool(self):
        """Cancelling a chained future while the worker still runs must
        neither raise in the callback thread nor break later requests."""
        graph = grid_2d(10, 10)
        with DecompositionPool(graph, max_workers=1) as pool:
            future = pool.submit("0", 0.2, seed=0)
            cancelled = future.cancel()
            # Whatever the race outcome, the pool must keep serving and the
            # future must be in a terminal state once the task drains.
            follow_up = pool.decompose("0", 0.2, seed=1)
            assert follow_up.decomposition.num_pieces >= 1
            if cancelled:
                with pytest.raises(CancelledError):
                    future.result(timeout=10)
            else:
                assert future.result(timeout=10) is not None

    def test_bad_requests_fail_fast_parent_side(self):
        with DecompositionPool(grid_2d(4, 4)) as pool:
            with pytest.raises(ParameterError, match="unknown graph key"):
                pool.submit("nope", 0.3)
            with pytest.raises(ParameterError, match="unknown method"):
                pool.submit("0", 0.3, method="bogus")
            with pytest.raises(ParameterError, match="accepted options"):
                pool.submit("0", 0.3, bogus=1)

    def test_shutdown_unlinks_segments(self):
        pool = DecompositionPool(grid_2d(4, 4))
        descriptor = pool._shared["0"].descriptor
        pool.shutdown()
        assert pool.closed
        with pytest.raises(ParameterError, match="does not exist"):
            attach_shared(descriptor)
        with pytest.raises(ParameterError, match="shut down"):
            pool.submit("0", 0.3)
        with pytest.raises(ParameterError, match="shut down"):
            pool.run([DecompositionRequest(graph_key="0", beta=0.3)])
        pool.shutdown()  # idempotent

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError, match="not a CSRGraph"):
            DecompositionPool({"g": object()})
        with pytest.raises(ParameterError, match="strings"):
            DecompositionPool({0: grid_2d(3, 3)})
        with pytest.raises(ParameterError, match="max_workers"):
            DecompositionPool(grid_2d(3, 3), max_workers=0)

    def test_empty_pool_allowed_for_late_registration(self):
        """A pool may start with no graphs: the serving layer registers
        uploads long after the workers exist."""
        with DecompositionPool(max_workers=1) as pool:
            assert pool.graph_keys == ()
            with pytest.raises(ParameterError, match="unknown graph key"):
                pool.submit("g", 0.3)
            pool.register_graph("g", grid_2d(6, 6))
            result = pool.decompose("g", 0.3, seed=1)
            assert result.decomposition.num_pieces >= 1


class TestLiveRegistration:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_register_on_live_pool_matches_serial(self, start_method):
        """Graphs registered after worker startup must decompose
        bit-identically to serial under both start methods (the lazy
        attach-by-descriptor path)."""
        first = grid_2d(8, 8)
        late = erdos_renyi(60, 0.1, seed=3)
        with DecompositionPool(
            {"first": first}, max_workers=1, start_method=start_method
        ) as pool:
            # Warm the worker on the construction-time graph first, so the
            # late registration exercises attach-after-start.
            pool.decompose("first", 0.3, seed=0)
            pool.register_graph("late", late)
            assert pool.graph_keys == ("first", "late")
            pooled = pool.decompose("late", 0.3, seed=5)
            serial = decompose(late, 0.3, seed=5)
            np.testing.assert_array_equal(
                pooled.decomposition.center, serial.decomposition.center
            )
            np.testing.assert_array_equal(
                pooled.decomposition.hops, serial.decomposition.hops
            )
            assert pooled.decomposition.graph is late

    def test_register_weighted_on_live_pool(self):
        graph = weights_by_name(grid_2d(6, 6), "uniform:0.5,2.0", seed=1)
        with DecompositionPool(max_workers=1) as pool:
            pool.register_graph("w", graph)
            pooled = pool.decompose("w", 0.2, seed=4)
        serial = decompose(graph, 0.2, seed=4)
        np.testing.assert_array_equal(
            pooled.decomposition.radius, serial.decomposition.radius
        )

    def test_unregister_then_reregister_same_key(self):
        """A key re-registered under a fresh segment must serve the new
        graph — workers detect the segment change and re-attach."""
        a, b = grid_2d(5, 5), path_graph(30)
        with DecompositionPool({"g": a}, max_workers=1) as pool:
            res_a = pool.decompose("g", 0.3, seed=2)
            assert res_a.decomposition.graph is a
            pool.unregister_graph("g")
            with pytest.raises(ParameterError, match="unknown graph key"):
                pool.submit("g", 0.3)
            pool.register_graph("g", b)
            res_b = pool.decompose("g", 0.3, seed=2)
            assert res_b.decomposition.graph is b
            serial = decompose(b, 0.3, seed=2)
            np.testing.assert_array_equal(
                res_b.decomposition.center, serial.decomposition.center
            )

    def test_unregister_unlinks_segment(self):
        with DecompositionPool({"g": grid_2d(4, 4)}) as pool:
            descriptor = pool._shared["g"].descriptor
            pool.unregister_graph("g")
            with pytest.raises(ParameterError, match="does not exist"):
                attach_shared(descriptor)
            assert pool.shared_nbytes() == 0

    def test_register_rejects_duplicates_and_bad_inputs(self):
        with DecompositionPool({"g": grid_2d(4, 4)}) as pool:
            with pytest.raises(ParameterError, match="already registered"):
                pool.register_graph("g", grid_2d(3, 3))
            with pytest.raises(ParameterError, match="strings"):
                pool.register_graph(7, grid_2d(3, 3))
            with pytest.raises(ParameterError, match="not a CSRGraph"):
                pool.register_graph("h", object())
            with pytest.raises(ParameterError, match="unknown graph key"):
                pool.unregister_graph("nope")
        with pytest.raises(ParameterError, match="shut down"):
            pool.register_graph("h", grid_2d(3, 3))

    def test_stats_counters(self):
        graph = grid_2d(6, 6)
        with DecompositionPool(graph, max_workers=1) as pool:
            base = pool.stats()
            assert base["submitted"] == 0 and base["graphs"] == 1
            assert base["shared_bytes"] == pool.shared_nbytes()
            pool.decompose("0", 0.3, seed=0)
            pool.run(
                [DecompositionRequest(graph_key="0", beta=0.3, seed=s)
                 for s in (1, 2)]
            )
            stats = pool.stats()
            assert stats["submitted"] == 3
            assert stats["completed"] == 3
            assert stats["failed"] == 0
            assert not stats["closed"]
        assert pool.stats()["closed"]

    def test_stats_batch_failure_counts_per_request(self):
        """A failing request mid-batch must not mark the already-yielded
        successes as failed."""
        graph = grid_2d(6, 6)
        with DecompositionPool(graph, max_workers=1) as pool:
            requests = [
                DecompositionRequest(graph_key="0", beta=0.3, seed=0),
                DecompositionRequest(graph_key="0", beta=-1.0, seed=1),
                DecompositionRequest(graph_key="0", beta=0.3, seed=2),
            ]
            with pytest.raises(Exception):
                # beta is validated inside the method, worker-side; the
                # pool surfaces the per-request exception from map().
                pool.run(requests, chunksize=1)
            stats = pool.stats()
            assert stats["submitted"] == 3
            assert stats["completed"] == 1  # seed=0 finished first
            assert stats["failed"] == 2  # the bad one + the never-yielded one


class TestEngineSharedExecutor:
    def test_shared_matches_serial(self):
        graph = grid_2d(10, 10)
        shared = decompose_many(graph, 0.2, seeds=4, max_workers=2)
        serial = decompose_many(graph, 0.2, seeds=4, max_workers=1)
        for a, b in zip(shared.runs, serial.runs):
            assert (a.graph_index, a.seed) == (b.graph_index, b.seed)
            np.testing.assert_array_equal(
                a.result.decomposition.center, b.result.decomposition.center
            )
            np.testing.assert_array_equal(
                a.result.decomposition.hops, b.result.decomposition.hops
            )

    def test_shared_multi_graph_batch(self):
        graphs = [grid_2d(6, 6), path_graph(40)]
        shared = decompose_many(graphs, 0.3, seeds=[5, 9], max_workers=2)
        serial = decompose_many(graphs, 0.3, seeds=[5, 9], max_workers=1)
        assert [(r.graph_index, r.seed) for r in shared.runs] == [
            (r.graph_index, r.seed) for r in serial.runs
        ]
        for a, b in zip(shared.runs, serial.runs):
            np.testing.assert_array_equal(
                a.result.decomposition.center, b.result.decomposition.center
            )

    def test_auto_matches_serial(self):
        """The default worker count may route in process or through the
        shared runtime depending on CPU count — either way per-seed
        results must be identical."""
        graph = grid_2d(8, 8)
        auto = decompose_many(graph, 0.3, seeds=3)
        serial = decompose_many(graph, 0.3, seeds=3, max_workers=1)
        for a, b in zip(auto.runs, serial.runs):
            np.testing.assert_array_equal(
                a.result.decomposition.center, b.result.decomposition.center
            )

    def test_pool_failure_warns_once_and_runs_in_process(self, monkeypatch):
        """A pool that cannot start (no /dev/shm, no subprocesses) costs
        the batch its parallelism, not its results: one RuntimeWarning,
        then the in-process loop."""
        import repro.runtime.pool as pool_mod

        def no_pool(*args, **kwargs):
            raise OSError("no shared memory")

        monkeypatch.setattr(pool_mod, "DecompositionPool", no_pool)
        graph = grid_2d(8, 8)
        with pytest.warns(RuntimeWarning) as caught:
            fallback = decompose_many(graph, 0.3, seeds=3, max_workers=2)
        assert len(caught) == 1
        assert "pool unavailable" in str(caught[0].message)
        serial = decompose_many(graph, 0.3, seeds=3, max_workers=1)
        for a, b in zip(fallback.runs, serial.runs):
            assert (a.graph_index, a.seed) == (b.graph_index, b.seed)
            np.testing.assert_array_equal(
                a.result.decomposition.center, b.result.decomposition.center
            )
            np.testing.assert_array_equal(
                a.result.decomposition.hops, b.result.decomposition.hops
            )

    def test_spawn_start_method_conforms(self):
        """Attach-by-name must work without fork inheritance: a spawned
        worker reattaches purely from the pickled descriptor."""
        graph = grid_2d(6, 6)
        with DecompositionPool(
            graph, max_workers=1, start_method="spawn"
        ) as pool:
            pooled = pool.decompose("0", 0.3, seed=2)
        serial = decompose(graph, 0.3, seed=2)
        np.testing.assert_array_equal(
            pooled.decomposition.center, serial.decomposition.center
        )
        np.testing.assert_array_equal(
            pooled.decomposition.hops, serial.decomposition.hops
        )


class TestThroughput:
    def test_records_and_digests(self):
        graph = erdos_renyi(120, 0.1, seed=0)
        records = measure_throughput(
            graph,
            0.3,
            num_requests=4,
            executors=("serial", "shared"),
            max_workers=1,
        )
        assert set(records) == {"serial", "shared"}
        digests = {rec.assignments_digest for rec in records.values()}
        assert len(digests) == 1
        for rec in records.values():
            assert rec.num_requests == 4
            assert rec.requests_per_sec > 0

    def test_speedup_over(self):
        graph = path_graph(60)
        records = measure_throughput(
            graph, 0.3, num_requests=2, executors=("serial",)
        )
        rec = records["serial"]
        assert rec.speedup_over(rec) == pytest.approx(1.0)

    def test_rejects_bad_arguments(self):
        graph = path_graph(10)
        with pytest.raises(ParameterError, match="unknown throughput"):
            measure_throughput(graph, 0.3, executors=("warp",))
        with pytest.raises(ParameterError, match="num_requests"):
            measure_throughput(graph, 0.3, num_requests=0)
        with pytest.raises(ParameterError, match="repeats"):
            measure_throughput(graph, 0.3, repeats=0)
        with pytest.raises(ParameterError, match="max_workers"):
            measure_throughput(graph, 0.3, max_workers=0)
