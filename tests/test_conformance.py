"""Differential conformance: serial ≡ shared-memory pool.

The batch runtime's core guarantee is that *where* a decomposition runs
never changes *what* it computes: for every registered method, seed and
graph family, the in-process ``decompose_many(max_workers=1)`` and the
shared-memory pool (``decompose_many(max_workers=2)`` /
``DecompositionPool``) must produce bit-identical assignment arrays.  Any
drift — a worker sampling shifts from a different stream, a shared-memory
view changing dtype or layout, a slim-result rehydration bug — fails here
first.

The suite runs every unweighted method over several families and seeds and
the weighted methods over weighted lifts of the same families, comparing
``center`` plus ``hops`` (unweighted) / ``radius`` (weighted) exactly, and
the result summaries (pooled results carry the one their worker computed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bfs.delayed import delayed_multisource_bfs, resolve_claims
from repro.bfs.kernels import native_available
from repro.core.engine import decompose, decompose_many
from repro.core.registry import method_names
from repro.core.weighted import WeightedDecomposition
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi,
    grid_2d,
    path_graph,
)
from repro.graphs.weighted import weights_by_name
from repro.runtime import DecompositionPool, DecompositionRequest

SEEDS = (0, 3, 11)
BETA = 0.3

#: name -> unweighted graph; small but structurally diverse (grid structure,
#: the path worst case, a cycle, and a sparse possibly-disconnected ER).
FAMILIES = {
    "grid": grid_2d(8, 8),
    "path": path_graph(40),
    "cycle": cycle_graph(30),
    "er": erdos_renyi(60, 0.08, seed=1),
}

#: Weighted lifts of the same families for the weighted methods.
WEIGHTED_FAMILIES = {
    name: weights_by_name(graph, "uniform:0.5,2.0", seed=7)
    for name, graph in FAMILIES.items()
}


def _assignments(result):
    """The exact arrays conformance is defined over."""
    decomposition = result.decomposition
    if isinstance(decomposition, WeightedDecomposition):
        return decomposition.center, decomposition.radius
    return decomposition.center, decomposition.hops


def _assert_identical(result_a, result_b, context: str):
    center_a, extra_a = _assignments(result_a)
    center_b, extra_b = _assignments(result_b)
    np.testing.assert_array_equal(center_a, center_b, err_msg=context)
    np.testing.assert_array_equal(extra_a, extra_b, err_msg=context)
    assert result_a.trace.method == result_b.trace.method, context
    assert result_a.summary() == result_b.summary(), context


def _conformance_for(graphs: dict, method: str):
    """in process vs shared-memory pool over families × SEEDS."""
    graph_list = list(graphs.values())
    names = list(graphs)
    serial = decompose_many(
        graph_list, BETA, method=method, seeds=SEEDS, max_workers=1
    )
    pooled = decompose_many(
        graph_list, BETA, method=method, seeds=SEEDS, max_workers=2
    )
    for srun, prun in zip(serial.runs, pooled.runs):
        assert (srun.graph_index, srun.seed) == (prun.graph_index, prun.seed)
        context = (
            f"method={method} family={names[srun.graph_index]} "
            f"seed={srun.seed}"
        )
        _assert_identical(srun.result, prun.result, f"{context} [pool]")


# A pool that failed to start would fall back to the in-process loop with a
# RuntimeWarning and compare serial with serial; as an error it fails here.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", method_names("unweighted"))
def test_unweighted_methods_conform(method):
    _conformance_for(FAMILIES, method)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", method_names("weighted"))
def test_weighted_methods_conform(method):
    _conformance_for(WEIGHTED_FAMILIES, method)


def test_direct_pool_conforms_with_serial_across_methods():
    """The DecompositionPool API itself (not just the engine wrapper):
    one persistent pool serving every family, every method, every seed."""
    with DecompositionPool(FAMILIES, max_workers=2) as pool:
        requests = [
            DecompositionRequest(
                graph_key=name, beta=BETA, method=method, seed=seed
            )
            for name in FAMILIES
            for method in method_names("unweighted")
            for seed in SEEDS[:2]
        ]
        results = pool.run(requests)
    for req, result in zip(requests, results):
        serial = decompose(
            FAMILIES[req.graph_key], BETA, method=req.method, seed=req.seed
        )
        _assert_identical(
            result,
            serial,
            f"pool method={req.method} family={req.graph_key} "
            f"seed={req.seed}",
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validation_reports_survive_the_pool():
    """validate=True reports computed in workers equal serial ones."""
    batch = decompose_many(
        FAMILIES["grid"], BETA, seeds=[2, 3], validate=True, max_workers=2
    )
    for run in batch.runs:
        serial = decompose(
            FAMILIES["grid"], BETA, seed=run.seed, validate=True
        )
        assert run.result.report is not None
        assert run.result.report == serial.report


# ---------------------------------------------------------------------------
# python kernel ≡ native kernel
#
# The compiled extension is a second implementation of the same hot path;
# like the pool above, *which kernel ran* must never change *what was
# computed*.  Skipped (not silently passed) when the extension is not built.
# ---------------------------------------------------------------------------
needs_native = pytest.mark.skipif(
    not native_available(), reason="compiled kernel repro.bfs._kernel not built"
)


@needs_native
@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("method", method_names("unweighted"))
def test_kernels_conform_across_methods(method, seed):
    for name, graph in FAMILIES.items():
        python = decompose(
            graph, BETA, method=method, seed=seed, kernel="python"
        )
        native = decompose(
            graph, BETA, method=method, seed=seed, kernel="native"
        )
        _assert_identical(
            python, native,
            f"kernel method={method} family={name} seed={seed}",
        )


@needs_native
@pytest.mark.parametrize("restriction", ["center_mask", "max_round", "both"])
def test_kernels_conform_under_mask_and_cap(restriction):
    """The restricted BFS modes (batched centers, radius-capped growth) take
    different branches in both kernels; every result field must still match,
    including the -1 unowned convention."""
    for name, graph in FAMILIES.items():
        n = graph.num_vertices
        rng = np.random.default_rng(n)
        start = rng.random(n) * 5
        kwargs = {}
        if restriction in ("center_mask", "both"):
            mask = rng.random(n) < 0.25
            mask[int(rng.integers(n))] = True
            kwargs["center_mask"] = mask
        if restriction in ("max_round", "both"):
            kwargs["max_round"] = 3
        python = delayed_multisource_bfs(graph, start, kernel="python", **kwargs)
        native = delayed_multisource_bfs(graph, start, kernel="native", **kwargs)
        context = f"family={name} restriction={restriction}"
        np.testing.assert_array_equal(python.center, native.center, context)
        np.testing.assert_array_equal(
            python.round_claimed, native.round_claimed, context
        )
        np.testing.assert_array_equal(python.hops, native.hops, context)
        assert python.num_rounds == native.num_rounds, context
        assert python.active_rounds == native.active_rounds, context
        assert python.work == native.work, context
        assert python.frontier_sizes == native.frontier_sizes, context


@needs_native
@pytest.mark.parametrize(
    "num_vertices,count",
    [
        # Candidate volumes around the vertex count, where the numpy
        # engine once switched resolve implementation ...
        (2000, 1999),
        (2000, 2000),
        (2000, 2001),
        # ... and around its former 1024-candidate floor.
        (500, 1023),
        (500, 1024),
        (500, 1025),
    ],
)
def test_resolve_claims_boundaries_across_kernels(num_vertices, count):
    """The numpy packed-key resolve, with and without ``num_vertices``,
    and the native kernel produce identical winner sets (coarse keys force
    exact ties)."""
    rng = np.random.default_rng(num_vertices * 31 + count)
    cand_v = rng.integers(0, num_vertices, count)
    cand_c = rng.integers(0, num_vertices, count)
    tie_key = rng.integers(0, 8, num_vertices) / 8.0
    unbounded = resolve_claims(cand_v, cand_c, tie_key, kernel="python")
    bounded = resolve_claims(
        cand_v, cand_c, tie_key, num_vertices=num_vertices, kernel="python"
    )
    native = resolve_claims(
        cand_v, cand_c, tie_key, num_vertices=num_vertices, kernel="native"
    )
    for label, (winners, owners) in (
        ("python with num_vertices", bounded),
        ("native kernel", native),
    ):
        np.testing.assert_array_equal(unbounded[0], winners, label)
        np.testing.assert_array_equal(unbounded[1], owners, label)


# ---------------------------------------------------------------------------
# backing conformance: memmap graphs decompose identically to in-RAM ones
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def mmap_families(tmp_path_factory):
    """Memmap copies of every unweighted family, kept open for the module."""
    from repro.graphs import save_mmap_graph

    root = tmp_path_factory.mktemp("conformance-mmap")
    wrappers = {
        name: save_mmap_graph(graph, str(root / f"{name}.rgm"))
        for name, graph in FAMILIES.items()
    }
    yield {name: wrapper.graph for name, wrapper in wrappers.items()}
    for wrapper in wrappers.values():
        wrapper.close()


_BACKING_KERNELS = ["python"] + (["native"] if native_available() else [])


@pytest.mark.parametrize("kernel", _BACKING_KERNELS)
@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("method", method_names("unweighted"))
def test_memmap_backing_conforms(method, seed, kernel, mmap_families):
    """A file-backed (memmap) graph must decompose bit-identically to the
    same graph held in RAM, for every method under both kernels — the
    out-of-core substrate may change where arrays live, never answers."""
    from repro.bfs.kernels import use_kernel

    for name, via_file in mmap_families.items():
        context = (
            f"memmap family={name} method={method} seed={seed} "
            f"kernel={kernel}"
        )
        with use_kernel(kernel):
            from_file = decompose(via_file, BETA, method=method, seed=seed)
            from_ram = decompose(
                FAMILIES[name], BETA, method=method, seed=seed
            )
        _assert_identical(from_file, from_ram, context)
        recorded = from_file.trace.extra.get("kernel")
        assert recorded in (kernel, None), context
