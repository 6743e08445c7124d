"""Application ops as pool tasks: each op builds its payload in one worker.

The server submits one of these functions per application op through
:meth:`~repro.runtime.pool.DecompositionPool.submit_call`; the worker calls
it with its attached copy of the graph and returns the payload the server
caches and encodes.  Decompositions inside the application run in the
worker too: the shift methods on the level kernel
(:mod:`repro.pipeline.levels`), everything else through an
:class:`~repro.pipeline.EngineProvider` without a memo.
"""

from __future__ import annotations

from repro.graphs.csr import CSRGraph

__all__ = ["build_hierarchy", "build_lowstretch_tree", "build_spanner"]


def _engine():
    """The per-piece fallback's provider: in process, no memo.

    Imported here, not at module level: :mod:`repro.pipeline` imports the
    serve package, whose server imports this module.
    """
    from repro.pipeline import EngineProvider

    return EngineProvider(memo_bytes=0)


def build_spanner(
    graph: CSRGraph, beta: float, seed: int, method: str, options: dict
) -> dict:
    """The ``spanner`` op's payload."""
    from repro.spanners.cluster_spanner import ldd_spanner

    res = ldd_spanner(
        graph, beta, seed=seed, method=method,
        provider=_engine(), **options,
    )
    return {
        "op": "spanner",
        "stretch_bound": int(res.stretch_bound),
        "num_tree_edges": int(res.num_tree_edges),
        "num_bridge_edges": int(res.num_bridge_edges),
        "num_edges": int(res.num_edges),
        "edges": res.spanner.edge_array(),
        "summary": {"method": method, **res.decomposition.summary()},
    }


def build_lowstretch_tree(
    graph: CSRGraph,
    beta: float,
    seed: int,
    max_levels: int,
    method: str,
    options: dict,
) -> dict:
    """The ``lowstretch_tree`` op's payload."""
    from repro.lowstretch.akpw import akpw_spanning_tree

    res = akpw_spanning_tree(
        graph, beta=beta, seed=seed, max_levels=max_levels, method=method,
        provider=_engine(), **options,
    )
    return {
        "op": "lowstretch_tree",
        "parent": res.forest.parent,
        "level_sizes": [list(pair) for pair in res.level_sizes],
        "level_betas": list(res.level_betas),
        "num_levels": int(res.num_levels),
    }


def build_hierarchy(
    graph: CSRGraph,
    seed: int,
    beta_max: float,
    radius_constant: float,
    method: str,
    options: dict,
) -> dict:
    """The ``hierarchy`` op's payload."""
    from repro.embeddings.hierarchy import hierarchical_decomposition

    h = hierarchical_decomposition(
        graph, seed=seed, beta_max=beta_max,
        radius_constant=radius_constant, method=method,
        provider=_engine(), **options,
    )
    return {
        "op": "hierarchy",
        "labels": list(h.labels),
        "scale": [float(s) for s in h.scale],
        "num_levels": int(h.num_levels),
    }
