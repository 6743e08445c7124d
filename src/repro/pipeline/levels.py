"""One level of a multi-level application, decomposed in one shifted BFS.

The top-down hierarchy and AKPW decompose every piece of a partition on
its own, seeding piece ``P`` with ``derive_seed(root, tag, digest(P))``.
Algorithm 1 assigns ``u`` to the argmin over ``v`` of
``dist(u, v) − δ_v``, and a BFS never crosses an arc that is not there.
So for the methods registered on :func:`~repro.core.ldd_bfs.partition_bfs`
(``bfs``, ``permutation``, ``quantile``) a whole level is one delayed BFS
over the parent graph with the cross-piece arcs dropped (the
:func:`~repro.graphs.ops.piece_layout` graph), where each piece's slice of
start times and tie keys is drawn from that piece's own sub-seed.  The
answer is bit-identical to decomposing the pieces one by one.

Every other method (``blelloch``, ``exact``, ``sequential``, ``uniform``)
keeps the per-piece path: one provider request per non-trivial piece, as
one batch.  Those methods draw per-graph schedules that do not reduce to
per-vertex start times (DESIGN.md §10).
"""

from __future__ import annotations

import numpy as np

from repro.bfs.delayed import delayed_multisource_bfs
from repro.bfs.kernels import resolve_kernel
from repro.core.decomposition import Decomposition
from repro.core.engine import graph_kind, resolve_method
from repro.core.ldd_bfs import partition_bfs
from repro.core.shifts import sample_shifts
from repro.graphs.csr import CSRGraph
from repro.graphs.ops import piece_layout, split_by_labels
from repro.pipeline.providers import DecomposeRequest, resolve_provider
from repro.rng.seeding import derive_seed
from repro.serve.store import csr_digest, graph_digest
from repro.telemetry import trace as _trace

__all__ = ["decompose_level"]


def decompose_level(
    graph: CSRGraph,
    labels: np.ndarray | None,
    beta: float,
    *,
    root_seed: int,
    tag: str,
    method: str = "auto",
    options: dict | None = None,
    provider=None,
    max_concurrent: int | None = None,
) -> Decomposition:
    """Decompose every piece of ``labels`` independently, as one result.

    Piece ``P`` (a label class, with members in ascending id order) is
    decomposed as its induced subgraph with seed
    ``derive_seed(root_seed, tag, digest(P))``, where ``digest`` is
    :func:`~repro.serve.store.graph_digest` of that subgraph.  Pieces of
    one vertex are their own cluster.  ``labels=None`` means the whole
    graph is one piece, seeded by ``graph_digest(graph)`` and decomposed
    in place (no layout, so a memmap-backed graph is never copied).

    Returns a :class:`Decomposition` of ``graph`` whose pieces refine
    ``labels``, with parent-graph ``center`` and ``hops``.  ``provider``
    (and ``max_concurrent``) serve only the per-piece methods; the shift
    methods send it no request.
    """
    options = dict(options or {})
    kind = graph_kind(graph) if labels is None else "unweighted"
    spec = resolve_method(kind, method)
    if spec.func is not partition_bfs:
        return _per_piece(
            graph, labels, beta, root_seed, tag, spec.name, options,
            provider, max_concurrent,
        )
    bound = spec.bind(options)
    kernel = bound.get("kernel")
    if kernel is not None:
        resolve_kernel(kernel)  # fail fast: native requested but not built
    mode = bound.get("tie_break", "fractional")
    n = graph.num_vertices
    if labels is None:
        order, bfs_graph = None, graph
        slices = [(0, n, graph_digest(graph))]
    else:
        layout = piece_layout(graph, labels)
        order, bfs_graph, bounds = layout.order, layout.graph, layout.bounds
        slices = [
            (int(bounds[c]), int(bounds[c + 1]), _piece_digest(layout, c))
            for c in np.flatnonzero(np.diff(bounds) > 1).tolist()
        ]
    # Pieces of one vertex wake at time 0 and own themselves: no arc
    # reaches them, so their key never meets another's.
    start_time = np.zeros(n, dtype=np.float64)
    tie_key = np.zeros(n, dtype=np.float64)
    for lo, hi, digest in slices:
        shifts = sample_shifts(
            hi - lo, beta, seed=derive_seed(root_seed, tag, digest),
            mode=mode,
        )
        start_time[lo:hi] = shifts.start_time
        tie_key[lo:hi] = shifts.tie_key
    with _trace.span("pipeline.level", pieces=len(slices), vertices=n):
        result = delayed_multisource_bfs(
            bfs_graph, start_time, tie_key=tie_key, kernel=kernel
        )
    if order is None:
        return Decomposition(
            graph=graph, center=result.center, hops=result.hops
        )
    center = np.empty(n, dtype=np.int64)
    hops = np.empty(n, dtype=np.int64)
    center[order] = order[result.center]
    hops[order] = result.hops
    return Decomposition(graph=graph, center=center, hops=hops)


def _piece_digest(layout, label: int) -> str:
    """``graph_digest`` of piece ``label``'s induced subgraph, hashed from
    its layout slices without building the graph."""
    indptr, indices = layout.piece_arrays(label)
    return csr_digest(
        CSRGraph.__name__, {"indptr": indptr, "indices": indices}
    )


def _per_piece(
    graph, labels, beta, root_seed, tag, method, options, provider,
    max_concurrent,
) -> Decomposition:
    """One provider request per non-trivial piece, sent as one batch."""
    provider = resolve_provider(provider)
    if labels is None:
        request = DecomposeRequest(
            graph, beta, method=method,
            seed=derive_seed(root_seed, tag, provider.graph_key(graph)),
            options=options,
        )
        return provider.decompose_batch(
            [request], max_concurrent=max_concurrent
        )[0].decomposition
    nontrivial = [
        (members, sub)
        for members, sub in split_by_labels(graph, labels)
        if sub is not None
    ]
    requests = [
        DecomposeRequest(
            sub, beta, method=method,
            seed=derive_seed(root_seed, tag, provider.graph_key(sub)),
            options=options,
        )
        for _, sub in nontrivial
    ]
    results = provider.decompose_batch(
        requests, max_concurrent=max_concurrent
    )
    center = np.arange(graph.num_vertices, dtype=np.int64)
    hops = np.zeros(graph.num_vertices, dtype=np.int64)
    for (members, _), result in zip(nontrivial, results):
        center[members] = members[result.decomposition.center]
        hops[members] = result.decomposition.hops
    return Decomposition(graph=graph, center=center, hops=hops)
