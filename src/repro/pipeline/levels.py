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
from repro.core.shifts import sample_shifts_batch
from repro.errors import ParameterError
from repro.graphs.csr import CSRGraph
from repro.graphs.ops import concat_ranges, piece_layout, split_by_labels
from repro.graphs.weighted import WeightedCSRGraph
from repro.pipeline.providers import DecomposeRequest, resolve_provider
from repro.rng.seeding import derive_seed
from repro.serve.store import graph_digest, piece_digests
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
    ``labels`` needs an unweighted graph: the piece layout carries no
    weights.

    With a shift method the level runs in three passes.  First, every
    non-trivial piece is hashed from one vectorised local-CSR view of the
    layout (:func:`~repro.serve.store.piece_digests`).  Second, each
    *distinct* digest is drawn once with
    :func:`~repro.core.shifts.sample_shifts_batch` and copied to every
    piece that has it — equal digests mean equal seeds, and ``β`` is fixed
    within a level, so those pieces would draw equal shifts.  Third, one
    delayed BFS runs over the layout graph.  The first two are traced as
    one ``pipeline.level_shifts`` span (``pieces``, ``distinct``), the BFS
    as ``pipeline.level``.

    Returns a :class:`Decomposition` of ``graph`` whose pieces refine
    ``labels``, with parent-graph ``center`` and ``hops``.  ``provider``
    (and ``max_concurrent``) serve only the per-piece methods; the shift
    methods send it no request.
    """
    options = dict(options or {})
    if labels is not None and isinstance(graph, WeightedCSRGraph):
        raise ParameterError(
            "decompose_level: labels need an unweighted graph (the piece "
            "layout carries no weights); pass labels=None to decompose a "
            "weighted graph whole"
        )
    spec = resolve_method(graph_kind(graph), method)
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
        order, bfs_graph, layout = None, graph, None
    else:
        layout = piece_layout(graph, labels)
        order, bfs_graph = layout.order, layout.graph
    with _trace.span("pipeline.level_shifts") as span:
        start_time, tie_key, pieces, distinct = _level_shifts(
            graph, layout, beta, root_seed, tag, mode
        )
        span.annotate(pieces=pieces, distinct=distinct)
    with _trace.span("pipeline.level", pieces=pieces, vertices=n):
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


def _level_shifts(graph, layout, beta, root_seed, tag, mode):
    """Start times and tie keys of a whole level, in layout order.

    Returns ``(start_time, tie_key, pieces, distinct)``: the number of
    non-trivial pieces and of distinct digests among them.  Pieces of one
    vertex wake at time 0 and own themselves: no arc reaches them, so
    their key never meets another's.
    """
    n = graph.num_vertices
    if layout is None:
        start_time, tie_key = sample_shifts_batch(
            [n], [derive_seed(root_seed, tag, graph_digest(graph))], beta,
            mode=mode,
        )
        return start_time, tie_key, 1, 1
    sizes = np.diff(layout.bounds)
    nontrivial = np.flatnonzero(sizes > 1)
    digests = piece_digests(layout, nontrivial)
    # which[i]: rank of piece i's digest among the distinct ones, in
    # order of first appearance; first[d]: the first piece with digest d.
    rank: dict[str, int] = {}
    which = np.fromiter(
        (rank.setdefault(d, len(rank)) for d in digests),
        dtype=np.int64, count=len(digests),
    )
    _, first = np.unique(which, return_index=True)
    drawn_sizes = sizes[nontrivial[first]]
    drawn_time, drawn_key = sample_shifts_batch(
        drawn_sizes,
        [derive_seed(root_seed, tag, d) for d in rank],
        beta,
        mode=mode,
    )
    # Copy each distinct draw to every piece with its digest.
    piece_sizes = sizes[nontrivial]
    drawn_start = np.cumsum(drawn_sizes) - drawn_sizes
    src = concat_ranges(drawn_start[which], piece_sizes)
    dst = concat_ranges(layout.bounds[nontrivial], piece_sizes)
    start_time = np.zeros(n, dtype=np.float64)
    tie_key = np.zeros(n, dtype=np.float64)
    start_time[dst] = drawn_time[src]
    tie_key[dst] = drawn_key[src]
    return start_time, tie_key, len(digests), len(rank)


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
