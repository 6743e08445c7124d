"""Per-piece oracles for one hierarchy / AKPW level.

These are the level builders the library used before the level kernel
(:mod:`repro.pipeline.levels`): every non-trivial piece becomes its own
induced subgraph and its own provider request, seeded by the piece's
digest.  ``tests/test_level_kernel.py`` patches them in place of
``repro.embeddings.hierarchy._refine`` and
``repro.lowstretch.akpw._decompose_level`` and checks that the kernel
builds the identical hierarchies and trees.
"""

from __future__ import annotations

import numpy as np

from repro.core.decomposition import Decomposition
from repro.errors import GraphError
from repro.graphs.ops import connected_components, induced_subgraph
from repro.pipeline import DecomposeRequest
from repro.rng.seeding import derive_seed


def _pieces(graph, labels):
    """``split_by_labels``'s contract, one :func:`induced_subgraph` each."""
    labels = np.asarray(labels)
    k = int(labels.max()) + 1 if labels.size else 0
    out = []
    for label in range(k):
        members = np.flatnonzero(labels == label)
        sub = None
        if members.size > 1:
            sub = induced_subgraph(graph, members).graph
        out.append((members, sub))
    return out


def refine_oracle(
    graph, coarse, beta, root_seed, provider, method, options, *,
    max_concurrent=None,
) -> np.ndarray:
    """Decompose each coarse piece on its own; dense fine labels in piece
    order."""
    fine = np.full(graph.num_vertices, -1, dtype=np.int64)
    pieces = _pieces(graph, coarse)
    requests = [
        DecomposeRequest(
            sub,
            beta,
            method=method,
            seed=derive_seed(root_seed, "hierarchy", provider.graph_key(sub)),
            options=options,
        )
        for _, sub in pieces
        if sub is not None
    ]
    outcomes = iter(
        provider.decompose_batch(requests, max_concurrent=max_concurrent)
    )
    next_label = 0
    for members, sub in pieces:
        if sub is None:  # trivial piece: its own one-vertex cluster
            if members.size:
                fine[members] = next_label
                next_label += 1
            continue
        decomposition = next(outcomes).decomposition
        fine[members] = decomposition.labels + next_label
        next_label += decomposition.num_pieces
    if np.any(fine < 0):
        raise GraphError("refinement missed vertices")
    return fine


def decompose_level_oracle(
    cur, beta, *, provider, method, root_seed, options, max_concurrent,
) -> Decomposition:
    """Decompose one AKPW level, one provider request per component."""
    labels = connected_components(cur)
    num_components = int(labels.max()) + 1 if labels.size else 0
    if num_components <= 1:
        request = DecomposeRequest(
            cur,
            beta,
            method=method,
            seed=derive_seed(root_seed, "akpw", provider.graph_key(cur)),
            options=options,
        )
        outcome = provider.decompose_batch(
            [request], max_concurrent=max_concurrent
        )
        return outcome[0].decomposition
    center = np.arange(cur.num_vertices, dtype=np.int64)
    hops = np.zeros(cur.num_vertices, dtype=np.int64)
    nontrivial = [
        (members, sub)
        for members, sub in _pieces(cur, labels)
        if sub is not None
    ]
    requests = [
        DecomposeRequest(
            sub,
            beta,
            method=method,
            seed=derive_seed(root_seed, "akpw", provider.graph_key(sub)),
            options=options,
        )
        for _, sub in nontrivial
    ]
    results = provider.decompose_batch(
        requests, max_concurrent=max_concurrent
    )
    for (members, _), result in zip(nontrivial, results):
        sub_dec = result.decomposition
        center[members] = members[sub_dec.center]
        hops[members] = sub_dec.hops
    return Decomposition(graph=cur, center=center, hops=hops)
