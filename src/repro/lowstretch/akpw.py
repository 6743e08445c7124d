"""AKPW-style low-stretch spanning trees via iterated decomposition.

The application the paper most directly targets (its Section 1: the LDD "can
be used in place of Partition from [9] to give a faster algorithm for
solving SDD linear systems", whose core is a low-stretch spanning tree).
The Alon–Karp–Peleg–West construction [3], specialised to unweighted graphs:

1. decompose the current (multi)graph with the shifted partition;
2. add every piece's BFS tree (in *original* edge form) to the forest;
3. contract the pieces and repeat on the quotient until no edges remain.

Each level's pieces have ``O(log n / β)`` diameter and cut an expected
``β``-fraction of edges, so the number of levels is ``O(log m / log(1/β))``
and the stretch of an edge is geometric in the level at which it is finally
contracted — the classic AKPW trade-off, measured in
``benchmarks/bench_lowstretch.py`` against the BFS-tree baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bfs.sequential import multi_source_bfs
from repro.core.decomposition import Decomposition
from repro.errors import GraphError, ParameterError
from repro.graphs.csr import CSRGraph
from repro.graphs.ops import connected_components, quotient_graph
from repro.pipeline import resolve_provider
from repro.pipeline.levels import decompose_level
from repro.rng.seeding import SeedLike, ensure_int_seed, make_generator
from repro.trees.structure import RootedForest, bfs_forest_from_decomposition

__all__ = ["AKPWResult", "akpw_spanning_tree", "bfs_spanning_tree"]


@dataclass(frozen=True, eq=False)
class AKPWResult:
    """Spanning forest plus the per-level record of the construction."""

    forest: RootedForest
    #: (num supernodes, num edges) of the contracted graph entering level i.
    level_sizes: list[tuple[int, int]]
    #: β used at each level (the guard may halve it to force progress).
    level_betas: list[float]

    @property
    def num_levels(self) -> int:
        return len(self.level_sizes)


def akpw_spanning_tree(
    graph: CSRGraph,
    *,
    beta: float = 0.5,
    seed: SeedLike = None,
    max_levels: int = 64,
    method: str = "auto",
    provider=None,
    max_concurrent: int | None = None,
    **options: object,
) -> AKPWResult:
    """Build a spanning forest of ``graph`` by iterated LDD + contraction.

    ``beta`` controls the per-level decomposition (larger β → more, smaller
    pieces per level → more levels → higher stretch but shallower trees).
    Works on disconnected graphs (yields one tree per component).

    Each level decomposes its connected components independently, each
    with a sub-seed derived from the root seed and the component's
    *content digest*.  With a shift method (``bfs``, ``permutation``,
    ``quantile``; ``"auto"`` is ``bfs``) a level is one shifted BFS on the
    level kernel (:mod:`repro.pipeline.levels`), and ``provider``
    receives no request.  Every other method sends each level's
    non-trivial components to ``provider`` as one
    :meth:`~repro.pipeline.DecompositionProvider.decompose_batch`
    (``max_concurrent`` bounds its in-flight window).  The tree is the
    same on every path and backend.
    """
    if not 0 < beta < 1:
        raise ParameterError(f"beta must be in (0, 1), got {beta}")
    n = graph.num_vertices
    if n == 0:
        raise GraphError("cannot build a tree on the empty graph")
    provider = resolve_provider(provider)
    root_seed = ensure_int_seed(seed)

    # Current contracted graph; cur_orig_edges[i] is the original-graph edge
    # realising the i-th current edge (aligned with edge_array() rows).
    # ``None`` means the identity map — level 0 never materialises the
    # O(m) canonical edge table, which is what lets a memmap-backed graph
    # run with peak RSS bounded by the first quotient, not the input.
    cur = graph
    cur_orig_edges: np.ndarray | None = None
    tree_edges: list[np.ndarray] = []
    level_sizes: list[tuple[int, int]] = []
    level_betas: list[float] = []
    level_beta = beta

    for level in range(max_levels):
        if cur.num_edges == 0:
            break
        level_sizes.append((cur.num_vertices, cur.num_edges))
        level_betas.append(level_beta)
        decomposition = _decompose_level(
            cur,
            level_beta,
            provider=provider,
            method=method,
            root_seed=root_seed,
            options=options,
            max_concurrent=max_concurrent,
        )
        piece_forest = bfs_forest_from_decomposition(decomposition)
        child = np.flatnonzero(piece_forest.parent != -1)
        if child.size:
            level_edges = np.stack(
                [child, piece_forest.parent[child]], axis=1
            )
            tree_edges.append(
                _map_to_original(cur, cur_orig_edges, level_edges)
            )
        if decomposition.num_pieces == cur.num_vertices:
            # No contraction happened; force larger pieces next level.
            level_beta = max(level_beta / 2.0, 1e-6)
            continue
        quotient = quotient_graph(cur, decomposition.labels)
        rep = quotient.representative_edge  # current-level endpoint pairs
        cur_orig_edges = _map_to_original(cur, cur_orig_edges, rep)
        cur = quotient.graph
    else:
        if cur.num_edges:
            raise GraphError(
                f"AKPW did not terminate within {max_levels} levels"
            )

    all_edges = (
        np.concatenate(tree_edges, axis=0)
        if tree_edges
        else np.zeros((0, 2), dtype=np.int64)
    )
    forest = _forest_from_edge_set(graph.num_vertices, all_edges)
    return AKPWResult(
        forest=forest, level_sizes=level_sizes, level_betas=level_betas
    )


def _decompose_level(
    cur: CSRGraph,
    beta: float,
    *,
    provider,
    method: str,
    root_seed: int,
    options: dict,
    max_concurrent: int | None,
) -> Decomposition:
    """Decompose one AKPW level, each connected component on its own.

    One :func:`~repro.pipeline.levels.decompose_level` call with the tag
    ``"akpw"`` and the components as pieces, each seeded by its content
    digest.  Decomposing a component of its containing graph is exact —
    no shift sequence ever crosses a component boundary.  A connected
    level is decomposed in place with the seed of ``graph_digest(cur)``,
    so a memmap-backed level 0 is never copied.
    """
    labels = connected_components(cur)
    num_components = int(labels.max()) + 1 if labels.size else 0
    return decompose_level(
        cur, labels if num_components > 1 else None, beta,
        root_seed=root_seed, tag="akpw", method=method, options=options,
        provider=provider, max_concurrent=max_concurrent,
    )


def _map_to_original(
    cur: CSRGraph,
    cur_orig_edges: np.ndarray | None,
    level_edges: np.ndarray,
) -> np.ndarray:
    """Translate current-level endpoint pairs to original-graph edges.

    ``cur_orig_edges`` is aligned with ``cur.edge_array()``, whose rows are
    sorted by the canonical key ``lo·n + hi`` — so a vectorised
    ``searchsorted`` finds each queried edge's row.  ``None`` is the
    level-0 identity map: the queried pairs (BFS tree edges, quotient
    representatives) are guaranteed edges of ``cur``, which *is* the
    original graph, so they map to themselves without touching the edge
    table at all.
    """
    lo = np.minimum(level_edges[:, 0], level_edges[:, 1])
    hi = np.maximum(level_edges[:, 0], level_edges[:, 1])
    if cur_orig_edges is None:
        return np.stack([lo, hi], axis=1).astype(np.int64)
    n = cur.num_vertices
    canon = cur.edge_array()
    keys = canon[:, 0] * n + canon[:, 1]
    q = lo * n + hi
    pos = np.searchsorted(keys, q)
    if np.any(pos >= keys.shape[0]) or np.any(keys[pos] != q):
        raise GraphError("tree edge not present in current graph")
    return cur_orig_edges[pos]


def _forest_from_edge_set(
    num_vertices: int, edges: np.ndarray
) -> RootedForest:
    """Orient an acyclic edge set into a rooted forest via BFS.

    Roots are the smallest vertex of each component; a cycle in the edge set
    (which would indicate an algorithmic bug upstream) is detected by the
    edge count exceeding ``n − #components``.
    """
    from repro.graphs.build import from_edges

    skeleton = from_edges(num_vertices, edges, dedup=True)
    if skeleton.num_edges != edges.shape[0]:
        raise GraphError("duplicate edges in spanning forest")
    parent = np.full(num_vertices, -1, dtype=np.int64)
    visited = np.zeros(num_vertices, dtype=bool)
    num_components = 0
    for root in range(num_vertices):
        if visited[root]:
            continue
        num_components += 1
        res = multi_source_bfs(skeleton, np.asarray([root], dtype=np.int64))
        comp = res.dist >= 0
        visited |= comp
        parent[comp] = res.parent[comp]
        parent[root] = -1
    if skeleton.num_edges != num_vertices - num_components:
        raise GraphError("edge set is not a spanning forest (cycle present)")
    return RootedForest.from_parents(parent)


def bfs_spanning_tree(
    graph: CSRGraph, *, root: int | None = None, seed: SeedLike = None
) -> RootedForest:
    """Baseline: BFS spanning forest from a (random) root per component.

    The comparison point for the low-stretch benchmark — BFS trees have
    low diameter but Ω(n)-stretch worst cases (e.g. cycles).
    """
    n = graph.num_vertices
    if n == 0:
        raise GraphError("cannot build a tree on the empty graph")
    rng = make_generator(seed)
    parent = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    preferred = int(rng.integers(n)) if root is None else int(root)
    order = [preferred] + [v for v in range(n) if v != preferred]
    for r in order:
        if visited[r]:
            continue
        res = multi_source_bfs(graph, np.asarray([r], dtype=np.int64))
        comp = res.dist >= 0
        visited |= comp
        parent[comp] = res.parent[comp]
        parent[r] = -1
    return RootedForest.from_parents(parent)
