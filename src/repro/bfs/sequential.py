"""Sequential breadth-first search — the correctness oracle.

Plain deque-based BFS: the reference distances that tests and verifiers
check the other engines against.  Kept deliberately simple; it is never on the
benchmarked hot path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.graphs.csr import CSRGraph

__all__ = ["BFSResult", "bfs", "multi_source_bfs", "eccentricity", "graph_diameter_lb"]

#: Sentinel distance for unreached vertices.
UNREACHED = -1


@dataclass(frozen=True, eq=False)
class BFSResult:
    """Distances, BFS-tree parents, and traversal statistics.

    ``dist[v]`` is the hop distance from the (nearest) source, ``−1`` if
    unreached.  ``parent[v]`` is the predecessor on a shortest path (``−1``
    for sources and unreached vertices).  ``source[v]`` identifies which
    source reached ``v`` first (for multi-source runs).
    """

    dist: np.ndarray
    parent: np.ndarray
    source: np.ndarray
    #: number of BFS levels executed (max dist + 1 over reached vertices).
    num_rounds: int
    #: arcs scanned — the sequential work measure.
    work: int


def bfs(graph: CSRGraph, source: int) -> BFSResult:
    """Single-source BFS from ``source``."""
    if not 0 <= source < graph.num_vertices:
        raise ParameterError(f"source {source} out of range")
    return multi_source_bfs(graph, np.asarray([source], dtype=np.int64))


def multi_source_bfs(graph: CSRGraph, sources: np.ndarray) -> BFSResult:
    """BFS from a set of sources, all starting at distance 0.

    Ties between sources reaching a vertex at the same distance are broken
    by queue order (sources in the given order first), matching the
    deterministic behaviour required by the test oracle.
    """
    n = graph.num_vertices
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise ParameterError("source ids out of range")
    dist = np.full(n, UNREACHED, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    origin = np.full(n, -1, dtype=np.int64)
    queue: deque[int] = deque()
    for s in sources:
        s = int(s)
        if dist[s] == UNREACHED:
            dist[s] = 0
            origin[s] = s
            queue.append(s)
    indptr, indices = graph.indptr, graph.indices
    work = 0
    max_dist = 0
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in indices[indptr[u] : indptr[u + 1]]:
            work += 1
            v = int(v)
            if dist[v] == UNREACHED:
                dist[v] = du + 1
                parent[v] = u
                origin[v] = origin[u]
                max_dist = max(max_dist, du + 1)
                queue.append(v)
    rounds = max_dist + 1 if sources.size else 0
    return BFSResult(
        dist=dist, parent=parent, source=origin, num_rounds=rounds, work=work
    )


def eccentricity(graph: CSRGraph, source: int) -> int:
    """Largest finite BFS distance from ``source`` (its eccentricity within
    its connected component)."""
    res = bfs(graph, source)
    reached = res.dist[res.dist != UNREACHED]
    return int(reached.max()) if reached.size else 0


def graph_diameter_lb(graph: CSRGraph, *, sweeps: int = 2, start: int = 0) -> int:
    """Double-sweep lower bound on the diameter.

    Runs ``sweeps`` BFS passes, each starting from the farthest vertex found
    by the previous pass.  Exact on trees; a lower bound in general — good
    enough for the benchmark reports, which label it as such.
    """
    if graph.num_vertices == 0:
        return 0
    u = start
    best = 0
    for _ in range(max(1, sweeps)):
        res = bfs(graph, u)
        reached = np.flatnonzero(res.dist != UNREACHED)
        far = reached[np.argmax(res.dist[reached])]
        best = max(best, int(res.dist[far]))
        u = int(far)
    return best
