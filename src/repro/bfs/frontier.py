"""Vectorised level-synchronous BFS — the PRAM simulation engine.

One call to :func:`gather_frontier_arcs` expands a whole frontier in a single
set of NumPy gathers; one while-loop iteration of :func:`frontier_bfs` is one
*parallel round* in the work-depth model.  This is the same structure as a
level-synchronous PRAM/Ligra BFS: the per-round work is proportional to the
arcs incident to the frontier, and the number of iterations equals the BFS
depth ∆.  The paper's Theorem 1.2 bounds are stated in exactly these terms
(``O(m)`` work, ``O(∆ log n)`` depth via [18]), so the counters this module
maintains are the quantities the benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.graphs.csr import VERTEX_DTYPE, CSRGraph

__all__ = ["FrontierBFSResult", "gather_frontier_arcs", "frontier_bfs"]


def frontier_arc_ids(
    graph: CSRGraph, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(CSR arc ids, degrees) of the frontier's rows, in frontier order.

    The repeat/offset trick, with no Python-level loop: the ``j``-th arc
    overall, in slice ``i``, sits at ``starts[i] + j − (degrees before i)``.
    """
    starts = graph.indptr[frontier]
    counts = graph.indptr[frontier + 1] - starts
    arc_ids = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    arc_ids += np.arange(arc_ids.size, dtype=arc_ids.dtype)
    return arc_ids, counts


def gather_frontier_arcs(
    graph: CSRGraph, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand a frontier into (arc sources, arc targets), fully vectorised:
    one entry per arc ``u→v`` of each ``u`` in ``frontier``, in order."""
    frontier = np.asarray(frontier, dtype=VERTEX_DTYPE)
    arc_ids, counts = frontier_arc_ids(graph, frontier)
    return np.repeat(frontier, counts), graph.indices[arc_ids]


@dataclass(frozen=True, eq=False)
class FrontierBFSResult:
    """Output of the vectorised BFS.

    ``dist``/``parent``/``source`` match
    :class:`repro.bfs.sequential.BFSResult`; additionally
    ``frontier_sizes[t]`` is the number of vertices first reached in round
    ``t`` (``frontier_sizes[0]`` = number of sources), enabling round-level
    analysis of the parallel execution.
    """

    dist: np.ndarray
    parent: np.ndarray
    source: np.ndarray
    num_rounds: int
    work: int
    frontier_sizes: list[int]


def frontier_bfs(
    graph: CSRGraph,
    sources: np.ndarray,
    *,
    max_rounds: int | None = None,
) -> FrontierBFSResult:
    """Level-synchronous BFS from ``sources`` (all at distance 0).

    Within a round, when several frontier vertices claim the same neighbour,
    the *smallest claiming source id* wins — a deterministic CRCW-style
    priority write, so results are reproducible and independent of gather
    order.  ``max_rounds`` truncates the search (used by bounded-radius ball
    growing).
    """
    n = graph.num_vertices
    sources = np.unique(np.asarray(sources, dtype=VERTEX_DTYPE))
    if sources.size and (sources[0] < 0 or sources[-1] >= n):
        raise ParameterError("source ids out of range")
    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    origin = np.full(n, -1, dtype=np.int64)
    dist[sources] = 0
    origin[sources] = sources
    frontier = sources
    frontier_sizes = [int(sources.size)]
    work = 0
    level = 0
    limit = np.inf if max_rounds is None else max_rounds
    while frontier.size and level < limit:
        level += 1
        arc_src, arc_dst = gather_frontier_arcs(graph, frontier)
        work += int(arc_src.size)
        unvisited = dist[arc_dst] == -1
        cand_src = arc_src[unvisited]
        cand_dst = arc_dst[unvisited]
        if cand_dst.size == 0:
            frontier = np.zeros(0, dtype=VERTEX_DTYPE)
            frontier_sizes.append(0)
            break
        # Resolve concurrent claims: smallest claiming source vertex wins.
        order = np.lexsort((cand_src, cand_dst))
        cand_src = cand_src[order]
        cand_dst = cand_dst[order]
        first = np.ones(cand_dst.shape[0], dtype=bool)
        first[1:] = cand_dst[1:] != cand_dst[:-1]
        winners = cand_dst[first]
        winner_parents = cand_src[first]
        dist[winners] = level
        parent[winners] = winner_parents
        origin[winners] = origin[winner_parents]
        frontier = winners
        frontier_sizes.append(int(winners.size))
    # Drop the trailing empty-frontier entry for a clean per-level profile.
    while frontier_sizes and frontier_sizes[-1] == 0:
        frontier_sizes.pop()
    return FrontierBFSResult(
        dist=dist,
        parent=parent,
        source=origin,
        num_rounds=len(frontier_sizes),
        work=work,
        frontier_sizes=frontier_sizes,
    )
