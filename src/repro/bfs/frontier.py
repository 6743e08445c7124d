"""Vectorised frontier expansion — one BFS round as a single gather.

:func:`gather_frontier_arcs` expands a whole frontier in one set of NumPy
gathers, the step of a level-synchronous PRAM/Ligra BFS round: its work is
the number of arcs incident to the frontier.  The delayed-start BFS
(:mod:`repro.bfs.delayed`) and the sequential-LDD baseline
(:mod:`repro.core.ldd_sequential`) build their rounds on it.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import VERTEX_DTYPE, CSRGraph

__all__ = ["frontier_arc_ids", "gather_frontier_arcs"]


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
