"""Breadth-first-search engines: sequential oracle, vectorised frontier
expansion, delayed-start shifted BFS, and Dijkstra references."""

from repro.bfs.delayed import (
    DelayedBFSResult,
    delayed_multisource_bfs,
    resolve_claims,
)
from repro.bfs.dijkstra import (
    DijkstraResult,
    ShiftedDijkstraResult,
    dijkstra,
    dijkstra_multisource,
    shifted_integer_dijkstra,
)
from repro.bfs.frontier import gather_frontier_arcs
from repro.bfs.sequential import (
    BFSResult,
    bfs,
    eccentricity,
    graph_diameter_lb,
    multi_source_bfs,
)

__all__ = [
    "BFSResult",
    "bfs",
    "multi_source_bfs",
    "eccentricity",
    "graph_diameter_lb",
    "gather_frontier_arcs",
    "DelayedBFSResult",
    "delayed_multisource_bfs",
    "resolve_claims",
    "DijkstraResult",
    "ShiftedDijkstraResult",
    "dijkstra",
    "dijkstra_multisource",
    "shifted_integer_dijkstra",
]
