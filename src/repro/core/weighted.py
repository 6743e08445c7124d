"""Section 6 extension: shifted decomposition of weighted graphs.

The paper's concluding section notes the Section 4 analysis "can be readily
extended to the weighted case" — assignment by ``dist_w(u, v) − δ_u`` with
the same exponential shifts — while the *parallel depth* is no longer
controlled, because hop count and weighted distance decouple.  This module
implements that extension with a shifted multi-source Dijkstra:

- the cut probability of an edge of weight ``w`` becomes ``O(β·w)``
  (Lemma 4.4 with ``c = w``), so the expected *weighted* cut is ``O(β · W)``
  where ``W`` is the total edge weight — benchmark ``bench_weighted`` checks
  this shape;
- piece radii are bounded by ``δ_max`` in weighted distance (same Lemma 4.2
  argument).

The trace reports heap operations as work and the settled-order length as
the (uncontrolled) sequential depth, matching the paper's caveat.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.bfs.dijkstra import dijkstra_multisource
from repro.core.decomposition import PartitionTrace, _CenterForm
from repro.core.registry import register_method
from repro.core.shifts import sample_shifts
from repro.errors import GraphError
from repro.graphs.weighted import WeightedCSRGraph
from repro.rng.seeding import SeedLike

__all__ = ["WeightedDecomposition", "partition_weighted"]


@dataclass(frozen=True, eq=False)
class WeightedDecomposition(_CenterForm):
    """Weighted analogue of :class:`~repro.core.decomposition.Decomposition`.

    ``radius`` holds each vertex's weighted distance to its center (the
    integer ``hops`` of the unweighted type is meaningless here).
    """

    graph: WeightedCSRGraph
    center: np.ndarray
    radius: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def max_radius(self) -> float:
        """Largest weighted distance from any vertex to its center."""
        return float(self.radius.max()) if self.radius.size else 0.0

    def _cut_stats(self) -> tuple[int, float]:
        """(cut edge count, cut weight), computed in one edge scan."""
        if "cut_stats" not in self._cache:
            labels = self.labels
            edges = self.graph.edge_array()
            w = self.graph.edge_weight_array()
            cross = labels[edges[:, 0]] != labels[edges[:, 1]]
            self._cache["cut_stats"] = (
                int(cross.sum()), float(w[cross].sum())
            )
        return self._cache["cut_stats"]

    def cut_weight(self) -> float:
        """Total weight of edges crossing between pieces."""
        return self._cut_stats()[1]

    def cut_weight_fraction(self) -> float:
        """Cut weight over total weight — the weighted β measure."""
        total = self.graph.total_weight()
        return self.cut_weight() / total if total else 0.0

    def num_cut_edges(self) -> int:
        return self._cut_stats()[0]

    def radii(self) -> np.ndarray:
        """Max weighted distance to the center, per piece."""
        out = np.zeros(self.num_pieces, dtype=np.float64)
        np.maximum.at(out, self.labels, self.radius)
        return out

    def summary(self) -> dict[str, float]:
        """One-line statistics dict, mirroring ``Decomposition.summary``.

        ``cut_fraction`` is the *weighted* measure (cut weight over total
        weight — the β of the Section 6 analysis); the raw edge-count
        fraction is reported separately as ``cut_edge_fraction``.  Cached
        like the unweighted summary; each call returns a fresh copy.
        """
        if "summary" not in self._cache:
            sizes = self.piece_sizes()
            radii = self.radii()
            m = self.graph.num_edges
            self._cache["summary"] = {
                "num_pieces": float(self.num_pieces),
                "max_piece_size": float(sizes.max()) if sizes.size else 0.0,
                "mean_piece_size": float(sizes.mean()) if sizes.size else 0.0,
                "max_radius": float(radii.max()) if radii.size else 0.0,
                "mean_radius": float(radii.mean()) if radii.size else 0.0,
                "num_cut_edges": float(self.num_cut_edges()),
                "cut_fraction": float(self.cut_weight_fraction()),
                "cut_weight": float(self.cut_weight()),
                "cut_edge_fraction": (
                    float(self.num_cut_edges() / m) if m else 0.0
                ),
            }
        return dict(self._cache["summary"])


@register_method(
    "dijkstra",
    kind="weighted",
    description="Section 6 extension - shifted multi-source Dijkstra (weighted graphs)",
)
def partition_weighted(
    graph: WeightedCSRGraph,
    beta: float,
    *,
    seed: SeedLike = None,
) -> tuple[WeightedDecomposition, PartitionTrace]:
    """Exponentially shifted decomposition of a positively weighted graph.

    Every vertex is a potential center with start priority ``δ_max − δ_u``;
    one multi-source Dijkstra assigns each vertex to the center of minimum
    shifted weighted distance.
    """
    n = graph.num_vertices
    if n == 0:
        raise GraphError("cannot partition the empty graph")
    t0 = time.perf_counter()
    shifts = sample_shifts(n, beta, seed=seed)
    sources = np.arange(n, dtype=np.int64)
    result = dijkstra_multisource(
        graph, sources, init_dist=shifts.start_time
    )
    radius = result.dist - shifts.start_time[result.source]
    decomposition = WeightedDecomposition(
        graph=graph, center=result.source, radius=radius
    )
    trace = PartitionTrace(
        method="weighted-dijkstra",
        beta=beta,
        rounds=0,
        work=result.work,
        depth=result.work,
        delta_max=shifts.delta_max,
        wall_time_s=time.perf_counter() - t0,
        sequential_chain=result.work,
        extra={"note": "weighted depth uncontrolled (paper Section 6)"},
    )
    return decomposition, trace
