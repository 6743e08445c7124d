"""The :class:`Decomposition` result type and its statistics.

A decomposition is, per Definition 1.1, a partition of ``V`` into pieces;
this type stores it in the *center form* the algorithm naturally produces
(each vertex points at its piece's center vertex) plus the dense label form
downstream consumers want (quotient graphs, renderers).  All statistics the
benchmarks report — piece sizes, radii, cut edges, cut fraction — are
methods here, each a vectorised O(n + m) scan; :meth:`Decomposition.summary`
is computed once and cached (pool workers ship it home with the result).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.ops import count_cut_edges, cut_edge_mask

__all__ = ["Decomposition", "PartitionTrace"]


class _CenterForm:
    """Label form shared by the unweighted and weighted decompositions.

    Needs ``graph``, ``center`` and a ``_cache`` dict on the instance.
    """

    @property
    def centers(self) -> np.ndarray:
        """Sorted array of distinct center vertex ids (one per piece)."""
        if "centers" not in self._cache:
            present = np.bincount(
                self.center, minlength=self.graph.num_vertices
            )
            self._cache["centers"] = np.flatnonzero(present)
        return self._cache["centers"]

    @property
    def labels(self) -> np.ndarray:
        """Dense piece labels ``0..k−1``, ordered by center vertex id."""
        if "labels" not in self._cache:
            centers = self.centers
            lookup = np.full(self.graph.num_vertices, -1, dtype=np.int64)
            lookup[centers] = np.arange(centers.shape[0], dtype=np.int64)
            self._cache["labels"] = lookup[self.center]
        return self._cache["labels"]

    @property
    def num_pieces(self) -> int:
        """Number of pieces ``k``."""
        return int(self.centers.shape[0])

    def piece_sizes(self) -> np.ndarray:
        """Vertex count per piece, aligned with :attr:`centers`."""
        return np.bincount(self.labels, minlength=self.num_pieces)

    def piece_members(self, label: int) -> np.ndarray:
        """Vertex ids belonging to piece ``label``."""
        return np.flatnonzero(self.labels == label)


@dataclass(frozen=True, eq=False)
class Decomposition(_CenterForm):
    """A partition of a graph's vertices into centered pieces.

    Attributes
    ----------
    graph:
        The decomposed graph.
    center:
        Per-vertex id of the piece's center (a vertex with
        ``center[c] == c``).
    hops:
        Per-vertex hop distance to its center along a path inside the piece
        (Lemma 4.1 guarantees such a path exists for the paper's algorithm).
        Baselines that do not track this may pass hop counts from their own
        ball-growing.
    """

    graph: CSRGraph
    center: np.ndarray
    hops: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.graph.num_vertices
        center = np.ascontiguousarray(self.center, dtype=np.int64)
        hops = np.ascontiguousarray(self.hops, dtype=np.int64)
        if center.shape[0] != n or hops.shape[0] != n:
            raise GraphError("center and hops must have one entry per vertex")
        if n:
            if center.min() < 0 or center.max() >= n:
                raise GraphError("center ids out of range")
            if np.any(center[center] != center):
                raise GraphError("centers must be fixed points of the map")
            if hops.min() < 0:
                raise GraphError("hops must be non-negative")
            if np.any(hops[center[np.arange(n)] == np.arange(n)] != 0):
                raise GraphError("centers must have hop distance 0")
        center.setflags(write=False)
        hops.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "hops", hops)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def radii(self) -> np.ndarray:
        """Max hop distance to the center, per piece (piece *radius*).

        The strong diameter of a piece is at most twice this value, and at
        least this value — the certificate Theorem 1.2's proof uses.
        """
        out = np.zeros(self.num_pieces, dtype=np.int64)
        np.maximum.at(out, self.labels, self.hops)
        return out

    def max_radius(self) -> int:
        """Largest piece radius."""
        return int(self.hops.max()) if self.hops.size else 0

    def cut_mask(self) -> np.ndarray:
        """Boolean mask over ``graph.edge_array()``: edges between pieces."""
        if "cut_mask" not in self._cache:
            self._cache["cut_mask"] = cut_edge_mask(self.graph, self.labels)
        return self._cache["cut_mask"]

    def num_cut_edges(self) -> int:
        """Number of edges with endpoints in different pieces."""
        if "num_cut_edges" not in self._cache:
            self._cache["num_cut_edges"] = count_cut_edges(
                self.graph, self.center
            )
        return self._cache["num_cut_edges"]

    def cut_fraction(self) -> float:
        """``cut edges / m`` — the β-side of Definition 1.1 (0 if no edges)."""
        m = self.graph.num_edges
        return self.num_cut_edges() / m if m else 0.0

    def summary(self) -> dict[str, float]:
        """One-line statistics dict used by benchmarks and the CLI.

        Computed once and cached; each call returns a fresh copy because
        callers extend the dict they get.
        """
        if "summary" not in self._cache:
            sizes = self.piece_sizes()
            radii = self.radii()
            self._cache["summary"] = {
                "num_pieces": float(self.num_pieces),
                "max_piece_size": float(sizes.max()) if sizes.size else 0.0,
                "mean_piece_size": float(sizes.mean()) if sizes.size else 0.0,
                "max_radius": float(radii.max()) if radii.size else 0.0,
                "mean_radius": float(radii.mean()) if radii.size else 0.0,
                "num_cut_edges": float(self.num_cut_edges()),
                "cut_fraction": float(self.cut_fraction()),
            }
        return dict(self._cache["summary"])


@dataclass(frozen=True, eq=False)
class PartitionTrace:
    """Execution record of one partition run (the Theorem 1.2 quantities).

    ``rounds`` is the parallel BFS depth ∆; ``depth`` is the modelled PRAM
    depth (rounds × O(log n) per [18] plus the reductions); ``work`` counts
    scanned arcs plus per-vertex setup.  ``delta_max`` is the Lemma 4.2
    certificate.  Baselines fill the fields that make sense for them
    (``sequential_chain`` is the ball-growing dependency-chain length, 0 for
    fully parallel methods).
    """

    method: str
    beta: float
    rounds: int
    work: int
    depth: int
    delta_max: float
    wall_time_s: float
    sequential_chain: int = 0
    frontier_sizes: tuple[int, ...] = ()
    extra: dict = field(default_factory=dict)
