"""Weighted CSR graphs — substrate for the paper's Section 6 extension.

The core algorithm targets unweighted graphs; Section 6 observes the analysis
extends to positive edge weights via shifted *Dijkstra* instead of shifted
BFS.  :class:`WeightedCSRGraph` mirrors :class:`~repro.graphs.csr.CSRGraph`
with a parallel ``weights`` array aligned to ``indices``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError, ParameterError
from repro.graphs.build import check_packable, csr_arrays_from_keys
from repro.graphs.csr import VERTEX_DTYPE, CSRGraph

__all__ = [
    "WeightedCSRGraph",
    "weighted_from_edges",
    "uniform_weights",
    "weights_by_name",
    "WEIGHT_SCHEMES",
    "require_unweighted",
]


class WeightedCSRGraph(CSRGraph):
    """Undirected graph with positive edge weights in CSR layout.

    ``weights[i]`` is the weight of arc ``indices[i]``; the two arcs of an
    undirected edge must carry equal weight (validated on construction).
    """

    __slots__ = ("_weights",)

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        super().__init__(indptr, indices, validate=validate)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if weights.shape != self.indices.shape:
            raise GraphError("weights must align with indices")
        if validate:
            if weights.size and weights.min() <= 0:
                raise GraphError("edge weights must be strictly positive")
            self._check_symmetric_weights(weights)
        weights.setflags(write=False)
        self._weights = weights

    def _check_symmetric_weights(self, weights: np.ndarray) -> None:
        """Verify both arcs of every edge carry the same weight."""
        n = self.num_vertices
        src = self.arc_sources()
        dst = self.indices
        keys = np.minimum(src, dst) * n + np.maximum(src, dst)
        order = np.argsort(keys, kind="stable")
        w_sorted = weights[order]
        # After sorting by undirected key, arcs pair up adjacently.
        if not np.allclose(w_sorted[0::2], w_sorted[1::2]):
            raise GraphError("arc weights are not symmetric")

    def csr_arrays(self) -> dict[str, np.ndarray]:
        """Defining arrays for shared-memory transport (adds ``weights``)."""
        arrays = super().csr_arrays()
        arrays["weights"] = self._weights
        return arrays

    @property
    def weights(self) -> np.ndarray:
        """Read-only arc weight array aligned to :attr:`indices`."""
        return self._weights

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights of the arcs leaving ``v``, aligned to ``neighbors(v)``."""
        return self._weights[self.indptr[v] : self.indptr[v + 1]]

    def edge_weight_array(self) -> np.ndarray:
        """Weights aligned to :meth:`edge_array` rows."""
        src = self.arc_sources()
        keep = src < self.indices
        edges = np.stack([src[keep], self.indices[keep]], axis=1)
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        return self._weights[keep][order]

    def total_weight(self) -> float:
        """Sum of undirected edge weights."""
        return float(self._weights.sum() / 2.0)

    def unweighted(self) -> CSRGraph:
        """Drop weights (topology only)."""
        return CSRGraph(self.indptr, self.indices, validate=False)

    def __repr__(self) -> str:
        return (
            f"WeightedCSRGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"total_weight={self.total_weight():.6g})"
        )


def weighted_from_edges(
    num_vertices: int,
    edges: np.ndarray,
    weights: np.ndarray,
) -> WeightedCSRGraph:
    """Build a weighted graph from ``(m, 2)`` edges and per-edge weights."""
    edges = np.asarray(edges, dtype=VERTEX_DTYPE).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape[0] != edges.shape[0]:
        raise GraphError("one weight per edge required")
    check_packable(num_vertices)
    if edges.shape[0]:
        if edges.min() < 0 or edges.max() >= num_vertices:
            raise GraphError("edge endpoints out of range")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise GraphError("self-loops are not allowed")
    u, v = edges[:, 0], edges[:, 1]
    keys = np.concatenate([u * num_vertices + v, v * num_vertices + u])
    # Keys sort the arcs into CSR order; once duplicates are ruled out
    # they are distinct, so any argsort gives the one canonical order.
    order = np.argsort(keys)
    keys = keys[order]
    if keys.shape[0] and np.any(keys[1:] == keys[:-1]):
        raise GraphError("duplicate edges in weighted edge list")
    indptr, indices = csr_arrays_from_keys(num_vertices, keys)
    return WeightedCSRGraph(
        indptr, indices, np.concatenate([weights, weights])[order]
    )


def uniform_weights(graph: CSRGraph, weight: float = 1.0) -> WeightedCSRGraph:
    """Lift an unweighted graph to a weighted one with constant weight."""
    if weight <= 0:
        raise GraphError("weight must be positive")
    return WeightedCSRGraph(
        graph.indptr,
        graph.indices,
        np.full(graph.num_arcs, weight, dtype=np.float64),
        validate=False,
    )


#: Weight-scheme names accepted by :func:`weights_by_name` (CLI ``--weights``).
WEIGHT_SCHEMES = {
    "unit": "constant weight (default 1.0): unit:<w>",
    "uniform": "i.i.d. uniform per edge: uniform:<lo>,<hi>",
    "exp": "i.i.d. exponential per edge: exp:<mean>",
}


def weights_by_name(
    graph: CSRGraph, spec: str, *, seed: int | None = None
) -> WeightedCSRGraph:
    """Lift ``graph`` to a :class:`WeightedCSRGraph` from a spec string.

    Grammar mirrors the generator specs of
    :func:`repro.graphs.generators.by_name`: ``scheme[:arg1[,arg2]]`` with
    the schemes of :data:`WEIGHT_SCHEMES` — e.g. ``unit``, ``unit:2.5``,
    ``uniform:0.5,2.0``, ``exp:1.0``.  Random schemes draw one weight per
    undirected edge, deterministically in ``seed``.
    """
    name, _, argstr = spec.partition(":")
    name = name.strip().lower()
    if name not in WEIGHT_SCHEMES:
        raise ParameterError(
            f"unknown weight scheme {name!r}; choices: {sorted(WEIGHT_SCHEMES)}"
        )
    try:
        args = [float(tok) for tok in argstr.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad weight spec {spec!r}: {exc}") from exc
    if name == "unit":
        weight = args[0] if args else 1.0
        return uniform_weights(graph, weight)
    rng = np.random.default_rng(seed)
    m = graph.num_edges
    if name == "uniform":
        if len(args) != 2:
            raise ParameterError(
                f"weight scheme 'uniform' needs lo,hi — got {spec!r}"
            )
        lo, hi = args
        if not 0 < lo <= hi:
            raise ParameterError("need 0 < lo <= hi for uniform weights")
        weights = rng.uniform(lo, hi, size=m)
    else:  # exp
        if len(args) != 1:
            raise ParameterError(
                f"weight scheme 'exp' needs a mean — got {spec!r}"
            )
        (mean,) = args
        if mean <= 0:
            raise ParameterError("need mean > 0 for exponential weights")
        # Shift away from zero: edge weights must be strictly positive.
        weights = rng.exponential(mean, size=m) + 1e-9
    return weighted_from_edges(graph.num_vertices, graph.edge_array(), weights)


def require_unweighted(graph: CSRGraph, subject: str) -> None:
    """Refuse a weighted ``graph`` for ``subject`` (a builder or op name),
    whose pieces are grown by BFS in hop counts."""
    if isinstance(graph, WeightedCSRGraph):
        raise ParameterError(
            f"{subject} requires an unweighted graph (piece BFS trees need "
            "hop counts); use the topology without weights"
        )
