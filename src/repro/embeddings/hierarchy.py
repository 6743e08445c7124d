"""Hierarchical (laminar) decompositions — substrate for tree embeddings.

Parallel probabilistic tree embeddings ([10], motivated in the paper's
introduction) stack low-diameter decompositions at geometrically decreasing
diameter scales: level ``ℓ`` partitions each level-``ℓ+1`` piece with a
target radius ``2^ℓ``, using ``β_ℓ = min(β_max, c·ln n / 2^ℓ)`` so the
Lemma 4.2 radius bound matches the scale.  The result is a laminar family:
level 0 is the singleton partition, the top level is one piece per connected
component.

:class:`Hierarchy` stores one dense label array per level and validates
laminarity; :mod:`repro.embeddings.hst` turns it into a tree metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError, ParameterError
from repro.graphs.csr import CSRGraph
from repro.graphs.ops import connected_components, quotient_graph
from repro.pipeline import DecomposeRequest, resolve_provider
from repro.pipeline.levels import decompose_level
from repro.rng.seeding import SeedLike, derive_seed, ensure_int_seed

__all__ = [
    "Hierarchy",
    "contracted_hierarchy",
    "hierarchical_decomposition",
]


@dataclass(frozen=True, eq=False)
class Hierarchy:
    """A laminar family of vertex partitions, finest (singletons) first.

    ``labels[ℓ][v]`` is the id of ``v``'s piece at level ``ℓ``; ids are dense
    per level.  ``scale[ℓ]`` is the target radius ``2^ℓ`` of the level.
    """

    labels: list[np.ndarray]
    scale: list[float]

    def __post_init__(self) -> None:
        if not self.labels:
            raise GraphError("hierarchy needs at least one level")
        n = self.labels[0].shape[0]
        for arr in self.labels:
            if arr.shape[0] != n:
                raise GraphError("all levels must label every vertex")
        # Laminarity: equal labels at level ℓ must stay equal at level ℓ+1.
        for lo, hi in zip(self.labels[:-1], self.labels[1:]):
            if not _refines(lo, hi):
                raise GraphError("hierarchy is not laminar")

    @property
    def num_levels(self) -> int:
        return len(self.labels)

    @property
    def num_vertices(self) -> int:
        return int(self.labels[0].shape[0])

    def pieces_per_level(self) -> list[int]:
        """Number of pieces at each level (monotone non-increasing)."""
        return [int(lvl.max()) + 1 for lvl in self.labels]

    def separation_level(
        self, u: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Smallest level at which ``u`` and ``v`` share a piece.

        Returns ``num_levels`` for pairs never merged (different components).
        Vectorised over pair arrays.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        out = np.full(u.shape[0], self.num_levels, dtype=np.int64)
        for lvl in range(self.num_levels - 1, -1, -1):
            same = self.labels[lvl][u] == self.labels[lvl][v]
            out[same] = lvl
        return out


def _refines(fine: np.ndarray, coarse: np.ndarray) -> bool:
    """Whether each ``fine`` label class lies inside one ``coarse`` class.

    O(n) scatter check: write each vertex's coarse label into its fine
    class's slot, then every vertex must read its own coarse label back.
    Labels that are not dense ``0..n−1`` integers are densified first.
    """
    fine = np.asarray(fine)
    coarse = np.asarray(coarse)
    if not fine.size:
        return True
    if not (
        np.issubdtype(fine.dtype, np.integer)
        and fine.min() >= 0
        and fine.max() < fine.size
    ):
        fine = np.unique(fine, return_inverse=True)[1].reshape(-1)
    slot = np.empty(fine.size, dtype=coarse.dtype)
    slot[fine] = coarse
    return bool(np.array_equal(slot[fine], coarse))


def hierarchical_decomposition(
    graph: CSRGraph,
    *,
    seed: SeedLike = None,
    beta_max: float = 0.9,
    radius_constant: float = 1.0,
    method: str = "auto",
    provider=None,
    max_concurrent: int | None = None,
    **options: object,
) -> Hierarchy:
    """Build a laminar hierarchy by top-down shifted decomposition.

    The top level groups whole connected components; each descent to level
    ``ℓ`` re-decomposes every piece with ``β_ℓ = min(β_max, c·ln n / 2^ℓ)``.
    Level 0 is forced to singletons so the HST's leaves are vertices.

    Each level decomposes every piece of the level above independently,
    with a sub-seed derived from the root seed and the piece's *content
    digest*, and allocates the fine labels in piece order.  With a shift
    method (``bfs``, ``permutation``, ``quantile``; ``"auto"`` is
    ``bfs``) a whole level is one shifted BFS on the level kernel
    (:mod:`repro.pipeline.levels`), and ``provider`` receives no request.
    Every other method sends each level's non-trivial pieces to
    ``provider`` as one
    :meth:`~repro.pipeline.DecompositionProvider.decompose_batch`
    (``max_concurrent`` bounds its in-flight window), where a piece that
    survives a level unchanged repeats its request and hits the memo.
    The labels are the same on every path and backend.
    """
    if not 0 < beta_max < 1:
        raise ParameterError("beta_max must be in (0, 1)")
    if radius_constant <= 0:
        raise ParameterError("radius_constant must be positive")
    n = graph.num_vertices
    if n == 0:
        raise GraphError("cannot build a hierarchy on the empty graph")
    provider = resolve_provider(provider)
    root_seed = ensure_int_seed(seed)

    top = connected_components(graph).astype(np.int64)
    # Number of levels: enough that the top scale covers any component
    # radius (n is always enough; the loop stops refining once singleton).
    num_mid_levels = max(1, int(np.ceil(np.log2(max(n, 2)))))
    levels: list[np.ndarray] = [top]
    scales: list[float] = [float(2**num_mid_levels)]

    current = top
    for lvl in range(num_mid_levels - 1, 0, -1):
        target_radius = float(2**lvl)
        beta = min(
            beta_max, radius_constant * np.log(max(n, 2)) / target_radius
        )
        refined = _refine(
            graph, current, beta, root_seed, provider, method, options,
            max_concurrent=max_concurrent,
        )
        levels.append(refined)
        scales.append(target_radius)
        current = refined
    # Level 0: singletons.
    levels.append(np.arange(n, dtype=np.int64))
    scales.append(1.0)

    levels.reverse()
    scales.reverse()
    return Hierarchy(labels=levels, scale=scales)


def contracted_hierarchy(
    graph: CSRGraph,
    *,
    seed: SeedLike = None,
    beta_max: float = 0.9,
    radius_constant: float = 1.0,
    method: str = "auto",
    provider=None,
    max_concurrent: int | None = None,
    **options: object,
) -> Hierarchy:
    """Build a laminar hierarchy bottom-up by decompose-and-contract.

    The out-of-core counterpart of :func:`hierarchical_decomposition`:
    instead of carving induced subgraphs out of the full graph at every
    level, each level decomposes the *quotient* of the one below it and
    contracts.  The full graph is touched exactly once — at level 1,
    where the quotient streams over a memmap backing — and every later
    level works on a graph no larger than the previous quotient, so peak
    RSS is bounded by the first contraction, not the input (the
    Ceccarello–Pucci level-scheduling idea applied to the AKPW/HST stack).

    Levels carry the same scales as the top-down builder (``2^ℓ`` target
    radius, ``β_ℓ = min(β_max, c·ln n / 2^ℓ)``), level 0 is singletons,
    and the top level is one piece per connected component.  The family
    is laminar by construction — level ``ℓ`` groups whole level-``ℓ−1``
    pieces.  The label *content* differs from the top-down builder (the
    algorithms are different); determinism and backing-independence are
    the contract: the same seed yields bit-identical hierarchies on RAM-
    and memmap-backed copies of the same graph.
    """
    if not 0 < beta_max < 1:
        raise ParameterError("beta_max must be in (0, 1)")
    if radius_constant <= 0:
        raise ParameterError("radius_constant must be positive")
    n = graph.num_vertices
    if n == 0:
        raise GraphError("cannot build a hierarchy on the empty graph")
    provider = resolve_provider(provider)
    root_seed = ensure_int_seed(seed)

    num_mid_levels = max(1, int(np.ceil(np.log2(max(n, 2)))))
    levels: list[np.ndarray] = [np.arange(n, dtype=np.int64)]
    scales: list[float] = [1.0]
    cur = graph
    # cum[v] = current quotient vertex holding original vertex v.
    cum = np.arange(n, dtype=np.int64)
    for lvl in range(1, num_mid_levels + 1):
        target_radius = float(2**lvl)
        if cur.num_edges:
            if lvl == num_mid_levels:
                # Top level: whole connected components, matching the
                # top-down builder's contract (cur is a quotient by now,
                # or the input itself — either way cc streams if memmap).
                labels_cur = connected_components(cur).astype(np.int64)
            else:
                beta = min(
                    beta_max,
                    radius_constant * np.log(max(n, 2)) / target_radius,
                )
                request = DecomposeRequest(
                    cur,
                    beta,
                    method=method,
                    seed=derive_seed(
                        root_seed, "chierarchy", provider.graph_key(cur)
                    ),
                    options=dict(options),
                )
                outcome = provider.decompose_batch(
                    [request], max_concurrent=max_concurrent
                )
                labels_cur = outcome[0].decomposition.labels.astype(np.int64)
            quotient = quotient_graph(cur, labels_cur)
            cum = labels_cur[cum]
            cur = quotient.graph
        levels.append(cum.copy())
        scales.append(target_radius)
    return Hierarchy(labels=levels, scale=scales)


def _refine(
    graph: CSRGraph,
    coarse: np.ndarray,
    beta: float,
    root_seed: int,
    provider,
    method: str,
    options: dict,
    *,
    max_concurrent: int | None = None,
) -> np.ndarray:
    """Decompose each coarse piece independently; return dense fine labels.

    One :func:`~repro.pipeline.levels.decompose_level` call with the tag
    ``"hierarchy"``: each piece's seed is ``derive_seed(root, "hierarchy",
    piece digest)`` — a pure function of the root seed and the piece's
    content, independent of the level it appears at.  Fine labels are
    allocated in piece order, by sorting the distinct centers on (coarse
    label, center id).
    """
    decomposition = decompose_level(
        graph, coarse, beta, root_seed=root_seed, tag="hierarchy",
        method=method, options=options, provider=provider,
        max_concurrent=max_concurrent,
    )
    center = decomposition.center
    _, fine = np.unique(
        coarse[center] * graph.num_vertices + center, return_inverse=True
    )
    return fine.astype(np.int64)
