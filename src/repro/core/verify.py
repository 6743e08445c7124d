"""Decomposition verification — executable versions of the paper's claims.

Two kinds of checks:

- **Deterministic invariants** (violations raise
  :class:`~repro.errors.VerificationError`): the assignment is a total
  partition; every piece is connected *as an induced subgraph*; the recorded
  hop distances equal true in-piece BFS distances from the center
  (Lemma 4.1's prefix-closure in executable form).
- **Probabilistic guarantees** (reported, never raised): piece radii vs the
  ``δ_max`` certificate and the ``O(log n / β)`` bound; cut fraction vs the
  ``O(β)`` bound.  Theorem 1.2 holds with constant probability per run, so a
  report-level comparison is the honest check.

``verify_decomposition`` with default arguments performs the deterministic
checks and returns a :class:`VerificationReport` carrying everything.

Weighted decompositions (:class:`~repro.core.weighted.WeightedDecomposition`,
produced by the ``dijkstra`` method) route through the same entry point:
partition totality and per-piece connectivity are checked on the topology,
radii/cuts are measured in weighted distance, and the unweighted-only hop
invariant (Lemma 4.1 is a statement about BFS levels) is skipped —
``hops_consistent`` is reported vacuously true and ``report.weighted`` is
set so consumers can tell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bfs.sequential import multi_source_bfs
from repro.core.decomposition import Decomposition
from repro.core.weighted import WeightedDecomposition
from repro.errors import VerificationError
from repro.graphs.csr import CSRGraph
from repro.graphs.ops import split_by_labels

__all__ = ["VerificationReport", "verify_decomposition", "strong_diameters"]


@dataclass(frozen=True)
class VerificationReport:
    """Everything the checks measured.

    ``max_strong_diameter`` is exact when ``exact_diameters`` was requested,
    otherwise the eccentricity-based 2-approximation certificate
    (``diameter ≤ 2 · max radius``).
    """

    num_pieces: int
    is_partition: bool
    pieces_connected: bool
    hops_consistent: bool
    max_radius: int | float
    max_strong_diameter: int | float
    diameters_exact: bool
    num_cut_edges: int
    cut_fraction: float
    delta_max: float | None
    radius_within_certificate: bool | None
    #: True when the checked decomposition was weighted: radii and cut
    #: fraction are in weighted distance/weight, and ``hops_consistent`` is
    #: vacuous (the hop invariant is an unweighted-only statement).
    weighted: bool = False

    def all_invariants_hold(self) -> bool:
        """True when every deterministic invariant passed."""
        return self.is_partition and self.pieces_connected and self.hops_consistent


def _center_distances(
    decomposition: Decomposition | WeightedDecomposition,
):
    """Per piece, in label order: ``(members, piece, dist)``.

    ``dist`` is the hop distance of each member from the piece's center,
    measured inside the induced ``piece`` (−1 where the center cannot reach
    it).  All pieces are carved in one :func:`split_by_labels` pass; a
    single-vertex piece comes back as ``piece=None`` with ``dist=[0]``.
    """
    centers = decomposition.centers
    pieces = split_by_labels(decomposition.graph, decomposition.labels)
    for label, (members, piece) in enumerate(pieces):
        if piece is None:
            yield members, None, np.zeros(members.size, dtype=np.int64)
            continue
        source = np.searchsorted(members, centers[label])
        dist = multi_source_bfs(piece, np.asarray([source])).dist
        yield members, piece, dist


def _exact_diameter(piece: CSRGraph | None) -> int:
    """Strong diameter of a connected piece: one BFS per vertex."""
    if piece is None:
        return 0
    return max(
        int(multi_source_bfs(piece, np.asarray([v])).dist.max())
        for v in range(piece.num_vertices)
    )


def strong_diameters(
    decomposition: Decomposition, *, exact: bool = False
) -> np.ndarray:
    """Per-piece strong diameter.

    With ``exact=False`` returns each piece's center eccentricity measured
    inside the piece (radius; the strong diameter lies in ``[r, 2r]``).
    With ``exact=True`` runs a BFS from every vertex of each piece inside
    the induced subgraph — O(Σ piece_size · piece_edges), fine for the test
    and benchmark sizes.
    """
    out = np.zeros(decomposition.num_pieces, dtype=np.int64)
    for label, (_, piece, dist) in enumerate(_center_distances(decomposition)):
        if np.any(dist < 0):
            raise VerificationError(
                f"piece {label} is disconnected from its center"
            )
        out[label] = _exact_diameter(piece) if exact else int(dist.max())
    return out


def verify_decomposition(
    decomposition: Decomposition | WeightedDecomposition,
    *,
    beta: float | None = None,
    delta_max: float | None = None,
    exact_diameters: bool = False,
    raise_on_violation: bool = True,
) -> VerificationReport:
    """Check a decomposition against Definition 1.1 and the paper's lemmas.

    Parameters
    ----------
    decomposition:
        The partition to check.  Weighted decompositions are accepted; the
        unweighted-only hop invariant is skipped for them (see the module
        docstring).
    beta, delta_max:
        Optional run parameters enabling the probabilistic comparisons
        (cut fraction vs β, radii vs the shift certificate).
    exact_diameters:
        Compute exact strong diameters (quadratic per piece) instead of the
        center-eccentricity certificate.  Ignored for weighted inputs.
    raise_on_violation:
        Raise :class:`VerificationError` on deterministic invariant failures
        (default); pass ``False`` to collect the report regardless.
    """
    # A weighted piece's eccentricity from its center is exactly its
    # radius, so a weighted run reports the radius as the strong-diameter
    # certificate (the true strong diameter lies in [r, 2r]).
    weighted = isinstance(decomposition, WeightedDecomposition)
    exact = exact_diameters and not weighted
    n = decomposition.graph.num_vertices
    labels = decomposition.labels

    is_partition = bool(
        labels.shape[0] == n
        and np.all(labels >= 0)
        and np.all(decomposition.center >= 0)
    )

    pieces_connected = True
    hops_consistent = True  # vacuous for weighted runs
    max_diam = 0
    for members, piece, inside in _center_distances(decomposition):
        if np.any(inside < 0):
            pieces_connected = False
            continue
        if weighted:
            continue
        # Lemma 4.1, executable: the hop distance the algorithm recorded must
        # equal the true distance measured *inside* the piece.
        if not np.array_equal(inside, decomposition.hops[members]):
            hops_consistent = False
        max_diam = max(
            max_diam, _exact_diameter(piece) if exact else int(inside.max())
        )

    max_radius = decomposition.max_radius()
    report = VerificationReport(
        num_pieces=decomposition.num_pieces,
        is_partition=is_partition,
        pieces_connected=pieces_connected,
        hops_consistent=hops_consistent,
        max_radius=max_radius,
        max_strong_diameter=max_radius if weighted else max_diam,
        diameters_exact=exact,
        num_cut_edges=decomposition.num_cut_edges(),
        cut_fraction=(
            decomposition.cut_weight_fraction()
            if weighted
            else decomposition.cut_fraction()
        ),
        delta_max=delta_max,
        radius_within_certificate=(
            bool(max_radius <= delta_max + (1e-9 if weighted else 0))
            if delta_max is not None
            else None
        ),
        weighted=weighted,
    )
    if raise_on_violation and not report.all_invariants_hold():
        failing = [
            name
            for name, ok in (
                ("partition", report.is_partition),
                ("connectivity", report.pieces_connected),
                ("hop-consistency", report.hops_consistent),
            )
            if not ok
        ]
        raise VerificationError(
            f"{'weighted ' if weighted else ''}decomposition violates "
            f"deterministic invariants: {failing}"
        )
    return report
