"""Content-addressed graph store backing the decomposition service.

Clients upload a graph **once**; the store computes its digest
(:func:`graph_digest` — SHA-256 over the defining CSR arrays), registers
the graph with the owning :class:`~repro.runtime.pool.DecompositionPool`
under that digest, and from then on every request references the digest
only.  Re-uploading identical bytes is a no-op (the store answers with
``known=True`` and registers nothing), which is what makes the digest a
safe cache-key component: one digest, one immutable graph, for the lifetime
of the server.
"""

from __future__ import annotations

import hashlib
import logging
from collections.abc import Mapping

import numpy as np

from repro.errors import ParameterError
from repro.graphs.csr import CSRGraph
from repro.graphs.ops import PieceLayout, concat_ranges

__all__ = ["csr_digest", "graph_digest", "piece_digests", "GraphStore"]

logger = logging.getLogger(__name__)


def graph_digest(graph: CSRGraph) -> str:
    """SHA-256 hex digest of a graph's identity.

    Covers the graph class name and every defining array from the
    ``csr_arrays()`` transport contract (name, dtype, shape, raw bytes), so
    a weighted graph never collides with its unweighted topology and any
    bit flip in ``indptr``/``indices``/``weights`` changes the digest.

    The digest is computed once per graph object and memoized on it —
    its arrays are read-only, so a repeat call hashes nothing.
    """
    if not isinstance(graph, CSRGraph):
        raise ParameterError(
            f"expected a CSRGraph, got {type(graph).__name__}"
        )
    # getattr: an unpickled graph skips __init__ and may lack the slot.
    digest = getattr(graph, "_digest", None)
    if digest is None:
        digest = csr_digest(type(graph).__name__, graph.csr_arrays())
        graph._digest = digest
    return digest


def csr_digest(class_name: str, arrays: Mapping[str, np.ndarray]) -> str:
    """The digest :func:`graph_digest` gives a ``class_name`` graph whose
    ``csr_arrays()`` are ``arrays`` — without building that graph.

    The byte format: the class name, then per array in name order its
    :func:`_array_header` and raw bytes.
    """
    sha = hashlib.sha256()
    sha.update(class_name.encode("utf-8"))
    for name, arr in sorted(arrays.items()):
        canonical = _canonical(arr)
        sha.update(_array_header(name, canonical))
        _hash_array_bytes(sha, canonical)
    return sha.hexdigest()


def piece_digests(layout: PieceLayout, pieces: np.ndarray) -> list[str]:
    """:func:`graph_digest` of each listed piece's induced subgraph.

    ``pieces`` are labels of ``layout``.  Every piece's local ``indptr``
    and ``indices`` (its slices of the layout graph minus its first arc
    and its first id) are built in one vectorised pass, then each piece's
    slices are hashed in :func:`csr_digest`'s byte format — equal to
    hashing ``induced_subgraph(parent, members).graph``, without building
    a graph per piece.
    """
    pieces = np.asarray(pieces, dtype=np.int64)
    indptr, indices = layout.graph.indptr, layout.graph.indices
    lo, hi = layout.bounds[pieces], layout.bounds[pieces + 1]
    arc_lo = indptr[lo]
    # Piece p's local indptr has hi − lo + 1 rows; its arcs are the
    # layout graph's arcs arc_lo..indptr[hi].
    rows = hi - lo + 1
    arcs = indptr[hi] - arc_lo
    local_indptr = _canonical(
        indptr[concat_ranges(lo, rows)] - np.repeat(arc_lo, rows)
    )
    local_indices = _canonical(
        indices[concat_ranges(arc_lo, arcs)] - np.repeat(lo, arcs)
    )
    by_name = sorted([
        ("indices", local_indices, [0, *np.cumsum(arcs).tolist()]),
        ("indptr", local_indptr, [0, *np.cumsum(rows).tolist()]),
    ])
    class_name = CSRGraph.__name__.encode("utf-8")
    digests = []
    for i in range(pieces.size):
        sha = hashlib.sha256(class_name)
        for name, flat, cuts in by_name:
            part = flat[cuts[i] : cuts[i + 1]]
            sha.update(_array_header(name, part))
            sha.update(part)
        digests.append(sha.hexdigest())
    return digests


def _canonical(arr: np.ndarray) -> np.ndarray:
    """``arr`` contiguous and little-endian, as the digest hashes it."""
    arr = np.ascontiguousarray(arr)
    return arr.astype(arr.dtype.newbyteorder("<"), copy=False)


def _array_header(name: str, arr: np.ndarray) -> bytes:
    """The bytes the digest writes before an array's raw bytes: its name,
    little-endian dtype string and shape.  The one owner of the header
    format, for :func:`csr_digest` and :func:`piece_digests` alike."""
    return (
        name.encode("utf-8")
        + arr.dtype.str.encode("ascii")
        + repr(tuple(arr.shape)).encode("ascii")
    )


#: Digest streaming granularity: big enough to amortise call overhead,
#: small enough that hashing a memmap graph never faults in more than one
#: window of pages at a time.
_DIGEST_CHUNK_BYTES = 16 * 1024 * 1024


def _hash_array_bytes(sha, arr: np.ndarray) -> None:
    """Feed ``arr``'s bytes to ``sha`` in bounded windows.

    Equivalent to ``sha.update(arr.tobytes())`` but without materialising
    a second copy — on a memmap-backed graph the ``tobytes()`` copy alone
    would exceed the out-of-core RSS budget.
    """
    flat = arr.reshape(-1).view(np.uint8)
    for start in range(0, flat.nbytes, _DIGEST_CHUNK_BYTES):
        sha.update(flat[start : start + _DIGEST_CHUNK_BYTES])


class GraphStore:
    """Digest-keyed view over a pool's registered graphs.

    The store *owns the pool's key namespace*: every graph it admits is
    registered under its digest, and lookups go digest → parent-side graph
    object.  Mutations must be serialised by the caller (the server runs
    them on its single event loop).
    """

    def __init__(self, pool) -> None:
        self._pool = pool
        self._graphs: dict[str, CSRGraph] = {}
        self._uploads = 0
        self._dedup_hits = 0

    def put(
        self, graph: CSRGraph, *, digest: str | None = None
    ) -> tuple[str, bool]:
        """Admit ``graph``; returns ``(digest, known)``.

        ``known`` is true when identical content was already resident — the
        pool is not touched in that case.  ``digest`` lets a caller that
        already hashed the graph (the server does it off-loop) skip the
        second pass; it must be ``graph_digest(graph)``.
        """
        if digest is None:
            digest = graph_digest(graph)
        self._uploads += 1
        if digest in self._graphs:
            self._dedup_hits += 1
            return digest, True
        self._pool.register_graph(digest, graph)
        self._graphs[digest] = graph
        logger.debug(
            "registered graph %s (n=%d, m=%d, %d resident)",
            digest[:12], graph.num_vertices, graph.num_edges,
            len(self._graphs),
        )
        return digest, False

    def get(self, digest: str) -> CSRGraph:
        """The graph registered under ``digest``."""
        try:
            return self._graphs[digest]
        except KeyError:
            raise ParameterError(
                f"unknown graph digest {digest!r}; upload the graph first "
                f"({len(self._graphs)} graph(s) resident)"
            ) from None

    def discard(self, digest: str) -> None:
        """Drop a graph: unregister from the pool, unlink its segment."""
        self.get(digest)  # raises with the store's message when unknown
        del self._graphs[digest]
        self._pool.unregister_graph(digest)

    def __contains__(self, digest: str) -> bool:
        return digest in self._graphs

    def __len__(self) -> int:
        return len(self._graphs)

    @property
    def digests(self) -> tuple[str, ...]:
        """Resident digests, in admission order."""
        return tuple(self._graphs)

    def stats(self) -> dict[str, int]:
        return {
            "graphs": len(self._graphs),
            "uploads": self._uploads,
            "dedup_hits": self._dedup_hits,
            "graph_bytes": int(
                sum(
                    sum(a.nbytes for a in g.csr_arrays().values())
                    for g in self._graphs.values()
                )
            ),
        }

    def __repr__(self) -> str:
        return f"GraphStore({len(self._graphs)} graph(s))"
