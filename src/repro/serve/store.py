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

__all__ = ["csr_digest", "graph_digest", "GraphStore"]

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

    The one owner of the digest byte format: the class name, then per
    array in name order its name, little-endian dtype string, shape and
    raw bytes.
    """
    sha = hashlib.sha256()
    sha.update(class_name.encode("utf-8"))
    for name, arr in sorted(arrays.items()):
        arr = np.ascontiguousarray(arr)
        canonical = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        sha.update(name.encode("utf-8"))
        sha.update(canonical.dtype.str.encode("ascii"))
        sha.update(repr(tuple(arr.shape)).encode("ascii"))
        _hash_array_bytes(sha, canonical)
    return sha.hexdigest()


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
