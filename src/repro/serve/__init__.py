"""Decomposition service: async server, content-addressed store, cache.

The long-lived serving surface over the shared-memory batch runtime
(:mod:`repro.runtime`) — the layer the ROADMAP's "serve heavy traffic"
goal names.  Clients upload a graph once, then stream
``(digest, beta, method, seed, options)`` requests; the server memoizes
results (decompositions are derandomized, so a warm hit is byte-identical
to a cold computation) and coalesces concurrent duplicates into one pool
execution.

- :mod:`repro.serve.protocol` — length-prefixed frames (JSON header plus
  a binary array tail), canonical cache keys;
- :mod:`repro.serve.store` — :class:`GraphStore`, content addressing by
  :func:`graph_digest`;
- :mod:`repro.serve.cache` — :class:`ResultCache`, byte-budgeted LRU with
  hit/miss/eviction counters;
- :mod:`repro.serve.server` — :class:`DecompositionServer` (asyncio) and
  the :func:`serve_background` thread harness;
- :mod:`repro.serve.client` — blocking :class:`ServeClient` /
  :class:`ServeResult`;
- :mod:`repro.serve.aio_client` — :class:`AsyncServeClient`, a pooled
  asyncio client that pipelines many in-flight requests per connection.

CLI: ``repro serve`` starts a server, ``repro request`` drives it.  See
DESIGN.md §7 for the architecture and the SV benchmark for the latency
numbers the layer exists to hit.
"""

from repro.serve.aio_client import AsyncServeClient
from repro.serve.cache import ResultCache
from repro.serve.client import (
    ServeClient,
    ServeHierarchyResult,
    ServeResult,
    ServeSpannerResult,
    ServeTreeResult,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    canonical_cache_key,
)
from repro.serve.server import DecompositionServer, serve_background
from repro.serve.store import GraphStore, graph_digest

__all__ = [
    "DecompositionServer",
    "serve_background",
    "ServeClient",
    "AsyncServeClient",
    "ServeResult",
    "ServeSpannerResult",
    "ServeTreeResult",
    "ServeHierarchyResult",
    "GraphStore",
    "graph_digest",
    "ResultCache",
    "canonical_cache_key",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
]
