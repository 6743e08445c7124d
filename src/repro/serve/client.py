"""Blocking client for the decomposition service.

:class:`ServeClient` speaks the frame protocol of
:mod:`repro.serve.protocol` over one TCP connection.  The intended calling
sequence mirrors the server's content-addressed design: upload a graph
once (:meth:`upload` / :meth:`upload_file`), keep the digest, then issue
as many :meth:`decompose` calls as the workload needs — the server
answers repeats from its memoizing cache and coalesces concurrent
duplicates.  The application ops run whole workloads server-side with the
same economics: :meth:`spanner`, :meth:`lowstretch_tree` and
:meth:`hierarchy` return finished application outputs (edge sets, parent
arrays, label stacks) and hit the same cache when repeated.

The client is deliberately synchronous: downstream numerical code (solver
loops, benchmark harnesses) is synchronous, and one connection per thread
is the natural unit.  A lock serialises frames so a client instance shared
across threads still interleaves whole requests, never partial frames.

The single-request ops live once, in :class:`ServeOps`, which both this
client and :class:`~repro.serve.aio_client.AsyncServeClient` inherit;
only the transport underneath differs.
"""

from __future__ import annotations

import hashlib
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ParameterError, ServeError
from repro.graphs.csr import CSRGraph
from repro.graphs.io import to_json
from repro.serve.protocol import (
    as_array,
    compact_arrays,
    encode_frame,
    read_frame_blocking,
)
from repro.telemetry import trace as _trace

__all__ = [
    "ServeClient",
    "ServeOps",
    "ServeResult",
    "ServeSpannerResult",
    "ServeTreeResult",
    "ServeHierarchyResult",
    "graph_upload_message",
    "text_upload_message",
]

#: Classes :func:`graph_upload_message` ships as binary arrays — the
#: server's whitelist; anything else falls back to a JSON text upload.
_BINARY_UPLOAD_CLASSES = ("CSRGraph", "WeightedCSRGraph")


def _arrays_digest(*arrays: np.ndarray) -> str:
    """SHA-256 over arrays — the cross-provider bit-identity witness."""
    sha = hashlib.sha256()
    for arr in arrays:
        sha.update(np.ascontiguousarray(arr).tobytes())
    return sha.hexdigest()


@dataclass(frozen=True)
class ServeResult:
    """One decomposition as served: assignment arrays plus provenance."""

    digest: str
    kind: str
    cached: bool
    coalesced: bool
    summary: dict
    center: np.ndarray
    per_vertex: np.ndarray

    @property
    def hops(self) -> np.ndarray:
        """BFS hop distances (unweighted results only)."""
        if self.kind != "unweighted":
            raise ParameterError(
                f"hops is an unweighted-result field; this result is "
                f"{self.kind}"
            )
        return self.per_vertex

    @property
    def radius(self) -> np.ndarray:
        """Shifted-distance radii (weighted results only)."""
        if self.kind != "weighted":
            raise ParameterError(
                f"radius is a weighted-result field; this result is "
                f"{self.kind}"
            )
        return self.per_vertex

    @property
    def num_pieces(self) -> int:
        return int(float(self.summary["num_pieces"]))

    def result_digest(self) -> str:
        """SHA-256 over the assignment arrays — the bit-identity witness."""
        return _arrays_digest(self.center, self.per_vertex)


@dataclass(frozen=True)
class ServeSpannerResult:
    """A spanner built server-side: edge set plus construction counters."""

    digest: str
    cached: bool
    coalesced: bool
    #: canonical ``(E, 2)`` edge array of the spanner subgraph.
    edges: np.ndarray
    stretch_bound: int
    num_tree_edges: int
    num_bridge_edges: int
    num_edges: int
    summary: dict

    def result_digest(self) -> str:
        """SHA-256 over the canonical edge array."""
        return _arrays_digest(self.edges)


@dataclass(frozen=True)
class ServeTreeResult:
    """An AKPW low-stretch spanning forest built server-side."""

    digest: str
    cached: bool
    coalesced: bool
    #: parent array of the rooted forest (−1 at roots).
    parent: np.ndarray
    #: (supernodes, edges) of the contracted graph entering each level.
    level_sizes: list[tuple[int, int]]
    level_betas: list[float]
    num_levels: int

    def result_digest(self) -> str:
        """SHA-256 over the parent array."""
        return _arrays_digest(self.parent)


@dataclass(frozen=True)
class ServeHierarchyResult:
    """A laminar hierarchy built server-side (finest level first)."""

    digest: str
    cached: bool
    coalesced: bool
    #: per-level dense piece labels, level 0 (singletons) first.
    labels: list[np.ndarray]
    scale: list[float]
    num_levels: int

    def result_digest(self) -> str:
        """SHA-256 over every level's label array."""
        return _arrays_digest(*self.labels)


# ---------------------------------------------------------------------------
# response → result builders (shared with AsyncServeClient)
# ---------------------------------------------------------------------------
def check_response(response: dict | None) -> dict:
    """Raise :class:`ServeError` for closed streams and ``ok: false``."""
    if response is None:
        raise ServeError("server closed the connection")
    if not response.get("ok"):
        raise ServeError(
            f"{response.get('error', 'Error')}: "
            f"{response.get('message', 'unknown server error')}"
        )
    return response


def result_from_response(response: dict) -> ServeResult:
    return ServeResult(
        digest=response["digest"],
        kind=response["kind"],
        cached=bool(response["cached"]),
        coalesced=bool(response["coalesced"]),
        summary=dict(response["summary"]),
        center=as_array(response["center"]),
        per_vertex=as_array(response["per_vertex"]),
    )


def spanner_from_response(response: dict) -> ServeSpannerResult:
    return ServeSpannerResult(
        digest=response["digest"],
        cached=bool(response["cached"]),
        coalesced=bool(response["coalesced"]),
        edges=as_array(response["edges"]),
        stretch_bound=int(response["stretch_bound"]),
        num_tree_edges=int(response["num_tree_edges"]),
        num_bridge_edges=int(response["num_bridge_edges"]),
        num_edges=int(response["num_edges"]),
        summary=dict(response["summary"]),
    )


def tree_from_response(response: dict) -> ServeTreeResult:
    return ServeTreeResult(
        digest=response["digest"],
        cached=bool(response["cached"]),
        coalesced=bool(response["coalesced"]),
        parent=as_array(response["parent"]),
        level_sizes=[
            (int(a), int(b)) for a, b in response["level_sizes"]
        ],
        level_betas=[float(b) for b in response["level_betas"]],
        num_levels=int(response["num_levels"]),
    )


def hierarchy_from_response(response: dict) -> ServeHierarchyResult:
    return ServeHierarchyResult(
        digest=response["digest"],
        cached=bool(response["cached"]),
        coalesced=bool(response["coalesced"]),
        labels=[as_array(level) for level in response["labels"]],
        scale=[float(s) for s in response["scale"]],
        num_levels=int(response["num_levels"]),
    )


def text_upload_message(data: str | bytes, format: str = "auto") -> dict:
    """The upload request for serialised graph text.

    The text's bytes travel as one ``uint8`` array in the frame's binary
    tail — no JSON string escaping on either side — and reach the server's
    parser undecoded.  A ``str`` is encoded to UTF-8 once, here, as
    :func:`~repro.graphs.io.parse_graph` encodes one.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    return {
        "op": "upload",
        "format": format,
        "payload": np.frombuffer(data, dtype=np.uint8),
    }


def graph_upload_message(graph: CSRGraph) -> dict:
    """The upload request for ``graph``.

    The raw CSR arrays travel in compact transport dtypes (digest-neutral:
    the server constructor restores canonical dtypes); a graph class the
    server cannot rebuild from arrays falls back to a JSON text upload.
    """
    if not isinstance(graph, CSRGraph):
        raise ParameterError(
            f"expected a CSRGraph, got {type(graph).__name__}"
        )
    cls_name = type(graph).__name__
    if cls_name in _BINARY_UPLOAD_CLASSES:
        return {
            "op": "upload",
            "class": cls_name,
            "arrays": compact_arrays(graph.csr_arrays()),
        }
    return text_upload_message(to_json(graph), "json")


def _digest_of(response: dict) -> str:
    return response["digest"]


class ServeOps:
    """The single-request operations, written once for both clients.

    Each op builds its request message and returns
    ``self._request(message, parse)``.  :class:`ServeClient` implements
    ``_request`` as a blocking round trip, so its ops return results;
    :class:`~repro.serve.aio_client.AsyncServeClient` implements it as a
    coroutine, so the same ops return awaitables there.  Return
    annotations name the synchronous result.
    """

    def _request(self, message: dict, parse=None):
        raise NotImplementedError

    def hello(self) -> dict:
        """Handshake: server identity, protocol, method registry dump."""
        return self._request({"op": "hello"})

    def upload(self, graph: CSRGraph) -> str:
        """Upload a graph object; returns its digest.

        The CSR arrays travel as raw binary buffers (zero-copy
        server-side); the digest equals a text upload of the same graph.
        """
        return self._request(graph_upload_message(graph), _digest_of)

    def upload_graph(self, graph: CSRGraph) -> dict:
        """Upload a graph object; returns the full server response
        (``digest``, ``known``, ``num_vertices``, ``num_edges``,
        ``weighted``)."""
        return self._request(graph_upload_message(graph))

    def upload_text(self, payload: str | bytes, format: str = "auto") -> dict:
        """Upload serialised graph text (``str``, or its bytes as read from
        a file); returns the full server response (``digest``, ``known``,
        ``num_vertices``, ``num_edges``, ``weighted``)."""
        return self._request(text_upload_message(payload, format))

    def upload_abort(self, upload_id: str) -> dict:
        """Drop an in-progress chunked upload server-side."""
        return self._request({"op": "upload_abort", "upload_id": upload_id})

    def discard(self, digest: str) -> dict:
        """Drop an uploaded graph server-side (frees its shared memory).

        Cooperative: do not race your own in-flight requests against the
        digest.  Cached results keyed on the digest remain valid — the
        same bytes re-upload to the same digest.
        """
        return self._request({"op": "discard", "digest": digest})

    def decompose(
        self,
        digest: str,
        beta: float,
        *,
        method: str = "auto",
        seed: int = 0,
        validate: bool = False,
        **options: object,
    ) -> ServeResult:
        """Request one decomposition of the graph behind ``digest``."""
        return self._request(
            {
                "op": "decompose",
                "digest": digest,
                "beta": beta,
                "method": method,
                "seed": seed,
                "validate": validate,
                "options": dict(options),
            },
            result_from_response,
        )

    def spanner(
        self,
        digest: str,
        beta: float,
        *,
        method: str = "auto",
        seed: int = 0,
        **options: object,
    ) -> ServeSpannerResult:
        """Build the cluster spanner of the graph behind ``digest``.

        Runs server-side (decompositions on the server's pool, result
        through its cache); repeats are warm hits.  The edge array is
        bit-identical to a local
        :func:`repro.spanners.ldd_spanner` with the same configuration.
        """
        return self._request(
            {
                "op": "spanner",
                "digest": digest,
                "beta": beta,
                "method": method,
                "seed": seed,
                "options": dict(options),
            },
            spanner_from_response,
        )

    def lowstretch_tree(
        self,
        digest: str,
        *,
        beta: float = 0.5,
        method: str = "auto",
        seed: int = 0,
        max_levels: int = 64,
        **options: object,
    ) -> ServeTreeResult:
        """Build an AKPW low-stretch spanning forest server-side.

        The parent array is bit-identical to a local
        :func:`repro.lowstretch.akpw_spanning_tree` with the same
        configuration.
        """
        return self._request(
            {
                "op": "lowstretch_tree",
                "digest": digest,
                "beta": beta,
                "method": method,
                "seed": seed,
                "max_levels": max_levels,
                "options": dict(options),
            },
            tree_from_response,
        )

    def hierarchy(
        self,
        digest: str,
        *,
        seed: int = 0,
        method: str = "auto",
        beta_max: float = 0.9,
        radius_constant: float = 1.0,
        **options: object,
    ) -> ServeHierarchyResult:
        """Build a laminar decomposition hierarchy server-side.

        The label stack is bit-identical to a local
        :func:`repro.embeddings.hierarchical_decomposition` with the same
        configuration.
        """
        return self._request(
            {
                "op": "hierarchy",
                "digest": digest,
                "seed": seed,
                "method": method,
                "beta_max": beta_max,
                "radius_constant": radius_constant,
                "options": dict(options),
            },
            hierarchy_from_response,
        )

    def stats(self) -> dict:
        """Server/cache/store/pool counters."""
        return self._request({"op": "stats"})

    def metrics(self, *, text: bool = True) -> dict:
        """Telemetry snapshot: ``metrics`` (mergeable JSON tree) and, with
        ``text=True``, its Prometheus rendering under ``text``.  Against a
        cluster router the snapshot is the merge of every shard's."""
        return self._request({"op": "metrics", "text": text})

    def shutdown(self) -> dict:
        """Ask the server to stop (the response confirms it is stopping)."""
        return self._request({"op": "shutdown"})


class ServeClient(ServeOps):
    """Synchronous connection to a :class:`DecompositionServer`.

    Parameters
    ----------
    host, port:
        Server address, e.g. ``ServeClient(*server.address)``.
    timeout:
        Socket timeout in seconds for connect and for each response.
    connect_window:
        Total seconds to keep retrying a refused connect with exponential
        backoff (50 ms doubling to 800 ms) before giving up — makes the
        startup race against a just-spawned server benign.  ``0`` means a
        single attempt (used by tests that poll for a server's death).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 60.0,
        connect_window: float = 2.0,
    ) -> None:
        sock, address = self._connect(host, port, timeout, connect_window)
        self._sock: socket.socket | None = sock
        #: the peer actually connected to — lets callers (e.g. a provider
        #: batching through a second, pipelined client) re-dial the same
        #: endpoint after `"0"`-port resolution.
        self._address: tuple[str, int] = address
        self._lock = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` of the connected server."""
        return self._address

    @staticmethod
    def _connect(
        host: str, port: int, timeout: float, window: float
    ) -> tuple[socket.socket, tuple[str, int]]:
        deadline = time.monotonic() + max(0.0, float(window))
        delay = 0.05
        while True:
            sock = None
            try:
                sock = socket.create_connection((host, port), timeout=timeout)
                # A server that is shutting down can accept and reset the
                # connection at once; that surfaces here, not above.
                return sock, sock.getpeername()[:2]
            except OSError as exc:
                if sock is not None:
                    sock.close()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServeError(
                        f"cannot connect to decomposition server at "
                        f"{host}:{port}: {exc}"
                    ) from None
                time.sleep(min(delay, remaining))
                delay = min(delay * 2, 0.8)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _roundtrip_locked(self, message: dict) -> dict | None:
        """One request/response exchange; caller holds the lock."""
        try:
            self._sock.sendall(encode_frame(message))
            return read_frame_blocking(self._sock)
        except (OSError, ServeError) as exc:
            # A timeout or mid-frame failure leaves the stream
            # desynchronized (sequential calls carry no request ids) — a
            # later response could answer the wrong request.  The
            # connection is unusable; close it.
            sock, self._sock = self._sock, None
            try:
                sock.close()
            except OSError:
                pass
            raise ServeError(
                f"connection to server lost: {exc}"
            ) from None

    def _call(self, message: dict) -> dict:
        if not _trace.tracing_active():
            return self._call_untraced(message)
        # Tracing is on: wrap the round trip in a client root span, ship
        # its context in the request header, and re-emit whatever spans
        # the far side (worker → server → router relay) sent back, so the
        # local sink ends up holding the complete cross-process tree.
        with _trace.span(
            f"client.{message.get('op', '?')}", op=message.get("op")
        ) as client_span:
            ctx = client_span.context()
            if ctx is not None:
                message = {**message, "trace": ctx}
            response = self._call_untraced(message)
            remote = response.pop("spans", None)
            if remote:
                _trace.emit_spans(remote)
            if isinstance(response.get("cached"), bool):
                client_span.annotate(cached=response["cached"])
            return response

    def _call_untraced(self, message: dict) -> dict:
        with self._lock:
            if self._sock is None:
                raise ServeError("client is closed")
            response = self._roundtrip_locked(message)
        return check_response(response)

    def _request(self, message: dict, parse=None):
        response = self._call(message)
        return response if parse is None else parse(response)

    # ------------------------------------------------------------------
    # blocking-only operations
    # ------------------------------------------------------------------
    def upload_chunked(
        self,
        graph: CSRGraph,
        *,
        chunk_bytes: int | None = None,
    ) -> dict:
        """Upload a graph through the chunked ops; returns the commit
        response (``digest``, ``known``, ``num_vertices``, …).

        This is the path for graphs whose arrays exceed the one-frame
        protocol ceiling (``MAX_FRAME_BYTES``): ``upload_begin`` declares
        the manifest (canonical array dtypes, payload SHA-256, the graph's
        content digest), ``upload_chunk`` ships raw byte slices, and
        ``upload_commit`` seals the transfer after the server re-derives
        both hashes.  The sequence is resumable — a rerun after a dropped
        connection continues from the server's accepted offset — and a
        graph already resident under its digest costs one round trip
        (``known: true``).  Works on memmap-backed graphs without ever
        materialising the arrays in RAM.
        """
        if not isinstance(graph, CSRGraph):
            raise ParameterError(
                f"expected a CSRGraph, got {type(graph).__name__}"
            )
        from repro.serve.store import graph_digest

        cls_name = type(graph).__name__
        if cls_name not in _BINARY_UPLOAD_CLASSES:
            raise ParameterError(
                f"chunked upload supports {list(_BINARY_UPLOAD_CLASSES)}, "
                f"got {cls_name}"
            )
        arrays = graph.csr_arrays()
        flats: list[np.ndarray] = []
        manifest: list[dict] = []
        sha = hashlib.sha256()
        window = 16 * 1024 * 1024
        for name, arr in arrays.items():
            canonical = np.ascontiguousarray(arr)
            if canonical.dtype.byteorder == ">":  # pragma: no cover
                canonical = canonical.astype(
                    canonical.dtype.newbyteorder("<")
                )
            flat = canonical.reshape(-1).view(np.uint8)
            for start in range(0, flat.nbytes, window):
                sha.update(flat[start : start + window])
            flats.append(flat)
            manifest.append(
                {
                    "name": name,
                    "dtype": canonical.dtype.newbyteorder("<").str,
                    "shape": [int(canonical.shape[0])],
                }
            )
        total = sum(flat.nbytes for flat in flats)
        digest = graph_digest(graph)
        begin = self._call(
            {
                "op": "upload_begin",
                "digest": digest,
                "class": cls_name,
                "arrays": manifest,
                "payload_sha256": sha.hexdigest(),
                "total_bytes": total,
            }
        )
        if begin.get("known"):
            return begin
        offset = int(begin.get("offset", 0))
        if chunk_bytes is None:
            chunk_bytes = int(begin.get("chunk_bytes") or window)
        if chunk_bytes <= 0:
            raise ParameterError(
                f"chunk_bytes must be positive, got {chunk_bytes}"
            )
        # Walk the arrays as one logical byte stream, resuming at the
        # server's accepted offset; chunks never cross an array boundary,
        # so each slice is a zero-copy view of the (possibly memmapped)
        # source array.
        base = 0
        for flat in flats:
            end = base + flat.nbytes
            while offset < end:
                take = min(chunk_bytes, end - offset)
                piece = flat[offset - base : offset - base + take]
                self._call(
                    {
                        "op": "upload_chunk",
                        "upload_id": digest,
                        "offset": offset,
                        "data": piece,
                    }
                )
                offset += take
            base = end
        return self._call({"op": "upload_commit", "upload_id": digest})

    def upload_file(self, path: str | Path, format: str = "auto") -> dict:
        """Upload a graph file's contents.

        ``format="auto"`` resolves a known file extension client-side (the
        extension never crosses the wire, and the server's content sniff
        refuses genuinely ambiguous text); unknown extensions are sniffed
        server-side.
        """
        path = Path(path)
        if format == "auto":
            from repro.graphs.io import format_for_path

            format = format_for_path(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise ServeError(
                f"cannot read graph file {path}: {exc}"
            ) from None
        # The bytes go as they are: the server's parser answers a bad
        # byte with a GraphError naming its line.
        return self.upload_text(data, format=format)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            sock, self._sock = self._sock, None
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass

    @property
    def closed(self) -> bool:
        return self._sock is None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "connected"
        return f"ServeClient({state})"
