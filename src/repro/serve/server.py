"""`DecompositionServer` — the async serving surface over the batch runtime.

One asyncio event loop owns the registries (graph store, result cache,
in-flight table) and streams requests into a
:class:`~repro.runtime.pool.DecompositionPool`; the worker processes do the
actual decompositions, so the loop is free to multiplex connections.  Three
layers keep repeat traffic cheap:

1. **content-addressed store** — a graph is uploaded once, registered in
   shared memory under its digest, and referenced by digest thereafter;
2. **memoizing cache** — results are keyed by the canonical request tuple
   (:func:`~repro.serve.protocol.canonical_cache_key`); derandomized
   decompositions make a warm hit byte-identical to recomputation;
3. **coalescing** — N concurrent identical requests await one pool
   execution (the in-flight future), costing one worker slot, not N.

Beyond raw decompositions, the server executes **application ops** —
``spanner``, ``lowstretch_tree``, ``hierarchy`` — end to end: each op is
one pool task (:mod:`repro.serve.apps`) that runs the application in a
worker against that worker's copy of the stored graph, and its result
flows through the same cache and coalescing table (namespaced by op in
the canonical key), so a warm spanner request costs a frame round trip,
exactly like a warm decomposition.  The server itself only encodes.

Registry mutations (upload, cache insert, coalesce bookkeeping) happen only
on the event loop — single-threaded by construction, no locks.  The wire
protocol is documented in :mod:`repro.serve.protocol`
and DESIGN.md §7–8.

The lifecycle, the frame loop and the error envelope come from
:class:`~repro.serve.service.FrameService`:
:meth:`DecompositionServer.run_async` inside an event loop you own, or
:func:`serve_background` for a daemon-thread server in tests, benchmarks,
and notebooks.  ``idle_ttl`` arms a watchdog that shuts the server down
after that many seconds without a frame or an execution in flight — the
guard rail for CI-spawned servers.
"""

from __future__ import annotations

import asyncio
import contextvars
import hashlib
import json
import logging
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro._version import __version__
from repro.bfs.kernels import native_available
from repro.core.engine import DEFAULT_METHODS, PartitionResult, _resolve
from repro.core.weighted import WeightedDecomposition
from repro.errors import ParameterError, ServeError
from repro.graphs.backing import BACKING_KINDS
from repro.graphs.csr import CSRGraph
from repro.graphs.io import GRAPH_FORMATS, parse_graph
from repro.graphs.mmapcsr import (
    HEADER_RESERVE,
    MmapCSR,
    MmapLayout,
    validate_csr_chunked,
)
from repro.graphs.weighted import require_unweighted
from repro.core.registry import describe_methods
from repro.runtime.pool import DecompositionPool
from repro.serve import apps
from repro.serve.cache import DEFAULT_MAX_BYTES, ResultCache
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    as_array,
    canonical_cache_key,
)
from repro.serve.service import FrameService
from repro.serve.store import GraphStore, graph_digest
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace
from repro.telemetry.metrics import COUNT_BUCKETS, render_prometheus

__all__ = [
    "DecompositionServer",
    "serve_background",
    "upload_builder",
]

logger = logging.getLogger(__name__)

#: classes a binary upload may name — the transport contract of
#: ``csr_arrays()``/``from_arrays()``; anything else is rejected.
_UPLOAD_CLASSES: dict[str, tuple[str, ...]] = {
    "CSRGraph": ("indptr", "indices"),
    "WeightedCSRGraph": ("indptr", "indices", "weights"),
}


def upload_builder(message: dict):
    """Validate an upload request; return a ``() -> (graph, digest)``.

    The returned callable does the CPU-heavy work (parse or construct plus
    SHA-256) and is meant to run on an executor thread, under a copy of
    the request's context (``contextvars.copy_context().run``) so that its
    ``graphs.parse`` and ``graphs.digest`` spans join the request's trace.
    Two request
    shapes: text (``payload`` + ``format``) and binary (``arrays`` +
    ``class``, the ``csr_arrays()`` contract straight off the wire —
    clients send raw compact-dtype buffers; the graph constructor restores
    canonical dtypes and validates structure, so the resulting digest
    equals a text upload of the same graph).  Shared by the server and the
    cluster router, which must hash before it can route.
    """
    if "arrays" in message:
        cls_name = message.get("class", "CSRGraph")
        expected = _UPLOAD_CLASSES.get(cls_name)
        if expected is None:
            raise ParameterError(
                f"binary upload 'class' must be one of "
                f"{sorted(_UPLOAD_CLASSES)}, got {cls_name!r}"
            )
        arrays = message["arrays"]
        if not isinstance(arrays, dict) or sorted(arrays) != sorted(expected):
            got = (
                sorted(arrays) if isinstance(arrays, dict)
                else type(arrays).__name__
            )
            raise ParameterError(
                f"binary upload of a {cls_name} needs arrays "
                f"{sorted(expected)}, got {got}"
            )
        arrays = {name: as_array(obj) for name, obj in arrays.items()}

        def _build_and_hash():
            if cls_name == "WeightedCSRGraph":
                from repro.graphs.weighted import WeightedCSRGraph as cls
            else:
                cls = CSRGraph
            graph = cls.from_arrays(arrays, validate=True)
            with _trace.span("graphs.digest"):
                return graph, graph_digest(graph)

        return _build_and_hash

    payload = message.get("payload")
    if not isinstance(payload, str):
        raise ParameterError(
            "upload needs a string 'payload' holding the serialised "
            "graph (or binary 'arrays' + 'class')"
        )
    fmt = message.get("format", "auto")
    if not isinstance(fmt, str):
        raise ParameterError("upload 'format' must be a string")

    def _parse_and_hash():
        with _trace.span("graphs.parse", format=fmt):
            graph = parse_graph(payload, fmt, source=f"<upload:{fmt}>")
        with _trace.span("graphs.digest"):
            return graph, graph_digest(graph)

    return _parse_and_hash

#: Canonical on-disk dtypes of a chunked upload's arrays: the spool file
#: holds the *final* CSR arrays (no transport downcast), so the committed
#: graph maps zero-copy and its digest equals an in-RAM upload's.
_CHUNKED_UPLOAD_DTYPES = {"indptr": "<i8", "indices": "<i8", "weights": "<f8"}

#: Chunk size the server suggests to chunked-upload clients.
DEFAULT_UPLOAD_CHUNK_BYTES = 32 * 1024 * 1024


@dataclass
class _UploadSession:
    """One in-progress chunked upload (state lives on the event loop).

    ``received`` is the accepted contiguous high-water offset — it advances
    on the loop when a chunk is validated, while the positioned write runs
    off-loop (``os.pwrite`` is order-independent, so pipelined chunks may
    land out of order on disk).  ``pending`` holds the outstanding write
    futures; commit awaits them before hashing the payload.
    """

    upload_id: str
    manifest_key: tuple
    payload_sha256: str
    total_bytes: int
    path: str
    fd: int
    received: int = 0
    broken: str | None = None
    pending: set = field(default_factory=set)

    def close_fd(self) -> None:
        fd, self.fd = self.fd, -1
        if fd >= 0:
            os.close(fd)


def _chunked_manifest(message: dict) -> tuple[str, list, str, int, tuple]:
    """Validate an ``upload_begin`` manifest; returns its layout recipe.

    The manifest pins class, array order/shape/dtype, the client-computed
    graph digest (the content address and routing key), the SHA-256 of the
    concatenated payload bytes, and the total byte count.  Arrays must
    arrive in ``csr_arrays()`` order with canonical dtypes so the spool
    file *is* the final backing file.
    """
    cls_name = message.get("class", "CSRGraph")
    expected = _UPLOAD_CLASSES.get(cls_name)
    if expected is None:
        raise ParameterError(
            f"upload_begin 'class' must be one of {sorted(_UPLOAD_CLASSES)}, "
            f"got {cls_name!r}"
        )
    arrays = message.get("arrays")
    if not isinstance(arrays, list) or not all(
        isinstance(a, dict) for a in arrays
    ):
        raise ParameterError(
            "upload_begin needs 'arrays': a list of "
            "{name, dtype, shape} objects in csr_arrays() order"
        )
    names = [a.get("name") for a in arrays]
    if names != list(expected):
        raise ParameterError(
            f"upload_begin of a {cls_name} needs arrays {list(expected)} "
            f"in order, got {names}"
        )
    recipe = []
    total = 0
    lengths: dict[str, int] = {}
    for a in arrays:
        name = a["name"]
        want = np.dtype(_CHUNKED_UPLOAD_DTYPES[name])
        try:
            got = np.dtype(a.get("dtype"))
        except TypeError:
            raise ParameterError(
                f"upload_begin array {name!r} has unparsable dtype "
                f"{a.get('dtype')!r}"
            ) from None
        if got != want:
            raise ParameterError(
                f"chunked uploads ship final arrays: {name!r} must have "
                f"dtype {want.str!r}, got {got.str!r}"
            )
        shape = a.get("shape")
        if (
            not isinstance(shape, list) or len(shape) != 1
            or not isinstance(shape[0], int) or isinstance(shape[0], bool)
            or shape[0] < 0
        ):
            raise ParameterError(
                f"upload_begin array {name!r} needs a 1-element 'shape' "
                f"of a non-negative int, got {shape!r}"
            )
        lengths[name] = shape[0]
        recipe.append((name, (shape[0],), want))
        total += shape[0] * want.itemsize
    if lengths["indptr"] < 1:
        raise ParameterError("'indptr' must have at least one entry")
    if "weights" in lengths and lengths["weights"] != lengths["indices"]:
        raise ParameterError(
            f"'weights' length ({lengths['weights']}) must equal "
            f"'indices' length ({lengths['indices']})"
        )
    declared_total = message.get("total_bytes")
    if declared_total is not None and int(declared_total) != total:
        raise ParameterError(
            f"'total_bytes' ({declared_total}) does not match the declared "
            f"arrays ({total} bytes)"
        )
    sha = message.get("payload_sha256")
    if not isinstance(sha, str) or len(sha) != 64:
        raise ParameterError(
            "upload_begin needs 'payload_sha256': hex SHA-256 of the "
            "concatenated array bytes in manifest order"
        )
    digest = message.get("digest")
    if not isinstance(digest, str) or not digest:
        raise ParameterError(
            "upload_begin needs the client-computed graph 'digest' "
            "(graph_digest(...) — it is the content address)"
        )
    manifest_key = (
        cls_name,
        tuple((name, tuple(shape), dt.str) for name, shape, dt in recipe),
        sha,
        total,
    )
    return cls_name, recipe, sha, total, manifest_key


#: Edge-count cutoff for running a tiny decomposition in process instead
#: of on the pool (``PoolProvider(inline_cutoff=...)``).  The server does
#: not read it (an application op is one pool task); it stays importable
#: for ``perfbench/layers.py``'s traced replay.
APP_INLINE_CUTOFF = 2048


@dataclass(frozen=True)
class _SlimResult:
    """What the cache holds: the response payload minus per-request flags."""

    kind: str
    center: np.ndarray
    per_vertex: np.ndarray
    summary: dict
    nbytes: int


def _slim_from_result(result: PartitionResult) -> _SlimResult:
    decomposition = result.decomposition
    if isinstance(decomposition, WeightedDecomposition):
        kind, per_vertex = "weighted", decomposition.radius
    else:
        kind, per_vertex = "unweighted", decomposition.hops
    summary = result.summary()
    # Trace fields remote consumers (ServeProvider) rebuild a
    # PartitionTrace from; NaN is not valid JSON, hence None.
    summary["wall_time_s"] = float(result.trace.wall_time_s)
    summary["delta_max"] = (
        None if math.isnan(result.trace.delta_max)
        else float(result.trace.delta_max)
    )
    if result.report is not None:
        summary["invariants_ok"] = result.report.all_invariants_hold()
    return _SlimResult(
        kind=kind,
        center=decomposition.center,
        per_vertex=per_vertex,
        summary=summary,
        nbytes=int(decomposition.center.nbytes + per_vertex.nbytes),
    )


class DecompositionServer(FrameService):
    """Async JSON-over-TCP decomposition service.

    Parameters
    ----------
    graphs:
        Optional graph(s) to preload into the store at startup (their
        digests are in :attr:`preloaded`); clients can always upload more.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    max_workers, start_method:
        Forwarded to the owned :class:`DecompositionPool`.
    cache_bytes:
        Result-cache byte budget (0 disables memoization but keeps
        coalescing).
    idle_ttl:
        Shut down after this many seconds without a client frame or a
        request in progress.
    slow_request_ms:
        Requests slower than this emit one structured WARNING line on the
        ``repro.serve.server`` logger (op, elapsed, cached/coalesced
        flags) and bump ``repro_slow_requests_total``.  ``None`` disables
        the log entirely.
    """

    _role = "server"

    def __init__(
        self,
        graphs: CSRGraph | list[CSRGraph] | tuple[CSRGraph, ...] | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int | None = None,
        start_method: str | None = None,
        cache_bytes: int = DEFAULT_MAX_BYTES,
        idle_ttl: float | None = None,
        slow_request_ms: float | None = 1000.0,
    ) -> None:
        super().__init__(host=host, port=port, idle_ttl=idle_ttl)
        if isinstance(graphs, CSRGraph):
            graphs = [graphs]
        self._preload = list(graphs or [])
        self._max_workers = max_workers
        self._start_method = start_method
        self._cache_bytes = int(cache_bytes)
        if slow_request_ms is not None and slow_request_ms < 0:
            raise ParameterError(
                f"slow_request_ms must be >= 0, got {slow_request_ms}"
            )
        self._slow_request_s = (
            None if slow_request_ms is None else slow_request_ms / 1e3
        )

        self._pool: DecompositionPool | None = None
        self._store: GraphStore | None = None
        self._cache = ResultCache(self._cache_bytes)
        self._inflight: dict[tuple, asyncio.Future] = {}
        self.preloaded: tuple[str, ...] = ()

        self._upload_sessions: dict[str, _UploadSession] = {}
        self._spool_dir: str | None = None
        self._decompose_requests = 0
        self._coalesced = 0
        self._pool_executions = 0
        self._app_requests = 0
        self._app_executions = 0

    # ------------------------------------------------------------------
    # lifecycle (the rest is FrameService's)
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Start the pool, preload graphs, bind the listener."""
        address = await super().start()
        logger.info(
            "serving on %s:%d (workers=%d, preloaded=%d, ttl=%s)",
            address[0], address[1], self._pool.max_workers,
            len(self.preloaded), self._idle_ttl,
        )
        return address

    async def _open(self) -> None:
        self._spool_dir = tempfile.mkdtemp(prefix="repro-serve-spool-")
        self._pool = DecompositionPool(
            max_workers=self._max_workers,
            start_method=self._start_method,
        )
        self._store = GraphStore(self._pool)
        self.preloaded = tuple(
            self._store.put(graph)[0] for graph in self._preload
        )

    async def _release(self) -> None:
        sessions, self._upload_sessions = self._upload_sessions, {}
        for session in sessions.values():
            session.broken = "server shut down"
            session.close_fd()
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()
        # After pool shutdown: committed spool files were owned by the
        # store's mmap wrappers and are already unlinked; whatever is left
        # in the spool dir is abandoned upload state.
        spool, self._spool_dir = self._spool_dir, None
        if spool is not None:
            shutil.rmtree(spool, ignore_errors=True)
        if self.address is not None:
            logger.info(
                "server on %s:%d stopped (%d request(s) served)",
                self.address[0], self.address[1], self._requests_total,
            )

    def _busy(self) -> bool:
        # A pool execution in progress is activity even when no frames
        # arrive.
        return bool(self._inflight)

    # ------------------------------------------------------------------
    # per-request extras: span, metrics, slow-request log
    # ------------------------------------------------------------------
    async def _dispatch(self, message: dict) -> dict:
        op = message.get("op")
        op_label = op if isinstance(op, str) else "invalid"
        trace_ctx = message.get("trace")
        start = time.perf_counter()
        if (
            isinstance(trace_ctx, dict)
            and isinstance(trace_ctx.get("trace_id"), str)
        ):
            # Each request runs as its own asyncio task, so the contextvar
            # collector is per-request by construction.  Spans collected
            # here (the server span plus anything the op emits — e.g. the
            # pool worker's, re-emitted by _op_decompose) ride back to the
            # client on the response's "spans" header field.
            with _trace.collect_spans() as spans:
                with _trace.adopt_context(
                    trace_ctx["trace_id"], trace_ctx.get("span_id")
                ):
                    with _trace.span(f"server.{op_label}", op=op_label):
                        response = await super()._dispatch(message)
            response["spans"] = spans
        else:
            response = await super()._dispatch(message)
        elapsed = time.perf_counter() - start
        logger.debug(
            "%s ok=%s %.2fms", op_label,
            bool(response.get("ok", False)), elapsed * 1e3,
        )
        _metrics.counter("repro_requests_total", op=op_label)
        _metrics.observe("repro_request_seconds", elapsed, op=op_label)
        if not response.get("ok", False):
            _metrics.counter("repro_request_errors_total", op=op_label)
        if (
            self._slow_request_s is not None
            and elapsed >= self._slow_request_s
        ):
            _metrics.counter("repro_slow_requests_total", op=op_label)
            logger.warning(
                "slow request: %s",
                json.dumps({
                    "op": op_label,
                    "elapsed_ms": round(elapsed * 1e3, 3),
                    "threshold_ms": self._slow_request_s * 1e3,
                    "ok": bool(response.get("ok", False)),
                    "cached": response.get("cached"),
                    "coalesced": response.get("coalesced"),
                    "id": message.get("id"),
                }, sort_keys=True),
            )
        return response

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def _op_hello(self, message: dict) -> dict:
        return {
            "ok": True,
            "server": "repro.serve",
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "ops": sorted(self._OPS),
            "methods": describe_methods(),
            "default_methods": dict(DEFAULT_METHODS),
            "formats": list(GRAPH_FORMATS),
            "graphs": list(self._store.digests),
            "native_kernel": native_available(),
            "graph_backings": sorted(BACKING_KINDS),
            "upload_chunk_bytes": DEFAULT_UPLOAD_CHUNK_BYTES,
        }

    async def _op_upload(self, message: dict) -> dict:
        # Parsing/building and hashing are the CPU-heavy parts of an
        # upload; run them off-loop so a multi-megabyte graph does not
        # stall concurrent decompositions.  Only the registry mutation
        # (and its copy into shared memory) stays on the loop.
        build = upload_builder(message)
        graph, digest = await self._loop.run_in_executor(
            None, contextvars.copy_context().run, build
        )
        return self._admit(graph, digest)

    def _admit(self, graph: CSRGraph, digest: str) -> dict:
        with _trace.span("runtime.register"):
            digest, known = self._store.put(graph, digest=digest)
        from repro.graphs.weighted import WeightedCSRGraph

        return {
            "ok": True,
            "digest": digest,
            "known": known,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "weighted": isinstance(graph, WeightedCSRGraph),
        }

    async def _op_discard(self, message: dict) -> dict:
        """Drop an uploaded graph: unregister from the pool, unlink shared
        memory.  Cooperative — the caller must not race its own in-flight
        requests against the digest; result-cache entries keyed on it stay
        valid (content addressing: a re-upload of the same bytes gets the
        same digest and the same cached results).  Clients with bounded
        upload budgets (``ServeProvider``) use this to cap server memory.
        """
        digest = message.get("digest")
        if not isinstance(digest, str):
            raise ParameterError("discard needs a string 'digest'")
        self._store.discard(digest)
        return {"ok": True, "digest": digest, "discarded": True}

    # ------------------------------------------------------------------
    # chunked upload — graphs larger than one protocol frame
    # ------------------------------------------------------------------
    def _upload_summary(self, digest: str) -> dict:
        """The admit response for a graph already resident in the store."""
        graph = self._store.get(digest)
        from repro.graphs.weighted import WeightedCSRGraph

        return {
            "ok": True,
            "digest": digest,
            "known": True,
            "complete": True,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "weighted": isinstance(graph, WeightedCSRGraph),
        }

    def _destroy_session(self, session: _UploadSession) -> None:
        self._upload_sessions.pop(session.upload_id, None)
        session.close_fd()
        try:
            os.unlink(session.path)
        except OSError:
            pass

    def _session_for(self, message: dict, op: str) -> _UploadSession:
        upload_id = message.get("upload_id", message.get("digest"))
        if not isinstance(upload_id, str):
            raise ParameterError(f"{op} needs a string 'upload_id'")
        session = self._upload_sessions.get(upload_id)
        if session is None:
            raise ParameterError(
                f"no upload in progress for {upload_id!r}; send "
                f"upload_begin first"
            )
        if session.broken is not None:
            raise ServeError(
                f"upload {upload_id[:12]} is broken ({session.broken}); "
                f"upload_abort it and restart"
            )
        return session

    async def _op_upload_begin(self, message: dict) -> dict:
        """Open (or resume) a chunked upload keyed by the graph digest.

        Content addressing makes the digest the natural upload id: a
        resident graph short-circuits to ``known: true`` with nothing
        sent, and a second ``begin`` for an in-flight transfer resumes at
        the accepted byte offset instead of restarting.
        """
        cls_name, recipe, sha, total, manifest_key = _chunked_manifest(message)
        digest = message["digest"]
        if digest in self._store.digests:
            return self._upload_summary(digest)
        session = self._upload_sessions.get(digest)
        if session is not None and session.broken is not None:
            self._destroy_session(session)
            session = None
        if session is not None:
            if session.manifest_key != manifest_key:
                raise ParameterError(
                    f"upload {digest[:12]} is already in progress with a "
                    f"different manifest; upload_abort it first"
                )
            return {
                "ok": True,
                "digest": digest,
                "known": False,
                "offset": session.received,
                "total_bytes": session.total_bytes,
                "chunk_bytes": DEFAULT_UPLOAD_CHUNK_BYTES,
            }
        if self._spool_dir is None:
            raise ServeError("server is not started")
        from repro.graphs.weighted import WeightedCSRGraph

        graph_type = (
            WeightedCSRGraph if cls_name == "WeightedCSRGraph" else CSRGraph
        )
        path = os.path.join(self._spool_dir, f"{digest}.rgm")

        def _create() -> int:
            # The spool file *is* the final backing file: header up front,
            # payload filled by positioned writes, committed in place.
            MmapLayout.create(path, graph_type, recipe).close()
            return os.open(path, os.O_RDWR)

        fd = await self._loop.run_in_executor(None, _create)
        raced = self._upload_sessions.get(digest)
        if raced is not None and raced.broken is None:
            # A concurrent begin for the same digest won while we were off
            # the loop; both wrote the same header to the same path, so
            # just yield to the established session.
            os.close(fd)
            return {
                "ok": True,
                "digest": digest,
                "known": False,
                "offset": raced.received,
                "total_bytes": raced.total_bytes,
                "chunk_bytes": DEFAULT_UPLOAD_CHUNK_BYTES,
            }
        session = _UploadSession(
            upload_id=digest,
            manifest_key=manifest_key,
            payload_sha256=sha,
            total_bytes=total,
            path=path,
            fd=fd,
        )
        self._upload_sessions[digest] = session
        return {
            "ok": True,
            "digest": digest,
            "known": False,
            "offset": 0,
            "total_bytes": total,
            "chunk_bytes": DEFAULT_UPLOAD_CHUNK_BYTES,
        }

    @staticmethod
    def _pwrite_chunk(session: _UploadSession, buf: bytes, pos: int) -> None:
        try:
            view = memoryview(buf)
            written = 0
            while written < len(view):
                written += os.pwrite(session.fd, view[written:], pos + written)
        except Exception as exc:
            session.broken = f"spool write failed: {exc}"

    async def _op_upload_chunk(self, message: dict) -> dict:
        """Accept one payload slice at a byte offset.

        The contiguity check and high-water bump happen on the loop;
        the write itself is a positioned ``pwrite`` on the executor, so a
        pipelining client keeps the socket and the disk busy at once.
        Replayed chunks at already-accepted offsets are acknowledged
        without rewriting (idempotent retry after a dropped response).
        """
        session = self._session_for(message, "upload_chunk")
        offset = message.get("offset")
        if isinstance(offset, bool) or not isinstance(offset, int) or offset < 0:
            raise ParameterError(
                "upload_chunk needs a non-negative integer 'offset'"
            )
        data = as_array(message.get("data"))
        if data.dtype != np.uint8 or data.ndim != 1:
            raise ParameterError(
                "upload_chunk 'data' must be a 1-D uint8 array of raw "
                "payload bytes"
            )
        end = offset + data.nbytes
        if end > session.total_bytes:
            raise ParameterError(
                f"chunk [{offset}, {end}) overruns the declared payload "
                f"({session.total_bytes} bytes)"
            )
        if offset > session.received:
            raise ParameterError(
                f"chunk at offset {offset} leaves a gap: only "
                f"{session.received} bytes accepted so far"
            )
        if end > session.received:
            session.received = end
            # Detach from the frame buffer before leaving the loop.
            buf = data.tobytes()
            fut = self._loop.run_in_executor(
                None, self._pwrite_chunk, session, buf, HEADER_RESERVE + offset
            )
            session.pending.add(fut)
            fut.add_done_callback(session.pending.discard)
        return {
            "ok": True,
            "upload_id": session.upload_id,
            "received": session.received,
        }

    async def _op_upload_commit(self, message: dict) -> dict:
        """Seal a completed upload: hash, validate, admit.

        Every guarantee an in-frame upload gives holds here too — the
        payload SHA-256 catches transfer corruption, the chunked CSR
        validator enforces structural invariants without materialising
        the arrays, and the recomputed content digest must equal the one
        the client declared (it is the store key other requests will
        reference).  A commit replay after success is answered from the
        store.
        """
        upload_id = message.get("upload_id", message.get("digest"))
        if isinstance(upload_id, str) and upload_id in self._store.digests:
            return self._upload_summary(upload_id)
        session = self._session_for(message, "upload_commit")
        if session.received < session.total_bytes:
            raise ParameterError(
                f"upload_commit before the payload is complete: "
                f"{session.received} of {session.total_bytes} bytes received"
            )
        if session.pending:
            await asyncio.gather(*list(session.pending))
        if session.broken is not None:
            raise ServeError(
                f"upload {session.upload_id[:12]} is broken "
                f"({session.broken}); upload_abort it and restart"
            )
        declared = session.upload_id

        def _seal() -> MmapCSR:
            session.close_fd()
            sha = hashlib.sha256()
            with open(session.path, "rb") as fh:
                fh.seek(HEADER_RESERVE)
                while True:
                    block = fh.read(16 * 1024 * 1024)
                    if not block:
                        break
                    sha.update(block)
            if sha.hexdigest() != session.payload_sha256:
                raise ServeError(
                    f"payload hash mismatch after upload: declared "
                    f"{session.payload_sha256}, received {sha.hexdigest()} "
                    f"— the transfer is corrupt; retry the upload"
                )
            wrapper = MmapCSR.open(session.path, owns_file=True)
            try:
                validate_csr_chunked(
                    wrapper.graph,
                    source=f"chunked upload {declared[:12]}",
                )
                digest = graph_digest(wrapper.graph)
                if digest != declared:
                    raise ServeError(
                        f"graph digest mismatch: client declared "
                        f"{declared}, committed arrays hash to {digest}"
                    )
            except BaseException:
                wrapper.close()  # owns the file — unlinks the spool
                raise
            return wrapper

        try:
            wrapper = await self._loop.run_in_executor(None, _seal)
        except BaseException:
            self._destroy_session(session)
            raise
        self._upload_sessions.pop(declared, None)
        try:
            response = self._admit(wrapper.graph, declared)
        except BaseException:
            wrapper.close()
            raise
        if response["known"]:
            # Raced a plain upload of the same graph; the store kept the
            # first copy, so drop ours (owns the file — unlinks it).
            wrapper.close()
        response["complete"] = True
        return response

    async def _op_upload_abort(self, message: dict) -> dict:
        """Drop an in-progress upload and its spool file."""
        upload_id = message.get("upload_id", message.get("digest"))
        if not isinstance(upload_id, str):
            raise ParameterError("upload_abort needs a string 'upload_id'")
        session = self._upload_sessions.get(upload_id)
        if session is not None:
            if session.pending:
                await asyncio.gather(
                    *list(session.pending), return_exceptions=True
                )
            self._destroy_session(session)
        return {
            "ok": True,
            "upload_id": upload_id,
            "aborted": session is not None,
        }

    # ------------------------------------------------------------------
    # request parsing helpers (shared by decompose and application ops)
    # ------------------------------------------------------------------
    def _parse_graph_request(self, message: dict, op: str):
        """Common fields of a graph-keyed op: digest, method, seed, options.

        Returns ``(digest, graph, spec, bound, seed, options)`` with the
        method resolved against the registry and the options validated.
        """
        digest = message.get("digest")
        if not isinstance(digest, str):
            raise ParameterError(
                f"{op} needs a string 'digest' (upload the graph first)"
            )
        graph = self._store.get(digest)
        seed = message.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ParameterError(
                f"'seed' must be an integer (reproducibility is keyed on "
                f"it), got {type(seed).__name__}"
            )
        options = message.get("options") or {}
        if not isinstance(options, dict):
            raise ParameterError(
                f"'options' must be an object, got {type(options).__name__}"
            )
        spec = _resolve(graph, message.get("method", "auto"))
        bound = spec.bind(options)
        return digest, graph, spec, bound, seed, options

    @staticmethod
    def _parse_number(
        message: dict, field: str, op: str, default: float | None = None
    ) -> float:
        if field not in message:
            if default is None:
                raise ParameterError(f"{op} needs '{field}'")
            return float(default)
        value = message[field]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParameterError(
                f"'{field}' must be a number, got {type(value).__name__}"
            )
        return float(value)

    async def _memoized(self, key: tuple, compute):
        """Serve ``key`` from cache, a coalesced in-flight peer, or compute.

        ``compute`` is an async callable returning ``(value, nbytes)``;
        exactly one execution runs per key at a time — concurrent identical
        requests await the same future (shielded, so one impatient client's
        cancellation cannot abort the execution its peers wait on).
        Returns ``(value, cached, coalesced)``.
        """
        value = self._cache.get(key)
        if value is not None:
            return value, True, False
        inflight = self._inflight.get(key)
        if inflight is not None:
            self._coalesced += 1
            return await asyncio.shield(inflight), False, True
        future = self._loop.create_future()
        self._inflight[key] = future
        try:
            value, nbytes = await compute()
            self._cache.put(key, value, nbytes)
            if not future.done():
                future.set_result(value)
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                future.exception()  # mark retrieved: waiters get their copy
            raise
        finally:
            self._inflight.pop(key, None)
        return value, False, False

    # ------------------------------------------------------------------
    # decompose op
    # ------------------------------------------------------------------
    async def _op_decompose(self, message: dict) -> dict:
        self._decompose_requests += 1
        digest, graph, spec, bound, seed, options = self._parse_graph_request(
            message, "decompose"
        )
        beta = self._parse_number(message, "beta", "decompose")
        validate = bool(message.get("validate", False))
        key = canonical_cache_key(
            digest, beta, spec.name, seed, bound, validate=validate
        )

        async def _compute():
            self._pool_executions += 1
            t0 = time.perf_counter()
            result = await asyncio.wrap_future(
                self._pool.submit(
                    digest,
                    beta,
                    method=spec.name,
                    seed=seed,
                    validate=validate,
                    # The worker adopts the server span as parent and
                    # sends its spans back on the result (None when this
                    # request carries no trace).
                    trace_ctx=_trace.current_context(),
                    **options,
                )
            )
            _metrics.observe(
                "repro_pool_execution_seconds", time.perf_counter() - t0
            )
            self._observe_trace(spec.name, result.trace)
            _trace.emit_spans(result.spans)
            slim = _slim_from_result(result)
            return slim, slim.nbytes

        slim, cached, coalesced = await self._memoized(key, _compute)
        return self._decompose_response(
            digest, slim, cached=cached, coalesced=coalesced
        )

    @staticmethod
    def _observe_trace(method: str, trace) -> None:
        """Fold one execution's measured paper quantities into the registry.

        Rounds/work/depth are the numbers Theorem 1.2 bounds; the phase
        breakdown is present when deep instrumentation (REPRO_TELEMETRY)
        was on in the worker.  Cached and coalesced requests never reach
        here — these histograms count actual executions.
        """
        _metrics.observe(
            "repro_bfs_rounds", trace.rounds,
            buckets=COUNT_BUCKETS, method=method,
        )
        _metrics.observe(
            "repro_bfs_work", trace.work,
            buckets=COUNT_BUCKETS, method=method,
        )
        _metrics.observe(
            "repro_bfs_depth", trace.depth,
            buckets=COUNT_BUCKETS, method=method,
        )
        phases = (
            trace.extra.get("phases") if isinstance(trace.extra, dict)
            else None
        )
        if phases:
            for name, seconds in phases.items():
                _metrics.observe(
                    "repro_bfs_phase_seconds", seconds,
                    phase=name[:-2] if name.endswith("_s") else name,
                )

    def _decompose_response(
        self, digest: str, slim: _SlimResult, *, cached: bool, coalesced: bool
    ) -> dict:
        return {
            "ok": True,
            "digest": digest,
            "kind": slim.kind,
            "cached": cached,
            "coalesced": coalesced,
            "summary": dict(slim.summary),
            "center": slim.center,
            "per_vertex": slim.per_vertex,
        }

    # ------------------------------------------------------------------
    # application ops
    # ------------------------------------------------------------------
    @staticmethod
    def _app_payload_nbytes(payload: dict) -> int:
        """Cache accounting size of an app-op payload.

        Payloads are trees holding raw ``ndarray`` values (``encode_frame``
        serialises them at write time), so the charge is the array byte
        totals — the dominant term — plus a flat overhead for the
        metadata.
        """
        total = 1024
        stack = [payload]
        while stack:
            node = stack.pop()
            if isinstance(node, np.ndarray):
                total += int(node.nbytes)
            elif isinstance(node, dict):
                stack.extend(node.values())
            elif isinstance(node, list):
                stack.extend(node)
        return total

    async def _run_app(self, key: tuple, digest: str, build, *args):
        """Execute one application op through the cache/coalescing layer.

        ``build`` is a :mod:`repro.serve.apps` function; it runs as one
        pool task against the worker's copy of the graph under
        ``digest`` and returns the client-ready payload, whose cache
        charge is :meth:`_app_payload_nbytes`.  The worker's spans ship
        home with it.
        """
        self._app_requests += 1

        async def _compute():
            self._app_executions += 1
            payload, spans = await asyncio.wrap_future(
                self._pool.submit_call(
                    digest, build, *args,
                    trace_ctx=_trace.current_context(),
                )
            )
            _trace.emit_spans(spans)
            return payload, self._app_payload_nbytes(payload)

        return await self._memoized(key, _compute)

    async def _op_spanner(self, message: dict) -> dict:
        digest, graph, spec, bound, seed, options = self._parse_graph_request(
            message, "spanner"
        )
        require_unweighted(graph, "the spanner op")
        beta = self._parse_number(message, "beta", "spanner")
        key = canonical_cache_key(
            digest, beta, spec.name, seed, bound, op="spanner"
        )
        payload, cached, coalesced = await self._run_app(
            key, digest, apps.build_spanner, beta, seed, spec.name, options
        )
        return {
            "ok": True,
            "digest": digest,
            "cached": cached,
            "coalesced": coalesced,
            **payload,
        }

    async def _op_lowstretch_tree(self, message: dict) -> dict:
        digest, graph, spec, bound, seed, options = self._parse_graph_request(
            message, "lowstretch_tree"
        )
        require_unweighted(graph, "the lowstretch_tree op")
        beta = self._parse_number(message, "beta", "lowstretch_tree", 0.5)
        max_levels = message.get("max_levels", 64)
        if isinstance(max_levels, bool) or not isinstance(max_levels, int):
            raise ParameterError(
                f"'max_levels' must be an integer, got "
                f"{type(max_levels).__name__}"
            )
        key = canonical_cache_key(
            digest, beta, spec.name, seed, bound,
            op="lowstretch_tree", extra={"max_levels": max_levels},
        )
        payload, cached, coalesced = await self._run_app(
            key, digest, apps.build_lowstretch_tree,
            beta, seed, max_levels, spec.name, options,
        )
        return {
            "ok": True,
            "digest": digest,
            "cached": cached,
            "coalesced": coalesced,
            **payload,
        }

    async def _op_hierarchy(self, message: dict) -> dict:
        digest, graph, spec, bound, seed, options = self._parse_graph_request(
            message, "hierarchy"
        )
        require_unweighted(graph, "the hierarchy op")
        beta_max = self._parse_number(message, "beta_max", "hierarchy", 0.9)
        radius_constant = self._parse_number(
            message, "radius_constant", "hierarchy", 1.0
        )
        key = canonical_cache_key(
            digest, 0.0, spec.name, seed, bound,
            op="hierarchy",
            extra={"beta_max": beta_max, "radius_constant": radius_constant},
        )
        payload, cached, coalesced = await self._run_app(
            key, digest, apps.build_hierarchy,
            seed, beta_max, radius_constant, spec.name, options,
        )
        return {
            "ok": True,
            "digest": digest,
            "cached": cached,
            "coalesced": coalesced,
            **payload,
        }

    async def _op_stats(self, message: dict) -> dict:
        return {
            "ok": True,
            "server": {
                "uptime_s": time.monotonic() - self._started_at,
                "connections": self._connections,
                "requests_total": self._requests_total,
                "decompose_requests": self._decompose_requests,
                "app_requests": self._app_requests,
                "app_executions": self._app_executions,
                "coalesced": self._coalesced,
                "pool_executions": self._pool_executions,
                "errors": self._errors,
                "inflight": len(self._inflight),
                "uploads_in_progress": len(self._upload_sessions),
            },
            "cache": self._cache.stats(),
            "store": self._store.stats(),
            "pool": self._pool.stats(),
        }

    async def _op_metrics(self, message: dict) -> dict:
        """This process's metric snapshot (+ Prometheus text rendering).

        The snapshot is the JSON tree :meth:`MetricsRegistry.snapshot`
        produces — mergeable, which is what the cluster router does with
        every shard's answer before handing the union to the client.
        """
        snap = _metrics.snapshot()
        response = {"ok": True, "metrics": snap, "processes": 1}
        if bool(message.get("text", True)):
            response["text"] = render_prometheus(snap)
        return response

    _OPS = {
        "hello": _op_hello,
        "upload": _op_upload,
        "upload_begin": _op_upload_begin,
        "upload_chunk": _op_upload_chunk,
        "upload_commit": _op_upload_commit,
        "upload_abort": _op_upload_abort,
        "discard": _op_discard,
        "decompose": _op_decompose,
        "spanner": _op_spanner,
        "lowstretch_tree": _op_lowstretch_tree,
        "hierarchy": _op_hierarchy,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "shutdown": FrameService._op_shutdown,
    }


def serve_background(graphs=None, **kwargs):
    """A :class:`DecompositionServer` on a daemon thread, as a context.

    Yields the started server (``server.address`` is the bound
    ``(host, port)``)::

        with serve_background(graph) as server:
            with ServeClient(*server.address) as client:
                ...
    """
    return DecompositionServer(graphs, **kwargs).in_background()
