"""Persistent decomposition pool over shared-memory resident graphs.

:class:`DecompositionPool` is the serving half of the batch runtime: the
graphs are registered once (placed in shared memory via
:mod:`repro.runtime.shm`), the worker processes attach to them once in
their initializer, and from then on every request that crosses the process
boundary is a few-hundred-byte ``(graph_key, beta, method, seed, options)``
tuple.  Results come back *slim* — assignment arrays plus the trace, never
the graph — and are rehydrated against the parent's own graph object, so a
round trip moves O(n) result data instead of O(m) graph data each way.

Determinism: workers run the very same :func:`repro.core.engine.decompose`
the serial path runs, keyed by the explicit integer seed of the request, so
pool results are bit-identical to serial ones (the conformance suite in
``tests/test_conformance.py`` pins this across every registered method).

The pool is a context manager; exiting shuts the workers down and unlinks
the shared segments.  Request validation (unknown graph key, unknown
method/options) happens in :meth:`submit` on the parent side, before
anything is enqueued.

Graphs can be registered on a *live* pool (:meth:`register_graph` /
:meth:`unregister_graph`) — the serving layer (:mod:`repro.serve`) uploads
graphs long after the workers have started.  Every request payload carries
the graph's :class:`SharedGraphDescriptor` (a few hundred bytes), and
workers attach lazily on first sight of a key, re-attaching when a key is
re-registered under a new segment; no worker restart is needed under any
start method.
"""

from __future__ import annotations

import logging
import os
import threading
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.bfs.kernels import native_available
from repro.core.decomposition import Decomposition
from repro.core.engine import PartitionResult, _resolve, decompose
from repro.core.weighted import WeightedDecomposition
from repro.errors import ParameterError
from repro.graphs.backing import backing_handle, backing_kind
from repro.graphs.csr import CSRGraph
from repro.graphs.mmapcsr import MmapGraphDescriptor, attach_mmap
from repro.runtime.shm import (
    SharedCSR,
    SharedGraphDescriptor,
    attach_shared,
    share_graph,
)

__all__ = ["DecompositionPool", "DecompositionRequest"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DecompositionRequest:
    """One unit of pool work: which graph, which configuration, which seed."""

    graph_key: str
    beta: float
    method: str = "auto"
    seed: int | None = None
    validate: bool = False
    options: Mapping[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
#: key -> attached SharedCSR; populated once per worker by the initializer
#: and kept alive for the worker's lifetime (the attached graphs' arrays are
#: views into the mapped segments).
_WORKER_GRAPHS: dict[str, SharedCSR] = {}


def _attach_descriptor(descriptor):
    """Worker-side attach, dispatching on the descriptor's backing kind."""
    if isinstance(descriptor, MmapGraphDescriptor):
        return attach_mmap(descriptor)
    return attach_shared(descriptor)


def _attach_worker(descriptors: dict[str, SharedGraphDescriptor]) -> None:
    """Pool initializer: map every registered graph exactly once."""
    _WORKER_GRAPHS.clear()
    for key, descriptor in descriptors.items():
        _WORKER_GRAPHS[key] = _attach_descriptor(descriptor)


def _warm_up(hold_seconds: float = 0.0) -> None:
    """Near-no-op task whose submission forces worker startup.

    ``hold_seconds`` briefly occupies the worker so that, on interpreters
    that spawn workers one-per-submit (Python 3.10), each warm-up submit
    sees no idle worker and therefore forks a fresh one (see __init__).
    """
    if hold_seconds:
        import time

        time.sleep(hold_seconds)


def _worker_graph(graph_key: str, descriptor: SharedGraphDescriptor):
    """The worker's attached graph for ``graph_key``, attaching on demand.

    The initializer pre-attaches construction-time graphs; graphs registered
    on the live pool arrive here through the descriptor riding on the
    request.  A key re-registered under a new segment (unregister + register
    cycle) is detected by segment-name mismatch and re-attached, so workers
    never serve a stale mapping.
    """
    cached = _WORKER_GRAPHS.get(graph_key)
    if cached is not None:
        if cached.descriptor.segment == descriptor.segment:
            return cached.graph
        cached.close()
    attached = _attach_descriptor(descriptor)
    _WORKER_GRAPHS[graph_key] = attached
    return attached.graph


def _execute_request(payload: tuple) -> tuple:
    """Run one request against the worker's attached graph, return it slim.

    The worker also computes the decomposition's summary, so the parent
    (the serving layer's event loop in particular) never scans the graph
    to report a result.

    An optional eighth payload element is the propagated trace context
    (``{"trace_id", "span_id"}``): when present, the worker adopts it,
    collects every span the decomposition produces (the ``pool.execute``
    wrapper plus the BFS-phase and ``pool.summary`` spans underneath), and
    ships them home in the slim tuple so the serving layer can attach them
    to its response.
    """
    graph_key, descriptor, beta, method, seed, validate, options = payload[:7]
    trace_ctx = payload[7] if len(payload) > 7 else None
    graph = _worker_graph(graph_key, descriptor)
    if trace_ctx is None:
        result = decompose(
            graph, beta, method=method, seed=seed, validate=validate,
            **options,
        )
        result.decomposition.summary()
        return _slim_result(result)
    from repro.telemetry import trace as _trace

    with _trace.collect_spans() as spans:
        with _trace.adopt_context(
            trace_ctx.get("trace_id"), trace_ctx.get("span_id")
        ):
            with _trace.span(
                "pool.execute",
                graph_key=graph_key, method=method, seed=seed,
            ):
                result = decompose(
                    graph, beta, method=method, seed=seed,
                    validate=validate, **options,
                )
                with _trace.span("pool.summary"):
                    result.decomposition.summary()
    return _slim_result(result, spans=tuple(spans))


def _slim_result(result: PartitionResult, spans: tuple = ()) -> tuple:
    """Strip the graph out of a result for transport (assignments only).

    The decomposition's summary rides along when it has been computed, so
    the rehydrated result answers ``summary()`` without a graph scan.
    """
    decomposition = result.decomposition
    if isinstance(decomposition, WeightedDecomposition):
        payload = ("weighted", decomposition.center, decomposition.radius)
    else:
        payload = ("unweighted", decomposition.center, decomposition.hops)
    summary = decomposition._cache.get("summary")
    return payload, result.trace, result.report, spans, summary


def _rehydrate_result(
    graph: CSRGraph,
    slim: tuple,
) -> PartitionResult:
    """Rebind a slim result to the parent's graph object."""
    (kind, center, per_vertex), trace, report, spans, summary = slim
    cache = {} if summary is None else {"summary": summary}
    if kind == "weighted":
        decomposition = WeightedDecomposition(
            graph=graph, center=center, radius=per_vertex, _cache=cache
        )
    else:
        decomposition = Decomposition(
            graph=graph, center=center, hops=per_vertex, _cache=cache
        )
    return PartitionResult(
        decomposition=decomposition, trace=trace, report=report,
        spans=tuple(spans),
    )


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
class _MmapHandle:
    """Pool-side handle over a memmap-backed graph.

    Shape-compatible with :class:`~repro.runtime.shm.SharedCSR` where the
    pool cares (``descriptor``/``nbytes()``/``close()``) but copies nothing:
    workers re-open the file from the descriptor.  ``close()`` defers to
    the wrapper's file ownership — a server spool file dies with its store
    entry, a user-opened file survives the pool.
    """

    def __init__(self, wrapper) -> None:
        self._wrapper = wrapper

    @property
    def descriptor(self) -> MmapGraphDescriptor:
        return self._wrapper.descriptor

    def nbytes(self) -> int:
        return self._wrapper.nbytes()

    def close(self) -> None:
        if self._wrapper.owns_file:
            self._wrapper.close()


def _share_backing(graph: CSRGraph):
    """Pick the pool's serving handle for ``graph`` by its backing.

    Memmap-backed graphs are served through their existing file (workers
    map it on attach); everything else is copied into a fresh
    shared-memory segment as before.
    """
    if backing_kind(graph) == "mmap":
        wrapper = backing_handle(graph)
        if wrapper is not None and not wrapper.closed:
            return _MmapHandle(wrapper)
    return share_graph(graph)


class DecompositionPool:
    """Workers that hold the registered graphs and stream decompositions.

    Parameters
    ----------
    graphs:
        The graphs to serve: a single graph (key ``"0"``), a sequence
        (keys ``"0"``, ``"1"``, ...), an explicit ``{key: graph}`` mapping,
        or ``None`` for an initially empty pool (register graphs later via
        :meth:`register_graph`).  Each is copied into shared memory once.
    max_workers:
        Worker-process count (default: CPU count).
    start_method:
        Optional multiprocessing start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); the attach-by-name protocol works under all of
        them.  Default: the platform default.

    Examples
    --------
    >>> from repro.graphs import grid_2d
    >>> from repro.runtime import DecompositionPool
    >>> with DecompositionPool(grid_2d(12, 12)) as pool:
    ...     result = pool.decompose("0", beta=0.2, seed=7)
    >>> result.decomposition.num_pieces > 1
    True
    """

    def __init__(
        self,
        graphs: CSRGraph | Sequence[CSRGraph] | Mapping[str, CSRGraph] | None = None,
        *,
        max_workers: int | None = None,
        start_method: str | None = None,
    ) -> None:
        self._graphs = _normalise_graph_map(graphs)
        self._shared: dict[str, SharedCSR | _MmapHandle] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._stats_lock = threading.Lock()
        # Serialises live register/unregister cycles: the serve layer
        # mutates from its event loop while pipeline providers mutate from
        # executor threads.
        self._registry_lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        try:
            for key, graph in self._graphs.items():
                self._shared[key] = _share_backing(graph)
            descriptors = {
                key: shared.descriptor
                for key, shared in self._shared.items()
            }
            workers = (
                max_workers if max_workers is not None
                else (os.cpu_count() or 1)
            )
            if workers < 1:
                raise ParameterError(
                    f"max_workers must be >= 1, got {max_workers}"
                )
            self._max_workers = int(workers)
            mp_context = None
            if start_method is not None:
                import multiprocessing

                mp_context = multiprocessing.get_context(start_method)
            self._pool = ProcessPoolExecutor(
                max_workers=int(workers),
                mp_context=mp_context,
                initializer=_attach_worker,
                initargs=(descriptors,),
            )
            # Force worker startup *now*, from the constructing thread.
            # Under the fork start method workers are otherwise forked at
            # submit time — and forking from an arbitrary submitting
            # thread while other threads hold locks is the classic
            # multiprocessing deadlock (observed as a rare hang when
            # pipeline providers submit concurrently from thread pools).
            # Python 3.11+ launches ALL fork workers on the first submit;
            # 3.10 spawns one per submit unless none is idle, so there the
            # warm-ups briefly hold their workers to force a full fleet.
            import multiprocessing
            import sys

            start = (
                mp_context.get_start_method()
                if mp_context is not None
                else multiprocessing.get_start_method()
            )
            if (
                start == "fork"
                and sys.version_info < (3, 11)
                and self._max_workers > 1
            ):
                warmups = [
                    self._pool.submit(_warm_up, 0.05)
                    for _ in range(self._max_workers)
                ]
                for future in warmups:
                    future.result()
            else:
                self._pool.submit(_warm_up).result()
            logger.debug(
                "pool up: %d worker(s), start_method=%s, %d graph(s) "
                "resident", self._max_workers, start, len(self._graphs),
            )
        except BaseException:
            self.shutdown()
            raise

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def max_workers(self) -> int:
        """Worker-process count — batch schedulers size their window by it."""
        return self._max_workers

    @property
    def graph_keys(self) -> tuple[str, ...]:
        """Keys of the registered graphs, in registration order."""
        return tuple(self._graphs)

    def graph(self, graph_key: str) -> CSRGraph:
        """The parent-side graph registered under ``graph_key``."""
        return self._graphs[self._check_key(graph_key)]

    def shared_nbytes(self) -> int:
        """Total graph bytes resident in shared memory."""
        return sum(shared.nbytes() for shared in self._shared.values())

    @property
    def closed(self) -> bool:
        return self._pool is None

    def stats(self) -> dict[str, int | bool]:
        """Request/graph counters — the serving layer's monitoring hook.

        ``submitted`` counts requests accepted by :meth:`submit`/:meth:`run`;
        ``completed``/``failed`` count finished ones (a cancelled request
        counts as failed).  Counts are monotonic over the pool's lifetime.
        """
        with self._stats_lock:
            backings = {"ram": 0, "shm": 0, "mmap": 0}
            for handle in self._shared.values():
                kind = "mmap" if isinstance(handle, _MmapHandle) else "shm"
                backings[kind] += 1
            return {
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "graphs": len(self._graphs),
                "shared_bytes": self.shared_nbytes(),
                "max_workers": self._max_workers,
                "backing_ram": backings["ram"],
                "backing_shm": backings["shm"],
                "backing_mmap": backings["mmap"],
                "native_kernel": native_available(),
                "closed": self.closed,
            }

    # ------------------------------------------------------------------
    # live graph registration
    # ------------------------------------------------------------------
    def register_graph(self, graph_key: str, graph: CSRGraph) -> None:
        """Place ``graph`` in shared memory and serve it under ``graph_key``.

        Works on a live pool under every start method: workers attach
        lazily from the descriptor carried by the first request that names
        the key (see :func:`_worker_graph`), so no worker restart happens.
        """
        if self._pool is None:
            raise ParameterError("DecompositionPool is shut down")
        if not isinstance(graph_key, str):
            raise ParameterError(
                f"graph keys must be strings, got {type(graph_key).__name__}"
            )
        if not isinstance(graph, CSRGraph):
            raise ParameterError(
                f"graph {graph_key!r} is not a CSRGraph: "
                f"{type(graph).__name__}"
            )
        with self._registry_lock:
            if graph_key in self._graphs:
                raise ParameterError(
                    f"graph key {graph_key!r} is already registered; "
                    "unregister it first to replace the graph"
                )
            self._shared[graph_key] = _share_backing(graph)
            self._graphs[graph_key] = graph

    def unregister_graph(self, graph_key: str) -> None:
        """Stop serving ``graph_key`` and unlink its shared segment.

        The caller is responsible for not racing in-flight requests against
        the same key (the serving layer serialises registry mutations on its
        event loop; pipeline providers only evict keys they registered,
        under their own lock); workers that already mapped the segment keep
        their mapping until they next see the key re-registered or the pool
        shuts down — the OS frees the memory once the last mapping closes.
        """
        with self._registry_lock:
            self._check_key(graph_key)
            del self._graphs[graph_key]
            self._shared.pop(graph_key).close()

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def _count_done(self, future: "Future") -> None:
        """Done-callback keeping the completed/failed counters current."""
        with self._stats_lock:
            if future.cancelled() or future.exception() is not None:
                self._failed += 1
            else:
                self._completed += 1
    def submit(
        self,
        graph_key: str,
        beta: float,
        *,
        method: str = "auto",
        seed: int | None = None,
        validate: bool = False,
        trace_ctx: dict | None = None,
        **options: object,
    ) -> "Future[PartitionResult]":
        """Enqueue one decomposition; returns a future of the full result.

        The configuration is validated here, parent-side — an unknown graph
        key, method or option raises immediately with the registry's
        message instead of surfacing from a worker.

        ``trace_ctx`` is an optional ``{"trace_id", "span_id"}`` tracing
        context: it rides the request payload to the worker, which then
        returns its spans on :attr:`PartitionResult.spans`.
        """
        if self._pool is None:
            raise ParameterError("DecompositionPool is shut down")
        graph = self._graphs[self._check_key(graph_key)]
        _resolve(graph, method).bind(options)
        descriptor = self._shared[graph_key].descriptor
        payload = (graph_key, descriptor, beta, method, seed, validate,
                   dict(options))
        if trace_ctx is not None:
            payload += (dict(trace_ctx),)
        raw = self._pool.submit(_execute_request, payload)
        with self._stats_lock:
            self._submitted += 1
        out = _chain_future(raw, lambda slim: _rehydrate_result(graph, slim))
        out.add_done_callback(self._count_done)
        return out

    def decompose(
        self,
        graph_key: str,
        beta: float,
        *,
        method: str = "auto",
        seed: int | None = None,
        validate: bool = False,
        **options: object,
    ) -> PartitionResult:
        """Synchronous :meth:`submit` — one request, one result."""
        return self.submit(
            graph_key,
            beta,
            method=method,
            seed=seed,
            validate=validate,
            **options,
        ).result()

    def run(
        self,
        requests: Iterable[DecompositionRequest],
        *,
        chunksize: int | None = None,
    ) -> list[PartitionResult]:
        """Stream a batch of requests; results come back in request order.

        Unlike per-request :meth:`submit`, a batch is shipped ``chunksize``
        requests per pool message (default: ~4 chunks per worker), which
        amortises dispatch overhead when requests are much cheaper than
        the decompositions — the common serving shape.  Results are
        identical either way; only transport granularity changes.
        """
        if self._pool is None:
            raise ParameterError("DecompositionPool is shut down")
        request_list = list(requests)
        payloads = []
        for req in request_list:
            graph = self._graphs[self._check_key(req.graph_key)]
            options = dict(req.options)
            _resolve(graph, req.method).bind(options)
            payloads.append(
                (req.graph_key, self._shared[req.graph_key].descriptor,
                 req.beta, req.method, req.seed, req.validate, options)
            )
        if not payloads:
            return []
        if chunksize is None:
            # Enough chunks that workers stay busy, few enough that
            # dispatch stays off the profile.
            chunksize = max(1, len(payloads) // (4 * self._max_workers))
        with self._stats_lock:
            self._submitted += len(payloads)
        # Drain results one at a time so the counters reflect per-request
        # outcomes: requests yielded before a failure count as completed;
        # the failing one and everything after it (which the broken map
        # will never yield) count as failed.
        slim_results: list[tuple] = []
        try:
            for slim in self._pool.map(
                _execute_request, payloads, chunksize=int(chunksize)
            ):
                slim_results.append(slim)
                with self._stats_lock:
                    self._completed += 1
        except BaseException:
            with self._stats_lock:
                self._failed += len(payloads) - len(slim_results)
            raise
        return [
            _rehydrate_result(self._graphs[req.graph_key], slim)
            for req, slim in zip(request_list, slim_results)
        ]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, *, wait: bool = True) -> None:
        """Stop the workers and unlink every shared segment (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
        shared, self._shared = self._shared, {}
        for wrapper in shared.values():
            wrapper.close()

    def __enter__(self) -> "DecompositionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{len(self._graphs)} graph(s)"
        return f"DecompositionPool({state})"

    def _check_key(self, graph_key: str) -> str:
        if graph_key not in self._graphs:
            raise ParameterError(
                f"unknown graph key {graph_key!r}; "
                f"registered keys: {sorted(self._graphs)}"
            )
        return graph_key


def _normalise_graph_map(graphs) -> dict[str, CSRGraph]:
    if graphs is None:
        return {}
    if isinstance(graphs, CSRGraph):
        graphs = {"0": graphs}
    elif isinstance(graphs, Mapping):
        graphs = dict(graphs)
    else:
        graphs = {str(i): g for i, g in enumerate(graphs)}
    for key, graph in graphs.items():
        if not isinstance(key, str):
            raise ParameterError(
                f"graph keys must be strings, got {type(key).__name__}"
            )
        if not isinstance(graph, CSRGraph):
            raise ParameterError(
                f"graph {key!r} is not a CSRGraph: {type(graph).__name__}"
            )
    return graphs


def _chain_future(raw: Future, transform) -> Future:
    """A future resolving to ``transform(raw.result())``.

    Keeps :meth:`DecompositionPool.submit` returning plain
    ``concurrent.futures.Future`` objects while rehydration happens lazily
    on the parent side (in the callback thread that completes ``raw``).
    """
    out: Future = Future()

    def _complete(done: Future) -> None:
        # The caller may have cancelled the chained future while the raw
        # task kept running; claim it (PENDING -> RUNNING) before setting
        # anything, and drop the result if the claim fails.
        if not out.set_running_or_notify_cancel():
            return
        if done.cancelled():
            out.set_exception(CancelledError())
            return
        exc = done.exception()
        if exc is not None:
            out.set_exception(exc)
            return
        try:
            out.set_result(transform(done.result()))
        except BaseException as err:  # rehydration failure
            out.set_exception(err)

    raw.add_done_callback(_complete)
    return out
