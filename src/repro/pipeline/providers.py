"""Decomposition providers — one seam between applications and backends.

Every application in this library (spanners, AKPW low-stretch trees, HST
hierarchies, distance oracles, the solver's tree preconditioners) consumes
the paper's primitive the same way: *decompose this graph with this β,
method and seed*.  A :class:`DecompositionProvider` is that contract made
explicit, with three interchangeable transports:

- :class:`EngineProvider` — in-process serial
  :func:`repro.core.engine.decompose`;
- :class:`PoolProvider` — the shared-memory batch runtime
  (:class:`repro.runtime.pool.DecompositionPool`): graphs are registered in
  shared memory under their content digest, requests cross the process
  boundary slim;
- :class:`ServeProvider` — a :class:`repro.serve.client.ServeClient`
  speaking to a running decomposition server: graphs are uploaded once by
  digest, results come back over the wire.

Because decompositions are derandomized (pure functions of
``(graph bytes, beta, method, seed, options)`` — the conformance suite pins
this), *which* provider executes a request never changes its result:
application outputs are bit-identical across all three.  That same purity
licenses the built-in **memo layer**: every provider carries a byte-budgeted
:class:`~repro.serve.cache.ResultCache` keyed by the canonical request
tuple, so multi-level consumers (AKPW's quotient recursion, hierarchy
refinement) and repeated application builds reuse decompositions instead of
recomputing them.

Providers require **integer seeds** — the explicit seed is what makes a
request executable on any backend and memoizable; applications normalise
their ``SeedLike`` inputs with :func:`repro.rng.seeding.ensure_int_seed`
and derive per-level sub-seeds with :func:`~repro.rng.seeding.derive_seed`.

Multi-level applications whose pieces within a level are independent
(AKPW's per-component decompositions, the hierarchy's per-piece
refinements) submit a whole level at once through
:meth:`DecompositionProvider.decompose_batch`: a list of
:class:`DecomposeRequest` values, answered in request order.  The base
implementation is serial; :class:`PoolProvider` fans a batch into the
shared-memory pool from a worker-bounded scheduler, and
:class:`ServeProvider`/``ClusterProvider`` drive the pipelined
:class:`~repro.serve.aio_client.AsyncServeClient` so independent pieces
are in flight simultaneously (across shards, behind a router).  Because
every request carries its own explicit seed, *batching never changes
results* — outputs are bit-identical to the serial loop at any
``max_concurrent``, and requests with equal canonical keys are deduped
into one backend execution.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.engine import PartitionResult, _resolve, decompose
from repro.errors import ParameterError
from repro.graphs.csr import CSRGraph
from repro.serve.cache import ResultCache
from repro.serve.protocol import canonical_cache_key
from repro.serve.store import graph_digest

__all__ = [
    "DecomposeRequest",
    "DecompositionProvider",
    "EngineProvider",
    "PoolProvider",
    "ServeProvider",
    "default_provider",
    "provider_from_spec",
    "resolve_provider",
]

#: Default memo budget per provider: enough for a few thousand result
#: arrays of mid-sized graphs without surprising a laptop.
DEFAULT_MEMO_BYTES = 64 * 1024 * 1024

#: Graphs with at most this many edges run on the in-process engine even
#: under remote backends — a pool/serve round trip costs more than a tiny
#: decomposition.  Results are identical either way (derandomization), so
#: this is purely a transport choice.  0 = never inline, keeping backend
#: semantics pure by default; the serve layer's app provider raises it.
DEFAULT_INLINE_CUTOFF = 0


@dataclass(frozen=True)
class DecomposeRequest:
    """One decomposition request for :meth:`decompose_batch`.

    The fields mirror :meth:`DecompositionProvider.decompose`'s signature;
    ``seed`` must already be a plain integer (normalise ``SeedLike`` values
    with :func:`repro.rng.seeding.ensure_int_seed`).
    """

    graph: CSRGraph
    beta: float
    method: str = "auto"
    seed: int = 0
    validate: bool = False
    options: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class _Prepared:
    """A validated batch request plus its routing identity."""

    index: int
    request: DecomposeRequest
    #: resolved (non-``"auto"``) method name.
    method: str
    #: content digest of the request's graph.
    digest: str
    #: canonical memo key — equal keys are one backend execution.
    key: object


class DecompositionProvider:
    """Routes decomposition requests to a backend, memoizing results.

    Subclasses implement :meth:`_decompose_impl`; everything else —
    request validation, digest computation, the memo layer, slim-result
    rehydration — is shared.  Providers are context managers; closing one
    releases whatever backend resources it owns.

    Parameters
    ----------
    memo_bytes:
        Byte budget of the provider's memo cache (0 disables memoization).
    memo:
        An externally owned :class:`~repro.serve.cache.ResultCache` to use
        instead of creating one — the serve layer passes its own cache so
        application decompositions and client requests share one budget and
        one set of counters.  Overrides ``memo_bytes``.
    inline_cutoff:
        Graphs with ``num_edges`` at or below this run on the in-process
        engine instead of the backend (0 = always use the backend).
    """

    #: short backend label used in stats and reprs.
    backend = "abstract"

    def __init__(
        self,
        *,
        memo_bytes: int = DEFAULT_MEMO_BYTES,
        memo: ResultCache | None = None,
        inline_cutoff: int = DEFAULT_INLINE_CUTOFF,
    ) -> None:
        self._memo = memo if memo is not None else ResultCache(int(memo_bytes))
        self._inline_cutoff = int(inline_cutoff)
        self._requests = 0
        self._memo_hits = 0
        self._inline_runs = 0
        self._closed = False

    # ------------------------------------------------------------------
    # the contract
    # ------------------------------------------------------------------
    def decompose(
        self,
        graph: CSRGraph,
        beta: float,
        *,
        method: str = "auto",
        seed: int = 0,
        validate: bool = False,
        **options: object,
    ) -> PartitionResult:
        """Compute (or recall) one decomposition through the backend.

        ``seed`` must be a plain integer — the explicit seed is the
        reproducibility and cache identity of the request (normalise
        ``SeedLike`` values with
        :func:`repro.rng.seeding.ensure_int_seed` first).
        """
        if self._closed:
            raise ParameterError(f"{type(self).__name__} is closed")
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ParameterError(
                f"providers require an explicit integer seed, got "
                f"{type(seed).__name__} (normalise with ensure_int_seed)"
            )
        spec = _resolve(graph, method)
        bound = spec.bind(options)
        digest = self.graph_key(graph)
        key = canonical_cache_key(
            digest, float(beta), spec.name, seed, bound,
            validate=validate, op="pipeline",
        )
        self._requests += 1
        slim = self._memo.get(key)
        if slim is not None:
            self._memo_hits += 1
            return _rehydrate(graph, slim)
        if graph.num_edges <= self._inline_cutoff and not isinstance(
            self, EngineProvider
        ):
            self._inline_runs += 1
            result = decompose(
                graph, beta, method=spec.name, seed=seed,
                validate=validate, **options,
            )
        else:
            result = self._decompose_impl(
                graph, digest, beta, spec.name, seed, validate, dict(options)
            )
        slim = _slim(result)
        self._memo.put(key, slim, _slim_nbytes(slim))
        return result

    def _decompose_impl(
        self,
        graph: CSRGraph,
        digest: str,
        beta: float,
        method: str,
        seed: int,
        validate: bool,
        options: dict,
    ) -> PartitionResult:
        raise NotImplementedError

    def decompose_batch(
        self,
        requests: Iterable[DecomposeRequest] | Sequence[DecomposeRequest],
        *,
        max_concurrent: int | None = None,
    ) -> list[PartitionResult]:
        """Compute (or recall) many independent decompositions at once.

        Results come back in request order and are bit-identical to issuing
        the same requests one at a time through :meth:`decompose` — batching
        is a transport optimisation, never a semantic one.  Requests whose
        canonical keys are equal (same graph bytes, β, method, seed,
        options) are deduped into a single backend execution; memo hits are
        answered without touching the backend at all.

        ``max_concurrent`` bounds how many requests a concurrent backend
        keeps in flight (``None`` = the backend's own bound: the pool's
        worker count, the serve client's pipeline).  ``max_concurrent=1``
        forces the serial reference path on every backend.

        Failure is all-or-nothing and loud: if any dispatched request fails
        (timeout, dead shard, worker error), sibling in-flight requests are
        drained, every resource pin is released, and the batch raises —
        the provider stays usable and its memo holds only results that
        completed successfully.
        """
        requests = list(requests)
        if self._closed:
            raise ParameterError(f"{type(self).__name__} is closed")
        if max_concurrent is not None and (
            isinstance(max_concurrent, bool)
            or not isinstance(max_concurrent, int)
            or max_concurrent < 1
        ):
            raise ParameterError(
                f"max_concurrent must be a positive integer or None, got "
                f"{max_concurrent!r}"
            )
        prepared: list[_Prepared] = []
        for index, request in enumerate(requests):
            if not isinstance(request, DecomposeRequest):
                raise ParameterError(
                    f"decompose_batch takes DecomposeRequest values, got "
                    f"{type(request).__name__} at index {index}"
                )
            if isinstance(request.seed, bool) or not isinstance(
                request.seed, int
            ):
                raise ParameterError(
                    f"providers require an explicit integer seed, got "
                    f"{type(request.seed).__name__} at index {index} "
                    f"(normalise with ensure_int_seed)"
                )
            spec = _resolve(request.graph, request.method)
            bound = spec.bind(dict(request.options))
            digest = self.graph_key(request.graph)
            key = canonical_cache_key(
                digest, float(request.beta), spec.name, request.seed, bound,
                validate=request.validate, op="pipeline",
            )
            prepared.append(_Prepared(index, request, spec.name, digest, key))
        self._requests += len(prepared)

        results: list[PartitionResult | None] = [None] * len(prepared)
        #: canonical key -> every prepared request sharing it (dedup).
        misses: OrderedDict[object, list[_Prepared]] = OrderedDict()
        for item in prepared:
            slim = self._memo.get(item.key)
            if slim is not None:
                self._memo_hits += 1
                results[item.index] = _rehydrate(item.request.graph, slim)
            elif item.key in misses:
                misses[item.key].append(item)
            else:
                misses[item.key] = [item]

        # Tiny graphs run inline on the engine, exactly as in decompose().
        dispatch: list[_Prepared] = []
        inline_done: list[tuple[_Prepared, PartitionResult]] = []
        for group in misses.values():
            item = group[0]
            if item.request.graph.num_edges <= self._inline_cutoff and not (
                isinstance(self, EngineProvider)
            ):
                self._inline_runs += 1
                inline_done.append((item, decompose(
                    item.request.graph, item.request.beta, method=item.method,
                    seed=item.request.seed, validate=item.request.validate,
                    **dict(item.request.options),
                )))
            else:
                dispatch.append(item)

        if dispatch:
            if max_concurrent == 1:
                # The serial reference path, whatever the backend.
                outcomes = DecompositionProvider._decompose_batch_impl(
                    self, dispatch, max_concurrent
                )
            else:
                outcomes = self._decompose_batch_impl(dispatch, max_concurrent)
        else:
            outcomes = []

        for item, result in list(zip(dispatch, outcomes)) + inline_done:
            slim = _slim(result)
            self._memo.put(item.key, slim, _slim_nbytes(slim))
            for member in misses[item.key]:
                results[member.index] = _rehydrate(member.request.graph, slim)
        return results  # type: ignore[return-value]

    def _decompose_batch_impl(
        self,
        prepared: "list[_Prepared]",
        max_concurrent: int | None,
    ) -> list[PartitionResult]:
        """Serial reference dispatch; concurrent backends override this."""
        return [
            self._decompose_impl(
                item.request.graph, item.digest, item.request.beta,
                item.method, item.request.seed, item.request.validate,
                dict(item.request.options),
            )
            for item in prepared
        ]

    # ------------------------------------------------------------------
    # identity and introspection
    # ------------------------------------------------------------------
    def graph_key(self, graph: CSRGraph) -> str:
        """The content digest keying ``graph`` across every backend.

        This is :func:`repro.serve.store.graph_digest` — the key the serve
        layer's content-addressed store uses, so a provider-side key and a
        server-side upload agree byte for byte.  The graph memoizes its own
        digest, so repeat lookups hash nothing.
        """
        return graph_digest(graph)

    def stats(self) -> dict:
        """Request/memo counters plus the backend's own numbers."""
        return {
            "backend": self.backend,
            "requests": self._requests,
            "memo_hits": self._memo_hits,
            "inline_runs": self._inline_runs,
            "memo": self._memo.stats(),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (idempotent)."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{self._requests} request(s)"
        return f"{type(self).__name__}({state})"


class EngineProvider(DecompositionProvider):
    """Serial in-process backend: every request is a direct engine call."""

    backend = "engine"

    def _decompose_impl(
        self, graph, digest, beta, method, seed, validate, options
    ) -> PartitionResult:
        return decompose(
            graph, beta, method=method, seed=seed, validate=validate,
            **options,
        )


class PoolProvider(DecompositionProvider):
    """Shared-memory batch-runtime backend.

    Wraps a :class:`~repro.runtime.pool.DecompositionPool` — either an
    externally owned one (the serve layer passes the server's pool) or one
    the provider creates and owns.  Graphs the provider registers itself
    live under a *provider-private key namespace* (``pipelineN:<digest>``),
    so they can never collide with — or be evicted out from under — keys
    owned by others sharing the pool (the serve layer's graph store
    registers raw digests); a graph already resident under its raw digest
    is used in place.  The provider keeps at most ``max_resident_graphs``
    of its own registrations alive (LRU, in-flight-aware), so a deep
    quotient recursion cannot exhaust shared memory.
    """

    backend = "pool"

    #: distinguishes the key namespaces of providers sharing one pool.
    _ids = itertools.count()

    def __init__(
        self,
        pool=None,
        *,
        max_workers: int | None = None,
        start_method: str | None = None,
        max_resident_graphs: int = 32,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if max_resident_graphs < 1:
            raise ParameterError(
                f"max_resident_graphs must be >= 1, got {max_resident_graphs}"
            )
        if pool is None:
            from repro.runtime.pool import DecompositionPool

            pool = DecompositionPool(
                max_workers=max_workers, start_method=start_method
            )
            self._owns_pool = True
        else:
            self._owns_pool = False
        self._pool = pool
        self._max_resident = int(max_resident_graphs)
        self._namespace = f"pipeline{next(self._ids)}"
        self._resident_lock = threading.Lock()
        #: pool keys THIS provider registered, in LRU order.
        self._resident: OrderedDict[str, None] = OrderedDict()
        #: pool key -> number of requests currently executing against it;
        #: eviction skips these (unlinking a segment under an in-flight
        #: request could fault a worker that has not attached yet).
        self._inflight: dict[str, int] = {}

    @property
    def pool(self):
        """The underlying :class:`DecompositionPool`."""
        return self._pool

    def _pin_graph(self, graph: CSRGraph, digest: str) -> tuple[str, str]:
        """Register ``graph`` (if needed) and pin it against eviction.

        Returns ``(own_key, pool_key)``; every call must be paired with
        :meth:`_unpin_graph(own_key) <_unpin_graph>`.
        """
        own_key = f"{self._namespace}:{digest}"
        pool_key = own_key
        with self._resident_lock:
            # Mark the request in flight *before* any eviction can run
            # — including the one below, which must not evict the key
            # it just registered.  The pin is what makes submitting
            # outside the lock safe: eviction skips pinned keys.
            self._inflight[own_key] = self._inflight.get(own_key, 0) + 1
            if own_key in self._resident:
                self._resident.move_to_end(own_key)
            elif digest in self._pool.graph_keys:
                # Already resident under its raw digest (registered by
                # another owner, e.g. the serve layer's store): use it
                # in place, never evict it.
                pool_key = digest
            else:
                self._pool.register_graph(own_key, graph)
                self._resident[own_key] = None
                self._evict_over_budget_locked()
        return own_key, pool_key

    def _unpin_graph(self, own_key: str) -> None:
        with self._resident_lock:
            remaining = self._inflight.get(own_key, 1) - 1
            if remaining:
                self._inflight[own_key] = remaining
            else:
                self._inflight.pop(own_key, None)
            # A batch window wider than the residency budget pins more
            # graphs than registration-time eviction may remove; shrink
            # back as pins release so the bound holds at rest.
            self._evict_over_budget_locked()

    def _evict_over_budget_locked(self) -> None:
        """Evict unpinned LRU registrations past the residency budget."""
        for candidate in list(self._resident):
            if len(self._resident) <= self._max_resident:
                break
            if self._inflight.get(candidate):
                continue  # a request is executing against it
            del self._resident[candidate]
            self._pool.unregister_graph(candidate)

    def _decompose_impl(
        self, graph, digest, beta, method, seed, validate, options
    ) -> PartitionResult:
        own_key, pool_key = self._pin_graph(graph, digest)
        try:
            result = self._pool.submit(
                pool_key, beta, method=method, seed=seed, validate=validate,
                **options,
            ).result()
        finally:
            self._unpin_graph(own_key)
        # Rebind to the caller's graph object: the pool rehydrates against
        # its own registered parent graph (an equal-content object),
        # while the provider contract hands back the caller's.
        return _rehydrate(graph, _slim(result))

    def _decompose_batch_impl(
        self, prepared, max_concurrent
    ) -> list[PartitionResult]:
        """Rolling-window fan-in: keep the pool's workers saturated.

        At most ``max_concurrent`` (default ``2 × max_workers`` — enough
        to hide submit latency without pinning a whole level's graphs in
        shared memory at once) requests are in flight; each holds a
        residency pin for exactly its own lifetime.  On the first failure
        no new work is submitted, the in-flight remainder is drained, and
        the first error is re-raised — completed siblings were already
        computed but the batch reports no partial results.
        """
        import concurrent.futures

        limit = (
            int(max_concurrent)
            if max_concurrent is not None
            else max(1, 2 * self._pool.max_workers)
        )
        results: list[PartitionResult | None] = [None] * len(prepared)
        pending: dict[object, tuple[int, str]] = {}
        first_error: BaseException | None = None
        position = 0
        try:
            while pending or (position < len(prepared) and first_error is None):
                while (
                    position < len(prepared)
                    and len(pending) < limit
                    and first_error is None
                ):
                    item = prepared[position]
                    request = item.request
                    own_key, pool_key = self._pin_graph(
                        request.graph, item.digest
                    )
                    try:
                        future = self._pool.submit(
                            pool_key, request.beta, method=item.method,
                            seed=request.seed, validate=request.validate,
                            **dict(request.options),
                        )
                    except BaseException:
                        self._unpin_graph(own_key)
                        raise
                    pending[future] = (position, own_key)
                    position += 1
                if not pending:
                    break
                done, _ = concurrent.futures.wait(
                    pending, return_when=concurrent.futures.FIRST_COMPLETED
                )
                for future in done:
                    slot, own_key = pending.pop(future)
                    self._unpin_graph(own_key)
                    error = future.exception()
                    if error is not None:
                        if first_error is None:
                            first_error = error
                        continue
                    results[slot] = _rehydrate(
                        prepared[slot].request.graph, _slim(future.result())
                    )
        finally:
            # An unexpected raise above (submit failure, interrupt) must
            # not leave residency pins armed for abandoned futures.
            for _, own_key in pending.values():
                self._unpin_graph(own_key)
        if first_error is not None:
            raise first_error
        return results  # type: ignore[return-value]

    def stats(self) -> dict:
        out = super().stats()
        out["pool"] = self._pool.stats()
        with self._resident_lock:
            out["resident_graphs"] = len(self._resident)
        return out

    def close(self) -> None:
        if self.closed:
            return
        super().close()
        with self._resident_lock:
            resident, self._resident = list(self._resident), OrderedDict()
        if self._owns_pool:
            self._pool.shutdown()
        else:
            for digest in resident:
                try:
                    self._pool.unregister_graph(digest)
                except ParameterError:
                    pass  # pool already shut down or key re-owned


class ServeProvider(DecompositionProvider):
    """Remote backend: a :class:`ServeClient` against a running server.

    Graphs are uploaded once (content-addressed: identical re-uploads
    dedup server-side) and referenced by digest thereafter.  The provider
    either wraps an externally owned client or connects itself from
    ``address``.  Remote results come back as assignment arrays and a
    summary; the provider rebuilds a full :class:`PartitionResult` against
    the local graph object, so applications cannot tell the backends
    apart.  Note ``validate=True`` runs server-side; the returned result
    carries ``report=None`` locally (the summary's ``invariants_ok`` field
    is the witness).

    Uploads the provider *originated* (the server did not already hold the
    content) are bounded: at most ``max_uploaded_graphs`` stay resident
    server-side, evicted LRU via the ``discard`` op — so a deep quotient
    recursion cannot exhaust the server's shared memory.  Graphs the
    server already knew (preloads, other clients' uploads) are never
    discarded here.
    """

    backend = "serve"

    def __init__(
        self,
        client=None,
        *,
        address: tuple[str, int] | None = None,
        timeout: float = 60.0,
        max_uploaded_graphs: int = 32,
        batch_pool_size: int = 4,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if max_uploaded_graphs < 1:
            raise ParameterError(
                f"max_uploaded_graphs must be >= 1, got {max_uploaded_graphs}"
            )
        if batch_pool_size < 1:
            raise ParameterError(
                f"batch_pool_size must be >= 1, got {batch_pool_size}"
            )
        self._timeout = float(timeout)
        self._batch_pool_size = int(batch_pool_size)
        if client is None:
            if address is None:
                raise ParameterError(
                    "ServeProvider needs a ServeClient or an (host, port) "
                    "address"
                )
            from repro.serve.client import ServeClient

            client = ServeClient(*address, timeout=timeout)
            self._owns_client = True
        else:
            self._owns_client = False
        self._client = client
        self._max_uploaded = int(max_uploaded_graphs)
        self._uploaded_lock = threading.Lock()
        #: digests known resident server-side that this provider does NOT
        #: own (server had the content already) — never discarded here.
        self._shared_digests: set[str] = set()
        #: digests this provider's uploads created, LRU order, evictable.
        self._own_uploads: OrderedDict[str, None] = OrderedDict()
        #: digest -> in-flight request count (eviction skips these).
        self._upload_inflight: dict[str, int] = {}

    @property
    def client(self):
        """The underlying :class:`ServeClient`."""
        return self._client

    def _ensure_uploaded(self, graph: CSRGraph, digest: str) -> None:
        """Upload ``graph`` if needed and pin it for the current request.

        Must be paired with :meth:`_release_upload`.
        """
        with self._uploaded_lock:
            self._upload_inflight[digest] = (
                self._upload_inflight.get(digest, 0) + 1
            )
            if digest in self._shared_digests or digest in self._own_uploads:
                if digest in self._own_uploads:
                    self._own_uploads.move_to_end(digest)
                return
        try:
            # Binary arrays against a v2 server/router, JSON text against
            # v1 — the client negotiated; the digest is format-neutral.
            response = self._client.upload_graph(graph)
        except BaseException:
            self._release_upload(digest)
            raise
        remote = response["digest"]
        if remote != digest:
            self._release_upload(digest)
            raise ParameterError(
                f"server digest {remote[:12]}… does not match local digest "
                f"{digest[:12]}… — client/server serialisation drift"
            )
        to_discard: list[str] = []
        with self._uploaded_lock:
            if response.get("known"):
                # The server held this content before we uploaded — some
                # other owner's graph; not ours to discard.
                self._shared_digests.add(digest)
            else:
                self._own_uploads[digest] = None
                self._own_uploads.move_to_end(digest)
                for candidate in list(self._own_uploads):
                    if len(self._own_uploads) <= self._max_uploaded:
                        break
                    if self._upload_inflight.get(candidate):
                        continue
                    del self._own_uploads[candidate]
                    to_discard.append(candidate)
        from repro.errors import ServeError

        for stale in to_discard:
            try:
                self._client.discard(stale)
            except ServeError:
                pass  # someone else discarded it already; budget restored

    def _release_upload(self, digest: str) -> None:
        with self._uploaded_lock:
            remaining = self._upload_inflight.get(digest, 1) - 1
            if remaining:
                self._upload_inflight[digest] = remaining
            else:
                self._upload_inflight.pop(digest, None)

    def _decompose_impl(
        self, graph, digest, beta, method, seed, validate, options
    ) -> PartitionResult:
        from repro.errors import ServeError

        served = None
        for attempt in (0, 1):
            self._ensure_uploaded(graph, digest)
            try:
                served = self._client.decompose(
                    digest, beta, method=method, seed=seed,
                    validate=validate, **options,
                )
                break
            except ServeError as exc:
                # Self-heal when the digest was discarded out from under
                # us (another provider's eviction, a server restart):
                # forget it and re-upload once.
                if attempt or "unknown graph digest" not in str(exc):
                    raise
                with self._uploaded_lock:
                    self._own_uploads.pop(digest, None)
                    self._shared_digests.discard(digest)
            finally:
                self._release_upload(digest)
        return _result_from_served(graph, served, beta, method)

    def _batch_address(self) -> tuple[str, int]:
        address = getattr(self._client, "address", None)
        if address is None:
            from repro.errors import ServeError

            raise ServeError(
                f"{type(self._client).__name__} exposes no address; "
                "decompose_batch needs one to open its pipelined client"
            )
        return address

    def _decompose_batch_impl(
        self, prepared, max_concurrent
    ) -> list[PartitionResult]:
        """Pipeline a level through an :class:`AsyncServeClient`.

        Every request's graph is uploaded (once per digest) and pinned,
        then all requests go out concurrently over a small connection
        pool against the same endpoint as the blocking client — behind a
        cluster router that fans independent pieces across shards.  A
        failed request (timeout, dead shard, worker error) fails the
        whole batch loudly: :meth:`AsyncServeClient.aclose` discards late
        responses by id, sibling results are dropped, and the first error
        propagates — the provider itself stays usable.  The one retried
        failure is ``unknown graph digest`` on every failed request
        (content discarded out from under us): forget, re-upload, once.
        """
        import asyncio

        from repro.errors import ServeError
        from repro.serve.aio_client import AsyncServeClient

        host, port = self._batch_address()

        async def drive() -> list:
            client = AsyncServeClient(
                host, port, timeout=self._timeout,
                pool_size=min(self._batch_pool_size, len(prepared)),
            )
            gate = (
                asyncio.Semaphore(int(max_concurrent))
                if max_concurrent is not None
                else None
            )

            async def one(item: _Prepared):
                if gate is None:
                    return await client.decompose(
                        item.digest, item.request.beta, method=item.method,
                        seed=item.request.seed,
                        validate=item.request.validate,
                        **dict(item.request.options),
                    )
                async with gate:
                    return await client.decompose(
                        item.digest, item.request.beta, method=item.method,
                        seed=item.request.seed,
                        validate=item.request.validate,
                        **dict(item.request.options),
                    )

            try:
                return await asyncio.gather(
                    *(one(item) for item in prepared),
                    return_exceptions=True,
                )
            finally:
                await client.aclose()

        for attempt in (0, 1):
            for item in prepared:
                self._ensure_uploaded(item.request.graph, item.digest)
            try:
                outcomes = asyncio.run(drive())
            finally:
                for item in prepared:
                    self._release_upload(item.digest)
            failures = [
                (item, out)
                for item, out in zip(prepared, outcomes)
                if isinstance(out, BaseException)
            ]
            if not failures:
                return [
                    _result_from_served(
                        item.request.graph, served, item.request.beta,
                        item.method,
                    )
                    for item, served in zip(prepared, outcomes)
                ]
            stale = [
                item
                for item, out in failures
                if isinstance(out, ServeError)
                and "unknown graph digest" in str(out)
            ]
            if attempt == 0 and len(stale) == len(failures):
                # Self-heal exactly as the serial path does: the content
                # was discarded out from under us — forget and re-upload.
                with self._uploaded_lock:
                    for item in stale:
                        self._own_uploads.pop(item.digest, None)
                        self._shared_digests.discard(item.digest)
                continue
            first = failures[0][1]
            raise ServeError(
                f"batch decompose failed for {len(failures)} of "
                f"{len(prepared)} request(s); first error: {first}"
            ) from first

    def close(self) -> None:
        if self.closed:
            return
        super().close()
        if self._owns_client:
            self._client.close()


# ---------------------------------------------------------------------------
# defaults and resolution
# ---------------------------------------------------------------------------
_DEFAULT_LOCK = threading.Lock()
_DEFAULT: EngineProvider | None = None


def default_provider() -> EngineProvider:
    """The process-wide default :class:`EngineProvider`.

    Applications called without an explicit ``provider=`` share this one,
    so their decompositions memoize across calls (two solver builds on the
    same graph reuse every AKPW level, for instance).
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None or _DEFAULT.closed:
            _DEFAULT = EngineProvider()
        return _DEFAULT


def provider_from_spec(spec: str) -> DecompositionProvider:
    """Build a provider from a backend spec string.

    Accepted forms::

        engine                  in-process serial engine
        pool                    owned DecompositionPool (CPU-count workers)
        pool:WORKERS            owned pool with an explicit width
        serve:HOST:PORT         ServeClient against a running server
        cluster:HOST:PORT       ServeClient against a running ClusterRouter

    The returned provider owns whatever backend the spec names — close it
    (or use it as a context manager) when done.  Specs are how configs and
    CLIs choose a transport without importing backend classes; code that
    already holds a provider object passes it directly.
    """
    kind, _, rest = spec.partition(":")
    if kind == "engine":
        if rest:
            raise ParameterError(
                f"the engine spec takes no arguments, got {spec!r}"
            )
        return EngineProvider()
    if kind == "pool":
        if not rest:
            return PoolProvider()
        try:
            workers = int(rest)
        except ValueError:
            raise ParameterError(
                f"pool spec expects 'pool' or 'pool:WORKERS', got {spec!r}"
            ) from None
        return PoolProvider(max_workers=workers)
    if kind in ("serve", "cluster"):
        host, sep, port_text = rest.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            port = -1
        if not sep or not host or port < 0:
            raise ParameterError(
                f"{kind} spec expects '{kind}:HOST:PORT', got {spec!r}"
            )
        if kind == "cluster":
            from repro.cluster.provider import ClusterProvider

            return ClusterProvider(address=(host, port))
        return ServeProvider(address=(host, port))
    raise ParameterError(
        f"unknown provider spec {spec!r}; expected engine, pool[:WORKERS], "
        f"serve:HOST:PORT, or cluster:HOST:PORT"
    )


def resolve_provider(
    provider: "DecompositionProvider | str | None",
) -> DecompositionProvider:
    """``provider`` itself, the shared default when ``None``, or a new
    provider built from a spec string (see :func:`provider_from_spec` —
    string-resolved providers are owned by the caller)."""
    if provider is None:
        return default_provider()
    if isinstance(provider, str):
        return provider_from_spec(provider)
    if not isinstance(provider, DecompositionProvider):
        raise ParameterError(
            f"provider must be a DecompositionProvider, a spec string, or "
            f"None, got {type(provider).__name__}"
        )
    return provider


# ---------------------------------------------------------------------------
# slim transport (memo storage format)
# ---------------------------------------------------------------------------
def _slim(result: PartitionResult) -> tuple:
    """Graph-free memo payload; mirrors the pool's slim-result format."""
    from repro.runtime.pool import _slim_result

    return _slim_result(result)


def _rehydrate(graph: CSRGraph, slim: tuple) -> PartitionResult:
    from repro.runtime.pool import _rehydrate_result

    return _rehydrate_result(graph, slim)


def _slim_nbytes(slim: tuple) -> int:
    _kind, center, per_vertex = slim[0]
    return int(center.nbytes + per_vertex.nbytes)


def _result_from_served(
    graph: CSRGraph, served, beta: float, method: str
) -> PartitionResult:
    """Rebuild a local :class:`PartitionResult` from a serve-op result.

    The server returns assignment arrays plus a summary; the caller's
    graph object becomes the decomposition's graph, so applications
    cannot tell the backends apart.  ``validate=True`` ran server-side;
    ``report`` is ``None`` locally (the summary's ``invariants_ok`` field
    is the witness).
    """
    import numpy as np

    from repro.core.decomposition import Decomposition, PartitionTrace
    from repro.core.weighted import WeightedDecomposition

    if served.kind == "weighted":
        decomposition = WeightedDecomposition(
            graph=graph,
            center=np.ascontiguousarray(served.center),
            radius=np.ascontiguousarray(served.per_vertex),
        )
    else:
        decomposition = Decomposition(
            graph=graph,
            center=np.ascontiguousarray(served.center),
            hops=np.ascontiguousarray(served.per_vertex),
        )
    summary = served.summary
    delta_max = summary.get("delta_max")
    trace = PartitionTrace(
        method=str(summary.get("method", method)),
        beta=float(beta),
        rounds=int(float(summary.get("rounds", 0))),
        work=int(float(summary.get("work", 0))),
        depth=int(float(summary.get("depth", 0))),
        delta_max=(
            float("nan") if delta_max is None else float(delta_max)
        ),
        wall_time_s=float(summary.get("wall_time_s", 0.0)),
    )
    return PartitionResult(
        decomposition=decomposition, trace=trace, report=None
    )
