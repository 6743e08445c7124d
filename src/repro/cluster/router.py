"""`ClusterRouter` — the front process of a sharded decomposition cluster.

The router speaks the same frame protocol as a
:class:`~repro.serve.server.DecompositionServer` (same pipelined ``id``
semantics), so every existing client — ``ServeClient``,
``AsyncServeClient``, ``ServeProvider`` — works against it unchanged.
Behind it, N independent shard servers each own a slice of the content
digest space:

- **uploads** are parsed (or built from binary arrays) and hashed
  router-side — the digest *is* the routing key — then forwarded to the
  owning shard as a binary upload;
- **graph-keyed ops** (``decompose``/``spanner``/``lowstretch_tree``/
  ``hierarchy``/``discard``) go straight to the digest's owner, which
  holds the graph and every memoized result for it; a request may carry
  an inline ``graph`` (upload-request fields) that the router replays to
  the owner if it answers *unknown graph digest* (upload-on-miss);
- **stats** fans out and aggregates numeric counters cluster-wide;
- **metrics** fans out and merges every shard's telemetry registry
  (plus the router's own relay-latency histograms) into one snapshot;
- **hello** fans out and unions the resident digests.

Tracing rides through both forwarding planes: a request whose header
carries ``{"trace_id", "span_id"}`` is restamped with a router-minted
relay span id (the shard's server span parents to it), and the finished
``router.relay`` span record joins the response's ``spans`` list during
the same header-only restamp — the binary tail is still never decoded.

Forwarding has two planes.  Digest-keyed graph ops ride a per-shard
relay channel (:class:`_RelayChannel`): the router peeks only the JSON
header, swaps the frame ``id``, and splices the body through verbatim —
no task, no future, and no array ever materialises router-side.
Everything needing real control flow (uploads, fan-outs, upload-on-miss
replays, a channel that is down) takes the task-based control plane over
per-shard :class:`AsyncServeClient` pools.  Both planes produce identical
answers; only speed differs.

The ring is never mutated at runtime: a dead shard's requests come back
as error frames naming the shard (``shard host:port unreachable``) while
every other shard keeps serving — remapping on failure would silently
recompute results the unreachable shard already holds.  Connections to a
shard that comes back reopen lazily on the next request.
"""

from __future__ import annotations

import asyncio
import contextvars
import logging
import os
import time

from repro._version import __version__
from repro.errors import ParameterError, ServeError
from repro.cluster.hash_ring import DEFAULT_REPLICAS, HashRing
from repro.serve.aio_client import AsyncServeClient
from repro.serve.client import graph_upload_message
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    parse_frame_length,
    peek_frame_fields,
    restamp_frame,
)
from repro.serve.server import upload_builder
from repro.serve.service import FrameService
from repro.telemetry import (
    MetricsRegistry,
    merge_snapshots,
    render_prometheus,
    trace as _trace,
)

__all__ = ["ClusterRouter", "router_background"]

logger = logging.getLogger(__name__)

#: ops the router forwards to the digest's owning shard verbatim.  The
#: chunked upload sequence is included: its ``upload_id`` *is* the graph
#: digest (content addressing), so every chunk of one transfer lands on
#: the shard that will own the graph, and a later ``decompose`` by digest
#: is a warm-store hit there.
_GRAPH_OPS = (
    "decompose",
    "spanner",
    "lowstretch_tree",
    "hierarchy",
    "discard",
    "upload_begin",
    "upload_chunk",
    "upload_commit",
    "upload_abort",
)


def _routing_digest(fields: dict) -> str | None:
    """The digest a graph op routes on; chunked ops key by ``upload_id``."""
    key = fields.get("digest")
    if not isinstance(key, str):
        key = fields.get("upload_id")
    return key if isinstance(key, str) else None

#: request had no ``id`` field (``None`` would be a legal id value).
_NO_ID = object()

#: bytes buffered toward one peer before the relay defers to the slow
#: path (shard side) or awaits drain (client side).
_RELAY_HIGH_WATER = 4 * 1024 * 1024

#: seconds before a broken relay channel tries to reconnect.
_RELAY_RETRY = 0.5


def _trace_ctx_of(fields: dict) -> dict | None:
    """The request's ``{"trace_id", "span_id"}`` header, or ``None``."""
    ctx = fields.get("trace")
    if isinstance(ctx, dict) and isinstance(ctx.get("trace_id"), str):
        return ctx
    return None


def _relay_span_record(
    trace_ctx: dict, span_id: str, op, shard: str, plane: str,
    wall: float, dur_s: float,
) -> dict:
    """One finished ``router.relay`` span, ready for a response header.

    ``span_id`` was minted when the request was forwarded (the forwarded
    ``trace`` header named it as the shard's parent), so the shard's
    server span nests under this relay span and the relay span under the
    client's — the printed tree shows every hop in order.
    """
    return {
        "trace_id": trace_ctx["trace_id"],
        "span_id": span_id,
        "parent_id": trace_ctx.get("span_id"),
        "name": "router.relay",
        "ts": wall,
        "dur_ms": dur_s * 1e3,
        "pid": os.getpid(),
        "attrs": {"op": op, "shard": shard, "plane": plane},
    }


class _RelayChannel:
    """Callback-style data plane to one shard: no task per request.

    One multiplexed connection carries every fast-path graph op for the
    shard.  The client-connection loop calls :meth:`submit` synchronously
    — swap the frame's ``id`` for a channel-local one and append it to
    the shard transport — and the channel's single read task restamps
    each response straight onto the owning client's transport.  Per
    relayed request the router spends two small JSON header rewrites and
    one tail splice; no task, no future, and no array ever materialises.

    Anything that needs real control flow — inline-graph replay, a
    channel that is down — stays on the task-based path
    (:meth:`ClusterRouter._route_graph_op`), so the two planes answer
    identically and only speed differs.
    """

    def __init__(self, router: "ClusterRouter", label: str, host, port) -> None:
        self._router = router
        self._label = label
        self._shard = (host, port)
        self._timeout = router._timeout
        self._reader = None
        self._writer = None
        self._pending: dict[int, tuple] = {}
        self._next_id = 0
        self._read_task: asyncio.Task | None = None
        self._connecting = False
        self._retry_at = 0.0

    @property
    def ready(self) -> bool:
        return (
            self._writer is not None
            and not self._writer.transport.is_closing()
        )

    def ensure(self) -> None:
        """Kick off a (re)connect unless one is running or cooling down."""
        loop = self._router._loop
        if (
            self.ready
            or self._connecting
            or loop is None
            or loop.time() < self._retry_at
        ):
            return
        self._connecting = True
        self._router._spawn(self._connect())

    async def _connect(self) -> None:
        host, port = self._shard
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), self._timeout
            )
        except (OSError, asyncio.TimeoutError):
            self._connecting = False
            self._retry_at = self._router._loop.time() + _RELAY_RETRY
            return
        self._reader = reader
        self._writer = writer
        self._connecting = False
        logger.debug("relay channel to shard %s up", self._label)
        self._read_task = self._router._loop.create_task(self._read_loop())

    def submit(self, body: bytes, fields: dict, client_writer) -> bool:
        """Relay the raw request ``body`` to the shard; False = slow path."""
        writer = self._writer
        if (
            writer is None
            or writer.transport.is_closing()
            or writer.transport.get_write_buffer_size() > _RELAY_HIGH_WATER
        ):
            return False
        relay_id = self._next_id
        self._next_id += 1
        timer = self._router._loop.call_later(
            self._timeout, self._expire, relay_id
        )
        updates: dict = {"id": relay_id}
        trace_ctx = _trace_ctx_of(fields)
        relay_span_id = None
        if trace_ctx is not None:
            # Interpose a router.relay span: the shard sees it as parent,
            # and the finished span record joins the response in
            # _read_loop's restamp.
            relay_span_id = _trace.new_span_id()
            updates["trace"] = {
                "trace_id": trace_ctx["trace_id"],
                "span_id": relay_span_id,
            }
        self._pending[relay_id] = (
            client_writer,
            fields["id"] if "id" in fields else _NO_ID,
            fields.get("op"),
            timer,
            trace_ctx,
            relay_span_id,
            time.time(),
            time.perf_counter(),
        )
        writer.write(restamp_frame(body, updates))
        return True

    def _error_frame(self, orig_id, detail: str) -> bytes:
        fields = self._router._shard_unreachable(self._label, detail)
        if orig_id is not _NO_ID:
            fields["id"] = orig_id
        return encode_frame(fields)

    def _expire(self, relay_id: int) -> None:
        entry = self._pending.pop(relay_id, None)
        if entry is None:
            return
        client_writer, orig_id, op = entry[:3]
        frame = self._error_frame(
            orig_id, f"timed out after {self._timeout}s waiting for op {op!r}"
        )
        if not client_writer.transport.is_closing():
            client_writer.write(frame)

    async def _read_loop(self) -> None:
        reader = self._reader
        try:
            while True:
                try:
                    header = await reader.readexactly(4)
                    body = await reader.readexactly(
                        parse_frame_length(header)
                    )
                    fields = peek_frame_fields(body)
                except (
                    OSError,
                    ServeError,
                    asyncio.IncompleteReadError,
                ) as exc:
                    self._fail(str(exc) or "connection lost")
                    return
                entry = self._pending.pop(fields.get("id"), None)
                if entry is None:
                    continue  # expired request; late response discarded
                (client_writer, orig_id, op, timer,
                 trace_ctx, relay_span_id, wall, t0) = entry
                timer.cancel()
                dur_s = time.perf_counter() - t0
                self._router._metrics.observe(
                    "repro_relay_seconds", dur_s, shard=self._label
                )
                updates: dict = {
                    "id": orig_id if orig_id is not _NO_ID else None
                }
                if fields.get("ok") and "shard" not in fields:
                    updates["shard"] = self._label
                if trace_ctx is not None:
                    updates["spans"] = list(fields.get("spans") or ()) + [
                        _relay_span_record(
                            trace_ctx, relay_span_id, op, self._label,
                            "relay", wall, dur_s,
                        )
                    ]
                if client_writer.transport.is_closing():
                    continue
                client_writer.write(restamp_frame(body, updates))
                if (
                    client_writer.transport.get_write_buffer_size()
                    > _RELAY_HIGH_WATER
                ):
                    try:
                        await client_writer.drain()
                    except ConnectionError:
                        pass  # that client hung up; others keep going
        except asyncio.CancelledError:
            self._fail("router shutting down")
            raise

    def _fail(self, detail: str) -> None:
        """Channel died: error-frame every in-flight request, then reset."""
        pending, self._pending = self._pending, {}
        writer, self._writer = self._writer, None
        self._reader = None
        self._retry_at = self._router._loop.time() + _RELAY_RETRY
        for client_writer, orig_id, _op, timer, *_rest in pending.values():
            timer.cancel()
            frame = self._error_frame(orig_id, detail)
            if not client_writer.transport.is_closing():
                client_writer.write(frame)
        if writer is not None:
            writer.close()

    async def close(self) -> None:
        task, self._read_task = self._read_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass
        for entry in self._pending.values():
            entry[3].cancel()  # the expiry timer
        self._pending.clear()


def _traced(handler):
    """A control-plane op, run under a ``router.<op>`` span when traced.

    Control-plane ops answer router-side (fan-outs, uploads), so the
    router is the traced server here; the shard hops inside run untraced
    on purpose — their latency is the fan-out's latency.  Graph ops are
    not wrapped: their relay span is interposed where they are forwarded.
    """

    async def run(self, message: dict) -> dict:
        trace_ctx = _trace_ctx_of(message)
        if trace_ctx is None:
            return await handler(self, message)
        op = message.get("op")
        with _trace.collect_spans() as spans:
            with _trace.adopt_context(
                trace_ctx["trace_id"], trace_ctx.get("span_id")
            ):
                with _trace.span(f"router.{op}", op=str(op)):
                    response = await handler(self, message)
        response["spans"] = list(response.get("spans") or ()) + spans
        return response

    return run


class ClusterRouter(FrameService):
    """Consistent-hash front for N decomposition shards.

    Parameters
    ----------
    shards:
        ``(host, port)`` addresses of running
        :class:`DecompositionServer` shards.
    host, port:
        Bind address of the router itself (``port=0`` picks a free port).
    replicas:
        Virtual nodes per shard on the ring.
    timeout:
        Per-forwarded-request timeout in seconds.
    connect_window:
        Backoff window for shard connects; short by design — a dead shard
        should fail a request quickly, not stall it.
    owns_shards:
        When true, a client ``shutdown`` op is fanned out to every shard
        before the router stops (the ``repro cluster`` CLI spawns its own
        shards and passes this).
    idle_ttl:
        Shut the router down after this many seconds without a client
        frame or a request in progress.
    """

    _role = "router"

    def __init__(
        self,
        shards,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = DEFAULT_REPLICAS,
        timeout: float = 120.0,
        connect_window: float = 1.0,
        owns_shards: bool = False,
        idle_ttl: float | None = None,
    ) -> None:
        super().__init__(host=host, port=port, idle_ttl=idle_ttl)
        shards = [(str(h), int(p)) for h, p in shards]
        if not shards:
            raise ParameterError("a cluster needs at least one shard")
        self._shards = shards
        self._labels = [f"{h}:{p}" for h, p in shards]
        self._ring = HashRing(self._labels, replicas=replicas)
        self._timeout = float(timeout)
        self._connect_window = float(connect_window)
        self._owns_shards = bool(owns_shards)

        self._clients: dict[str, AsyncServeClient] = {}
        self._relays: dict[str, _RelayChannel] = {}
        self._forwarded = 0
        self._shard_errors = 0
        self._miss_uploads = 0
        # The router's own registry is an instance, not the process-global
        # one: under in-process loopback (tests, serve_background shards)
        # the global registry is shared with the shards, and the metrics
        # fan-out would merge the same series twice.
        self._metrics = MetricsRegistry()

    @property
    def ring(self) -> HashRing:
        return self._ring

    @property
    def shard_labels(self) -> tuple[str, ...]:
        return tuple(self._labels)

    def owner_of(self, digest: str) -> str:
        """The shard label owning ``digest`` — exposed for tests/tools."""
        return self._ring.owner(digest)

    # ------------------------------------------------------------------
    # lifecycle (the rest is FrameService's)
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        address = await super().start()
        logger.info(
            "routing %d shard(s) on %s:%d: %s",
            len(self._labels), address[0], address[1],
            ", ".join(self._labels),
        )
        return address

    async def _open(self) -> None:
        self._clients = {
            label: AsyncServeClient(
                h,
                p,
                timeout=self._timeout,
                pool_size=4,
                connect_window=self._connect_window,
            )
            for label, (h, p) in zip(self._labels, self._shards)
        }
        self._relays = {
            label: _RelayChannel(self, label, h, p)
            for label, (h, p) in zip(self._labels, self._shards)
        }

    async def _release(self) -> None:
        relays, self._relays = self._relays, {}
        for relay in relays.values():
            await relay.close()
        clients, self._clients = self._clients, {}
        for client in clients.values():
            await client.aclose()

    def _busy(self) -> bool:
        # A request riding a relay channel has no task; its pending entry
        # is the activity.
        return any(relay._pending for relay in self._relays.values())

    def _relay(self, body: bytes, writer) -> bool:
        # Data plane: a graph op keyed by digest alone rides the owner's
        # relay channel — restamped in place, no task.
        fields = peek_frame_fields(body)
        if fields.get("op") not in _GRAPH_OPS or "graph" in fields:
            return False
        relay_key = _routing_digest(fields)
        if relay_key is None:
            return False
        channel = self._relays[self._ring.owner(relay_key)]
        if channel.submit(body, fields, writer):
            self._requests_total += 1
            self._forwarded += 1
            return True
        # Channel down: reconnect in the background, answer this request
        # on the task path.
        channel.ensure()
        return False

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def _shard_unreachable(self, label: str, detail) -> dict:
        """The error fields naming a shard the router could not reach.

        Counts one shard error.  Every forwarding path answers a transport
        failure (connect refused, timeout, dropped stream) with these.
        """
        self._shard_errors += 1
        return {
            "ok": False,
            "error": "ServeError",
            "message": f"shard {label} unreachable: {detail}",
            "shard": label,
        }

    async def _forward(self, label: str, message: dict) -> dict:
        """Relay ``message`` to shard ``label``; error frame on failure.

        Shard-side error frames pass through verbatim; transport failures
        (connect refused, timeout, dropped stream) become error frames
        naming the shard — the ring stays as it is, callers see exactly
        which member is down.
        """
        self._forwarded += 1
        try:
            return await self._clients[label].call(message, check=False)
        except ServeError as exc:
            return self._shard_unreachable(label, exc)

    async def _forward_raw(
        self, label: str, message: dict
    ) -> tuple[dict, bytes | None]:
        """Relay ``message`` to shard ``label`` without decoding arrays.

        Returns ``(fields, body)`` — the response's control fields and
        its raw frame body, ready for a :func:`restamp_frame` splice.
        Transport failures become ``(error fields, None)`` naming the
        shard, exactly like :meth:`_forward`.
        """
        self._forwarded += 1
        try:
            return await self._clients[label].call_raw(message)
        except ServeError as exc:
            return self._shard_unreachable(label, exc), None

    async def _route_graph_op(self, message: dict) -> dict | bytes:
        digest = _routing_digest(message)
        if digest is None:
            raise ParameterError(
                f"{message.get('op')} needs a string 'digest' or "
                f"'upload_id' to route on (upload the graph first)"
            )
        label = self._ring.owner(digest)
        forwarded = {
            k: v for k, v in message.items() if k not in ("id", "graph")
        }
        trace_ctx = _trace_ctx_of(message)
        relay_span_id = None
        if trace_ctx is not None:
            # Same interposition as the relay channel: the shard parents
            # its server span to the router's relay span.
            relay_span_id = _trace.new_span_id()
            forwarded["trace"] = {
                "trace_id": trace_ctx["trace_id"],
                "span_id": relay_span_id,
            }
        wall = time.time()
        t0 = time.perf_counter()
        fields, body = await self._forward_raw(label, forwarded)
        inline = message.get("graph")
        if (
            not fields.get("ok")
            and isinstance(inline, dict)
            and "unknown graph digest" in str(fields.get("message", ""))
        ):
            # Upload-on-miss: the request carried the graph (upload-op
            # fields); replay it to the owner, then retry the op once.
            self._miss_uploads += 1
            upload = {
                **{k: v for k, v in inline.items() if k != "id"},
                "op": "upload",
            }
            uploaded, _ = await self._forward_raw(label, upload)
            if not uploaded.get("ok"):
                return dict(uploaded)
            if uploaded.get("digest") != digest:
                raise ServeError(
                    f"inline graph hashes to "
                    f"{str(uploaded.get('digest'))[:12]}…, not the "
                    f"requested digest {digest[:12]}… — wrong graph "
                    f"attached to the request"
                )
            fields, body = await self._forward_raw(label, forwarded)
        dur_s = time.perf_counter() - t0
        self._metrics.observe("repro_relay_seconds", dur_s, shard=label)
        relay_span = None
        if trace_ctx is not None:
            relay_span = _relay_span_record(
                trace_ctx, relay_span_id, message.get("op"), label,
                "task", wall, dur_s,
            )
        if body is None:
            # Transport failure: the error fields name the shard.
            response = dict(fields)
            if relay_span is not None:
                response["spans"] = [relay_span]
            return response
        # The shard's frame is spliced through with only its header
        # restamped — the binary tail is never decoded, copied once, and
        # the arrays never materialise router-side.
        updates: dict = {"id": message["id"] if "id" in message else None}
        if fields.get("ok") and "shard" not in fields:
            updates["shard"] = label
        if relay_span is not None:
            updates["spans"] = list(fields.get("spans") or ()) + [relay_span]
        return restamp_frame(body, updates)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def _op_hello(self, message: dict) -> dict:
        responses = await asyncio.gather(
            *(self._forward(label, {"op": "hello"}) for label in self._labels)
        )
        by_label = dict(zip(self._labels, responses))
        alive = {
            label: r for label, r in by_label.items() if r.get("ok")
        }
        if not alive:
            raise ServeError(
                f"no cluster shard is reachable "
                f"({len(self._labels)} configured)"
            )
        base = dict(next(iter(alive.values())))
        base.pop("shard", None)
        base.update(
            server="repro.cluster",
            version=__version__,
            protocol=PROTOCOL_VERSION,
            graphs=sorted(
                {d for r in alive.values() for d in r.get("graphs", ())}
            ),
            cluster={
                "shards": list(self._labels),
                "alive": sorted(alive),
                "replicas": self._ring.replicas,
            },
        )
        return base

    async def _op_upload(self, message: dict) -> dict:
        # The digest is the routing key, so the router must parse/build
        # and hash the graph itself (off-loop — uploads are the heavy
        # frames) before it can pick the owner.  The forward is always a
        # binary upload: the graph is already in memory as arrays.
        build = upload_builder(
            {k: v for k, v in message.items() if k != "id"}
        )
        graph, digest = await self._loop.run_in_executor(
            None, contextvars.copy_context().run, build
        )
        label = self._ring.owner(digest)
        try:
            response = await self._clients[label].call(
                graph_upload_message(graph)
            )
        except ServeError as exc:
            return self._shard_unreachable(label, exc)
        self._forwarded += 1
        return {**response, "shard": label}

    async def _op_stats(self, message: dict) -> dict:
        responses = await asyncio.gather(
            *(self._forward(label, {"op": "stats"}) for label in self._labels)
        )
        by_label = dict(zip(self._labels, responses))
        alive = {label: r for label, r in by_label.items() if r.get("ok")}
        aggregate: dict[str, dict] = {}
        for section in ("server", "cache", "store", "pool"):
            totals: dict[str, float] = {}
            for r in alive.values():
                for k, v in (r.get(section) or {}).items():
                    if isinstance(v, bool) or not isinstance(v, (int, float)):
                        continue
                    totals[k] = totals.get(k, 0) + v
            aggregate[section] = totals
        shards = {}
        for label, r in by_label.items():
            if r.get("ok"):
                shards[label] = {
                    "ok": True,
                    "requests_total": r["server"].get("requests_total"),
                    "graphs": r["store"].get("graphs"),
                    "cache_entries": r["cache"].get("entries"),
                }
            else:
                shards[label] = {
                    "ok": False,
                    "message": r.get("message", "unreachable"),
                }
        return {
            "ok": True,
            "router": {
                "uptime_s": time.monotonic() - self._started_at,
                "shards": len(self._labels),
                "alive": len(alive),
                "connections": self._connections,
                "requests_total": self._requests_total,
                "forwarded": self._forwarded,
                "shard_errors": self._shard_errors,
                "miss_uploads": self._miss_uploads,
                "errors": self._errors,
            },
            **aggregate,
            "shards": shards,
        }

    async def _op_metrics(self, message: dict) -> dict:
        """Cluster-wide metric snapshot: every shard's registry, merged.

        Counters sum, histogram buckets sum (shards share bucket edges by
        construction — same code everywhere), so the merged snapshot reads
        exactly like one process's.  The router contributes its own
        registry (relay latency histograms).  Dead shards are reported in
        ``shards`` but do not fail the op — the union of the living is
        still the right answer for a dashboard.
        """
        responses = await asyncio.gather(
            *(
                self._forward(label, {"op": "metrics", "text": False})
                for label in self._labels
            )
        )
        snapshots = [self._metrics.snapshot()]
        processes = 1
        shards: dict[str, dict] = {}
        for label, r in zip(self._labels, responses):
            if r.get("ok") and isinstance(r.get("metrics"), dict):
                snapshots.append(r["metrics"])
                processes += int(r.get("processes") or 1)
                shards[label] = {"ok": True}
            else:
                shards[label] = {
                    "ok": False,
                    "message": r.get("message", "unreachable"),
                }
        merged = merge_snapshots(snapshots)
        response = {
            "ok": True,
            "metrics": merged,
            "processes": processes,
            "shards": shards,
        }
        if bool(message.get("text", True)):
            response["text"] = render_prometheus(merged)
        return response

    async def _op_shutdown(self, message: dict) -> dict:
        if self._owns_shards:
            await asyncio.gather(
                *(
                    self._forward(label, {"op": "shutdown"})
                    for label in self._labels
                )
            )
        return await super()._op_shutdown(message)

    _OPS = {
        **dict.fromkeys(_GRAPH_OPS, _route_graph_op),
        "hello": _traced(_op_hello),
        "upload": _traced(_op_upload),
        "stats": _traced(_op_stats),
        "metrics": _traced(_op_metrics),
        "shutdown": _traced(_op_shutdown),
    }


def router_background(shards, **kwargs):
    """A :class:`ClusterRouter` on a daemon thread, as a context manager.

    The router-side analogue of
    :func:`repro.serve.server.serve_background`; yields the started router
    with ``router.address`` bound.
    """
    return ClusterRouter(shards, **kwargs).in_background()
