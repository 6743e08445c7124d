"""`AsyncServeClient` — pooled, pipelined asyncio client for the service.

The sync :class:`~repro.serve.client.ServeClient` is one connection with
one outstanding request: simple, but a workload of independent requests
pays a full round trip each.  This client removes both serialisation
points:

- **pipelining** — every request carries a client-assigned ``id`` the
  server echoes; many requests ride one connection concurrently and
  responses are matched to awaiting futures as they arrive, in whatever
  order the server finishes them;
- **pooling** — up to ``pool_size`` connections are opened lazily and
  each call rides the least-loaded one, so a slow cold decomposition
  never blocks a stream of warm cache hits behind it.

The single-request operations — ``upload`` / ``decompose`` /
``spanner`` / ``lowstretch_tree`` / ``hierarchy`` / ``stats`` / … — are
the sync client's own, inherited from
:class:`~repro.serve.client.ServeOps`; here ``_request`` is a coroutine,
so each op returns an awaitable of the same result dataclass, and
conformance checks (`result_digest()`) are interchangeable across
clients.

Everything here must run on one event loop (the one that created the
client); the class is not thread-safe.  For blocking code, use
:class:`ServeClient`; for sharding across servers, see
:mod:`repro.cluster`.
"""

from __future__ import annotations

import asyncio

from repro.errors import ParameterError, ServeError
from repro.serve.client import ServeOps, check_response
from repro.serve.protocol import (
    decode_frame_payload,
    encode_frame,
    parse_frame_length,
    peek_frame_fields,
)
from repro.telemetry import trace as _trace

__all__ = ["AsyncServeClient"]


class _Connection:
    """One pipelined connection: id-keyed futures fed by a reader task."""

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        #: armed per-request timeout timers, keyed like ``_pending`` — so
        #: teardown can disarm them instead of leaving callbacks scheduled
        #: against a dead connection.
        self._timers: dict[int, asyncio.TimerHandle] = {}
        self._next_id = 0
        self._write_lock = asyncio.Lock()
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    # -- lifecycle -----------------------------------------------------
    @classmethod
    async def open(
        cls,
        host: str,
        port: int,
        *,
        timeout: float,
        connect_window: float,
    ) -> "_Connection":
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, float(connect_window))
        delay = 0.05
        while True:
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port), timeout
                )
                break
            except (OSError, asyncio.TimeoutError) as exc:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    raise ServeError(
                        f"cannot connect to decomposition server at "
                        f"{host}:{port}: {exc}"
                    ) from None
                await asyncio.sleep(min(delay, remaining))
                delay = min(delay * 2, 0.8)
        return cls(reader, writer)

    @staticmethod
    async def _read_frame_raw(reader) -> tuple[dict, bytes] | None:
        """(control fields, raw body) of the next frame; ``None`` on EOF.

        Arrays are *not* materialised — the reader loop only needs the
        ``id`` to route the response, and relay callers never decode at
        all.
        """
        try:
            header = await reader.readexactly(4)
        except asyncio.IncompleteReadError:
            return None
        length = parse_frame_length(header)
        body = await reader.readexactly(length)
        return peek_frame_fields(body), body

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def inflight(self) -> int:
        return len(self._pending)

    async def close(self) -> None:
        self._fail_pending(ServeError("connection closed"))
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (OSError, asyncio.CancelledError):
            pass

    # -- request/response ----------------------------------------------
    async def call(
        self, message: dict, timeout: float, *, raw: bool = False
    ) -> dict | tuple[dict, bytes]:
        if self._closed:
            raise ServeError("connection closed")
        request_id = self._next_id
        self._next_id += 1
        message = {**message, "id": request_id}
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                self._writer.write(encode_frame(message))
                await self._writer.drain()
        except (OSError, ConnectionError) as exc:
            self._pending.pop(request_id, None)
            self._closed = True
            raise ServeError(
                f"connection to server lost: {exc}"
            ) from None
        # A plain timer beats asyncio.wait_for here: no wrapper task per
        # request, and ids make a timeout non-fatal for the stream — the
        # future is dropped and the reader discards the late response.
        handle = loop.call_later(
            timeout, self._expire, request_id, message.get("op"), timeout
        )
        self._timers[request_id] = handle
        try:
            fields, body = await future
        finally:
            self._timers.pop(request_id, None)
            handle.cancel()
        if raw:
            return fields, body
        response = decode_frame_payload(body)
        response.pop("id", None)
        return response

    def _expire(self, request_id: int, op, timeout: float) -> None:
        self._timers.pop(request_id, None)
        future = self._pending.pop(request_id, None)
        if future is not None and not future.done():
            future.set_exception(ServeError(
                f"timed out after {timeout}s waiting for op {op!r}"
            ))

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await self._read_frame_raw(self._reader)
                if frame is None:
                    self._fail_pending(
                        ServeError("server closed the connection")
                    )
                    return
                fields, body = frame
                future = self._pending.pop(fields.get("id"), None)
                if future is not None:
                    if not future.done():
                        future.set_result((fields, body))
                elif not fields.get("ok", True):
                    # An un-addressed error frame is the server's framing
                    # complaint; it will drop the stream next, so every
                    # outstanding request is dead.
                    self._fail_pending(ServeError(
                        f"{fields.get('error', 'Error')}: "
                        f"{fields.get('message', 'server error')}"
                    ))
                    return
        except (OSError, ServeError, asyncio.IncompleteReadError) as exc:
            self._fail_pending(
                ServeError(f"connection to server lost: {exc}")
            )
        except asyncio.CancelledError:
            self._fail_pending(ServeError("connection closed"))
            raise
        finally:
            # A dead connection is dropped from the pool without close();
            # release its socket here.
            self._writer.close()

    def _fail_pending(self, exc: ServeError) -> None:
        self._closed = True
        # Disarm the per-request timeout timers with their futures: a
        # timer surviving teardown would fire `_expire` against a closed
        # connection (and pin the loop open until the latest deadline).
        timers, self._timers = self._timers, {}
        for handle in timers.values():
            handle.cancel()
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)


class AsyncServeClient(ServeOps):
    """Asyncio client with a connection pool and request pipelining.

    Parameters
    ----------
    host, port:
        Server address.
    timeout:
        Per-request seconds to wait for a response (and for a connect
        attempt).
    pool_size:
        Maximum connections to open; each call rides the least-loaded
        live connection, new ones are opened only while every existing
        connection is busy.
    connect_window:
        Seconds of exponential-backoff retry for refused connects
        (``0`` = single attempt).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 60.0,
        pool_size: int = 4,
        connect_window: float = 2.0,
    ) -> None:
        if pool_size < 1:
            raise ParameterError(
                f"pool_size must be >= 1, got {pool_size}"
            )
        self._host = host
        self._port = int(port)
        self._timeout = float(timeout)
        self._pool_size = int(pool_size)
        self._connect_window = float(connect_window)
        self._conns: list[_Connection] = []
        self._open_lock = asyncio.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # pool
    # ------------------------------------------------------------------
    async def _acquire(self) -> _Connection:
        """The least-loaded live connection, opening lazily up to the cap."""
        if self._closed:
            raise ServeError("client is closed")
        self._conns = [c for c in self._conns if not c.closed]
        idle = [c for c in self._conns if c.inflight == 0]
        if idle:
            return idle[0]
        if len(self._conns) < self._pool_size:
            async with self._open_lock:
                if self._closed:
                    raise ServeError("client is closed")
                if len(self._conns) < self._pool_size:
                    conn = await _Connection.open(
                        self._host,
                        self._port,
                        timeout=self._timeout,
                        connect_window=self._connect_window,
                    )
                    self._conns.append(conn)
                    return conn
        conns = [c for c in self._conns if not c.closed]
        if not conns:
            raise ServeError("no live connections")
        return min(conns, key=lambda c: c.inflight)

    async def _call(self, message: dict) -> dict:
        if not _trace.tracing_active():
            conn = await self._acquire()
            return check_response(await conn.call(message, self._timeout))
        # Same contract as the sync client: a client root span rides the
        # request header out, and the far side's spans are re-emitted
        # locally off the response.
        with _trace.span(
            f"client.{message.get('op', '?')}", op=message.get("op")
        ) as client_span:
            ctx = client_span.context()
            if ctx is not None:
                message = {**message, "trace": ctx}
            conn = await self._acquire()
            response = check_response(
                await conn.call(message, self._timeout)
            )
            remote = response.pop("spans", None)
            if remote:
                _trace.emit_spans(remote)
            return response

    async def call(self, message: dict, *, check: bool = True) -> dict:
        """Send a raw protocol message and return the response dict.

        With ``check=False`` an ``ok: false`` response is returned instead
        of raised — forwarding layers (the cluster router) relay server
        error frames verbatim while still seeing transport failures as
        :class:`ServeError`.
        """
        conn = await self._acquire()
        response = await conn.call(message, self._timeout)
        return check_response(response) if check else response

    async def call_raw(self, message: dict) -> tuple[dict, bytes]:
        """Relay variant of :meth:`call`: ``(fields, body)`` of the
        response — its control fields (arrays left as descriptors) and
        the raw frame body exactly as received.  Server error frames are
        returned, not raised (``fields`` carries ``ok``/``message``);
        transport failures raise :class:`ServeError`.  The cluster router
        uses this to restamp and splice responses through without ever
        materialising their arrays.
        """
        conn = await self._acquire()
        return await conn.call(message, self._timeout, raw=True)

    async def _request(self, message: dict, parse=None):
        response = await self._call(message)
        return response if parse is None else parse(response)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        self._closed = True
        conns, self._conns = self._conns, []
        for conn in conns:
            await conn.close()

    @property
    def closed(self) -> bool:
        return self._closed

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            f"{len(self._conns)} connection(s)"
        )
        return f"AsyncServeClient({state})"
