"""`FrameService` — the frame-protocol endpoint the server and the router share.

A :class:`~repro.serve.server.DecompositionServer` and a
:class:`~repro.cluster.router.ClusterRouter` speak the same pipelined
frame protocol (:mod:`repro.serve.protocol`) and differ only in what they
do with a request.  This base owns everything else, once:

- the lifecycle: bind (``EADDRINUSE`` becomes a :class:`ServeError`),
  :meth:`~FrameService.start`, :meth:`~FrameService.run_async`,
  :meth:`~FrameService.request_shutdown`, :meth:`~FrameService.aclose`
  and the task registry that teardown drains;
- the idle-TTL watchdog: a live request task is activity, and
  :meth:`~FrameService._busy` adds a subclass's own (the server's
  in-flight executions, the router's pending relays);
- the frame loop: read, answer an oversized or malformed frame with one
  error frame and close, one task per request, one write lock per
  connection, and teardown that leaves no task or socket behind;
- the typed-error envelope around one ``_OPS`` lookup, and the
  ``connections``/``requests_total``/``errors`` counters;
- the background-thread runner (:meth:`~FrameService.in_background`).

A subclass supplies its resources (:meth:`~FrameService._open` and
:meth:`~FrameService._release`), its ``_OPS`` dispatch table, and
optionally :meth:`~FrameService._relay`, a hook the loop tries on a raw
body before it decodes one.
"""

from __future__ import annotations

import asyncio
import errno
import threading
import time
from contextlib import contextmanager

from repro.errors import ParameterError, ReproError, ServeError
from repro.serve.protocol import (
    decode_frame_payload,
    encode_frame,
    framing_error_frame,
    parse_frame_length,
)

__all__ = ["FrameService", "close_listener"]


async def close_listener(server: asyncio.AbstractServer) -> None:
    """Stop accepting, let the accepts in flight land, then close.

    Closing an ``asyncio`` server while an accepted socket is still being
    wrapped in its transport fails inside asyncio (``Server._attach``
    asserts on 3.11) and leaks that socket unclosed.  Taking the listening
    sockets off the loop first stops new accepts; three loop turns then
    carry each accept already in flight through transport creation,
    ``connection_made`` and its handler's first step, so the handler is
    registered for the caller's connection drain.
    """
    loop = asyncio.get_running_loop()
    for sock in server.sockets:
        loop.remove_reader(sock.fileno())
    for _ in range(3):
        await asyncio.sleep(0)
    server.close()
    await server.wait_closed()


class FrameService:
    """One frame-protocol endpoint: lifecycle, frame loop, error envelope.

    Subclasses set ``_OPS`` (op name → ``async (self, message) -> dict |
    bytes``) and ``_role`` (``"server"``, ``"router"``: it names the
    endpoint in errors and its background thread).
    """

    _OPS: dict = {}
    _role = "service"

    def __init__(
        self, *, host: str, port: int, idle_ttl: float | None
    ) -> None:
        if idle_ttl is not None and idle_ttl <= 0:
            raise ParameterError(f"idle_ttl must be > 0, got {idle_ttl}")
        self._host = host
        self._port = int(port)
        self._idle_ttl = idle_ttl
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        # Connection handlers and background tasks; request tasks live in
        # their own set, which the watchdog reads as activity.
        self._conn_tasks: set[asyncio.Task] = set()
        self._request_tasks: set[asyncio.Task] = set()
        self._started_at = time.monotonic()
        self._last_activity = time.monotonic()
        self.address: tuple[str, int] | None = None
        self._connections = 0
        self._requests_total = 0
        self._errors = 0

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    async def _open(self) -> None:
        """Acquire the subclass's resources, before the listener binds."""

    async def _release(self) -> None:
        """Release them: after the connections drained, or a failed start.

        Runs on partially opened state too, so each release is guarded.
        """

    def _busy(self) -> bool:
        """Activity beyond live request tasks that keeps the TTL at bay."""
        return False

    def _relay(self, body: bytes, writer) -> bool:
        """Answer a raw request body without decoding it; True = taken."""
        return False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Open the subclass's resources, bind the listener, arm the TTL."""
        if self._server is not None:
            raise ServeError(f"{self._role} is already started")
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self._open()
            try:
                self._server = await asyncio.start_server(
                    self._handle_connection, self._host, self._port
                )
            except OSError as exc:
                if exc.errno == errno.EADDRINUSE:
                    raise ServeError(
                        f"cannot listen on {self._host}:{self._port}: "
                        f"address already in use (is another server "
                        f"running there?)"
                    ) from None
                raise
        except BaseException:
            await self._release()
            raise
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        self._started_at = time.monotonic()
        self._touch()
        if self._idle_ttl is not None:
            self._spawn(self._ttl_watchdog())
        return self.address

    async def run_async(self, *, ready=None) -> None:
        """Start, signal ``ready``, serve until shutdown, then clean up.

        ``ready`` may be a :class:`threading.Event` (its ``set`` is called)
        or any zero-argument callable (the CLI prints the bound address);
        either fires after :attr:`address` is populated.
        """
        await self.start()
        if ready is not None:
            getattr(ready, "set", ready)()
        try:
            await self._stop_event.wait()
        finally:
            await self.aclose()

    def request_shutdown(self) -> None:
        """Ask the endpoint to stop; safe to call from any thread."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None:
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:  # loop already closed
            pass

    async def aclose(self) -> None:
        """Stop listening, drop connections, release the resources."""
        if self._stop_event is not None:
            self._stop_event.set()
        server, self._server = self._server, None
        if server is not None:
            await close_listener(server)
        tasks = self._conn_tasks | self._request_tasks
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._conn_tasks.clear()
        self._request_tasks.clear()
        await self._release()

    @contextmanager
    def in_background(self):
        """Run on a daemon thread for the ``with`` block; yields ``self``.

        Used by tests, benchmarks, and notebook sessions where the client
        lives in the same process.  On exit the endpoint is asked to shut
        down and the thread joined.
        """
        ready = threading.Event()
        failure: list[BaseException] = []

        def _runner() -> None:
            try:
                asyncio.run(self.run_async(ready=ready))
            except BaseException as exc:  # pragma: no cover - startup failure
                failure.append(exc)
            finally:
                ready.set()

        thread = threading.Thread(
            target=_runner, daemon=True, name=f"repro-{self._role}"
        )
        thread.start()
        ready.wait(timeout=60)
        if failure:
            raise failure[0]
        if self.address is None:
            raise ServeError(f"{self._role} failed to start")
        try:
            yield self
        finally:
            self.request_shutdown()
            thread.join(timeout=60)

    def _spawn(self, coro) -> asyncio.Task:
        """A background task that :meth:`aclose` cancels and awaits."""
        task = self._loop.create_task(coro)
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        return task

    # ------------------------------------------------------------------
    # idle watchdog
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        self._last_activity = time.monotonic()

    async def _ttl_watchdog(self) -> None:
        while not self._stop_event.is_set():
            if self._request_tasks or self._busy():
                # Work in progress is activity even when no frames arrive
                # — never shut down under a working client.
                self._touch()
            idle = time.monotonic() - self._last_activity
            if idle >= self._idle_ttl:
                self._stop_event.set()
                return
            await asyncio.sleep(
                max(0.05, min(self._idle_ttl - idle, self._idle_ttl / 4))
            )

    # ------------------------------------------------------------------
    # the frame loop
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        # Registered until the task is done, i.e. after its socket closed,
        # so aclose() waits out every handler's teardown.
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        self._connections += 1
        write_lock = asyncio.Lock()
        request_tasks: set[asyncio.Task] = set()

        async def _respond(message: dict) -> None:
            """Dispatch one request and write its response frame.

            Runs as its own task so a connection can have many requests in
            flight (pipelining) — responses come back as they complete,
            matched by the echoed ``id``.  Clients that do not pipeline
            never have more than one outstanding request, so they observe
            strict request/response order regardless.  A ``bytes``
            response is already a frame (a relayed shard answer).
            """
            response = await self._dispatch(message)
            if isinstance(response, (bytes, bytearray)):
                frame = response
            else:
                if "id" in message:
                    response["id"] = message["id"]
                try:
                    frame = encode_frame(response)
                except ServeError as exc:  # oversized response
                    frame = encode_frame(
                        {
                            "ok": False,
                            "error": "ServeError",
                            "message": str(exc),
                            **(
                                {"id": message["id"]}
                                if "id" in message
                                else {}
                            ),
                        }
                    )
            try:
                async with write_lock:
                    writer.write(frame)
                    await writer.drain()
            except ConnectionError:
                pass  # client hung up before reading its response

        try:
            while True:
                body = None
                try:
                    header = await reader.readexactly(4)
                    body = await reader.readexactly(parse_frame_length(header))
                    self._touch()
                    if self._relay(body, writer):
                        continue
                    message = decode_frame_payload(body)
                except asyncio.IncompleteReadError:
                    return  # client hung up at (or inside) a frame boundary
                except ServeError as exc:
                    # Oversized announcement or unparsable body: answer
                    # with an error frame, then drop the stream — after a
                    # framing violation it cannot be trusted.
                    async with write_lock:
                        writer.write(framing_error_frame(str(exc), body))
                        await writer.drain()
                    return
                request = self._loop.create_task(_respond(message))
                for registry in (request_tasks, self._request_tasks):
                    registry.add(request)
                    request.add_done_callback(registry.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            requests = list(request_tasks)
            for request in requests:
                request.cancel()
            writer.close()
            try:
                await asyncio.gather(*requests, return_exceptions=True)
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _dispatch(self, message: dict) -> dict | bytes:
        """Look the op up in ``_OPS`` and run it; errors become frames."""
        self._requests_total += 1
        op = message.get("op")
        # A non-string op (a list, say) is unhashable: unknown, not a crash.
        handler = self._OPS.get(op) if isinstance(op, str) else None
        try:
            if handler is None:
                raise ParameterError(
                    f"unknown op {op!r}; choices: {sorted(self._OPS)}"
                )
            return await handler(self, message)
        except ReproError as exc:
            self._errors += 1
            return {
                "ok": False,
                "error": type(exc).__name__,
                "message": str(exc),
            }
        except Exception as exc:  # pragma: no cover - defensive
            self._errors += 1
            return {
                "ok": False,
                "error": type(exc).__name__,
                "message": f"internal {self._role} error: {exc}",
            }

    async def _op_shutdown(self, message: dict) -> dict:
        # The response is written before the connection loop reads again;
        # run_async then tears everything down.
        self._stop_event.set()
        return {"ok": True, "stopping": True}
