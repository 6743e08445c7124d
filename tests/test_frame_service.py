"""Tests for the frame service both endpoints share (repro.serve.service).

A :class:`DecompositionServer` and a :class:`ClusterRouter` run one frame
loop, one lifecycle, one error envelope and one idle watchdog, so every
framing case here runs against both: an oversized announcement, a
non-v2 body, a client that hangs up mid-frame, the typed errors, and
the one wire form of a text upload (its bytes in the binary tail).
The router's idle TTL is checked against a fake shard that answers later
than the TTL, on the relay plane and on the task path.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cluster import router_background
from repro.errors import GraphError, ServeError
from repro.graphs.generators import erdos_renyi, grid_2d
from repro.graphs.io import (
    load_graph,
    parse_graph,
    to_json,
    write_edge_list,
    write_metis,
)
from repro.graphs.weighted import weights_by_name
from repro.serve import (
    DecompositionServer,
    ServeClient,
    graph_digest,
    serve_background,
)
from repro.serve.client import text_upload_message
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    decode_frame_payload,
    encode_frame,
    parse_frame_length,
    read_frame_blocking,
)

OPS = [
    "decompose", "discard", "hello", "hierarchy", "lowstretch_tree",
    "metrics", "shutdown", "spanner", "stats", "upload", "upload_abort",
    "upload_begin", "upload_chunk", "upload_commit",
]


@pytest.fixture(scope="module")
def services():
    """A server, and a router whose one shard is that server."""
    with serve_background([grid_2d(8, 8)], max_workers=1) as server:
        with router_background([server.address]) as router:
            yield {"server": server, "router": router}


@pytest.fixture(params=["server", "router"])
def endpoint(request, services):
    return services[request.param]


def _read_raw_frame(sock) -> bytes | None:
    stream = sock.makefile("rb")
    header = stream.read(4)
    if not header:
        return None
    return stream.read(parse_frame_length(header))


def _wait_for(predicate, what: str, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(0.02)


def _on_loop(endpoint, fn):
    """``fn()`` evaluated on the endpoint's event loop thread."""

    async def call():
        return fn()

    return asyncio.run_coroutine_threadsafe(call(), endpoint._loop).result(10)


def _handlers(endpoint) -> set:
    """The endpoint's live connection-handler tasks."""
    return _on_loop(endpoint, lambda: {
        task for task in endpoint._conn_tasks
        if task.get_coro().__name__ == "_handle_connection"
    })


def _wait_until_refused(address) -> None:
    def refused() -> bool:
        try:
            ServeClient(*address, timeout=1.0, connect_window=0).close()
        except ServeError:
            return True
        return False

    _wait_for(refused, "the idle endpoint to stop")


# ---------------------------------------------------------------------------
# framing, on both endpoints
# ---------------------------------------------------------------------------
def test_oversized_frame_announcement_gets_error_frame(endpoint):
    """A header announcing a too-large frame is answered with an ok:false
    frame before the endpoint drops the stream — not an abrupt close plus
    an unhandled task exception."""
    with socket.create_connection(endpoint.address, timeout=10) as sock:
        sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        response = read_frame_blocking(sock)
        assert response is not None
        assert response["ok"] is False
        assert "maximum" in response["message"]
        # The stream is then closed by the endpoint.
        assert read_frame_blocking(sock) is None


@pytest.mark.parametrize(
    "body, plain_json",
    [(b'{"op":"hello"}', True), (b"hello there", False)],
    ids=["v1-json", "garbage"],
)
def test_refuses_non_v2_bodies_once(endpoint, body, plain_json):
    """A legacy v1 body gets one plain-JSON refusal naming v2; other
    non-frames get the malformed-frame error.  Either way the endpoint
    closes that connection and keeps serving others."""
    with socket.create_connection(endpoint.address, timeout=10) as sock:
        sock.sendall(struct.pack(">I", len(body)) + body)
        stream = sock.makefile("rb")
        reply = stream.read(parse_frame_length(stream.read(4)))
        assert stream.read(1) == b""  # one reply, then closed
    if plain_json:
        response = json.loads(reply)
        assert "v1" in response["message"]
        assert "removed" in response["message"]
        assert "v2" in response["message"]
    else:
        response = decode_frame_payload(reply)
        assert "malformed frame" in response["message"]
    assert response["ok"] is False and response["error"] == "ServeError"
    with ServeClient(*endpoint.address) as client:
        assert client.stats()["ok"]


@pytest.mark.parametrize(
    "tail",
    [
        b"\x00\x00",  # inside the length prefix
        struct.pack(">I", 100) + b"RPB2\x00",  # inside a body
        encode_frame({"op": "stats", "id": 1}) + b"\x00\x00\x01",
    ],
    ids=["in-header", "in-body", "after-a-request"],
)
def test_hangup_mid_frame_leaves_nothing_behind(endpoint, tail):
    """A client that hangs up inside a frame ends its connection handler:
    no handler task, no request task and no socket stays behind (the
    handler finishes only after its socket closed), and the endpoint
    keeps serving."""
    before = _handlers(endpoint)
    with socket.create_connection(endpoint.address, timeout=10) as sock:
        sock.sendall(tail)
        _wait_for(lambda: _handlers(endpoint) - before, "the connection")
        (mine,) = _handlers(endpoint) - before
    _wait_for(mine.done, "the handler to finish")
    _wait_for(
        lambda: not _on_loop(endpoint, lambda: len(endpoint._request_tasks)),
        "the request tasks to finish",
    )
    with ServeClient(*endpoint.address) as client:
        assert client.stats()["ok"]


def test_failed_bind_releases_what_start_opened():
    """A start that cannot bind raises the typed error and releases the
    resources it opened first: the pool and the upload spool directory."""
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        server = DecompositionServer(port=taken.getsockname()[1], max_workers=1)
        with pytest.raises(ServeError, match="address already in use"):
            asyncio.run(server.run_async())
    assert server._pool is None
    assert server._spool_dir is None


# ---------------------------------------------------------------------------
# the error envelope, byte for byte on both endpoints
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "request_fields, answer",
    [
        (
            {"op": "warp", "id": 8},
            {
                "ok": False,
                "error": "ParameterError",
                "message": f"unknown op 'warp'; choices: {OPS}",
                "id": 8,
            },
        ),
        (
            # An unhashable op is an unknown op too, not a dead request.
            {"op": ["warp"]},
            {
                "ok": False,
                "error": "ParameterError",
                "message": f"unknown op ['warp']; choices: {OPS}",
            },
        ),
    ],
    ids=["unknown-op", "unhashable-op"],
)
def test_error_envelope_frames(endpoint, request_fields, answer):
    with socket.create_connection(endpoint.address, timeout=10) as sock:
        sock.sendall(encode_frame(request_fields))
        reply = _read_raw_frame(sock)
    assert struct.pack(">I", len(reply)) + reply == encode_frame(answer)


# ---------------------------------------------------------------------------
# text uploads travel as bytes, on both endpoints
# ---------------------------------------------------------------------------
def _serialised(graph, fmt: str, tmp_path) -> bytes:
    """``graph`` in ``fmt``, as the bytes a file of it holds."""
    if fmt == "json":
        return to_json(graph).encode()
    path = tmp_path / f"g.{fmt}"
    (write_edge_list if fmt == "edges" else write_metis)(graph, path)
    return path.read_bytes()


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("fmt", ["edges", "metis", "json", "auto"])
def test_text_upload_bytes_give_the_graph_digest(
    endpoint, fmt, weighted, tmp_path
):
    graph = erdos_renyi(40, 0.15, seed=12)
    if weighted:
        graph = weights_by_name(graph, "uniform:0.5,2.0", seed=12)
    data = _serialised(graph, "edges" if fmt == "auto" else fmt, tmp_path)
    with ServeClient(*endpoint.address) as client:
        response = client.upload_text(data, fmt)
    assert response["digest"] == graph_digest(graph)
    assert response["weighted"] is weighted


@pytest.mark.parametrize(
    "payload",
    ["3 1\n0 1\n", np.array([51, 32, 49], dtype=np.int64)],
    ids=["str", "int64-array"],
)
def test_text_upload_needs_the_byte_form(endpoint, payload):
    """The text's bytes are the only text wire form: a JSON string or an
    array of another dtype is a typed ParameterError."""
    message = {"op": "upload", "format": "edges", "payload": payload}
    with ServeClient(*endpoint.address) as client:
        with pytest.raises(
            ServeError, match=r"^ParameterError: upload needs 'payload'.*uint8"
        ):
            client._call(message)
        assert client.stats()["ok"]


@pytest.mark.parametrize(
    "fmt, data",
    [
        ("edges", b"3 2\n0 1\n1 \xff2\n"),
        ("metis", b"3 2\n2\n1 \xff3\n2\n"),
        ("json", b'{"num_vertices": 3, "edges": [[0, 1], [1, \xff2]]}'),
        ("json", b'{"num_vertices": "3\xff", "edges": [[0, 1]]}'),
        ("auto", b"3 2\n0 1\n1 \xff2\n"),
    ],
    ids=["edges", "metis", "json-token", "json-string", "auto"],
)
def test_invalid_utf8_upload_is_a_graph_error(endpoint, fmt, data):
    """A byte that is no UTF-8 gets the parser's GraphError naming it —
    the message a local parse of the same bytes gives — never a decode
    failure."""
    source = f"<upload:{fmt}>"
    with pytest.raises(GraphError) as local:
        parse_graph(data, fmt, source=source)
    with ServeClient(*endpoint.address) as client:
        with pytest.raises(ServeError) as served:
            client.upload_text(data, fmt)
    assert str(served.value) == f"GraphError: {local.value}"
    assert source in str(served.value)


def test_upload_file_sends_the_file_bytes(endpoint, tmp_path):
    """A file that is no UTF-8 reaches the server byte for byte and gets
    the line-numbered GraphError ``load_graph`` gives for it."""
    path = tmp_path / "bad.edges"
    path.write_bytes(b"3 2\n0 1\n1 \xff2\n")
    with pytest.raises(GraphError, match=r":3: non-ASCII byte"):
        load_graph(path)
    with ServeClient(*endpoint.address) as client:
        with pytest.raises(
            ServeError, match=r"^GraphError: <upload:edges>:3: non-ASCII byte"
        ):
            client.upload_file(path)


# ---------------------------------------------------------------------------
# the router's idle TTL spares requests it is still serving
# ---------------------------------------------------------------------------
@contextmanager
def _slow_shard():
    """A fake shard that answers each request after its ``delay`` field.

    Yields its ``(host, port)``.  Requests are answered concurrently, each
    with ``{"ok": true, "seed": <the request's seed>}`` under its ``id``.
    """
    state: dict = {}
    ready = threading.Event()

    async def serve_conn(reader, writer):
        answers: set[asyncio.Task] = set()

        async def answer(message):
            await asyncio.sleep(message.get("delay", 0))
            writer.write(encode_frame(
                {"ok": True, "seed": message.get("seed"),
                 "id": message["id"]}
            ))

        try:
            while True:
                header = await reader.readexactly(4)
                message = decode_frame_payload(
                    await reader.readexactly(parse_frame_length(header))
                )
                task = asyncio.ensure_future(answer(message))
                answers.add(task)
                task.add_done_callback(answers.discard)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            for task in answers:
                task.cancel()
            writer.close()

    async def main():
        server = await asyncio.start_server(serve_conn, "127.0.0.1", 0)
        state["loop"] = asyncio.get_running_loop()
        state["stop"] = asyncio.Event()
        state["address"] = server.sockets[0].getsockname()[:2]
        ready.set()
        async with server:
            await state["stop"].wait()

    thread = threading.Thread(target=asyncio.run, args=(main(),))
    thread.start()
    assert ready.wait(10)
    try:
        yield state["address"]
    finally:
        state["loop"].call_soon_threadsafe(state["stop"].set)
        thread.join(timeout=10)
        assert not thread.is_alive()


TTL = 0.3
SLOW = 1.0  # > 3 TTL periods without a frame
DIGEST = "ab" * 32


def _relayed(router) -> int:
    return sum(channel._next_id for channel in router._relays.values())


@pytest.mark.parametrize("plane", ["relay", "task"])
def test_router_ttl_spares_requests_in_progress(plane):
    with _slow_shard() as shard:
        with router_background([shard], idle_ttl=TTL) as router:
            with ServeClient(*router.address, timeout=10) as client:
                request = {"op": "decompose", "digest": DIGEST}
                if plane == "relay":
                    # The first request finds the channel cold and takes
                    # the task path while the channel connects.
                    _wait_for(
                        lambda: client._call({**request, "seed": 0})["ok"]
                        and _relayed(router) > 0,
                        "the relay channel",
                    )
                else:
                    # An inline graph keeps a graph op off the relay.
                    request["graph"] = text_upload_message("0 1\n")
                relayed = _relayed(router)
                response = client._call({**request, "seed": 7, "delay": SLOW})
                assert response["ok"] and response["seed"] == 7
                assert (_relayed(router) > relayed) == (plane == "relay")
            # Idle again, the router still honours its TTL.
            _wait_until_refused(router.address)
