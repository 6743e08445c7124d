"""Wire protocol of the decomposition service — JSON header + binary arrays.

Every message (either direction) is one *frame*: a 4-byte big-endian
unsigned length prefix followed by that many bytes of body.  Length
prefixing keeps the protocol trivial to implement in any language while
allowing graph uploads of hundreds of megabytes without line-buffering
pathologies; :data:`MAX_FRAME_BYTES` bounds what either side will accept.

A body is ``b"RPB2" | u32 header_len | header JSON | tail``: control
fields stay JSON in the header, but every NumPy array is hoisted out into
the binary *tail* and replaced in the header by an
``{"__nd__": [offset, nbytes], "dtype", "shape"}`` descriptor.  Offsets
are 8-byte aligned and relative to the tail start, so the receiver
materialises each array as an ``np.frombuffer`` view over the frame body
(zero copies), and a forwarding layer can rewrite the header without
touching the tail (:func:`peek_frame_fields`, :func:`restamp_frame`).
Uploads also downcast index arrays to the narrowest safe integer dtype
(:func:`compact_arrays`); the receiving constructor restores ``int64``,
so content digests are unchanged.  A text upload's serialised graph
travels the same way: its bytes are one ``uint8`` array (``payload``,
built by :func:`repro.serve.client.text_upload_message`), so the header
stays a few dozen bytes, decoding a frame on an event loop does no work
in the size of the text, and the parser receives the bytes as sent.

This layout is protocol generation 2 (:data:`PROTOCOL_VERSION`, which
``hello`` advertises), and it is the only one spoken.  Generation 1 sent
plain JSON bodies with base64 arrays; such a body (it starts with ``{``)
is answered once with :func:`framing_error_frame` — a plain-JSON error
frame an old peer can still read — and the connection is closed.  Every
other malformed body raises :class:`~repro.errors.ServeError`.

Requests are objects with an ``"op"`` key (``hello``, ``upload``,
``decompose``, ``stats``, ``shutdown``, …) and an optional ``"id"`` the
responder echoes back — the pipelining handle that lets
:class:`~repro.serve.aio_client.AsyncServeClient` keep many requests in
flight per connection.  Responses carry ``"ok": true`` plus op-specific
fields, or ``"ok": false`` with ``"error"`` (the server exception's type
name) and ``"message"``.

:func:`canonical_cache_key` defines the result-cache identity used by both
the memoizing cache and in-flight request coalescing; see DESIGN.md §7/§9
for the canonicalisation rules and the frame layout diagram.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Mapping

import numpy as np

from repro.errors import ServeError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "V2_MAGIC",
    "encode_frame",
    "decode_frame_payload",
    "peek_frame_fields",
    "restamp_frame",
    "framing_error_frame",
    "parse_frame_length",
    "read_frame_blocking",
    "as_array",
    "compact_arrays",
    "canonical_cache_key",
]

#: The protocol generation this build speaks; advertised in ``hello``.
PROTOCOL_VERSION = 2

#: Magic prefix of every frame body.
V2_MAGIC = b"RPB2"

#: Upper bound either side accepts for one frame (512 MiB — a ~20M-edge
#: JSON upload).  Oversized frames fail fast instead of OOMing the peer.
MAX_FRAME_BYTES = 512 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: Tail buffers start at multiples of this, so ``np.frombuffer`` views
#: are aligned for every dtype the library ships.
_ALIGN = 8

_V1_REMOVED = (
    "wire protocol v1 (plain JSON frames) was removed; this endpoint "
    f"speaks protocol v{PROTOCOL_VERSION} only, whose frame bodies start "
    f"with {V2_MAGIC!r} (see repro.serve.protocol)"
)


def _check_frame_size(nbytes: int) -> None:
    if nbytes > MAX_FRAME_BYTES:
        raise ServeError(
            f"frame of {nbytes} bytes exceeds the protocol maximum "
            f"({MAX_FRAME_BYTES}); ship large graphs through the chunked "
            "upload ops (upload_begin/upload_chunk/upload_commit — "
            "ServeClient.upload_chunked) instead of one frame"
        )


def _frame(header: bytes, tail) -> bytes:
    """A complete wire frame around a header and its tail buffers."""
    body_len = len(V2_MAGIC) + _LENGTH.size + len(header) + sum(
        len(part) for part in tail
    )
    _check_frame_size(body_len)
    return b"".join(
        (_LENGTH.pack(body_len), V2_MAGIC, _LENGTH.pack(len(header)),
         header, *tail)
    )


def encode_frame(message: Mapping, protocol: int = PROTOCOL_VERSION) -> bytes:
    """Serialise one message to its length-prefixed wire form.

    ``message`` may contain :class:`numpy.ndarray` values anywhere in its
    dict/list tree; each travels as a raw buffer in the binary tail.  The
    message itself is never mutated, so cached payload dicts holding
    arrays can be encoded for any number of responses.

    ``protocol`` exists only for callers that name the generation
    explicitly (the benchmark harness's layer replay calls
    ``encode_frame(message, 2)``); it accepts :data:`PROTOCOL_VERSION`
    and raises :class:`ServeError` for anything else.
    """
    if protocol != PROTOCOL_VERSION:
        raise ServeError(
            f"unknown protocol generation {protocol!r}; this build speaks "
            f"only v{PROTOCOL_VERSION}"
        )
    tail: list[bytes] = []
    offset = 0

    def _hoist(arr: np.ndarray) -> dict:
        nonlocal offset
        arr = np.ascontiguousarray(arr)
        dtype = arr.dtype.newbyteorder("<")
        raw = arr.astype(dtype, copy=False).tobytes()
        pad = (-offset) % _ALIGN
        if pad:
            tail.append(b"\x00" * pad)
            offset += pad
        descriptor = {
            "__nd__": [offset, len(raw)],
            "dtype": dtype.str,
            "shape": list(arr.shape),
        }
        tail.append(raw)
        offset += len(raw)
        return descriptor

    header = json.dumps(
        _transform(message, _hoist), separators=(",", ":")
    ).encode("utf-8")
    return _frame(header, tail)


def decode_frame_payload(body: bytes) -> dict:
    """Parse a frame body into a message object.

    Decodes the JSON header and materialises every ``__nd__`` descriptor
    as a read-only ``np.frombuffer`` view over ``body`` — zero-copy; the
    frame bytes stay alive as the arrays' base buffer.  Any malformed
    body raises :class:`ServeError`.
    """
    header, tail = _split(body)

    def _materialise(descriptor: Mapping) -> np.ndarray:
        try:
            offset, nbytes = (int(v) for v in descriptor["__nd__"])
            dtype = np.dtype(descriptor["dtype"])
            shape = tuple(int(s) for s in descriptor["shape"])
            if offset < 0 or nbytes < 0 or offset + nbytes > len(tail):
                raise ValueError(
                    f"buffer [{offset}, {offset + nbytes}) outside the "
                    f"{len(tail)}-byte tail"
                )
            if any(s < 0 for s in shape):
                raise ValueError(f"negative dimension in shape {shape}")
            return np.frombuffer(
                tail[offset : offset + nbytes], dtype=dtype
            ).reshape(shape)
        except (
            # np.dtype hands comma strings such as "<,8" to ast, which
            # raises SyntaxError on garbage.
            KeyError, TypeError, ValueError, OverflowError, SyntaxError
        ) as exc:
            raise ServeError(f"malformed array payload: {exc}") from None

    try:
        return _resolve(header, _materialise)
    except RecursionError:
        raise ServeError(
            "malformed frame body: header nested too deeply"
        ) from None


def _split(body: bytes) -> tuple[dict, memoryview]:
    """(control fields, binary tail) of a body.

    The header JSON is parsed but ``__nd__`` descriptors stay plain
    dicts and the tail is returned as an untouched view — the cheap half
    of a decode, shared by :func:`decode_frame_payload` (which then
    materialises arrays) and the relay helpers (which never do).
    """
    if body[: len(V2_MAGIC)] != V2_MAGIC:
        if body[:1] == b"{":
            raise ServeError(_V1_REMOVED)
        raise ServeError(
            f"malformed frame body: missing the {V2_MAGIC!r} magic"
        )
    fixed = len(V2_MAGIC) + _LENGTH.size
    if len(body) < fixed:
        raise ServeError("truncated v2 frame: missing header length")
    (header_len,) = _LENGTH.unpack_from(body, len(V2_MAGIC))
    tail_start = fixed + header_len
    if tail_start > len(body):
        raise ServeError(
            f"malformed v2 frame: header length {header_len} exceeds the "
            f"body ({len(body)} bytes)"
        )
    try:
        header = json.loads(body[fixed:tail_start].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers;
        # RecursionError a header nested deeper than the parser allows.
        raise ServeError(f"malformed frame body: {exc}") from None
    if not isinstance(header, dict):
        raise ServeError(
            f"frame header must be a JSON object, got {type(header).__name__}"
        )
    return header, memoryview(body)[tail_start:]


def peek_frame_fields(body: bytes) -> dict:
    """A frame body's control fields, with arrays left unmaterialised.

    Only the JSON header is parsed — ``__nd__`` descriptors stay plain
    dicts and the binary tail is never touched.  Forwarding layers use
    this to read routing fields (``id``, ``ok``, ``op``) off a frame they
    intend to relay verbatim.
    """
    return _split(body)[0]


def restamp_frame(body: bytes, updates: Mapping) -> bytes:
    """Re-frame a received body with top-level control fields changed.

    Returns a complete wire frame (length prefix included).  Only the JSON
    header is rewritten; the binary tail is spliced through untouched —
    array descriptors hold *tail-relative* offsets, so a header of
    different length cannot invalidate them.  An update value of ``None``
    removes the field.  This is the router's zero-decode relay path:
    retag a shard response (``id``, ``shard``) without materialising or
    re-encoding its arrays.
    """
    header, tail = _split(body)
    for key, value in updates.items():
        if value is None:
            header.pop(key, None)
        else:
            header[key] = value
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _frame(header_bytes, (tail,))


def framing_error_frame(message: str, body: bytes | None = None) -> bytes:
    """The one error frame answering a frame that could not be decoded.

    The endpoint closes the connection after writing it.  When ``body`` is
    a legacy generation-1 body (plain JSON, starting with ``{``) the same
    ``ok: false`` fields go out as a plain-JSON frame, the only kind such
    a peer can read; otherwise the frame is a normal one.
    """
    fields = {"ok": False, "error": "ServeError", "message": message}
    if body is not None and body[:1] == b"{":
        raw = json.dumps(fields, separators=(",", ":")).encode("utf-8")
        return _LENGTH.pack(len(raw)) + raw
    return encode_frame(fields)


def parse_frame_length(header: bytes) -> int:
    """Validate a 4-byte length prefix, returning the body size."""
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ServeError(
            f"peer announced a {length}-byte frame, exceeding the protocol "
            f"maximum ({MAX_FRAME_BYTES}); large graphs belong in the "
            "chunked upload ops (upload_begin/upload_chunk/upload_commit)"
        )
    return length


def read_frame_blocking(sock) -> dict | None:
    """Read one frame from a blocking socket; ``None`` on clean EOF."""
    header = _recv_exactly(sock, _LENGTH.size)
    if header is None:
        return None
    length = parse_frame_length(header)
    body = _recv_exactly(sock, length)
    if body is None:
        raise ServeError("connection closed mid-frame")
    return decode_frame_payload(body)


def _recv_exactly(sock, count: int) -> bytes | None:
    """``count`` bytes from ``sock``, ``None`` on EOF at a frame boundary."""
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            if not chunks:
                return None
            raise ServeError("connection closed mid-frame")
        chunks.extend(chunk)
    return bytes(chunks)


# ---------------------------------------------------------------------------
# message-tree transforms
# ---------------------------------------------------------------------------
def _transform(node, hoist):
    """Copy a message tree, replacing every ndarray via ``hoist``."""
    if isinstance(node, np.ndarray):
        return hoist(node)
    if isinstance(node, Mapping):
        return {key: _transform(value, hoist) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_transform(item, hoist) for item in node]
    return node


def _resolve(node, materialise):
    """Decode transform: ``__nd__`` descriptors become array views."""
    if isinstance(node, dict):
        if "__nd__" in node:
            return materialise(node)
        return {key: _resolve(value, materialise) for key, value in node.items()}
    if isinstance(node, list):
        return [_resolve(item, materialise) for item in node]
    return node


def as_array(obj) -> np.ndarray:
    """``obj`` if it is an ndarray, else :class:`ServeError`.

    Decoding already turns every descriptor into an ndarray; this guards
    fields that arrive from outside (upload arrays, chunk data, response
    arrays) against a peer that sent some other JSON value in their place.
    """
    if isinstance(obj, np.ndarray):
        return obj
    raise ServeError(
        f"expected an array payload, got {type(obj).__name__}"
    )


def compact_arrays(arrays: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Downcast integer arrays to the narrowest dtype holding their values.

    Transport-only: an upload receiver rebuilds the graph through its
    constructor, which restores the canonical ``int64`` vertex dtype, so
    the content digest is unchanged while index buffers shrink 2–4×.
    Floating arrays (weights) pass through untouched — bit-exactness there
    is the conformance contract.
    """
    out: dict[str, np.ndarray] = {}
    for name, arr in arrays.items():
        if arr.dtype.kind == "i" and arr.dtype.itemsize > 2:
            peak = int(arr.max()) if arr.size else 0
            low = int(arr.min()) if arr.size else 0
            for candidate in (np.int16, np.int32):
                info = np.iinfo(candidate)
                if info.min <= low and peak <= info.max:
                    arr = arr.astype(candidate)
                    break
        out[name] = arr
    return out


# ---------------------------------------------------------------------------
# cache identity
# ---------------------------------------------------------------------------
def canonical_cache_key(
    graph_digest: str,
    beta: float,
    method: str,
    seed: int,
    bound_options: Mapping[str, object],
    *,
    validate: bool = False,
    op: str = "decompose",
    extra: Mapping[str, object] | None = None,
) -> tuple:
    """The hashable identity of one decomposition-service request.

    Two requests share a cache entry (and coalesce while in flight) iff
    their keys are equal.  Canonicalisation applied by the server before
    calling this: ``method`` is the registry name after ``"auto"``
    resolution, and ``bound_options`` is ``MethodSpec.bind(options)`` —
    defaults *not* filled in, pinned values merged — so ``{}`` and an
    explicitly-passed default value are distinct keys (both are correct;
    they just memoize separately), while alias methods that pin options
    still key on their own method name.  ``validate`` joins the key
    because a validated run's summary carries the invariant report; the
    assignment arrays are identical either way.

    ``op`` namespaces the key per operation (``"decompose"``, or an
    application op such as ``"spanner"``/``"lowstretch_tree"``/
    ``"hierarchy"``), so a spanner and a raw decomposition of the same
    configuration never collide in the shared cache.  ``extra`` carries
    op-specific parameters that join the identity (e.g. the AKPW
    ``max_levels`` or the hierarchy ``beta_max``), canonicalised like the
    options mapping.
    """
    return (
        str(op),
        str(graph_digest),
        float(beta),
        str(method),
        int(seed),
        tuple(sorted((str(k), v) for k, v in bound_options.items())),
        bool(validate),
        tuple(sorted((str(k), v) for k, v in (extra or {}).items())),
    )
