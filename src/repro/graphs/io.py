"""Graph serialisation: edge-list text, METIS, and JSON formats.

The formats cover the interchange needs of the benchmark harness (dumping
workloads for inspection), interoperability with standard graph tools
(METIS is the de-facto partitioning interchange format), and the upload
payloads of the decomposition service (:mod:`repro.serve`), which accepts
any of them and sniffs the format when the client does not say.

Every format round-trips both plain :class:`~repro.graphs.csr.CSRGraph`
and :class:`~repro.graphs.weighted.WeightedCSRGraph` instances:

- edge list — ``n m`` header, then ``u v`` (or ``u v w``) per edge; weights
  are written with 17 significant digits so ``float64`` survives the text
  round trip bit-for-bit (grammar below);
- METIS — 1-indexed adjacency lines; weighted graphs use the standard
  ``fmt=001`` edge-weight code (``nbr w`` pairs per line);
- JSON — ``{"num_vertices", "edges"[, "weights"]}``.

Malformed inputs raise :class:`~repro.errors.GraphError` carrying the
source name and the 1-based line number of the offending token — never a
raw ``ValueError`` from ``int()``/``float()``.

The edge-list byte grammar, as the block tokenizer reads it (in memory
and streaming alike):

- the input is ASCII; a byte at or above ``0x80`` is a ``GraphError``
  naming its line;
- lines end at ``\\n``, ``\\r\\n``, ``\\r``, ``\\v``, ``\\f`` or
  ``\\x1c``–``\\x1e`` — the ASCII line breaks of ``str.splitlines()``;
  the last line needs no break;
- tokens are separated by runs of ``str.split()`` whitespace (space, tab,
  ``\\x1f`` and the line breaks);
- a line with no tokens is blank, and a line whose first token starts with
  ``#`` or ``%`` is a comment; both are skipped.  A line that strips to
  exactly ``# weighted`` marks the list weighted (every row ``u v w``),
  which is how an edgeless weighted graph is written;
- the first remaining line is the header ``n m``; each later one is a row
  of ``u v`` (or ``u v w`` when marked, or when the first row has three
  tokens).  Ids and counts are read as ``int()`` reads them (so ``+3``,
  ``007`` and ``1_0`` are fine), weights as ``float()`` does.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import os
from pathlib import Path
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import GraphError, ParameterError
from repro.graphs.build import check_packable, drop_repeats, from_edges
from repro.graphs.csr import VERTEX_DTYPE, CSRGraph
from repro.graphs.weighted import WeightedCSRGraph, weighted_from_edges

__all__ = [
    "GRAPH_FORMATS",
    "format_for_path",
    "write_edge_list",
    "read_edge_list",
    "write_metis",
    "read_metis",
    "to_json",
    "from_json",
    "parse_graph",
    "load_graph",
    "stream_graph_to_mmap",
    "stream_edge_list_to_mmap",
    "stream_metis_to_mmap",
]

#: Format names accepted by :func:`parse_graph` / :func:`load_graph`.
GRAPH_FORMATS = ("edges", "metis", "json")

#: File extensions mapped to formats by ``load_graph(format="auto")``;
#: unknown extensions fall back to content sniffing.
_EXTENSION_FORMATS = {
    ".edges": "edges",
    ".el": "edges",
    ".txt": "edges",
    ".metis": "metis",
    ".graph": "metis",
    ".json": "json",
}

#: Repr that round-trips every float64 exactly through text.
_WEIGHT_FMT = "{:.17g}"

#: Comment marker flagging a weighted edge list with no edges — the one
#: case where no ``u v w`` row exists to carry the weightedness.
_WEIGHTED_MARKER = "# weighted"
_MARKER_BYTES = _WEIGHTED_MARKER.encode()


def format_for_path(path: str | Path) -> str:
    """The graph format a file extension implies, or ``"auto"``.

    The resolution :func:`load_graph` (and the serve client's
    ``upload_file``) applies before falling back to content sniffing.
    """
    return _EXTENSION_FORMATS.get(Path(path).suffix.lower(), "auto")


def _parse_int(token: str, *, source: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphError(
            f"{source}:{line_no}: {what} must be an integer, got {token!r}"
        ) from None


def _parse_float(token: str, *, source: str, line_no: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise GraphError(
            f"{source}:{line_no}: {what} must be a number, got {token!r}"
        ) from None


def _check_header_counts(
    n: int, m: int, *, source: str, line_no: int
) -> None:
    if n < 0:
        raise GraphError(
            f"{source}:{line_no}: vertex count must be >= 0, got {n}"
        )
    if m < 0:
        raise GraphError(
            f"{source}:{line_no}: edge count must be >= 0, got {m}"
        )


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------
def write_edge_list(graph: CSRGraph, path: str | Path) -> None:
    """Write ``n m`` header plus one ``u v`` (or ``u v w``) line per edge."""
    path = Path(path)
    edges = graph.edge_array()
    weights = (
        graph.edge_weight_array()
        if isinstance(graph, WeightedCSRGraph)
        else None
    )
    with path.open("w") as fh:
        fh.write(f"{graph.num_vertices} {graph.num_edges}\n")
        if weights is None:
            for u, v in edges:
                fh.write(f"{u} {v}\n")
        elif len(edges) == 0:
            # No `u v w` row will carry the weightedness; mark it.
            fh.write(f"{_WEIGHTED_MARKER}\n")
        else:
            for (u, v), w in zip(edges, weights):
                fh.write(f"{u} {v} {_WEIGHT_FMT.format(w)}\n")


def read_edge_list(path: str | Path) -> CSRGraph:
    """Read the format produced by :func:`write_edge_list`."""
    path = Path(path)
    return _parse_edge_list(path.read_bytes(), source=str(path))


#: Bytes per tokenizer block.  Blocks end just past a line break, so a
#: block exceeds this only by the line it would otherwise cut.
_BLOCK_BYTES = 1 << 18


def _in_range(arr: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``lo <= arr <= hi`` for ``uint8`` bytes, in one wrapping compare."""
    return (arr - np.uint8(lo)) <= hi - lo


def _is_break(arr: np.ndarray) -> np.ndarray:
    """``str.splitlines()`` line breaks within ASCII: ``\\n``, ``\\v``,
    ``\\f``, ``\\r`` and ``\\x1c``–``\\x1e`` (``\\r\\n`` is one break)."""
    return _in_range(arr, 0x0A, 0x0D) | _in_range(arr, 0x1C, 0x1E)


def _is_space(arr: np.ndarray) -> np.ndarray:
    """``str.split()`` whitespace within ASCII: tab, the line breaks,
    ``\\x1f`` and space."""
    return _in_range(arr, 0x09, 0x0D) | _in_range(arr, 0x1C, 0x20)


def _count_breaks(data: bytes) -> int:
    """Line breaks in ``data``, counted as :func:`_is_break` counts them
    (``\\r\\n`` is one break), one block of masks at a time."""
    arr = np.frombuffer(data, dtype=np.uint8)
    # memchr: most inputs hold no \r, and then no \r\n pair to discount.
    crlf = b"\r" in data
    count = 0
    for lo in range(0, arr.shape[0], _BLOCK_BYTES):
        # One byte of overlap sees a \r\n pair cut by the block boundary.
        win = arr[max(lo - 1, 0) : lo + _BLOCK_BYTES]
        brk = _is_break(win[1:] if lo else win)
        count += int(np.count_nonzero(brk))
        if crlf:
            count -= int(
                np.count_nonzero((win[1:] == 0x0A) & (win[:-1] == 0x0D))
            )
    return count


def _line_blocks(read):
    """Cut the bytes ``read(size)`` returns into blocks of whole lines.

    Only the last block may lack its final line break.  A ``\\r`` ending
    the bytes read so far never ends a block: its ``\\n`` may be unread.
    """
    buf = b""
    while True:
        chunk = read(_BLOCK_BYTES)
        if not chunk:
            if buf:
                yield buf
            return
        buf += chunk
        cut = buf.rfind(b"\n") + 1
        if not cut:
            ends = np.flatnonzero(_is_break(np.frombuffer(buf, np.uint8)[:-1]))
            cut = int(ends[-1]) + 1 if ends.size else 0
        if cut:
            yield buf[:cut]
            buf = buf[cut:]


@dataclass
class _Block:
    """One tokenized block of whole lines.

    Token ``i`` is ``data[starts[i]:ends[i]]``.  The block's rows are its
    non-blank, non-comment lines.
    """

    data: bytes
    starts: np.ndarray   # offset of every token, comment lines' too
    ends: np.ndarray     # one past the last byte of every token
    first: np.ndarray    # index of each row's first token
    ntok: np.ndarray     # tokens per row
    lines: np.ndarray    # 1-based line number of each row
    markers: np.ndarray  # 1-based line numbers of ``# weighted`` lines
    end_line: int        # line number the next block starts on

    @cached_property
    def tokens(self) -> list[str]:
        """Every token as a ``str``, for the ``int()``/``float()`` paths."""
        return self.data.decode("ascii").split()

    def text(self, i: int) -> str:
        return self.data[self.starts[i] : self.ends[i]].decode("ascii")


def _tokenize(
    data: bytes, line_no: int, source: str, *, check_ascii: bool = True
) -> _Block:
    """Tokenize a block of whole lines whose first line is ``line_no``.

    Line breaks, token bounds and per-line token counts come from numpy
    passes over ``uint8``/``bool`` arrays of the bytes; every array that
    is not per byte is per line or per token.  ``check_ascii=False`` is
    for callers that read only the line structure (markers, the header's
    token count) and must not reject other formats' text.
    """
    arr = np.frombuffer(data, dtype=np.uint8)
    brk = _is_break(arr)
    brk[1:] &= (arr[1:] != 0x0A) | (arr[:-1] != 0x0D)
    breaks = np.flatnonzero(brk)
    if check_ascii and not data.isascii():
        at = int(np.argmax(arr >= 0x80))
        raise GraphError(
            f"{source}:{line_no + int(np.searchsorted(breaks, at))}: "
            "non-ASCII byte in edge-list input"
        )
    space = _is_space(arr)
    head = ~space
    tail = head.copy()
    head[1:] &= space[:-1]
    tail[:-1] &= space[1:]
    starts = np.flatnonzero(head)
    ends = np.flatnonzero(tail) + 1
    # Line k starts after break k - 1; its tokens run up to line k + 1's.
    first = np.searchsorted(starts, np.concatenate(([0], breaks + 1)))
    ntok = np.diff(first, append=starts.shape[0])
    lines = line_no + np.flatnonzero(ntok)
    first = first[ntok > 0]
    ntok = ntok[ntok > 0]
    char = arr[starts[first]]
    comment = (char == ord("#")) | (char == ord("%"))
    # A marker line strips to exactly "# weighted".
    markers = [
        line
        for i, line in zip(
            first[comment & (ntok == 2)].tolist(),
            lines[comment & (ntok == 2)].tolist(),
        )
        if data[starts[i] : ends[i + 1]] == _MARKER_BYTES
    ]
    rows = ~comment
    return _Block(
        data, starts, ends, first[rows], ntok[rows], lines[rows],
        np.asarray(markers, dtype=np.int64), line_no + breaks.shape[0],
    )


def _tokenized(read, source: str, *, check_ascii: bool = True):
    """:func:`_tokenize` over every :func:`_line_blocks` block, in order."""
    line_no = 1
    for data in _line_blocks(read):
        blk = _tokenize(data, line_no, source, check_ascii=check_ascii)
        line_no = blk.end_line
        yield blk


def _edge_list_header(blocks, source: str, *, streaming: bool = False):
    """Parse the header row off the iterator ``blocks``.

    Returns ``(n, m, header line, body blocks)``; the body starts with the
    rest of the header's block.
    """
    for blk in blocks:
        if streaming and blk.markers.size and (
            not blk.lines.size or blk.markers[0] < blk.lines[0]
        ):
            raise _streaming_weighted_error(source, int(blk.markers[0]))
        if blk.lines.size:
            break
    else:
        raise GraphError(f"{source}: empty edge-list input")
    at = int(blk.first[0])
    header = [blk.text(i) for i in range(at, at + int(blk.ntok[0]))]
    header_no = int(blk.lines[0])
    if len(header) != 2:
        raise GraphError(
            f"{source}:{header_no}: bad edge-list header — expected "
            f"'n m', got {' '.join(header)!r}"
        )
    n = _parse_int(
        header[0], source=source, line_no=header_no, what="vertex count"
    )
    m = _parse_int(
        header[1], source=source, line_no=header_no, what="edge count"
    )
    _check_header_counts(n, m, source=source, line_no=header_no)
    rest = dataclasses.replace(
        blk, first=blk.first[1:], ntok=blk.ntok[1:], lines=blk.lines[1:]
    )
    return n, m, header_no, itertools.chain([rest], blocks)


def _digit_values(blk: _Block, idx: np.ndarray) -> np.ndarray | None:
    """Values of tokens ``idx`` if each is 1–18 ASCII digits, else ``None``.

    Such a token's value is below ``10**18 < 2**63``, so this ``int64``
    Horner pass equals ``int(token)``; every other token takes the
    ``int()``-semantics path.
    """
    ends = blk.ends[idx]
    lens = ends - blk.starts[idx]
    value = np.zeros(idx.shape[0], dtype=np.int64)
    width = int(lens.max()) if idx.size else 0
    if width > 18:
        return None
    arr = np.frombuffer(blk.data, dtype=np.uint8)
    # Right-aligned digit columns; positions before a token read as 0.
    for j in range(width, 0, -1):
        pos = ends - j
        digit = arr[np.maximum(pos, 0)] - np.uint8(ord("0"))
        digit[j > lens] = 0
        if (digit > 9).any():
            return None
        value *= 10
        value += digit
    return value


def _parse_columns(blk: _Block, stop: int, ncol: int, source: str):
    """Columns ``u, v[, w]`` of rows ``[0, stop)``: ``int64`` ids and
    ``float64`` weights with ``int()``/``float()`` semantics.  A bad token
    raises naming its line, in the order a row-by-row reader meets it."""
    idx = [blk.first[:stop] + k for k in range(ncol)]
    cols = [_digit_values(blk, i) for i in idx[:2]] + [None] * (ncol - 2)
    kinds = (np.int64, np.int64, np.float64)
    try:
        for k in range(ncol):
            if cols[k] is None:
                cols[k] = np.array(
                    list(map(blk.tokens.__getitem__, idx[k].tolist())),
                    dtype=kinds[k],
                )
        return cols
    except (ValueError, OverflowError):
        pass
    for r in range(stop):
        line_no = int(blk.lines[r])
        for k in range(ncol):
            token = blk.tokens[int(idx[k][r])]
            if k == 2:
                _parse_float(
                    token, source=source, line_no=line_no, what="edge weight"
                )
            elif not -(2**63) <= _parse_int(
                token, source=source, line_no=line_no, what="edge endpoint"
            ) < 2**63:
                raise GraphError(
                    f"{source}:{line_no}: edge endpoint out of range, "
                    f"got {token!r}"
                )
    raise GraphError(f"{source}: unparseable token")  # pragma: no cover


def _edge_rows(
    blocks,
    *,
    n: int,
    m: int,
    source: str,
    weighted: bool = False,
    streaming: bool = False,
):
    """Validate and parse edge-list body rows, one block at a time.

    Yields ``(u, v, w)`` per block; ``w`` is ``None`` unless the rows are
    ``u v w``.  Rows have three columns when ``weighted`` or when
    the first row has three tokens.  Faults raise in the order a
    row-by-row reader meets them: per row a surplus row, then a wrong
    column count, then a bad ``u``, ``v``, ``w`` token; after the last row
    a missing row.  ``streaming`` rejects ``u v w`` rows and ``# weighted``
    markers, and range-checks each block's endpoints by line.
    """
    count = 0
    ncol = 2 if streaming else 0
    for blk in blocks:
        rows = blk.lines.shape[0]
        marked = streaming and blk.markers.size
        if not rows and not marked:
            continue
        if not ncol:
            ncol = 3 if weighted or blk.ntok[0] == 3 else 2
        # The first structural fault decides how many rows are parsed.
        stop = min(rows, max(m - count, 0))
        wrong = np.flatnonzero(blk.ntok[:stop] != ncol)
        if wrong.size:
            stop = int(wrong[0])
        fault = None
        if stop < rows:
            line_no = int(blk.lines[stop])
            if count + stop >= m:
                fault = GraphError(
                    f"{source}:{line_no}: edge count mismatch — header "
                    f"says {m}, found more"
                )
            elif streaming and blk.ntok[stop] == 3:
                fault = _streaming_weighted_error(source, line_no)
            else:
                fault = GraphError(
                    f"{source}:{line_no}: expected {ncol} columns "
                    f"({'u v w' if ncol == 3 else 'u v'}), "
                    f"got {int(blk.ntok[stop])}"
                )
        if marked and (fault is None or blk.markers[0] < line_no):
            line_no = int(blk.markers[0])
            stop = int(np.searchsorted(blk.lines, line_no))
            fault = _streaming_weighted_error(source, line_no)
        u, v, *w = _parse_columns(blk, stop, ncol, source)
        if fault is not None:
            raise fault
        if streaming:
            _check_endpoints(u, v, blk.lines, n, source)
        yield u, v, (w[0] if w else None)
        count += rows
    if count != m:
        raise GraphError(
            f"{source}: edge count mismatch — header says {m}, "
            f"found {count}"
        )


def _parse_edge_list(data: bytes, *, source: str) -> CSRGraph:
    n, m, header_no, body = _edge_list_header(
        _tokenized(io.BytesIO(data).read, source), source
    )
    # m edges need m body lines; reject a header promising more than the
    # input can hold *before* sizing the allocation from it.
    max_lines = _count_breaks(data) + 1
    if m > max_lines:
        raise GraphError(
            f"{source}:{header_no}: header claims {m} edges but the "
            f"input has only {max_lines} lines"
        )
    # A marker anywhere makes every row "u v w"; the substring test spares
    # inputs that cannot hold one the second line-structure pass.
    weighted = _MARKER_BYTES in data and any(
        blk.markers.size
        for blk in _tokenized(io.BytesIO(data).read, source, check_ascii=False)
    )
    edges = np.empty((m, 2), dtype=VERTEX_DTYPE)
    weights = np.empty(m, dtype=np.float64) if weighted else None
    count = 0
    rows = _edge_rows(body, n=n, m=m, source=source, weighted=weighted)
    for u, v, w in rows:
        end = count + u.shape[0]
        edges[count:end, 0] = u
        edges[count:end, 1] = v
        if w is not None:
            if weights is None:
                weights = np.empty(m, dtype=np.float64)
            weights[count:end] = w
        count = end
    try:
        if weights is None:
            return from_edges(n, edges)
        return weighted_from_edges(n, edges, weights)
    except GraphError as exc:
        raise GraphError(f"{source}: {exc}") from None


# ---------------------------------------------------------------------------
# METIS format
# ---------------------------------------------------------------------------
def write_metis(graph: CSRGraph, path: str | Path) -> None:
    """Write METIS adjacency format (1-indexed, one line per vertex).

    Weighted graphs use the standard ``fmt=001`` header code and write
    ``neighbor weight`` pairs on each vertex line.
    """
    path = Path(path)
    weighted = isinstance(graph, WeightedCSRGraph)
    with path.open("w") as fh:
        fmt = " 001" if weighted else ""
        fh.write(f"{graph.num_vertices} {graph.num_edges}{fmt}\n")
        for v in range(graph.num_vertices):
            nbrs = graph.neighbors(v)
            if weighted:
                ws = graph.neighbor_weights(v)
                fh.write(
                    " ".join(
                        f"{int(nbr) + 1} {_WEIGHT_FMT.format(w)}"
                        for nbr, w in zip(nbrs, ws)
                    )
                )
            else:
                fh.write(" ".join(str(int(x) + 1) for x in nbrs))
            fh.write("\n")


def read_metis(path: str | Path) -> CSRGraph:
    """Read the METIS adjacency format (unweighted or ``fmt=001``)."""
    path = Path(path)
    return _parse_metis(_decode(path.read_bytes()), source=str(path))


def _parse_metis(text: str, *, source: str) -> CSRGraph:
    # METIS comments start with '%'.  Unlike the edge-list format, *blank*
    # body lines are meaningful — they are the adjacency of isolated
    # vertices — so the body iterates physical lines.
    physical = [
        (line_no, line.strip())
        for line_no, line in enumerate(text.splitlines(), start=1)
        if not line.strip().startswith("%")
    ]
    header_entry = next(
        ((no, line.split()) for no, line in physical if line), None
    )
    if header_entry is None:
        raise GraphError(f"{source}: empty METIS input")
    header_no, header = header_entry
    if len(header) < 2 or len(header) > 4:
        raise GraphError(
            f"{source}:{header_no}: bad METIS header — expected "
            f"'n m [fmt]', got {' '.join(header)!r}"
        )
    n = _parse_int(
        header[0], source=source, line_no=header_no, what="vertex count"
    )
    m = _parse_int(
        header[1], source=source, line_no=header_no, what="edge count"
    )
    _check_header_counts(n, m, source=source, line_no=header_no)
    fmt = header[2] if len(header) > 2 else "0"
    if fmt.lstrip("0") == "":
        weighted = False
    elif fmt.lstrip("0") == "1":
        weighted = True
    else:
        raise GraphError(
            f"{source}:{header_no}: unsupported METIS fmt code {fmt!r} — "
            "only unweighted (0) and edge-weighted (001) graphs are "
            "supported"
        )
    body = [
        (line_no, line.split())
        for line_no, line in physical
        if line_no > header_no
    ]
    # Trailing blank lines beyond the n vertex lines are tolerated (many
    # writers emit a final newline); non-blank extras are an error.
    while len(body) > n and not body[-1][1]:
        body.pop()
    if len(body) > n:
        raise GraphError(
            f"{source}:{body[n][0]}: more than {n} vertex lines"
        )
    if len(body) < n:
        raise GraphError(
            f"{source}: truncated METIS input — expected {n} vertex "
            f"lines, found {len(body)}"
        )
    src: list[int] = []
    dst: list[int] = []
    wts: list[float] = []
    for v, (line_no, tokens) in enumerate(body):
        if weighted:
            if len(tokens) % 2:
                raise GraphError(
                    f"{source}:{line_no}: weighted METIS vertex line must "
                    "hold (neighbor, weight) pairs — odd token count"
                )
            for i in range(0, len(tokens), 2):
                src.append(v)
                dst.append(
                    _parse_int(
                        tokens[i], source=source, line_no=line_no,
                        what="neighbor id",
                    ) - 1
                )
                wts.append(
                    _parse_float(
                        tokens[i + 1], source=source, line_no=line_no,
                        what="edge weight",
                    )
                )
        else:
            for tok in tokens:
                src.append(v)
                dst.append(
                    _parse_int(
                        tok, source=source, line_no=line_no,
                        what="neighbor id",
                    ) - 1
                )
    return _metis_from_arcs(
        n, m, np.asarray(src, dtype=VERTEX_DTYPE),
        np.asarray(dst, dtype=VERTEX_DTYPE),
        np.asarray(wts, dtype=np.float64) if weighted else None,
        source=source,
    )


def _metis_from_arcs(
    n: int,
    m: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None,
    *,
    source: str,
) -> CSRGraph:
    """Assemble and cross-check the arc soup a METIS body parses into."""
    if src.size:
        if dst.min() < 0 or dst.max() >= n:
            raise GraphError(
                f"{source}: neighbor id out of range 1..{n}"
            )
    if src.size % 2:
        raise GraphError(
            f"{source}: adjacency is not symmetric — odd arc count"
        )
    keys = np.minimum(src, dst) * n + np.maximum(src, dst)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    if not np.array_equal(sorted_keys[0::2], sorted_keys[1::2]):
        raise GraphError(
            f"{source}: adjacency is not symmetric — some edge is listed "
            "in only one direction"
        )
    if weights is not None:
        w_sorted = weights[order]
        if not np.allclose(w_sorted[0::2], w_sorted[1::2]):
            raise GraphError(
                f"{source}: arc weights are not symmetric"
            )
    keep = src < dst
    edges = np.stack([src[keep], dst[keep]], axis=1)
    try:
        if weights is None:
            graph: CSRGraph = from_edges(n, edges)
        else:
            graph = weighted_from_edges(n, edges, weights[keep])
    except GraphError as exc:
        raise GraphError(f"{source}: {exc}") from None
    if graph.num_edges != m:
        raise GraphError(
            f"{source}: METIS edge count mismatch — header says {m}, "
            f"parsed {graph.num_edges}"
        )
    return graph


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------
def to_json(graph: CSRGraph) -> str:
    """Serialise to a compact JSON document (used by the CLI and the
    decomposition service's upload payloads)."""
    doc: dict[str, object] = {
        "num_vertices": graph.num_vertices,
        "edges": graph.edge_array().tolist(),
    }
    if isinstance(graph, WeightedCSRGraph):
        doc["weights"] = graph.edge_weight_array().tolist()
    return json.dumps(doc)


def from_json(doc: str, *, source: str = "<json>") -> CSRGraph:
    """Inverse of :func:`to_json` (weighted when ``"weights"`` is present)."""
    try:
        obj = json.loads(doc)
    except json.JSONDecodeError as exc:
        # The decoder's message carries the line/column of the bad token.
        raise GraphError(f"{source}: invalid JSON — {exc}") from None
    if not isinstance(obj, dict):
        raise GraphError(
            f"{source}: expected a JSON object with 'num_vertices' and "
            f"'edges', got {type(obj).__name__}"
        )
    for key in ("num_vertices", "edges"):
        if key not in obj:
            raise GraphError(f"{source}: missing JSON key {key!r}")
    try:
        n = int(obj["num_vertices"])
        edges = np.asarray(obj["edges"], dtype=VERTEX_DTYPE).reshape(-1, 2)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"{source}: malformed JSON graph — {exc}") from None
    try:
        if "weights" not in obj:
            return from_edges(n, edges)
        weights = np.asarray(obj["weights"], dtype=np.float64)
        return weighted_from_edges(n, edges, weights)
    except (GraphError, TypeError, ValueError) as exc:
        raise GraphError(f"{source}: {exc}") from None


# ---------------------------------------------------------------------------
# unified entry points
# ---------------------------------------------------------------------------
def _graphs_identical(a: CSRGraph, b: CSRGraph) -> bool:
    """Equality including weights (CSRGraph.__eq__ is topology-only)."""
    if type(a) is not type(b) or a != b:
        return False
    if isinstance(a, WeightedCSRGraph):
        return bool(np.array_equal(a.weights, b.weights))
    return True


def _decode(data: bytes) -> str:
    """The text METIS and JSON read.  Undecodable bytes survive as
    surrogates, for the parsers to reject as bad tokens by line."""
    return data.decode("utf-8", "surrogateescape")


#: Each parser takes the input's bytes; only METIS and JSON decode them.
_PARSERS = {
    "edges": _parse_edge_list,
    "metis": lambda data, source: _parse_metis(_decode(data), source=source),
    "json": lambda data, source: from_json(_decode(data), source=source),
}

#: ``str.isspace()`` within ASCII: what ``str.lstrip()`` drops there.
_ASCII_SPACE = bytes(c for c in range(0x80) if chr(c).isspace())


def _starts_json(data: bytes) -> bool:
    """Whether ``data`` decoded and left-stripped starts with ``{``/``[``."""
    head = data.lstrip(_ASCII_SPACE)[:1]
    if head >= b"\x80":
        # Possibly Unicode whitespace: only decoding can tell.
        return _decode(data).lstrip().startswith(("{", "["))
    return head in (b"{", b"[")


def parse_graph(
    data: str | bytes, format: str = "auto", *, source: str = "<string>"
) -> CSRGraph:
    """Parse a graph from serialised ``data`` in any supported format.

    ``format="auto"`` sniffs: a document starting with ``{`` is JSON; a
    three-token ``n m fmt`` header is METIS; a two-token header is
    ambiguous — both remaining parsers run, and the call succeeds only
    when exactly one accepts the body (or both yield the *same* graph).
    Text valid as edge list **and** as a different METIS graph raises
    rather than guessing; pass an explicit ``format`` for such files.
    This is the parsing path behind :func:`load_graph` and the
    decomposition service's graph uploads.

    ``data`` is the input's bytes; the edge-list tokenizer reads them as
    they are, and only METIS and JSON decode them (UTF-8, an undecodable
    byte is a :class:`~repro.errors.GraphError` by line).  A ``str`` is
    encoded once, here.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    if format != "auto":
        if format not in _PARSERS:
            raise ParameterError(
                f"unknown graph format {format!r}; "
                f"choices: {sorted((*GRAPH_FORMATS, 'auto'))}"
            )
        return _PARSERS[format](data, source=source)
    if _starts_json(data):
        return _PARSERS["json"](data, source=source)
    header: list[str] = []
    for blk in _tokenized(io.BytesIO(data).read, source, check_ascii=False):
        if blk.lines.size:
            if blk.ntok[0] >= 3:  # the header's token count
                return _PARSERS["metis"](data, source=source)
            at = int(blk.first[0])
            header = [blk.text(i) for i in range(at, at + int(blk.ntok[0]))]
            break
    try:
        as_edges: CSRGraph | None = _parse_edge_list(data, source=source)
        edge_exc: GraphError | None = None
    except GraphError as exc:
        as_edges, edge_exc = None, exc
    as_metis: CSRGraph | None = None
    if as_edges is None or _metis_fits(header):
        try:
            as_metis = _PARSERS["metis"](data, source=source)
        except GraphError:
            pass
    if as_edges is not None and as_metis is not None:
        if _graphs_identical(as_edges, as_metis):
            return as_edges
        raise GraphError(
            f"{source}: ambiguous graph text — parses as both an edge "
            "list and a (different) METIS graph; pass format='edges' or "
            "format='metis' explicitly"
        )
    if as_edges is not None:
        return as_edges
    if as_metis is not None:
        return as_metis
    # The edge-list diagnosis names the first offending line; the METIS
    # reparse of a broken edge list rarely adds signal.
    raise GraphError(
        f"{source}: not parsable as any of {list(GRAPH_FORMATS)}; "
        f"edge-list parser said: {edge_exc}"
    ) from None


def _metis_fits(header: list[str]) -> bool:
    """Whether text that parsed as an edge list could be METIS too.

    The edge list had exactly ``m`` rows after its ``n m`` header, each a
    non-blank line that is no ``%`` comment.  METIS reads the same header
    (or fails on a ``#`` line before it), and each such row is one of its
    vertex lines, of which it allows ``n``: with ``m > n`` it must fail.
    """
    try:
        n, m = (int(token) for token in header)
    except ValueError:
        return True
    return m <= n


def load_graph(path: str | Path, format: str = "auto") -> CSRGraph:
    """Load a graph file, dispatching on ``format``, extension, or content.

    ``format="auto"`` first maps the file extension (``.edges``/``.el``/
    ``.txt`` → edge list, ``.metis``/``.graph`` → METIS, ``.json`` → JSON)
    and falls back to :func:`parse_graph`'s content sniffing for anything
    else.  Explicit ``format`` values bypass both.
    """
    path = Path(path)
    if format == "auto":
        format = format_for_path(path)
    elif format not in _PARSERS:
        raise ParameterError(
            f"unknown graph format {format!r}; "
            f"choices: {sorted((*GRAPH_FORMATS, 'auto'))}"
        )
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise GraphError(f"cannot read graph file {path}: {exc}") from None
    return parse_graph(data, format, source=str(path))


# ---------------------------------------------------------------------------
# streaming out-of-core ingest
# ---------------------------------------------------------------------------
# The streaming readers build ``indptr``/``indices`` *directly inside a
# memmap file* (the RGM1 format of :mod:`repro.graphs.mmapcsr`) via chunked
# counting-sort passes, so a graph whose text or CSR form exceeds RAM
# ingests with bounded resident memory:
#
#   edge list — pass A counts degrees per tokenizer block (the block
#   tokenizer of the in-memory parser, fed from the file in binary), a
#   chunked cumsum turns them into offsets, pass B re-streams the file and
#   scatters arcs through a per-vertex cursor file, pass C sorts + dedups
#   each row block-wise and compacts in place (write offset never passes
#   the read offset, so no second copy of ``indices`` exists);
#
#   METIS — adjacency rows arrive grouped by vertex, so arcs append in row
#   order in one pass, followed by the same sort/dedup/compact pass and a
#   chunked binary-search symmetry check.
#
# The result is bit-identical to the in-memory parsers (same digest): a
# row-local sort + dedup after a dup-tolerant counting sort yields exactly
# the sorted unique neighbour lists :func:`~repro.graphs.build.from_edges`
# produces.  Weighted inputs are rejected — parse those with
# :func:`load_graph`.

#: Parsed METIS rows per text chunk (bounds Python-object overhead).
_STREAM_CHUNK_LINES = 1 << 18
#: Arcs per in-RAM block in the sort/dedup/compact and cumsum passes.
_STREAM_CHUNK_ARCS = 1 << 22
#: First vertex count that no longer fits the int32 parse scratch.
_INT32_LIMIT = 2**31


def _id_dtype(num_vertices: int, *, limit: int = _INT32_LIMIT):
    """Scratch dtype for parsed vertex ids: int32 until ``n`` forces int64.

    ``limit`` exists for tests to force the promotion path on small
    graphs; the final CSR arrays are always ``VERTEX_DTYPE`` regardless.
    """
    return np.int32 if num_vertices < limit else np.int64


def _streaming_weighted_error(source: str, line_no: int) -> GraphError:
    return GraphError(
        f"{source}:{line_no}: weighted inputs are not supported by the "
        "streaming ingest — parse with load_graph() instead"
    )


def _open_binary(path: str):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise GraphError(f"cannot read graph file {path}: {exc}") from None


def _ids_from_tokens(
    tokens: list, line_nos, dtype, *, source: str, what: str
) -> np.ndarray:
    """Vectorised ``int(token)`` with a slow path that names the bad line."""
    try:
        return np.array(tokens, dtype=dtype)
    except (ValueError, OverflowError):
        pass
    if dtype is not np.int64:
        # Ids overflowing int32 still parse; the range check rejects them
        # (or accepts them, when the caller's n really is that large).
        try:
            return np.array(tokens, dtype=np.int64)
        except (ValueError, OverflowError):
            pass
    for tok, line_no in zip(tokens, np.asarray(line_nos).tolist()):
        _parse_int(tok, source=source, line_no=int(line_no), what=what)
    raise GraphError(f"{source}: unparseable integer token")  # pragma: no cover


def _check_endpoints(
    u: np.ndarray, v: np.ndarray, line_nos: np.ndarray, n: int, source: str
) -> None:
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        i = int(np.argmax(bad))
        raise GraphError(
            f"{source}:{int(line_nos[i])}: edge endpoint out of range "
            f"0..{n - 1}"
        )
    loops = u == v
    if loops.any():
        i = int(np.argmax(loops))
        raise GraphError(
            f"{source}:{int(line_nos[i])}: self-loops are not allowed"
        )


def _edge_chunks(source: str, n: int, m: int, dtype):
    """One pass over an edge-list file: validated ``(u, v)`` per block.

    Ids are range-checked before the cast to the ``dtype`` scratch.
    """
    with _open_binary(source) as fh:
        *_, body = _edge_list_header(
            _tokenized(fh.read, source), source, streaming=True
        )
        for u, v, _ in _edge_rows(
            body, n=n, m=m, source=source, streaming=True
        ):
            yield u.astype(dtype, copy=False), v.astype(dtype, copy=False)


def _rebuild_indptr(
    indptr_mm: np.ndarray, deg, n: int, chunk: int
) -> None:
    """Chunked exclusive cumsum of ``deg`` into ``indptr_mm`` (len n+1)."""
    indptr_mm[0] = 0
    running = 0
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        block = np.cumsum(deg[s:e], dtype=np.int64) + running
        indptr_mm[1 + s : 1 + e] = block
        running = int(block[-1])


def _sort_dedup_compact(
    indptr_mm: np.ndarray,
    indices_mm: np.ndarray,
    new_deg: np.ndarray,
    n: int,
    chunk_arcs: int,
) -> int:
    """Sort + dedup every adjacency row, compacting ``indices`` in place.

    Rows are processed in blocks of at most ``chunk_arcs`` arcs (a single
    over-budget row still forms its own block).  Compaction writes at an
    offset that never exceeds the block's read offset, and each block is
    copied to RAM first, so the pass needs no second ``indices`` file.
    Per-row surviving degrees land in ``new_deg``; returns total kept arcs.
    """
    write_pos = 0
    v0 = 0
    total = int(indptr_mm[n])
    while v0 < n:
        p0 = int(indptr_mm[v0])
        v1 = int(np.searchsorted(indptr_mm, p0 + chunk_arcs, side="right")) - 1
        v1 = min(max(v1, v0 + 1), n)
        p1 = int(indptr_mm[v1])
        # Packed (row, neighbour) keys: one sort orders and dedups rows.
        rowdeg = np.diff(indptr_mm[v0 : v1 + 1])
        keys = np.repeat(np.arange(v1 - v0, dtype=np.int64) * n, rowdeg)
        keys += indices_mm[p0:p1]
        keys.sort()
        srows, svals = np.divmod(drop_repeats(keys), n)
        kept = int(svals.shape[0])
        indices_mm[write_pos : write_pos + kept] = svals
        new_deg[v0:v1] = np.bincount(srows, minlength=v1 - v0)
        write_pos += kept
        v0 = v1
    assert write_pos <= total
    return write_pos


def _check_symmetry_mmap(
    indptr_mm: np.ndarray,
    indices_mm: np.ndarray,
    n: int,
    chunk_arcs: int,
    source: str,
) -> None:
    """Chunked symmetry check over sorted adjacency rows.

    For every arc ``v → u`` in a block, a vectorised binary search probes
    row ``u`` for ``v``; only the probed pages fault in, so the resident
    set stays bounded by the block size (plus evictable page cache).
    """
    total = int(indptr_mm[n])
    if total == 0:
        return
    v0 = 0
    while v0 < n:
        p0 = int(indptr_mm[v0])
        v1 = int(np.searchsorted(indptr_mm, p0 + chunk_arcs, side="right")) - 1
        v1 = min(max(v1, v0 + 1), n)
        p1 = int(indptr_mm[v1])
        dst = indices_mm[p0:p1].copy()
        rowdeg = np.diff(indptr_mm[v0 : v1 + 1])
        src = np.repeat(np.arange(v0, v1, dtype=np.int64), rowdeg)
        lo = indptr_mm[dst]
        hi = indptr_mm[dst + 1]
        ends = hi.copy()
        while True:
            active = lo < hi
            if not active.any():
                break
            mid = (lo + hi) >> 1
            vals = indices_mm[np.minimum(mid, total - 1)]
            go_right = active & (vals < src)
            lo = np.where(go_right, mid + 1, lo)
            hi = np.where(active & ~go_right, mid, hi)
        found = lo < ends
        probe = indices_mm[np.minimum(lo, total - 1)]
        ok = found & (probe == src)
        if not ok.all():
            raise GraphError(
                f"{source}: adjacency is not symmetric — some edge is "
                "listed in only one direction"
            )
        v0 = v1


def stream_edge_list_to_mmap(
    path: str | Path,
    out_path: str | Path,
    *,
    owns_file: bool = False,
    chunk_arcs: int = _STREAM_CHUNK_ARCS,
    id_limit: int = _INT32_LIMIT,
):
    """Stream an edge-list file into a memmap CSR (``RGM1``) at ``out_path``.

    Returns the opened :class:`~repro.graphs.mmapcsr.MmapCSR`; its graph is
    bit-identical (same :func:`~repro.serve.store.graph_digest`) to
    ``read_edge_list(path)`` without ever materialising the edge list in
    RAM.  The file is read in binary, through the block tokenizer the
    in-memory parser uses, and faults carry the same messages, except that
    an endpoint out of range or a self-loop names its line.  Weighted
    inputs raise — use :func:`load_graph` for those.
    """
    from repro.graphs.mmapcsr import MmapLayout

    source = str(path)
    with _open_binary(source) as fh:
        n, m, _, _ = _edge_list_header(
            _tokenized(fh.read, source), source, streaming=True
        )
    check_packable(n)  # the sort/dedup pass packs (row, neighbour) keys
    dtype = _id_dtype(n, limit=id_limit)
    layout = MmapLayout.create(
        str(out_path),
        CSRGraph,
        [("indptr", (n + 1,), VERTEX_DTYPE), ("indices", (2 * m,), VERTEX_DTYPE)],
    )
    cursor_path = f"{out_path}.cursors.tmp"
    try:
        views = layout.views
        indptr_mm = views["indptr"]
        indices_mm = views["indices"]
        # Pass A — count degrees into indptr[1:], then prefix-sum.
        deg = indptr_mm[1:]
        for u, v in _edge_chunks(source, n, m, dtype):
            np.add.at(deg, u, 1)
            np.add.at(deg, v, 1)
        _rebuild_indptr(indptr_mm, indptr_mm[1:], n, chunk_arcs)
        # Pass B — re-stream and scatter both arc directions through
        # per-vertex cursors kept in a scratch file.
        scratch = np.memmap(
            cursor_path, dtype=np.int64, mode="w+", shape=(max(n, 1),)
        )
        for s in range(0, n, chunk_arcs):
            e = min(s + chunk_arcs, n)
            scratch[s:e] = indptr_mm[s:e]
        for u, v in _edge_chunks(source, n, m, dtype):
            src = np.concatenate([u, v])
            dst = np.concatenate([v, u])
            order = np.argsort(src, kind="stable")
            ssrc = src[order]
            sdst = dst[order]
            uniq, start, cnt = np.unique(
                ssrc, return_index=True, return_counts=True
            )
            ranks = np.arange(ssrc.shape[0], dtype=np.int64) - np.repeat(
                start, cnt
            )
            indices_mm[scratch[ssrc] + ranks] = sdst
            scratch[uniq] += cnt
        # Pass C — per-row sort + dedup, compact, rebuild offsets.
        kept = _sort_dedup_compact(indptr_mm, indices_mm, scratch, n, chunk_arcs)
        _rebuild_indptr(indptr_mm, scratch, n, chunk_arcs)
        del deg, scratch, views, indptr_mm, indices_mm
        layout.shrink("indices", kept)
    except BaseException:
        layout.close()
        for leftover in (cursor_path, str(out_path)):
            try:
                os.unlink(leftover)
            except OSError:
                pass
        raise
    try:
        os.unlink(cursor_path)
    except OSError:  # pragma: no cover - scratch never created for n=0
        pass
    return layout.open_graph(owns_file=owns_file)


def _metis_physical_lines(path: str, source: str):
    """Yield ``(line_no, stripped_line)`` skipping ``%`` comments only."""
    try:
        fh = open(path, "r")
    except OSError as exc:
        raise GraphError(f"cannot read graph file {path}: {exc}") from None
    with fh:
        for line_no, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if stripped.startswith("%"):
                continue
            yield line_no, stripped


def stream_metis_to_mmap(
    path: str | Path,
    out_path: str | Path,
    *,
    owns_file: bool = False,
    chunk_lines: int = _STREAM_CHUNK_LINES,
    chunk_arcs: int = _STREAM_CHUNK_ARCS,
    id_limit: int = _INT32_LIMIT,
):
    """Stream a METIS adjacency file into a memmap CSR at ``out_path``.

    Adjacency rows arrive grouped by vertex, so arcs append in row order in
    a single pass; a block-wise sort/dedup pass and a chunked binary-search
    symmetry check replace the in-memory parser's whole-array checks.
    Result digest matches ``read_metis(path)``.  ``fmt=001`` (weighted)
    inputs raise — use :func:`load_graph` for those.
    """
    from repro.graphs.mmapcsr import MmapLayout

    source = str(path)
    lines = _metis_physical_lines(source, source)
    header_entry = next(
        ((no, line.split()) for no, line in lines if line), None
    )
    if header_entry is None:
        raise GraphError(f"{source}: empty METIS input")
    header_no, header = header_entry
    if len(header) < 2 or len(header) > 4:
        raise GraphError(
            f"{source}:{header_no}: bad METIS header — expected "
            f"'n m [fmt]', got {' '.join(header)!r}"
        )
    n = _parse_int(
        header[0], source=source, line_no=header_no, what="vertex count"
    )
    m = _parse_int(
        header[1], source=source, line_no=header_no, what="edge count"
    )
    _check_header_counts(n, m, source=source, line_no=header_no)
    fmt = header[2] if len(header) > 2 else "0"
    if fmt.lstrip("0") == "1":
        raise _streaming_weighted_error(source, header_no)
    if fmt.lstrip("0") != "":
        raise GraphError(
            f"{source}:{header_no}: unsupported METIS fmt code {fmt!r} — "
            "only unweighted (0) and edge-weighted (001) graphs are "
            "supported"
        )
    check_packable(n)  # the sort/dedup pass packs (row, neighbour) keys
    dtype = _id_dtype(n, limit=id_limit)
    layout = MmapLayout.create(
        str(out_path),
        CSRGraph,
        [("indptr", (n + 1,), VERTEX_DTYPE), ("indices", (2 * m,), VERTEX_DTYPE)],
    )
    scratch_path = f"{out_path}.degrees.tmp"
    try:
        views = layout.views
        indptr_mm = views["indptr"]
        indices_mm = views["indices"]
        arc_cap = 2 * m
        arc_ptr = 0
        vertex = 0
        row_tokens: list = []
        row_counts: list = []
        row_lines: list = []

        def _flush():
            nonlocal arc_ptr, vertex
            if not row_counts:
                return
            counts = np.asarray(row_counts, dtype=np.int64)
            repeated_lines = np.repeat(
                np.asarray(row_lines, dtype=np.int64), counts
            )
            ids = _ids_from_tokens(
                row_tokens, repeated_lines, dtype,
                source=source, what="neighbor id",
            )
            ids = ids - 1  # METIS is 1-indexed
            bad = (ids < 0) | (ids >= n)
            if bad.any():
                i = int(np.argmax(bad))
                raise GraphError(
                    f"{source}:{int(repeated_lines[i])}: neighbor id out "
                    f"of range 1..{n}"
                )
            row_of = np.repeat(
                np.arange(vertex, vertex + counts.shape[0], dtype=np.int64),
                counts,
            )
            loops = ids == row_of
            if loops.any():
                i = int(np.argmax(loops))
                raise GraphError(
                    f"{source}:{int(repeated_lines[i])}: self-loops are "
                    "not allowed"
                )
            if arc_ptr + ids.shape[0] > arc_cap:
                raise GraphError(
                    f"{source}: adjacency lists hold more than the "
                    f"{arc_cap} arcs the header admits"
                )
            indices_mm[arc_ptr : arc_ptr + ids.shape[0]] = ids
            offsets = arc_ptr + np.cumsum(counts)
            indptr_mm[vertex + 1 : vertex + 1 + counts.shape[0]] = offsets
            arc_ptr = int(offsets[-1])
            vertex += int(counts.shape[0])
            row_tokens.clear()
            row_counts.clear()
            row_lines.clear()

        body_rows = 0
        for line_no, stripped in lines:
            if body_rows >= n:
                if not stripped:
                    continue  # trailing blank lines are tolerated
                raise GraphError(
                    f"{source}:{line_no}: more than {n} vertex lines"
                )
            tokens = stripped.split()
            row_tokens.extend(tokens)
            row_counts.append(len(tokens))
            row_lines.append(line_no)
            body_rows += 1
            if len(row_counts) >= chunk_lines or len(row_tokens) >= chunk_lines * 4:
                _flush()
        _flush()
        if body_rows < n:
            raise GraphError(
                f"{source}: truncated METIS input — expected {n} vertex "
                f"lines, found {body_rows}"
            )
        scratch = np.memmap(
            scratch_path, dtype=np.int64, mode="w+", shape=(max(n, 1),)
        )
        kept = _sort_dedup_compact(indptr_mm, indices_mm, scratch, n, chunk_arcs)
        _rebuild_indptr(indptr_mm, scratch, n, chunk_arcs)
        if kept % 2 or kept // 2 != m:
            raise GraphError(
                f"{source}: METIS edge count mismatch — header says {m}, "
                f"parsed {kept // 2 if kept % 2 == 0 else kept / 2}"
            )
        _check_symmetry_mmap(indptr_mm, indices_mm, n, chunk_arcs, source)
        del scratch, views, indptr_mm, indices_mm
        layout.shrink("indices", kept)
    except BaseException:
        layout.close()
        for leftover in (scratch_path, str(out_path)):
            try:
                os.unlink(leftover)
            except OSError:
                pass
        raise
    try:
        os.unlink(scratch_path)
    except OSError:
        pass
    return layout.open_graph(owns_file=owns_file)


def stream_graph_to_mmap(
    path: str | Path,
    out_path: str | Path,
    format: str = "auto",
    *,
    owns_file: bool = False,
    chunk_lines: int = _STREAM_CHUNK_LINES,
    chunk_arcs: int = _STREAM_CHUNK_ARCS,
    id_limit: int = _INT32_LIMIT,
):
    """Stream a graph file into a memmap CSR, dispatching on format.

    The out-of-core counterpart of :func:`load_graph`: only the text
    formats with a streaming reader are supported (``edges``, ``metis``).
    ``format="auto"`` maps the file extension first and then sniffs the
    header: three or more header tokens mean METIS, two mean an edge list
    (files valid as both should pass an explicit ``format``, as the
    two-parser cross-check of :func:`parse_graph` would defeat streaming).
    ``chunk_lines`` bounds the METIS reader's rows per chunk; the edge-list
    reader works in fixed byte blocks.
    """
    source = str(path)
    if format == "auto":
        format = format_for_path(path)
    if format == "auto":
        lines = _metis_physical_lines(source, source)
        header_entry = next(
            (
                (no, line.split())
                for no, line in lines
                if line and not line.startswith("#")
            ),
            None,
        )
        lines.close()
        if header_entry is None:
            raise GraphError(f"{source}: empty graph input")
        format = "metis" if len(header_entry[1]) >= 3 else "edges"
    kwargs = dict(owns_file=owns_file, chunk_arcs=chunk_arcs, id_limit=id_limit)
    if format == "edges":
        return stream_edge_list_to_mmap(path, out_path, **kwargs)
    if format == "metis":
        return stream_metis_to_mmap(
            path, out_path, chunk_lines=chunk_lines, **kwargs
        )
    raise ParameterError(
        f"streaming ingest supports formats 'edges' and 'metis', "
        f"got {format!r}"
    )
