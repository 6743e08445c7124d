"""A per-line edge-list parser, kept as a test oracle for the block tokenizer.

This is the straightforward reading of the edge-list format: split the text
into lines with ``str.splitlines()``, skip blank and ``#``/``%`` comment
lines, and convert tokens with ``int()``/``float()`` one row at a time.
:func:`repro.graphs.io.parse_graph` must agree with it on every ASCII input:
the same graph (same digest) or a :class:`GraphError` with the same
message.  It is deliberately slow and never used outside the tests.

The header sanity bound counts lines as ``str.splitlines()`` does (every
ASCII line break, ``\\r\\n`` once), so inputs with ``\\r`` or ``\\v`` line
ends are not mistaken for one-line inputs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graphs.build import from_edges
from repro.graphs.csr import VERTEX_DTYPE, CSRGraph
from repro.graphs.weighted import weighted_from_edges

WEIGHTED_MARKER = "# weighted"


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


def _data_lines(text: str):
    """Yield ``(line_no, tokens)`` for non-blank, non-comment lines."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "%")):
            continue
        yield line_no, stripped.split()


def parse_edge_list_oracle(text: str, *, source: str) -> CSRGraph:
    lines = _data_lines(text)
    try:
        header_no, header = next(lines)
    except StopIteration:
        raise GraphError(f"{source}: empty edge-list input") from None
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
    if n < 0:
        raise GraphError(
            f"{source}:{header_no}: vertex count must be >= 0, got {n}"
        )
    if m < 0:
        raise GraphError(
            f"{source}:{header_no}: edge count must be >= 0, got {m}"
        )
    # Breaks + 1: the appended "x" keeps a trailing break's empty line.
    max_lines = len((text + "x").splitlines())
    if m > max_lines:
        raise GraphError(
            f"{source}:{header_no}: header claims {m} edges but the "
            f"input has only {max_lines} lines"
        )
    edges = np.zeros((m, 2), dtype=VERTEX_DTYPE)
    weights = None
    if any(line.strip() == WEIGHTED_MARKER for line in text.splitlines()):
        weights = np.zeros(m, dtype=np.float64)
    count = 0
    for line_no, tokens in lines:
        if count >= m:
            raise GraphError(
                f"{source}:{line_no}: edge count mismatch — header says "
                f"{m}, found more"
            )
        if len(tokens) == 3 and weights is None and count == 0:
            weights = np.zeros(m, dtype=np.float64)
        expected = 2 if weights is None else 3
        if len(tokens) != expected:
            raise GraphError(
                f"{source}:{line_no}: expected {expected} columns "
                f"({'u v w' if expected == 3 else 'u v'}), got {len(tokens)}"
            )
        edges[count, 0] = _parse_int(
            tokens[0], source=source, line_no=line_no, what="edge endpoint"
        )
        edges[count, 1] = _parse_int(
            tokens[1], source=source, line_no=line_no, what="edge endpoint"
        )
        if weights is not None:
            weights[count] = _parse_float(
                tokens[2], source=source, line_no=line_no, what="edge weight"
            )
        count += 1
    if count != m:
        raise GraphError(
            f"{source}: edge count mismatch — header says {m}, "
            f"found {count}"
        )
    try:
        if weights is None:
            return from_edges(n, edges)
        return weighted_from_edges(n, edges, weights)
    except GraphError as exc:
        raise GraphError(f"{source}: {exc}") from None
