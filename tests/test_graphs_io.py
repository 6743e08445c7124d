"""Round-trip tests for graph serialisation."""

from __future__ import annotations

import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, ParameterError
from repro.graphs import io as graphs_io
from repro.graphs.build import from_edges
from repro.graphs.generators import erdos_renyi, grid_2d, path_graph
from repro.graphs.io import (
    from_json,
    load_graph,
    parse_graph,
    read_edge_list,
    read_metis,
    stream_edge_list_to_mmap,
    to_json,
    write_edge_list,
    write_metis,
)
from repro.graphs.weighted import WeightedCSRGraph, weights_by_name
from repro.serve.store import graph_digest

from tests.edge_list_oracle import parse_edge_list_oracle


def weighted_fixture() -> WeightedCSRGraph:
    """A weighted graph with irrational-ish float64 weights — the round
    trips below must preserve them bit-for-bit."""
    return weights_by_name(erdos_renyi(30, 0.15, seed=7), "exp:1.3", seed=11)


def assert_weighted_equal(a: WeightedCSRGraph, b: WeightedCSRGraph) -> None:
    assert isinstance(a, WeightedCSRGraph)
    assert a == b  # topology
    np.testing.assert_array_equal(a.weights, b.weights)  # exact, not close


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        g = grid_2d(5, 7)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_round_trip_edgeless(self, tmp_path):
        g = from_edges(4, [])
        path = tmp_path / "empty.edges"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.num_vertices == 4 and back.num_edges == 0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("garbage\n")
        with pytest.raises(GraphError, match="header"):
            read_edge_list(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "short.edges"
        path.write_text("3 2\n0 1\n")
        with pytest.raises(GraphError, match="mismatch"):
            read_edge_list(path)


class TestMetis:
    def test_round_trip(self, tmp_path):
        g = erdos_renyi(40, 0.1, seed=2)
        path = tmp_path / "g.metis"
        write_metis(g, path)
        assert read_metis(path) == g

    def test_isolated_vertices_survive(self, tmp_path):
        g = from_edges(5, [(0, 1)])
        path = tmp_path / "iso.metis"
        write_metis(g, path)
        back = read_metis(path)
        assert back.num_vertices == 5
        assert back == g

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.metis"
        path.write_text("3 2\n2\n")
        with pytest.raises(GraphError, match="truncated"):
            read_metis(path)

    def test_header_edge_mismatch(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("2 5\n2\n1\n")
        with pytest.raises(GraphError, match="mismatch"):
            read_metis(path)


class TestJson:
    def test_round_trip(self):
        g = path_graph(9)
        assert from_json(to_json(g)) == g

    def test_json_is_parsable_dict(self):
        import json

        doc = json.loads(to_json(grid_2d(2, 2)))
        assert doc["num_vertices"] == 4
        assert len(doc["edges"]) == 4

    def test_invalid_json_reports_position(self):
        with pytest.raises(GraphError, match="line 1"):
            from_json("{not json", source="payload")

    def test_missing_keys(self):
        with pytest.raises(GraphError, match="num_vertices"):
            from_json('{"edges": []}')

    def test_non_object_document(self):
        with pytest.raises(GraphError, match="JSON object"):
            from_json("[1, 2]")


class TestWeightedRoundTrips:
    """Every format must round-trip weighted graphs bit-for-bit."""

    def test_edge_list(self, tmp_path):
        g = weighted_fixture()
        path = tmp_path / "w.edges"
        write_edge_list(g, path)
        assert_weighted_equal(read_edge_list(path), g)

    def test_metis(self, tmp_path):
        g = weighted_fixture()
        path = tmp_path / "w.metis"
        write_metis(g, path)
        assert_weighted_equal(read_metis(path), g)

    def test_json(self):
        g = weighted_fixture()
        assert_weighted_equal(from_json(to_json(g)), g)

    def test_unit_weights_survive_each_format(self, tmp_path):
        g = weights_by_name(grid_2d(4, 5), "unit:2.5")
        for name, write, read in (
            ("u.edges", write_edge_list, read_edge_list),
            ("u.metis", write_metis, read_metis),
        ):
            path = tmp_path / name
            write(g, path)
            assert_weighted_equal(read(path), g)
        assert_weighted_equal(from_json(to_json(g)), g)

    def test_zero_edge_weighted_graph_survives_each_format(self, tmp_path):
        from repro.graphs.weighted import weighted_from_edges

        g = weighted_from_edges(3, np.zeros((0, 2)), np.zeros(0))
        for name, write, read in (
            ("e.edges", write_edge_list, read_edge_list),
            ("e.metis", write_metis, read_metis),
        ):
            path = tmp_path / name
            write(g, path)
            back = read(path)
            assert isinstance(back, WeightedCSRGraph), name
            assert back.num_vertices == 3 and back.num_edges == 0
        assert isinstance(from_json(to_json(g)), WeightedCSRGraph)

    def test_metis_weighted_header_code(self, tmp_path):
        path = tmp_path / "w.metis"
        write_metis(weighted_fixture(), path)
        assert path.read_text().splitlines()[0].endswith(" 001")

    def test_metis_asymmetric_weights_rejected(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("2 1 001\n2 1.0\n1 2.0\n")
        with pytest.raises(GraphError, match="weights are not symmetric"):
            read_metis(path)

    def test_metis_unsupported_fmt_code(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("2 1 011\n2 1\n1 1\n")
        with pytest.raises(GraphError, match="unsupported METIS fmt"):
            read_metis(path)


class TestErrorLineNumbers:
    """Malformed inputs raise GraphError naming source:line, never a raw
    ValueError from int()/float()."""

    def test_edge_list_bad_endpoint(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3 2\n0 1\n0 x\n")
        with pytest.raises(GraphError, match=r"bad\.edges:3.*integer"):
            read_edge_list(path)

    def test_edge_list_bad_header(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("three two\n")
        with pytest.raises(GraphError, match=r"bad\.edges:1.*integer"):
            read_edge_list(path)

    def test_edge_list_bad_weight(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3 2\n0 1 1.5\n1 2 heavy\n")
        with pytest.raises(GraphError, match=r"bad\.edges:3.*number"):
            read_edge_list(path)

    def test_edge_list_too_many_rows(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3 1\n0 1\n1 2\n")
        with pytest.raises(GraphError, match=r"bad\.edges:3.*mismatch"):
            read_edge_list(path)

    def test_metis_bad_neighbor(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("2 1\n2\nzzz\n")
        with pytest.raises(GraphError, match=r"bad\.metis:3.*integer"):
            read_metis(path)

    def test_metis_comment_lines_keep_numbering(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("% header comment\n2 1\n2\nzzz\n")
        with pytest.raises(GraphError, match=r"bad\.metis:4"):
            read_metis(path)

    def test_negative_header_counts_rejected(self):
        # Must be GraphError, never a raw ValueError/IndexError escaping
        # the parser (the serve upload path relies on this).
        with pytest.raises(GraphError, match="edge count must be >= 0"):
            parse_graph("3 -2\n0 1\n", format="edges")
        with pytest.raises(GraphError, match="vertex count must be >= 0"):
            parse_graph("-3 0\n", format="metis")
        with pytest.raises(GraphError, match="edge count must be >= 0"):
            parse_graph("2 -1\n\n\n", format="metis")

    def test_huge_edge_count_rejected_before_allocation(self):
        # A tiny payload whose header promises 10^12 edges must fail on
        # the line-count check, not attempt a 16 TB allocation.
        with pytest.raises(GraphError, match="only .* lines"):
            parse_graph("1 1000000000000\n0 1\n", format="edges")


class TestLoadGraph:
    def test_dispatch_by_extension(self, tmp_path):
        g = grid_2d(4, 4)
        edges = tmp_path / "g.edges"
        metis = tmp_path / "g.metis"
        as_json = tmp_path / "g.json"
        write_edge_list(g, edges)
        write_metis(g, metis)
        as_json.write_text(to_json(g))
        for path in (edges, metis, as_json):
            assert load_graph(path) == g

    def test_sniffs_unknown_extension(self, tmp_path):
        g = erdos_renyi(25, 0.2, seed=4)
        for writer, name in (
            (write_edge_list, "a.dat"),
            (write_metis, "b.dat"),
        ):
            path = tmp_path / name
            writer(g, path)
            assert load_graph(path) == g
        j = tmp_path / "c.dat"
        j.write_text(to_json(g))
        assert load_graph(j) == g

    def test_sniffs_weighted_metis(self, tmp_path):
        # Weighted METIS has a 3-token header, the unambiguous sniff case.
        g = weighted_fixture()
        path = tmp_path / "w.dat"
        write_metis(g, path)
        assert_weighted_equal(load_graph(path), g)

    def test_explicit_format_overrides_extension(self, tmp_path):
        g = path_graph(6)
        path = tmp_path / "g.json"  # extension lies
        write_edge_list(g, path)
        assert load_graph(path, format="edges") == g

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="unknown graph format"):
            load_graph(tmp_path / "g.edges", format="graphml")

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphError, match="cannot read"):
            load_graph(tmp_path / "nope.edges")

    def test_unparsable_content_lists_formats(self, tmp_path):
        path = tmp_path / "junk.dat"
        path.write_text("not graph\nat all\n")  # 2-token lines: ambiguous
        with pytest.raises(GraphError, match="not parsable"):
            load_graph(path)

    def test_unparsable_metis_shaped_content_keeps_line(self, tmp_path):
        path = tmp_path / "junk.dat"
        path.write_text("this is not\na graph at all\n")  # 3-token: metis
        with pytest.raises(GraphError, match=r"junk\.dat:1"):
            load_graph(path)

    def test_parse_graph_round_trip_from_text(self):
        g = grid_2d(3, 3)
        assert parse_graph(to_json(g)) == g

    def test_format_for_path(self):
        from repro.graphs import format_for_path

        assert format_for_path("a/b.metis") == "metis"
        assert format_for_path("c.EDGES") == "edges"
        assert format_for_path("d.json") == "json"
        assert format_for_path("e.dat") == "auto"

    def test_unified_entry_points_exported_from_package(self):
        from repro.graphs import load_graph as lg, parse_graph as pg

        assert lg is load_graph and pg is parse_graph

    def test_ambiguous_text_refuses_to_guess(self):
        # Valid as METIS (triangle on vertices 1-3, vertex 4 isolated) AND
        # as an edge list (a different triangle on vertices 1-3 of 4):
        # auto must refuse rather than silently pick one.
        text = "4 3\n2 3\n1 3\n1 2\n\n"
        with pytest.raises(GraphError, match="ambiguous"):
            parse_graph(text)
        as_metis = parse_graph(text, format="metis")
        as_edges = parse_graph(text, format="edges")
        assert as_metis != as_edges  # the ambiguity is real
        assert as_metis.has_edge(0, 1) and not as_edges.has_edge(0, 1)

    def test_ambiguous_but_identical_parses_fine(self):
        # Both interpretations yield the empty graph — no ambiguity.
        assert parse_graph("0 0\n").num_vertices == 0

    def test_auto_skips_metis_when_edge_rows_outnumber_vertices(
        self, tmp_path
    ):
        # An edge list with m > n rows cannot be METIS (which allows n
        # vertex lines), so "auto" must not run the METIS parser at all.
        graph = erdos_renyi(20000, 0.0004, seed=0)
        assert graph.num_edges > graph.num_vertices
        path = tmp_path / "er.edges"
        write_edge_list(graph, path)
        text = path.read_text()

        def _refuse(*args, **kwargs):
            raise AssertionError("METIS parser ran on an edge list")

        with mock.patch.object(graphs_io, "_parse_metis", _refuse):
            assert graph_digest(parse_graph(text)) == graph_digest(graph)
        # With m <= n both readings stay possible, and METIS still runs.
        with mock.patch.object(graphs_io, "_parse_metis", _refuse):
            with pytest.raises(AssertionError, match="METIS parser ran"):
                parse_graph("4 3\n2 3\n1 3\n1 2\n\n")


# ---------------------------------------------------------------------------
# the block tokenizer against the per-line oracle
# ---------------------------------------------------------------------------
_LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"]
_GAPS = [" ", "\t", "\x1f", "  ", " \t "]
_MUTATIONS = [
    None, "bad_token", "columns", "surplus", "missing", "range", "loop",
]


def _int_token(draw, value: int) -> str:
    """``value`` spelled any way ``int()`` reads it."""
    text = str(value)
    style = draw(st.sampled_from(["plain", "plus", "zeros", "underscore"]))
    if style == "plus" and value >= 0:
        return "+" + text
    if style == "zeros" and value >= 0:
        return "0" * draw(st.integers(1, 3)) + text
    if style == "underscore" and len(text) >= 2 and value >= 0:
        cut = draw(st.integers(1, len(text) - 1))
        return text[:cut] + "_" + text[cut:]
    return text


@st.composite
def decorated_edge_lists(draw):
    """An edge-list text with random decoration and at most one defect.

    Returns ``(text, info)``; ``info`` names the defect and the line it
    sits on, for the streaming reader's line-numbered range errors.
    """
    n = draw(st.integers(2, 12))
    raw = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)),
            max_size=14,
        )
    )
    pairs = [[u, (u + 1 + d) % n] for u, d in raw]
    weighted = draw(st.booleans())
    if weighted:  # duplicate weighted edges are refused; keep them rare
        pairs = list({tuple(sorted(p)): p for p in pairs}.values())
    weights = [
        draw(st.floats(1e-3, 1e3, allow_nan=False)) for _ in pairs
    ]
    mutation = draw(st.sampled_from(_MUTATIONS))
    m = len(pairs)
    rows: list[list[str]] = []
    for (u, v), w in zip(pairs, weights):
        row = [_int_token(draw, u), _int_token(draw, v)]
        if weighted:
            prefix = draw(st.sampled_from(["", "+"]))
            row.append(prefix + "{:.17g}".format(w))
        rows.append(row)
    target = draw(st.integers(0, max(len(rows) - 1, 0)))
    if mutation == "surplus" and m:
        m -= 1
    elif mutation == "missing":
        m += 1
    elif rows and mutation == "bad_token":
        # One bad token, sometimes a second (on the same row or a later
        # one): the first one a row-by-row reader meets must win.
        for later in range(draw(st.integers(1, 2))):
            skip = draw(st.integers(0, len(rows) - 1 - target))
            row = rows[target + later * skip]
            col = draw(st.integers(0, len(row) - 1))
            bad = ["x", "1.5", "0x1", "--1", "1e3"] if col < 2 else ["heavy"]
            row[col] = draw(st.sampled_from(bad))
    elif rows and mutation == "columns":
        if draw(st.booleans()):
            rows[target] = rows[target][:-1]
        else:
            rows[target] = rows[target] + ["7", "8"]
    elif rows and mutation == "range":
        rows[target][draw(st.integers(0, 1))] = draw(
            st.sampled_from([str(n), "-1", str(n + 5)])
        )
    elif rows and mutation == "loop":
        rows[target][1] = rows[target][0]
    header = [_int_token(draw, n), _int_token(draw, m)]
    if mutation == "bad_token" and not rows:
        header[draw(st.integers(0, 1))] = "x"
    # Interleave blank lines, comments and (maybe) the weighted marker.
    lines: list[tuple[str, list[str] | None]] = []

    def filler():
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(["blank", "hash", "pct", "marker"]))
            if kind == "blank":
                lines.append((draw(st.sampled_from(["", " ", "\t"])), None))
            elif kind == "hash":
                lines.append(("# note 1 2", None))
            elif kind == "pct":
                lines.append(("%", None))
            elif weighted or draw(st.integers(0, 4)) == 0:
                marker = draw(st.sampled_from(["# weighted", " # weighted\t"]))
                lines.append((marker, None))

    filler()
    lines.append(("", header))
    for row in rows:
        filler()
        lines.append(("", row))
    filler()
    out = []
    row_lines = []
    for line_no, (literal, tokens) in enumerate(lines, start=1):
        if tokens is None:
            body = literal
        else:
            gaps = [draw(st.sampled_from(_GAPS)) for _ in tokens[1:]]
            body = (
                draw(st.sampled_from(["", " ", "\t"]))
                + tokens[0]
                + "".join(g + t for g, t in zip(gaps, tokens[1:]))
                + draw(st.sampled_from(["", " ", "\t"]))
            )
            row_lines.append(line_no)
        end = draw(st.sampled_from(_LINE_ENDS))
        if not body and out and out[-1] == "\r" and end.startswith("\n"):
            # "\r" + "" + "\n" would fuse into one "\r\n" terminator and
            # swallow this empty line, so the line numbers would drift.
            end = "\r\n"
        out.append(body)
        out.append(end)
    if draw(st.booleans()):
        out.pop()  # no final line break
    info = {
        "n": n,
        "mutation": mutation,
        # Line of the defective row (row_lines[0] is the header's).
        "line": row_lines[target + 1] if rows else None,
        # Neither a marker nor a "u v w" row: the streaming reader's input.
        "plain": not any(
            lit.strip() == "# weighted" for lit, tok in lines if tok is None
        ) and all(len(tok) != 3 for _, tok in lines if tok is not None),
    }
    return "".join(out), info


def _outcome(parse, text: str):
    """``("graph", type, digest)`` or ``("error", message)``."""
    try:
        graph = parse(text)
    except GraphError as exc:
        return ("error", str(exc))
    return ("graph", type(graph).__name__, graph_digest(graph))


ORACLE = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestBlockTokenizerOracle:
    @ORACLE
    @given(decorated_edge_lists(), st.sampled_from([1 << 18, 16, 5, 1]))
    def test_in_memory_parser_matches_oracle(self, case, block_bytes):
        text, _ = case
        expected = _outcome(
            lambda t: parse_edge_list_oracle(t, source="t"), text
        )
        with mock.patch.object(graphs_io, "_BLOCK_BYTES", block_bytes):
            got = _outcome(
                lambda t: parse_graph(t, format="edges", source="t"), text
            )
        assert got == expected

    @settings(ORACLE, max_examples=100)
    @given(
        decorated_edge_lists(),
        st.sampled_from(["edges", "metis", "json", "auto"]),
        st.sampled_from([1 << 18, 16, 1]),
    )
    def test_bytes_input_matches_str_input(self, case, fmt, block_bytes):
        """The parsers read bytes: ``parse_graph(text.encode())`` gives
        the digest, or the exact GraphError, that ``parse_graph(text)``
        gives."""
        text, _ = case

        def parse(data):
            return parse_graph(data, format=fmt, source="t")

        with mock.patch.object(graphs_io, "_BLOCK_BYTES", block_bytes):
            assert _outcome(parse, text.encode()) == _outcome(parse, text)

    @settings(ORACLE, max_examples=100)
    @given(
        st.text(st.sampled_from("\n\r\v\f\x1c\x1d\x1e 1"), max_size=40),
        st.integers(1, 5),
    )
    def test_break_count_bounds_per_block(self, text, block_bytes):
        """The pre-allocation bound counts each break once, a ``\\r\\n``
        cut by a mask-block boundary too."""
        data = text.encode()
        expected = sum(
            data.count(bytes([c])) for c in b"\n\v\f\r\x1c\x1d\x1e"
        ) - data.count(b"\r\n")
        with mock.patch.object(graphs_io, "_BLOCK_BYTES", block_bytes):
            assert graphs_io._count_breaks(data) == expected

    @settings(ORACLE, max_examples=100)
    @given(decorated_edge_lists(), st.integers(1, 24))
    def test_streaming_reader_matches_oracle(self, case, block_bytes):
        text, info = case
        expected = _outcome(
            lambda t: parse_edge_list_oracle(t, source="t"), text
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.edges")
            with open(path, "wb") as fh:
                fh.write(text.encode("ascii"))
            try:
                with mock.patch.object(graphs_io, "_BLOCK_BYTES", block_bytes):
                    wrapper = stream_edge_list_to_mmap(
                        path, os.path.join(tmp, "g.rgm")
                    )
            except GraphError as exc:
                got = ("error", str(exc).replace(path, "t"))
            else:
                got = ("graph", "CSRGraph", graph_digest(wrapper.graph))
                wrapper.close()
        if not info["plain"]:
            # Weighted rows and markers are the streaming reader's to refuse.
            assert got[0] == "error"
            if expected[0] == "graph":
                assert "weighted inputs are not supported" in got[1]
            return
        if expected[0] == "error" and info["mutation"] in ("range", "loop"):
            # The streaming reader range-checks each block, naming the line.
            fault = (
                f"edge endpoint out of range 0..{info['n'] - 1}"
                if info["mutation"] == "range"
                else "self-loops are not allowed"
            )
            expected = ("error", f"t:{info['line']}: {fault}")
        assert got == expected

    @pytest.mark.parametrize(
        "text",
        [
            "3 2\n0 1 1.5\n2 x heavy\n",  # v before w on one row
            "3 2\n0 1 1.5\n2 1 heavy\n",
            "3 2\n0 y\nx 2\n",  # an earlier row before a later one
            "3 2\n0 -\n9 2 7\n",  # a bad token before a column fault
        ],
    )
    def test_first_fault_in_reading_order_wins(self, text):
        with pytest.raises(GraphError) as want:
            parse_edge_list_oracle(text, source="t")
        with pytest.raises(GraphError) as got:
            parse_graph(text, format="edges", source="t")
        assert str(got.value) == str(want.value)

    def test_block_cuts_keep_crlf_whole(self):
        # A 1-byte block read ends at "\r" before its "\n" arrives.
        text = "2 1\r\n0 1\r\n"
        with mock.patch.object(graphs_io, "_BLOCK_BYTES", 1):
            assert parse_graph(text, format="edges") == path_graph(2)

    def test_non_ascii_byte_names_its_line(self):
        with pytest.raises(GraphError, match=r"t:3: non-ASCII"):
            parse_graph("2 1\n# ok\n0 1 \n", format="edges", source="t")

    def test_undecodable_file_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_bytes(b"2 1\n0 \xff1\n")
        for read in (read_edge_list, load_graph):
            with pytest.raises(GraphError, match=r"bad\.edges:2: non-ASCII"):
                read(path)

    def test_vertical_tab_ends_a_line(self):
        # str.splitlines() breaks on \v and \f; so does the tokenizer.
        assert parse_graph("3 2\v0 1\f1 2", format="edges") == path_graph(3)

    def test_parse_peak_memory_stays_below_the_per_line_parser(self):
        g = grid_2d(300, 300)
        text = f"{g.num_vertices} {g.num_edges}\n" + "".join(
            f"{u} {v}\n" for u, v in g.edge_array()
        )
        tracemalloc.start()
        try:
            parse_graph(text, format="edges")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The per-line parser this tokenizer replaced peaked at ~33 MiB.
        assert peak <= 33 * 2**20
