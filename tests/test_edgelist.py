"""Edge-list file format: parsing, canonical output, and error reporting."""

import sys
import tracemalloc

import pytest
from hypothesis import given

from cliqueiso import (
    EdgeListError,
    Graph,
    build_complete,
    build_cycle,
    format_edge_list,
    parse_edge_list,
    read_graph,
    write_graph,
)

from cliqueiso.edgelist import MAX_VERTICES

from .support import graphs

# Malformed text, the line its error names and the message after "line N: ".
PARSE_ERRORS = [
    ("", None, "missing 'n m' header"),
    ("x y\n", 1, "header must be two integers 'n m'"),
    ("3 1 2\n", 1, "header must be two integers 'n m'"),  # three header fields
    ("-1 0\n", 1, "header counts must be non-negative"),
    ("2 1\n", None, "declared 1 edge but found 0"),
    ("2 0\n0 1\n", 2, "more than the declared 0 edge lines"),
    ("3 1\n0 1\n1 2\n", 3, "more than the declared 1 edge line"),
    ("3 1\n2 1\n", 2, "edge (2, 1) violates 0 <= u < v < n = 3"),  # endpoints out of order
    ("3 1\n0 3\n", 2, "edge (0, 3) violates 0 <= u < v < n = 3"),  # vertex out of range
    ("3 1\n1 1\n", 2, "edge (1, 1) violates 0 <= u < v < n = 3"),  # self-loop
    ("3 2\n0 1\n0 1\n", 3, "duplicate edge (0, 1)"),
    ("3 1\n0 a\n", 2, "edge line must be two integers 'u v'"),  # non-integer endpoint
    ("3 1\n0 1 2\n", 2, "edge line must be two integers 'u v'"),  # three edge fields
]


class TestParse:
    def test_basic(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g.n == 3
        assert g.edges() == [(0, 1), (1, 2)]

    def test_comments_and_blank_lines(self):
        text = "# a triangle\n\n3 3\n0 1\n# middle note\n0 2\n\n1 2\n"
        assert parse_edge_list(text).edge_count == 3

    def test_zero_vertices(self):
        g = parse_edge_list("0 0\n")
        assert g.n == 0

    def test_isolated_vertices_survive(self):
        g = parse_edge_list("4 1\n1 2\n")
        assert g.n == 4 and g.adj[0] == g.adj[3] == 0

    @pytest.mark.parametrize("text,line,message", PARSE_ERRORS,
                             ids=[f"{text}-{line}" for text, line, _ in PARSE_ERRORS])
    def test_errors_carry_line_numbers(self, text, line, message):
        with pytest.raises(EdgeListError) as info:
            parse_edge_list(text)
        assert info.value.line == line
        assert str(info.value) == (message if line is None else f"line {line}: {message}")

    @pytest.mark.parametrize("n", [MAX_VERTICES + 1, 1_000_001, 100_000_000])
    def test_vertex_count_above_cap_is_refused(self, n):
        with pytest.raises(EdgeListError) as info:
            parse_edge_list(f"# huge\n{n} 0\n")
        assert info.value.line == 2
        assert str(MAX_VERTICES) in str(info.value)


class TestFormat:
    def test_canonical_output(self):
        g = Graph.from_edges(4, [(2, 3), (0, 1)])
        assert format_edge_list(g) == "4 2\n0 1\n2 3\n"

    def test_empty_graph(self):
        assert format_edge_list(Graph.from_edges(0, [])) == "0 0\n"

    @given(graphs(max_n=8))
    def test_round_trip(self, g):
        text = format_edge_list(g)
        assert text == f"{g.n} {g.edge_count}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
        back = parse_edge_list(text)
        assert back.n == g.n
        assert back.edges() == g.edges()


class TestFiles:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "c6.edges"
        g = build_cycle(6)
        write_graph(path, g)
        assert read_graph(path).edges() == g.edges()

    def test_write_holds_one_chunk_of_text_at_a_time(self, tmp_path):
        # K_300's rows take 19.2 KB and its text 326 KB.  Joining a list of
        # every edge line peaked at 6.05 MB traced; in chunks of 256 lines,
        # the peak is one chunk and the file buffer.
        g = build_complete(300)
        rows = sum(sys.getsizeof(row) for row in g.adj)
        path = tmp_path / "k300.edges"
        tracemalloc.start()
        try:
            write_graph(path, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * rows + 64_000
        assert path.read_text() == format_edge_list(g)

    def test_read_accepts_str_paths(self, tmp_path):
        path = tmp_path / "g.edges"
        write_graph(str(path), build_cycle(3))
        assert read_graph(str(path)).n == 3

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_graph(tmp_path / "absent.edges")
