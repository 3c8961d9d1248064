"""Edge-list file format: parsing, canonical output, and error reporting."""

import pytest
from hypothesis import given

from cliqueiso import (
    EdgeListError,
    Graph,
    build_cycle,
    format_edge_list,
    parse_edge_list,
    read_graph,
    write_graph,
)

from cliqueiso.edgelist import MAX_VERTICES

from .support import graphs


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
        assert parse_edge_list("4 1\n1 2\n").degree(0) == 0

    @pytest.mark.parametrize(
        "text,line",
        [
            ("", None),  # missing header
            ("x y\n", 1),  # malformed header
            ("2 1\n", None),  # declared edge missing
            ("2 0\n0 1\n", 2),  # undeclared edge present
            ("3 1\n2 1\n", 2),  # endpoints out of order
            ("3 1\n0 3\n", 2),  # vertex out of range
            ("3 1\n1 1\n", 2),  # self-loop
            ("3 2\n0 1\n0 1\n", 3),  # duplicate edge
            ("3 1\n0 a\n", 2),  # non-integer endpoint
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(EdgeListError) as info:
            parse_edge_list(text)
        if line is not None:
            assert info.value.line == line
            assert f"line {line}" in str(info.value)

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
        back = parse_edge_list(format_edge_list(g))
        assert back.n == g.n
        assert back.edges() == g.edges()


class TestFiles:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "c6.edges"
        g = build_cycle(6)
        write_graph(path, g)
        assert read_graph(path).edges() == g.edges()

    def test_read_accepts_str_paths(self, tmp_path):
        path = tmp_path / "g.edges"
        write_graph(str(path), build_cycle(3))
        assert read_graph(str(path)).n == 3

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_graph(tmp_path / "absent.edges")
