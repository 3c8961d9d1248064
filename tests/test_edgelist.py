"""Edge-list file format: parsing, canonical output, and error reporting."""

import subprocess
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

from cliqueiso.edgelist import MAX_EDGES, MAX_VERTICES

from .pins import package_env
from .support import graphs

# Malformed text, the line its error names and the message after "line N: ".
PARSE_ERRORS = [
    ("", None, "missing 'n m' header"),
    ("x y\n", 1, "header must be two integers 'n m'"),
    ("3 1 2\n", 1, "header must be two integers 'n m'"),  # three header fields
    ("-1 0\n", 1, "header counts must be non-negative"),
    # Refused at the header, before the malformed edge line after it.
    (f"3 {MAX_EDGES + 1}\n0 a\n", 1,
     f"header declares {MAX_EDGES + 1} edges, above the limit of {MAX_EDGES}"),
    ("2 1\n", None, "declared 1 edge but found 0"),
    ("2 0\n0 1\n", 2, "more than the declared 0 edge lines"),
    ("3 1\n0 1\n1 2\n", 3, "more than the declared 1 edge line"),
    ("3 1\n2 1\n", 2, "edge (2, 1) violates 0 <= u < v < n = 3"),  # endpoints out of order
    ("3 1\n0 3\n", 2, "edge (0, 3) violates 0 <= u < v < n = 3"),  # vertex out of range
    ("3 1\n1 1\n", 2, "edge (1, 1) violates 0 <= u < v < n = 3"),  # self-loop
    ("3 2\n0 1\n0 1\n", 3, "duplicate edge (0, 1)"),
    ("3 1\n0 a\n", 2, "edge line must be two integers 'u v'"),  # non-integer endpoint
    ("3 1\n0 1 2\n", 2, "edge line must be two integers 'u v'"),  # three edge fields
    # int() alone reads each of these: an underscore between digits, an
    # Arabic-Indic or a full-width digit, also after a NEL between fields.
    ("1_1 1\n0 1_0\n", 1, "header must be two integers 'n m'"),
    ("\uff13 0\n", 1, "header must be two integers 'n m'"),
    ("11 1\n0 1_0\n", 2, "edge line must be two integers 'u v'"),
    ("3 1\n0 \u0661\n", 2, "edge line must be two integers 'u v'"),
    ("3 1\n0\x85\uff11\n", 2, "edge line must be two integers 'u v'"),
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

    def test_signs_and_leading_zeros_are_decimal(self):
        # Only ASCII decimal is read, but a sign and leading zeros still are;
        # a comment may hold any text.
        g = parse_edge_list("+3 01 # n_1 \uff11\n-0 +002\n")
        assert (g.n, g.edges()) == (3, [(0, 2)])

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
        assert path.read_text(encoding="utf-8") == format_edge_list(g)

    def test_read_holds_the_rows_and_one_line(self, tmp_path):
        # K_300's rows take 19.2 KB and its text 326 KB.  Reading the whole
        # text and its split lines peaked at 3.22 MB traced; line by line it
        # is 0.04 MB: the rows, one line and the file buffer.
        g = build_complete(300)
        path = tmp_path / "k300.edges"
        write_graph(path, g)
        tracemalloc.start()
        try:
            back = read_graph(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000
        assert back == g

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("text,line,message", PARSE_ERRORS,
                             ids=[f"{text}-{line}" for text, line, _ in PARSE_ERRORS])
    def test_read_errors_match_parse_errors(self, tmp_path, end, text, line, message):
        # The same message and line number from a file, whatever its line ends.
        path = tmp_path / "bad.edges"
        path.write_bytes(text.replace("\n", end).encode())
        with pytest.raises(EdgeListError) as info:
            read_graph(path)
        assert info.value.line == line
        assert str(info.value) == (message if line is None else f"line {line}: {message}")

    @pytest.mark.parametrize("text,expected", [
        # A form feed, \x1c, NEL or a Unicode line break is whitespace in a line.
        ("2 1\n0\x0c1\n", [(0, 1)]),
        ("3 1\n\u2028\n0 1\n", [(0, 1)]),
        ("3 2\n0 1\x1c\n1\u20292\n", [(0, 1), (1, 2)]),
        ("3 2\n0 1\x0c1 2\n", (2, "edge line must be two integers 'u v'")),
        ("3 2\n0 1\u2028\n0\x851\n", (3, "duplicate edge (0, 1)")),
        ("3 1\r\n\u2029\r0 1\r\n1 2\n", (4, "more than the declared 1 edge line")),
    ], ids=["ff-joins", "ls-blank", "fs-ps", "ff-four-fields", "ls-nel-duplicate", "ps-mixed-ends"])
    def test_text_and_file_share_one_line_rule(self, tmp_path, text, expected):
        # parse_edge_list and read_graph end lines at the same characters, so
        # the same bytes give the same graph, or the same error at the same line.
        def outcome(read, source):
            try:
                return read(source).edges()
            except EdgeListError as err:
                return err.line, str(err).split(": ", 1)[1]

        path = tmp_path / "g.edges"
        path.write_bytes(text.encode())
        assert outcome(parse_edge_list, text) == expected
        assert outcome(read_graph, path) == expected

    @pytest.mark.parametrize("data,expected", [
        (b"3 2\n0 1\n1 \xff2\n", (3, "edge line must be two integers 'u v'")),
        (b"# \xff\n3 1\n0 1 # \xfe\n", [(0, 1)]),
    ], ids=["edge-field", "comment"])
    def test_bytes_that_are_not_utf8(self, tmp_path, data, expected):
        # Such a byte reads as U+FFFD: refused at its line in an edge field,
        # ignored in a comment.
        path = tmp_path / "g.edges"
        path.write_bytes(data)
        try:
            got = read_graph(path).edges()
        except EdgeListError as err:
            got = err.line, str(err).split(": ", 1)[1]
        assert got == expected

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        path = tmp_path / "cafe.edges"
        path.write_bytes("# café\n3 2\n0 1\n1 2\n".encode())
        argv = [sys.executable, "-m", "cliqueiso.cli", "solve", str(path), "--k", "2"]
        outs = []
        for locale in ({"PYTHONUTF8": "1"},
                       {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}):
            out = subprocess.run(argv, capture_output=True, env={**package_env(), **locale},
                                 timeout=300)
            assert out.returncode == 0, out.stderr
            outs.append(out.stdout)
        assert outs[0] == outs[1]

    def test_read_accepts_str_paths(self, tmp_path):
        path = tmp_path / "g.edges"
        write_graph(str(path), build_cycle(3))
        assert read_graph(str(path)).n == 3

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_graph(tmp_path / "absent.edges")
