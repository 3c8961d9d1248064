"""The plain-text edge-list format the CLI reads and writes.

A file is a header line ``n m`` followed by exactly m lines ``u v`` with
0 <= u < v < n, where n is at most ``MAX_VERTICES`` and m at most
``MAX_EDGES``, each number in ASCII decimal digits.  Blank lines and ``#``
comments are ignored.  Files are UTF-8 whatever the locale, and one
byte-order mark (U+FEFF) at the very start is skipped.  Writing is canonical
(edges sorted ascending), so parse/write round-trips are bit-exact on
canonical files.
"""

from __future__ import annotations

import io
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from .graph import Graph, bits

# Largest vertex count a header may declare.  Vertex v's adjacency row is an int
# as wide as its highest neighbour's label, so memory grows with n^2 even for
# sparse graphs: a path at this cap takes about n^2/16 bytes (160 MB), a star
# centred on the last vertex about n^2/8 (310 MB).  Without the cap a short
# file could ask for any amount of memory.
MAX_VERTICES = 50_000
# Most edges a header may declare and ``gen`` may write.  ``read_graph`` holds
# the rows and one line at a time, but spends about 1.4 us per edge line:
# K_2000's 1,999,000 edge lines read in 2.7-3.0 s, the process peaking at
# 16 MB RSS (170 MB while the whole text and its split lines were held; 2-core
# box, Python 3.11.7).  ``gen complete --n 50000`` would ask for 1,249,975,000.
MAX_EDGES = 2_000_000


class EdgeListError(ValueError):
    """A malformed edge-list file; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a graph, rejecting malformed input loudly.

    A line ends at a line feed, a carriage return or the two together
    (universal newlines), as in a file ``read_graph`` reads, and not at the
    other breaks ``str.splitlines`` knows: a form feed, ``\\x1c``-``\\x1e``,
    NEL or a Unicode line or paragraph separator is whitespace inside a
    line.  One U+FEFF byte-order mark at the start of ``text`` is skipped; a
    U+FEFF anywhere else is not whitespace, so a field that holds one is
    refused at its line."""
    return _parse(io.StringIO(text.removeprefix("\ufeff"), newline=None))


def _decimal(field: str) -> int:
    """``int(field)`` for ASCII decimal text: an optional sign, then digits.
    ``int`` also reads underscores between digits and any Unicode decimal
    digits, Arabic-Indic or full-width among them, so that ``1_0`` would
    name vertex 10; such a field raises ``ValueError``."""
    if field.isascii() and "_" not in field:
        return int(field)
    raise ValueError(f"not an ASCII decimal integer: {field!r}")


def _parse(source: Iterable[str]) -> Graph:
    """The graph of the edge-list lines ``source``, read once, in order.

    The adjacency rows are built as the lines are read and no line is kept,
    so beside the rows only the current line is held; ``Graph`` still
    validates the rows."""
    lines = enumerate(source, start=1)
    for lineno, raw in lines:
        fields = raw.split("#", 1)[0].split()
        if fields:
            break
    else:
        raise EdgeListError("missing 'n m' header")
    if len(fields) != 2:
        raise EdgeListError("header must be two integers 'n m'", lineno)
    try:
        n, m = _decimal(fields[0]), _decimal(fields[1])
    except ValueError:
        raise EdgeListError("header must be two integers 'n m'", lineno) from None
    if n < 0 or m < 0:
        raise EdgeListError("header counts must be non-negative", lineno)
    if n > MAX_VERTICES:
        raise EdgeListError(
            f"header declares {n} vertices, above the limit of {MAX_VERTICES}", lineno
        )
    if m > MAX_EDGES:
        raise EdgeListError(f"header declares {m} edges, above the limit of {MAX_EDGES}", lineno)
    adj = [0] * n
    count = 0
    for lineno, raw in lines:
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if count >= m:
            lines_word = "edge line" if m == 1 else "edge lines"
            raise EdgeListError(f"more than the declared {m} {lines_word}", lineno)
        if len(fields) != 2:
            raise EdgeListError("edge line must be two integers 'u v'", lineno)
        try:
            # _decimal's test on the whole line at once: a line of ASCII text
            # without an underscore holds only decimal fields.  K_1000's
            # 499,500 edge lines read in 0.60 s with no test, 0.61 s with
            # this one and 0.67 s field by field (medians of 7, 2-core box,
            # Python 3.11.7).
            if raw.isascii() and "_" not in raw:
                u, v = int(fields[0]), int(fields[1])
            else:
                u, v = _decimal(fields[0]), _decimal(fields[1])
        except ValueError:
            raise EdgeListError("edge line must be two integers 'u v'", lineno) from None
        if not 0 <= u < v < n:
            raise EdgeListError(f"edge ({u}, {v}) violates 0 <= u < v < n = {n}", lineno)
        if adj[u] >> v & 1:
            raise EdgeListError(f"duplicate edge ({u}, {v})", lineno)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        count += 1
    if count != m:
        edges_word = "edge" if m == 1 else "edges"
        raise EdgeListError(f"declared {m} {edges_word} but found {count}")
    return Graph(tuple(adj))


def _lines(g: Graph) -> Iterator[str]:
    """The canonical lines, read off the rows: the header, then ``u v`` for
    every edge, u < v, in ascending order."""
    yield f"{g.n} {g.edge_count}\n"
    for u, row in enumerate(g.adj):
        for v in bits(row >> u + 1 << u + 1):
            yield f"{u} {v}\n"


def format_edge_list(g: Graph) -> str:
    """Canonical text for a graph: header, then edges sorted ascending."""
    return "".join(_lines(g))


def read_graph(path: str | Path) -> Graph:
    """``parse_edge_list`` of the file at ``path``, read line by line, with
    the same line ends and the same skipped byte-order mark.  The file is
    decoded as UTF-8 whatever the locale; a byte that is not UTF-8 reads as
    U+FFFD, which a comment may hold and an edge field refuses at its line."""
    with open(path, encoding="utf-8-sig", errors="replace") as f:
        return _parse(f)


def write_graph(path: str | Path, g: Graph) -> None:
    """Write ``format_edge_list(g)`` 256 lines at a time, so that beside the
    rows only one such chunk of text is held, whatever the edge count."""
    lines = _lines(g)
    with Path(path).open("w", encoding="utf-8") as f:
        while chunk := "".join(islice(lines, 256)):
            f.write(chunk)
