"""The plain-text edge-list format the CLI reads and writes.

A file is a header line ``n m`` followed by exactly m lines ``u v`` with
0 <= u < v < n, where n is at most ``MAX_VERTICES``.  Blank lines and ``#``
comments are ignored.  Writing is canonical (edges sorted ascending), so
parse/write round-trips are bit-exact on canonical files.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Iterator

from .graph import Graph, bits

# Largest vertex count a header may declare.  Vertex v's adjacency row is an int
# as wide as its highest neighbour's label, so memory grows with n^2 even for
# sparse graphs: a path at this cap takes about n^2/16 bytes (160 MB), a star
# centred on the last vertex about n^2/8 (310 MB).  Without the cap a short
# file could ask for any amount of memory.
MAX_VERTICES = 50_000
# Most edges ``gen`` may write, so that ``read_graph`` can read the file back:
# parsing holds the text and its split lines at once, about 80 bytes per edge
# line.  K_2000's 1,999,000 edges read back in 2.7 s, the process peaking at
# 174 MB RSS, about what the rows of a path at MAX_VERTICES take (2-core box,
# Python 3.11.7).  ``gen complete --n 50000`` would ask for 1,249,975,000.
MAX_EDGES = 2_000_000


class EdgeListError(ValueError):
    """A malformed edge-list file; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a graph, rejecting malformed input loudly.

    The adjacency rows are built as the lines are read; ``Graph`` still
    validates them."""
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        fields = raw.split("#", 1)[0].split()
        if fields:
            break
    else:
        raise EdgeListError("missing 'n m' header")
    if len(fields) != 2:
        raise EdgeListError("header must be two integers 'n m'", lineno)
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise EdgeListError("header must be two integers 'n m'", lineno) from None
    if n < 0 or m < 0:
        raise EdgeListError("header counts must be non-negative", lineno)
    if n > MAX_VERTICES:
        raise EdgeListError(
            f"header declares {n} vertices, above the limit of {MAX_VERTICES}", lineno
        )
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
            u, v = int(fields[0]), int(fields[1])
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
    return Graph(n, tuple(adj))


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
    return parse_edge_list(Path(path).read_text())


def write_graph(path: str | Path, g: Graph) -> None:
    """Write ``format_edge_list(g)`` 256 lines at a time, so that beside the
    rows only one such chunk of text is held, whatever the edge count."""
    lines = _lines(g)
    with Path(path).open("w") as f:
        while chunk := "".join(islice(lines, 256)):
            f.write(chunk)
