"""The plain-text edge-list format the CLI reads and writes.

A file is a header line ``n m`` followed by exactly m lines ``u v`` with
0 <= u < v < n, where n is at most ``MAX_VERTICES``.  Blank lines and ``#``
comments are ignored.  Writing is canonical (edges sorted ascending), so
parse/write round-trips are bit-exact on canonical files.
"""

from __future__ import annotations

from pathlib import Path

from .graph import Graph

# Largest vertex count a header may declare.  Vertex v's adjacency row is an int
# as wide as its highest neighbour's label, so memory grows with n^2 even for
# sparse graphs: a path at this cap takes about n^2/16 bytes (0.6 GB), a star
# centred on the last vertex about n^2/8 (1.25 GB).  Without the cap a short
# file could ask for any amount of memory.
MAX_VERTICES = 100_000


class EdgeListError(ValueError):
    """A malformed edge-list file; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a graph, rejecting malformed input loudly."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
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
            header = (n, m)
            continue
        n, m = header
        if len(edges) >= m:
            raise EdgeListError(f"more than the declared {m} edge lines", lineno)
        if len(fields) != 2:
            raise EdgeListError("edge line must be two integers 'u v'", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListError("edge line must be two integers 'u v'", lineno) from None
        if not 0 <= u < v < n:
            raise EdgeListError(f"edge ({u}, {v}) violates 0 <= u < v < n = {n}", lineno)
        if (u, v) in seen:
            raise EdgeListError(f"duplicate edge ({u}, {v})", lineno)
        seen.add((u, v))
        edges.append((u, v))
    if header is None:
        raise EdgeListError("missing 'n m' header")
    n, m = header
    if len(edges) != m:
        raise EdgeListError(f"declared {m} edges but found {len(edges)}")
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    """Canonical text for a graph: header, then edges sorted ascending."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_graph(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text())


def write_graph(path: str | Path, g: Graph) -> None:
    Path(path).write_text(format_edge_list(g))
