"""Graph builders: named families, seeded random connected graphs, exhaustive
labeled enumeration.

The extremal family realizes the n/(k+1) bound exactly: a path spine with
complete blocks fully joined to its first vertices.  Random generation grows a
uniform spanning tree from a random Pruefer sequence and sprinkles independent
extra edges, so every graph is a pure function of (n, p, seed).
"""

from __future__ import annotations

import heapq
import random
from typing import Iterator, Sequence

from .graph import Graph, is_connected

DEFAULT_ENUMERATION_CAP = 8


class EnumerationCapError(ValueError):
    """Raised when exhaustive enumeration is asked for more vertices than its cap."""


def build_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def build_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def build_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("a complete graph needs at least one vertex")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def build_extremal(n: int, k: int) -> Graph:
    """The tight construction: isolation number exactly floor(n/(k+1)).

    ``blocks`` = floor(n/(k+1)) complete graphs on k vertices hang off the
    first ``blocks`` vertices of a ``path_len``-vertex path, so that
    blocks*k + path_len = n and blocks <= path_len <= blocks + k.  Path
    vertices come first (0..path_len-1), then the blocks in order; block i
    occupies k consecutive labels and is fully joined to path vertex i.  For
    n <= k this degenerates to a bare path.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be at least 1")
    blocks = n // (k + 1)
    path_len = n - k * blocks
    edges = [(i, i + 1) for i in range(path_len - 1)]
    for i in range(blocks):
        base = path_len + i * k
        block = range(base, base + k)
        edges.extend((u, v) for u in block for v in block if u < v)
        edges.extend((i, u) for u in block)
    return Graph.from_edges(n, edges)


def _tree_from_pruefer(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def gen_random_connected(n: int, p: float, seed: int) -> Graph:
    """A random connected graph: uniform spanning tree plus extra edges.

    Every non-tree pair is added independently with probability ``p``.  The
    output is fully determined by (n, p, seed).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    rng = random.Random(seed)
    if n == 1:
        return Graph(1, (0,))
    if n == 2:
        tree = [(0, 1)]
    else:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        tree = _tree_from_pruefer(seq, n)
    edges = set(tree)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def pair_order(n: int) -> list[tuple[int, int]]:
    """The fixed pair ordering that gives edge masks their meaning."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def graph_from_edge_bits(n: int, edge_bits: int, pairs: Sequence[tuple[int, int]] | None = None) -> Graph:
    """Decode an edge mask over ``pair_order(n)`` into a graph."""
    if pairs is None:
        pairs = pair_order(n)
    if edge_bits < 0 or edge_bits >> len(pairs):
        raise ValueError("edge bits out of range for this vertex count")
    adj = [0] * n
    mask = edge_bits
    while mask:
        low = mask & -mask
        mask ^= low
        u, v = pairs[low.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def enumerate_connected(n: int, *, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Graph]:
    """Every labeled connected graph on n vertices, in increasing edge-mask order.

    ``n`` is checked against ``cap`` here, at the call, not on the first
    ``next()``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise EnumerationCapError(
            f"enumeration cap is {cap} vertices, got {n}; raise cap= to override"
        )
    pairs = pair_order(n)
    graphs = (graph_from_edge_bits(n, mask, pairs) for mask in range(1 << len(pairs)))
    return (g for g in graphs if is_connected(g))
