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

from .graph import Graph, bits, component_masks

# n = 9 has 36 vertex pairs, so 2^36 edge masks: no higher cap is usable.
ENUMERATION_CAP = 8


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
    # Each row is every vertex but its own: no list of n(n-1)/2 edges.
    full = (1 << n) - 1
    return Graph(tuple(full ^ 1 << v for v in range(n)))


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
    # The rows directly, as in build_complete: no list of the edges.  A block
    # vertex's row is its block but itself, plus its spine vertex.
    adj = [0] * n
    for i in range(path_len - 1):
        adj[i] |= 1 << i + 1
        adj[i + 1] |= 1 << i
    for i in range(blocks):
        base = path_len + i * k
        block = ((1 << k) - 1) << base
        adj[i] |= block
        for u in range(base, base + k):
            adj[u] = block ^ 1 << u | 1 << i
    return Graph(tuple(adj))


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
    output is fully determined by (n, p, seed), and the order of the draws
    from ``random.Random(seed)`` is fixed: first the n - 2 ``randrange(n)``
    draws of the Pruefer sequence, then exactly one ``random()`` per non-tree
    pair (u, v), u < v, in lexicographic order, the pair becoming an edge
    when the draw is below ``p``.  That is one draw per vertex pair, so the
    cost is still quadratic in n, however small ``p`` is.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    rng = random.Random(seed)
    if n == 1:
        return Graph((0,))
    tree = _tree_from_pruefer([rng.randrange(n) for _ in range(n - 2)], n)
    adj = [0] * n
    for u, v in tree:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    draw = rng.random
    for u in range(n):
        ub = 1 << u
        start = u + 1
        # Row u's bits above u are still its tree neighbours: a draw for the
        # pair (w, v), w < v, sets bit v of row w and bit w of row v, so no
        # earlier row's draw sets a bit above u in row u.
        for stop in [*bits(adj[u] >> start << start), n]:
            for v in range(start, stop):
                if draw() < p:
                    adj[u] |= 1 << v
                    adj[v] |= ub
            start = stop + 1
    return Graph(tuple(adj))


def pair_order(n: int) -> list[tuple[int, int]]:
    """The fixed pair ordering that gives edge masks their meaning."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Every labeled connected graph on n vertices, in increasing edge-mask order.

    ``n`` is checked against ``ENUMERATION_CAP`` here, at the call, not on the
    first ``next()``.  Each graph wraps the rows that ``_connected`` yields, so
    a ``Graph`` is built and validated only for the connected masks.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(f"enumeration cap is {ENUMERATION_CAP} vertices, got {n}")
    return map(Graph, _connected(n))


def _connected(n: int) -> Iterator[tuple[int, ...]]:
    """The adjacency rows of every labeled connected graph on n >= 1 vertices,
    in increasing edge-mask order, unchecked: ``check-theorem`` sweeps these
    rows without building a ``Graph``.  The rows of mask m are those of m - 1
    with the pairs of the bits that differ flipped, about two per mask."""
    pairs = pair_order(n)
    full = (1 << n) - 1
    adj = [0] * n
    prev = 0
    for mask in range(1 << len(pairs)):
        flip = mask ^ prev
        prev = mask
        while flip:
            low = flip & -flip
            flip ^= low
            u, v = pairs[low.bit_length() - 1]
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        if len(component_masks(adj, full)) == 1:
            yield tuple(adj)
