"""Graph builders: named families, seeded random connected graphs, exhaustive
labeled enumeration.

The extremal family realizes the n/(k+1) bound exactly: a path spine with
complete blocks fully joined to its first vertices.  Random generation grows a
uniform spanning tree from a random Pruefer sequence and sprinkles independent
extra edges, so every graph is a pure function of (n, p, seed).
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from .graph import Graph, bits, component_masks

# The most pair draws one getrandbits call reads: 16,384 words, 64 KiB.
_BLOCK = 8192

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


def _tree_rows(rng: random.Random, n: int) -> list[int]:
    """The adjacency rows of the tree on n >= 2 vertices whose Pruefer
    sequence is the next n - 2 ``rng.randrange(n)`` draws.

    Each draw follows ``randrange``'s own rule inline: ``getrandbits`` of
    n's bit length, drawn again while it is n or more.  The sequence is
    decoded in linear time: the leaf joined to each entry is the smallest
    one left, found by a pointer that only moves up, unless the entry has
    just become a leaf below that pointer.
    """
    getrandbits = rng.getrandbits
    width = n.bit_length()
    seq = []
    for _ in range(n - 2):
        x = getrandbits(width)
        while x >= n:
            x = getrandbits(width)
        seq.append(x)
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    adj = [0] * n
    ptr = leaf = degree.index(1)
    for x in seq:
        adj[leaf] |= 1 << x
        adj[x] |= 1 << leaf
        degree[x] -= 1
        if x < ptr and degree[x] == 1:
            leaf = x
        else:
            ptr = leaf = degree.index(1, ptr + 1)
    adj[leaf] |= 1 << n - 1
    adj[n - 1] |= 1 << leaf
    return adj


def _edge_draws(rng: random.Random, count: int, p: float) -> Iterator[bytearray]:
    """``rng.random() < p`` for the next ``count`` draws, as the bytes ``1``
    (an edge) and ``0``, at most ``_BLOCK`` draws at a time.

    ``random()`` is ``x / 2**53`` with ``x = (a >> 5) * 2**26 + (b >> 6)``
    for the next two 32-bit words a and b, and ``getrandbits(64 * c)`` holds
    the next 2c words, lowest first.  So a draw is below p exactly when x is
    below ``ceil(p * 2**53)``, and the top byte of a, which is the top byte
    of x, settles that unless it equals the top byte of the threshold; only
    those draws, 1 in 256, are decided from x itself.
    """
    threshold = math.ceil(p * 2**53)
    table = (b"1" * (threshold >> 45) + b"?" + b"0" * 255)[:256]
    while count:
        c = min(_BLOCK, count)
        count -= c
        words = rng.getrandbits(64 * c).to_bytes(8 * c, "little")
        out = bytearray(words[3::8].translate(table))
        j = out.find(b"?")
        while j >= 0:
            w = int.from_bytes(words[8 * j : 8 * j + 8], "little")
            out[j] = b"01"[((w & 0xFFFFFFFF) >> 5 << 26 | w >> 38) < threshold]
            j = out.find(b"?", j + 1)
        yield out


def gen_random_connected(n: int, p: float, seed: int) -> Graph:
    """A random connected graph: uniform spanning tree plus extra edges.

    Every non-tree pair is added independently with probability ``p``.  The
    output is fully determined by (n, p, seed), and the order of the draws
    from ``random.Random(seed)`` is fixed: first the n - 2 ``randrange(n)``
    draws of the Pruefer sequence, then exactly one ``random()`` per non-tree
    pair (u, v), u < v, in lexicographic order, the pair becoming an edge
    when the draw is below ``p``.  ``_edge_draws`` reads those draws off the
    stream in blocks, with the same words deciding each pair as ``random()``
    would, and row u takes its draws in one slice, a ``0`` put in for each
    tree neighbour above u.  That is still one draw per vertex pair, so the
    cost is quadratic in n, however small ``p`` is: about 0.05 s at
    n = 1600, 0.27 s at n = 4000 and 1.1 s at n = 8000 (2-core box, Python
    3.11.7), against 0.07, 0.43 and 1.75 s drawing ``random()`` pair by
    pair.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    rng = random.Random(seed)
    if n == 1:
        return Graph((0,))
    adj = _tree_rows(rng, n)
    draws = _edge_draws(rng, (n - 1) * (n - 2) // 2, p)
    pending = bytearray()
    for u in range(n - 1):
        start = u + 1
        # Row u's bits above u are still its tree neighbours: a draw for the
        # pair (w, v), w < v, sets bit v of row w and bit w of row v, so no
        # earlier row's draw sets a bit above u in row u.
        tree = adj[u] >> start
        need = n - start - tree.bit_count()
        while len(pending) < need:
            pending += next(draws)
        row = pending[:need]
        del pending[:need]
        for i in bits(tree):
            row.insert(i, 48)  # b"0": a tree pair takes no draw
        row.reverse()
        drawn = int(row, 2) << start
        adj[u] |= drawn
        ub = 1 << u
        for v in bits(drawn):
            adj[v] |= ub
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
