"""Shared test helpers: independent brute-force oracles and graph strategies.

Everything used as an oracle here is deliberately naive — explicit vertex sets
and ``itertools.combinations``, no bitmasks — so the fast implementations are
checked against straightforward code that shares none of their machinery.
"""

from __future__ import annotations

import random
import subprocess
import sys
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import hypothesis.strategies as st

import cliqueiso.construct as construct
from cliqueiso import Graph
from cliqueiso.cliques import find_in_mask
from cliqueiso.generators import _tree_from_pruefer, pair_order
from cliqueiso.graph import NONE, closed_mask, component_masks, exception_kind

from .pins import package_env

T = TypeVar("T")


def adjacency_sets(g: Graph) -> list[set[int]]:
    """Open neighborhoods rebuilt from the edge list alone."""
    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def naive_k_cliques(
    g: Graph, k: int, within: Iterable[int] | None = None
) -> Iterator[tuple[int, ...]]:
    """The k-cliques of ``g``, or of its subgraph on ``within``, in
    lexicographic order, found by testing every k-subset."""
    nbrs = adjacency_sets(g)
    alive = range(g.n) if within is None else sorted(within)
    for combo in combinations(alive, k):
        if all(b in nbrs[a] for a, b in combinations(combo, 2)):
            yield combo


def naive_has_clique(g: Graph, k: int, removed: set[int] | frozenset[int] = frozenset()) -> bool:
    alive = [u for u in range(g.n) if u not in removed]
    return next(naive_k_cliques(g, k, alive), None) is not None


def naive_closed_neighborhood(g: Graph, subset) -> set[int]:
    nbrs = adjacency_sets(g)
    closed = set(subset)
    for u in subset:
        closed |= nbrs[u]
    return closed


def naive_delete(g: Graph, removed) -> Graph:
    """G - removed, with the survivors relabeled 0.. in increasing order."""
    index = {u: i for i, u in enumerate(u for u in range(g.n) if u not in removed)}
    return Graph.from_edges(
        len(index), [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    )


def naive_is_isolating(g: Graph, k: int, subset) -> bool:
    return not naive_has_clique(g, k, naive_closed_neighborhood(g, subset))


def naive_first_isolator(g: Graph, k: int) -> tuple[tuple[int, ...], int]:
    """The first isolating subset in (size, lexicographic) order and its
    1-based rank in that order."""
    rank = 0
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            rank += 1
            if naive_is_isolating(g, k, subset):
                return subset, rank
    raise AssertionError("the full vertex set always isolates")


def naive_iota(g: Graph, k: int) -> int:
    """Minimum k-clique isolating set size by scanning all subsets."""
    return len(naive_first_isolator(g, k)[0])


def naive_domination(g: Graph) -> int:
    """Minimum dominating set size, written without the isolation vocabulary."""
    nbrs = adjacency_sets(g)
    everyone = set(range(g.n))
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            covered = set(subset)
            for u in subset:
                covered |= nbrs[u]
            if covered == everyone:
                return size
    raise AssertionError("unreachable")


def naive_components(g: Graph, within: Iterable[int] | None = None) -> list[set[int]]:
    """The components of ``g``, or of its subgraph on ``within``, ordered by
    lowest vertex."""
    nbrs = adjacency_sets(g)
    alive = set(range(g.n) if within is None else within)
    seen: set[int] = set()
    out: list[set[int]] = []
    for start in sorted(alive):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for w in nbrs[u] & alive:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        out.append(comp)
    return out


def piece_checked(entry: Callable[..., T], g: Graph, k: int) -> T:
    """``entry(g, k)``, a construction entry point, with every piece checked.

    Each ``construct._step`` call is recorded as (piece, chosen mask,
    children), so the records of one work stack are in pre-order.  Walking
    them backwards, the sets of a step's children are the last ones finished,
    first child on top; each piece's set is its chosen mask plus those sets.
    Every piece must be connected and non-exceptional, and its set must lie
    inside it, keep within floor(|piece|/(k+1)) and isolate it.  The checks raise, so
    they run under ``python -O`` too.  They use the package's bitmask
    kernels, not the naive helpers above: pieces run to 2,000 vertices.
    """
    steps: list[tuple[int, int, list[int]]] = []
    real = construct._step

    def recording(adj, piece, k):
        fired = real(adj, piece, k)
        steps.append((piece, fired[1], fired[2]))
        return fired

    construct._step = recording
    try:
        out = entry(g, k)
    finally:
        construct._step = real
    adj = g.adj
    done: list[tuple[int, int]] = []  # (piece, set) not yet folded into a parent
    for piece, d, children in reversed(steps):
        for child in children:
            finished, child_set = done.pop()
            construct._fact(finished == child, "the steps must run in pre-order")
            d |= child_set
        low = (piece & -piece).bit_length() - 1
        where = f"the piece of {piece.bit_count()} vertices from vertex {low}"
        construct._fact(len(component_masks(adj, piece)) == 1, f"{where} must be connected")
        construct._fact(exception_kind(adj, piece, k) is NONE, f"{where} must not be exceptional")
        construct._fact(
            not d & ~piece and d.bit_count() <= piece.bit_count() // (k + 1),
            f"the set of {where} must lie inside it, within floor(n/(k+1))",
        )
        construct._fact(
            find_in_mask(adj, piece & ~closed_mask(adj, d), k) is None,
            f"the set of {where} must isolate it",
        )
        done.append((piece, d))
    return out


def run_at_low_recursion_limit(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    package, after cutting its recursion limit to 120 frames: far below the
    depth of the searches that ``code`` starts."""
    return subprocess.run(
        [sys.executable, "-c", "import sys\nsys.setrecursionlimit(120)\n" + code],
        capture_output=True, text=True, env=package_env(), timeout=300,
    )


def graph_from_edge_bits(
    n: int, edge_bits: int, pairs: Sequence[tuple[int, int]] | None = None
) -> Graph:
    """Decode an edge mask over ``pair_order(n)`` into a graph."""
    if pairs is None:
        pairs = pair_order(n)
    if edge_bits < 0 or edge_bits >> len(pairs):
        raise ValueError("edge bits out of range for this vertex count")
    return Graph(n, tuple(_adjacency(n, edge_bits, pairs)))


def _adjacency(n: int, edge_bits: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    adj = [0] * n
    mask = edge_bits
    while mask:
        low = mask & -mask
        mask ^= low
        u, v = pairs[low.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def labeled_graphs(n_max: int) -> Iterator[Graph]:
    """Every labeled graph, connected or not, with at most ``n_max`` vertices."""
    for n in range(n_max + 1):
        pairs = pair_order(n)
        for edge_bits in range(1 << len(pairs)):
            yield graph_from_edge_bits(n, edge_bits, pairs)


def naive_random_connected(n: int, p: float, seed: int) -> Graph:
    """``gen_random_connected`` as first written: a set of edge tuples, one
    membership test per vertex pair and one ``rng.random()`` per non-tree
    pair.  It pins the random stream the fast generator must reproduce."""
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


def disjoint_union(parts: list[Graph]) -> Graph:
    edges: list[tuple[int, int]] = []
    offset = 0
    for part in parts:
        edges.extend((u + offset, v + offset) for u, v in part.edges())
        offset += part.n
    return Graph.from_edges(offset, edges)


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8, coin: bool = False) -> Graph:
    """Arbitrary simple graphs: one bit per vertex pair.  The bits come from
    one integer draw, which leans to sparse graphs, or with ``coin`` from one
    fair coin per pair, as in G(n, 1/2)."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if coin:
        flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        mask = sum(1 << i for i, flip in enumerate(flips) if flip)
    else:
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
    return Graph.from_edges(n, edges)


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 9) -> Graph:
    """Random tree (each vertex hangs on an earlier one) plus arbitrary extras."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = {(draw(st.integers(min_value=0, max_value=i - 1)), i) for i in range(1, n)}
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges.update(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
    return Graph.from_edges(n, sorted(edges))


@st.composite
def spines(draw, min_n: int = 1) -> Graph:
    """Long path-like trees on at most 60 vertices: vertex i hangs on
    i - 1 - d with d drawn from 0..3, so BFS from vertex 0 runs deep through
    long runs of one-vertex layers."""
    n = draw(st.integers(min_value=min_n, max_value=60))
    edges = []
    for i in range(1, n):
        d = draw(st.integers(min_value=0, max_value=min(3, i - 1)))
        edges.append((i - 1 - d, i))
    return Graph.from_edges(n, edges)


@st.composite
def hubs(draw) -> Graph:
    """A spine from ``spines`` plus one to three hubs, each joined to about
    half of the vertices by one fair coin per vertex, so BFS layers are both
    long and wide."""
    g = draw(spines(min_n=2))
    edges = set(g.edges())
    vertices = st.integers(min_value=0, max_value=g.n - 1)
    for hub in draw(st.sets(vertices, min_size=1, max_size=3)):
        coins = draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        edges.update((min(hub, u), max(hub, u)) for u in range(g.n) if coins[u] and u != hub)
    return Graph.from_edges(g.n, sorted(edges))


def ks() -> st.SearchStrategy[int]:
    return st.integers(min_value=1, max_value=4)
