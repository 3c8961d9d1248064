"""Shared test helpers: independent brute-force oracles and graph strategies.

Everything used as an oracle here is deliberately naive — explicit vertex sets
and ``itertools.combinations``, no bitmasks — so the fast implementations are
checked against straightforward code that shares none of their machinery.
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from typing import Iterable, Iterator

import hypothesis.strategies as st

import cliqueiso
from cliqueiso import Graph
from cliqueiso.generators import graph_from_edge_bits, pair_order


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


def naive_iota(g: Graph, k: int) -> int:
    """Minimum k-clique isolating set size by scanning all subsets."""
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            if naive_is_isolating(g, k, subset):
                return size
    raise AssertionError("the full vertex set always isolates")


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


def naive_components(g: Graph) -> list[set[int]]:
    nbrs = adjacency_sets(g)
    seen: set[int] = set()
    out: list[set[int]] = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for w in nbrs[u]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        out.append(comp)
    return out


def package_env() -> dict[str, str]:
    """The environment for a fresh interpreter that imports this checkout's
    package."""
    return {**os.environ, "PYTHONPATH": str(Path(cliqueiso.__file__).resolve().parents[1])}


def run_at_low_recursion_limit(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    package, after cutting its recursion limit to 120 frames: far below the
    depth of the searches that ``code`` starts."""
    return subprocess.run(
        [sys.executable, "-c", "import sys\nsys.setrecursionlimit(120)\n" + code],
        capture_output=True, text=True, env=package_env(), timeout=300,
    )


def labeled_graphs(n_max: int) -> Iterator[Graph]:
    """Every labeled graph, connected or not, with at most ``n_max`` vertices."""
    for n in range(n_max + 1):
        pairs = pair_order(n)
        for edge_bits in range(1 << len(pairs)):
            yield graph_from_edge_bits(n, edge_bits, pairs)


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


def ks() -> st.SearchStrategy[int]:
    return st.integers(min_value=1, max_value=4)
