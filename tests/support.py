"""Shared test helpers: independent brute-force oracles and graph strategies.

Everything used as an oracle here is deliberately naive — explicit vertex sets
and ``itertools.combinations``, no bitmasks — so the fast implementations are
checked against straightforward code that shares none of their machinery.
"""

from __future__ import annotations

import heapq
import json
import math
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import hypothesis.strategies as st

import cliqueiso.construct as construct
from cliqueiso import Graph
from cliqueiso.cliques import isolates
from cliqueiso.generators import pair_order
from cliqueiso.graph import NONE, bits, component_masks, exception_kind

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


def tree_iota(adj: Sequence[int], k: int) -> int:
    """iota(T, k) of the tree T with adjacency rows ``adj``, for k >= 1, by a
    dynamic program rooted at vertex 0 and run from the leaves up in reverse
    BFS order, with no recursion.  A tree has no k-clique for k >= 3, so its
    iota there is 0."""
    n = len(adj)
    if n == 0:
        return 0
    parent = [-1] * n
    order = [0]
    seen = 1
    for v in order:
        for u in bits(adj[v] & ~seen):
            seen |= 1 << u
            parent[u] = v
            order.append(u)
    if len(order) != n or sum(row.bit_count() for row in adj) != 2 * (n - 1):
        raise ValueError("the rows are not a tree")
    if k >= 3:
        return 0
    return (_tree_domination if k == 1 else _tree_edge_isolation)(parent, order)


def _tree_domination(parent: list[int], order: list[int]) -> int:
    """iota(T, 1), the domination number, by the three-state dynamic program
    of Cockayne, Goodman and Hedetniemi (Inf. Process. Lett. 4, 1975).

    For a vertex v and the subtree below it, each state counts the fewest
    vertices of that subtree that dominate all of it but, in the last state,
    v itself: ``taken``, v is in the set; ``covered``, v is not, but one of
    its children is; ``free``, neither v nor any child is, so v's parent
    must be.  ``covered`` is the sum ``both`` of each child's cheaper of
    taken and covered, plus the least ``extra`` that makes one child taken.
    """
    n = len(parent)
    taken = [1] * n
    free = [0] * n
    both = [0] * n
    extra = [math.inf] * n  # a leaf has no child to take
    for v in reversed(order[1:]):
        covered = both[v] + extra[v]
        p = parent[v]
        cheaper = min(taken[v], covered)
        taken[p] += min(cheaper, free[v])
        free[p] += covered
        both[p] += cheaper
        extra[p] = min(extra[p], taken[v] - cheaper)
    return min(taken[0], both[0] + extra[0])


def _tree_edge_isolation(parent: list[int], order: list[int]) -> int:
    """iota(T, 2): the fewest vertices D such that every edge has an end in
    N[D], so that T - N[D] has no edge.

    For a vertex v and the subtree below it, each state counts the fewest
    vertices of that subtree in D such that N[D] meets every edge of the
    subtree, given what the state asks of v's parent: ``taken``, v is in D;
    ``covered``, v is not, but one of its children is; ``leaning``, neither
    v nor any child is, and v's parent must be, since an edge down from v
    may have no end in N[D] but v; ``bare``, neither v nor any child is, and
    every child is covered, so only the edge up from v needs its parent in
    N[D].  Under a taken v a child may be in any state; under a covered v
    in any but leaning, since v is not in D; under a leaning v covered or
    bare, since v is then in N[D]; under a bare v only covered.
    ``covered`` is the sum ``met`` of each child's cheapest of taken, covered
    and bare, plus the least ``extra`` that makes one child taken.
    """
    n = len(parent)
    taken = [1] * n
    met = [0] * n
    extra = [math.inf] * n  # a leaf has no child to take
    leaning = [0] * n
    bare = [0] * n
    for v in reversed(order[1:]):
        covered = met[v] + extra[v]
        p = parent[v]
        cheapest = min(taken[v], covered, bare[v])
        taken[p] += min(cheapest, leaning[v])
        met[p] += cheapest
        extra[p] = min(extra[p], taken[v] - cheapest)
        leaning[p] += min(covered, bare[v])
        bare[p] += covered
    return min(taken[0], met[0] + extra[0], bare[0])


def random_tree(rng: random.Random, n: int) -> Graph:
    """A random recursive tree on n >= 1 vertices: vertex i > 0 joins a
    uniform earlier vertex, and then every label is shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[rng.randrange(i)], perm[i]) for i in range(1, n)])


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
    Every piece must be non-exceptional and connected, but for the empty root
    of the 0-vertex graph, which has no component; its set must lie inside
    it, keep within floor(|piece|/(k+1)) and isolate it.  The checks raise, so
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
        connected = piece == 0 or len(component_masks(adj, piece)) == 1
        construct._fact(connected, f"{where} must be connected")
        construct._fact(exception_kind(adj, piece, k) is NONE, f"{where} must not be exceptional")
        construct._fact(
            not d & ~piece and d.bit_count() <= piece.bit_count() // (k + 1),
            f"the set of {where} must lie inside it, within floor(n/(k+1))",
        )
        construct._fact(isolates(adj, piece, d, k), f"the set of {where} must isolate it")
        done.append((piece, d))
    return out


def write_corpus(path: Path, corpus: dict[str, list]) -> None:
    """Write a golden corpus as the committed files lay it out: each list
    under its key, one compact JSON record per line."""
    rows = {key: ",\n".join("    " + json.dumps(item, separators=(",", ":")) for item in items)
            for key, items in corpus.items()}
    lists = ",\n".join(f"  {json.dumps(key)}: [\n{text}\n  ]" for key, text in rows.items())
    path.write_text("{\n" + lists + "\n}\n", encoding="utf-8")


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
    return Graph(tuple(_adjacency(n, edge_bits, pairs)))


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


def _tree_from_pruefer(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """The edges of the tree with Pruefer sequence ``seq``, decoded with a heap
    of the leaves: each entry is joined to the smallest leaf left."""
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


def naive_random_connected(n: int, p: float, seed: int) -> Graph:
    """``gen_random_connected`` as first written: ``randrange`` for the Pruefer
    sequence, a heap to decode it, a set of edge tuples, one membership test
    per vertex pair and one ``rng.random()`` per non-tree pair.  It pins the
    random stream the fast generator must reproduce."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    rng = random.Random(seed)
    if n == 1:
        return Graph((0,))
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


# The seed of ``planted``: the 5-cycle v a b c d (0-4), a vertex x (5) on v
# and an edge h1 h2 (6, 7) with h1 on x and h2 on a.  At k = 2 it drives the
# construction into Case1_Sub3 or Case1_Sub2, as its labels fall.
PLANT_SEED = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 7), (7, 1))
PLANT_SEED_N = 8


def hang(
    host_n: int,
    host_edges: Iterable[tuple[int, int]],
    piece_n: int,
    piece_edges: Sequence[tuple[int, int]],
    links: Sequence[Iterable[tuple[int, int]]],
    perm: Sequence[int],
) -> Graph:
    """Copies of a piece graph hung on a host graph, then relabeled.

    The host has vertices 0..``host_n`` - 1.  Copy j of the piece, whose
    vertices are 0..``piece_n`` - 1, takes the next ``piece_n`` labels and is
    joined by the edges (a, b) of ``links[j]``: vertex a, a label below the
    copy's (in the host or an earlier copy), to the copy's vertex b.  Vertex
    u is then renamed ``perm[u]``.
    """
    edges = list(host_edges)
    for j, joins in enumerate(links):
        base = host_n + piece_n * j
        edges += [(base + u, base + v) for u, v in piece_edges]
        edges += [(a, base + b) for a, b in joins]
    return Graph.from_edges(len(perm), [(perm[u], perm[v]) for u, v in edges])


def plant(parents: Sequence[int], hangs: Sequence[tuple[int, int]], perm: Sequence[int]) -> Graph:
    """Copies of ``PLANT_SEED`` hung on a tree, then relabeled (``hang``).

    The tree has ``len(parents) + 1`` vertices, and vertex i > 0 hangs on
    ``parents[i - 1]`` < i.  Copy j hangs by one edge, from tree vertex
    ``hangs[j][0]`` to its seed vertex ``hangs[j][1]``.
    """
    tree = [(p, i) for i, p in enumerate(parents, 1)]
    return hang(len(parents) + 1, tree, PLANT_SEED_N, PLANT_SEED, [[h] for h in hangs], perm)


def random_plant(rng: random.Random, host: int, copies: int) -> Graph:
    """``plant`` with its tree, hangs and labels drawn from ``rng``."""
    parents = [rng.randrange(i) for i in range(1, host)]
    hangs = [(rng.randrange(host), rng.randrange(PLANT_SEED_N)) for _ in range(copies)]
    perm = list(range(host + PLANT_SEED_N * copies))
    rng.shuffle(perm)
    return plant(parents, hangs, perm)


@st.composite
def planted(draw, max_host: int = 8, max_copies: int = 5) -> Graph:
    """``plant`` on a drawn tree of at most ``max_host`` vertices, with one to
    ``max_copies`` seeds and a drawn permutation of every label."""
    host = draw(st.integers(min_value=1, max_value=max_host))
    copies = draw(st.integers(min_value=1, max_value=max_copies))
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, host)]
    link = st.tuples(
        st.integers(min_value=0, max_value=host - 1),
        st.integers(min_value=0, max_value=PLANT_SEED_N - 1),
    )
    hangs = draw(st.lists(link, min_size=copies, max_size=copies))
    perm = draw(st.permutations(range(host + PLANT_SEED_N * copies)))
    return plant(parents, hangs, perm)


def random_gadget(rng: random.Random, k: int) -> Graph:
    """One to three copies of K_k on a random connected core of one to four
    vertices, with every label shuffled (``hang``).  Each copy hangs by one
    to three distinct random edges on the graph before it: the core and the
    earlier copies.  At k >= 3 these graphs reach Case2 and Case1_Sub2, which
    the triangle-free ``PLANT_SEED`` cannot; hung on the core alone, the
    copies never fired Case1_Sub2 at k = 4 in 2,000 graphs."""
    core = rng.randint(1, 4)
    edges = [(rng.randrange(i), i) for i in range(1, core)]
    edges += [pair for pair in combinations(range(core), 2) if rng.random() < 0.5]
    links = []
    for j in range(rng.randint(1, 3)):
        joins = [(a, b) for a in range(core + k * j) for b in range(k)]
        links.append(rng.sample(joins, rng.randint(1, min(3, len(joins)))))
    perm = list(range(core + k * len(links)))
    rng.shuffle(perm)
    return hang(core, edges, k, list(combinations(range(k), 2)), links, perm)


def gadgets(k: int) -> st.SearchStrategy[Graph]:
    """``random_gadget`` graphs for clique size ``k``, drawn through
    Hypothesis so that a failure shrinks."""
    return st.builds(random_gadget, st.randoms(use_true_random=False), st.just(k))


def ks() -> st.SearchStrategy[int]:
    return st.integers(min_value=1, max_value=4)
