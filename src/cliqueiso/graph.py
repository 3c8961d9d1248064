"""Immutable bitset-backed simple graphs and the vertex-set operations on them.

Vertices are the integers 0..n-1.  Adjacency is stored as one Python int per
vertex (bit u of ``adj[v]`` set iff uv is an edge), which keeps neighbourhood
unions, deletions and component sweeps cheap at the sizes the solvers target.
All operations are pure: they never mutate their inputs.  ``exception_kind``
is the one test for the two shapes the bound excludes, on a whole graph or on
any vertex mask of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

VertexSet = frozenset[int]


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int], n: int) -> int:
    """Pack ``vertices`` into a bitmask, rejecting out-of-range members."""
    m = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for a graph on {n} vertices")
        m |= 1 << v
    return m


def set_of(mask: int) -> VertexSet:
    return frozenset(bits(mask))


class ExceptionKind(Enum):
    """Connected shapes excluded from the n/(k+1) bound.

    A complete graph on exactly k vertices needs one isolating vertex, and at
    k = 2 the 5-cycle needs two; both exceed n/(k+1).  Every other connected
    graph admits an isolating set of size at most n/(k+1).
    """

    NONE = "none"
    K_CLIQUE = "k-clique"
    FIVE_CYCLE_AT_K2 = "5-cycle-at-k2"


# The members under plain module names: the construction classifies every
# residual component, and each attribute lookup on the enum costs time there.
NONE = ExceptionKind.NONE
K_CLIQUE = ExceptionKind.K_CLIQUE
FIVE_CYCLE = ExceptionKind.FIVE_CYCLE_AT_K2


@dataclass(frozen=True, repr=False)
class Graph:
    """A simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the open-neighbourhood bitmask of v.  Construction validates
    that the adjacency is symmetric, irreflexive and in range.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length must equal the vertex count")
        n = self.n
        adj = self.adj
        for v, m in enumerate(adj):
            # The range test comes first: it makes every neighbour a valid index.
            if m >> n:
                raise ValueError(f"adjacency of vertex {v} mentions an out-of-range vertex")
            if m >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            vb = 1 << v
            while m:
                low = m & -m
                m ^= low
                u = low.bit_length() - 1
                if not adj[u] & vb:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for a graph on {n} vertices")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted ascending."""
        out = []
        for v in range(self.n):
            m = self.adj[v] >> (v + 1) << (v + 1)
            for u in bits(m):
                out.append((v, u))
        return out

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()!r})"


@dataclass(frozen=True)
class Subgraph:
    """A graph derived from a host graph plus the relabeling back to it.

    ``to_parent[i]`` is the host vertex that became vertex i, so witnesses and
    certificates found in the derived graph can be lifted back to host labels.
    """

    graph: Graph
    to_parent: tuple[int, ...]

    def lift(self, vertices: Iterable[int]) -> VertexSet:
        return frozenset(self.to_parent[v] for v in vertices)


def closed_mask(adj: Sequence[int], mask: int) -> int:
    """Union of closed neighbourhoods of the vertices in ``mask``."""
    out = mask
    while mask:
        low = mask & -mask
        mask ^= low
        out |= adj[low.bit_length() - 1]
    return out


def component_masks(adj: Sequence[int], within: int) -> list[int]:
    """Connected components of the subgraph induced on ``within``, as masks.

    Ordered by smallest member, which makes every traversal that consumes the
    list deterministic.  Each BFS starts from the lowest vertex that no BFS
    has reached yet and takes each layer out of ``rest``, those unreached
    vertices; the component is what left ``rest`` meanwhile.  A one-vertex
    layer, all a path walked from one end has, reads that vertex's row
    directly.  A wider layer is walked from its top bit, so each vertex taken
    off shortens the int that is left; a layer's union of rows does not
    depend on that order.

    Each layer still ANDs and XORs bitsets as wide as ``within``, so a long
    path splits in quadratic time.  Re-splitting only the components a
    deletion touches is faster, but it waits until the benchmark harness
    stops keeping every round's output: until then the extra rounds a faster
    split fits in its run raise its peak memory past the bound (see ROADMAP).
    """
    comps = []
    rest = within
    while rest:
        before = rest
        frontier = rest & -rest
        rest ^= frontier
        while frontier:
            if frontier.bit_count() == 1:
                # Without this read, bounded_isolating_set took 0.064 s against
                # 0.046 s on build_path(1000) at k = 1, 0.054 against 0.061 on
                # build_extremal(2000, 3) at k = 3 and 0.041 both ways on
                # gen_random_connected(1600, 0.003125, 3) at k = 2: 0.157
                # against 0.149 s in all (perf_counter medians of 15 alternated
                # in-process runs, 2-core box, Python 3.11.7).
                nxt = adj[frontier.bit_length() - 1]
            else:
                # Inline, not closed_mask: the call made bound-sparse's constructions 8-10% slower.
                nxt = 0
                while frontier:
                    top = frontier.bit_length() - 1
                    frontier ^= 1 << top
                    nxt |= adj[top]
            frontier = nxt & rest
            rest ^= frontier
        comps.append(before ^ rest)
    return comps


# Not exported: the benchmark tracer (perfbench/tracer.py) wraps ``induced`` by
# name, so it and ``Subgraph`` stay until its rows for them go.
def induced(g: Graph, s: Iterable[int]) -> Subgraph:
    """The subgraph induced on S, with survivors relabeled 0..|S|-1 in order."""
    keep = mask_of(s, g.n)
    order = list(bits(keep))
    index = {old: new for new, old in enumerate(order)}
    adj = []
    for old in order:
        m = 0
        for u in bits(g.adj[old] & keep):
            m |= 1 << index[u]
        adj.append(m)
    return Subgraph(Graph(len(order), tuple(adj)), tuple(order))


def exception_kind(adj: Sequence[int], mask: int, k: int) -> ExceptionKind:
    """Which excluded shape ``mask`` induces: a complete graph on exactly k
    vertices, at k = 2 a 5-cycle, or neither.

    This is the one place that decides the two shapes.  A 2-regular simple
    graph is a union of cycles of length at least three, so on five vertices
    it is one 5-cycle; no connectivity test is needed.
    """
    size = mask.bit_count()
    if size == k:
        need = k - 1
    elif size == 5 and k == 2:
        need = 2
    else:
        return NONE
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        if (adj[low.bit_length() - 1] & mask).bit_count() != need:
            return NONE
    return K_CLIQUE if size == k else FIVE_CYCLE


def classify_exception(g: Graph, k: int) -> ExceptionKind:
    """Recognize the two shapes excluded from the n/(k+1) bound in a whole
    graph."""
    require_k(k)
    return exception_kind(g.adj, g.full_mask, k)


def require_k(k: int) -> None:
    """Reject clique sizes below 1."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
