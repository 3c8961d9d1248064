"""k-clique detection over bitmask adjacency.

The search extends partial cliques one vertex at a time in increasing vertex
order, so the first completion is the lexicographically smallest witness.  A
candidate is descended into only if enough mutual neighbours remain
to finish a clique, which is the whole of the pruning story.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Graph, VertexSet, require_k, set_of


def find_in_mask(adj: Sequence[int], pool: int, k: int) -> int | None:
    """Lexicographically smallest k-clique inside ``pool``, as a mask, or None.

    Shared by the verifier, the solvers and the constructive builder so that
    every "which clique" decision in the package agrees.
    """
    if k == 0:
        return 0

    def descend(cand: int, need: int, acc: int) -> int | None:
        if need == 0:
            return acc
        while cand:
            if cand.bit_count() < need:
                return None
            low = cand & -cand
            cand ^= low
            sub = adj[low.bit_length() - 1] & cand
            if sub.bit_count() >= need - 1:
                hit = descend(sub, need - 1, acc | low)
                if hit is not None:
                    return hit
        return None

    return descend(pool, k, 0)


def has_k_clique(g: Graph, k: int) -> bool:
    """True iff the graph contains a complete subgraph on k vertices."""
    require_k(k)
    if k > g.n:
        return False
    return find_in_mask(g.adj, g.full_mask, k) is not None


def find_k_clique(g: Graph, k: int) -> VertexSet | None:
    """The lexicographically smallest k-clique, or None if there is none."""
    require_k(k)
    hit = find_in_mask(g.adj, g.full_mask, k)
    return None if hit is None else set_of(hit)

