"""k-clique detection over bitmask adjacency.

Every answer is the lexicographically smallest k-clique of the pool.  The two
small sizes, which are most of the calls, need no recursion: at k = 1 the
answer is the lowest vertex of the pool, and at k = 2 one pass finds the
lowest vertex with a later neighbour in the pool and pairs it with the lowest
such neighbour.  For k >= 3 the search extends partial cliques one vertex at
a time in increasing vertex order, so the first completion is the smallest
witness.  A candidate is descended into only if enough mutual neighbours
remain to finish a clique, which is the whole of the pruning story; the last
two vertices come from the same pass as k = 2.
"""

from __future__ import annotations

from typing import Sequence


def find_in_mask(adj: Sequence[int], pool: int, k: int) -> int | None:
    """Lexicographically smallest k-clique inside ``pool``, as a mask, or None.

    Shared by the verifier, the solvers and the constructive builder so that
    every "which clique" decision in the package agrees.
    """
    if k == 1:
        return pool & -pool or None
    if k == 2:
        return _edge(adj, pool)
    if k == 0:
        return 0
    return _descend(adj, pool, k)


def _edge(adj: Sequence[int], cand: int) -> int | None:
    """Smallest edge inside ``cand``, as a two-bit mask, or None."""
    while cand:
        low = cand & -cand
        cand ^= low
        later = adj[low.bit_length() - 1] & cand
        if later:
            return low | (later & -later)
    return None


def _descend(adj: Sequence[int], cand: int, need: int) -> int | None:
    """Smallest ``need``-clique inside ``cand``, or None; ``need`` >= 3."""
    while cand.bit_count() >= need:
        low = cand & -cand
        cand ^= low
        sub = adj[low.bit_length() - 1] & cand
        if sub.bit_count() >= need - 1:
            hit = _edge(adj, sub) if need == 3 else _descend(adj, sub, need - 1)
            if hit is not None:
                return low | hit
    return None
