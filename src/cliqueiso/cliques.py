"""k-clique detection over bitmask adjacency.

Every answer is the lexicographically smallest k-clique of the pool.  The two
small sizes, which are most of the calls, need no descent: at k = 1 the
answer is the lowest vertex of the pool, and at k = 2 one pass finds the
lowest vertex with a later neighbour in the pool and pairs it with the lowest
such neighbour.  For k >= 3 the search extends partial cliques one vertex at
a time in increasing vertex order, so the first completion is the smallest
witness.  It keeps one entry per level on its own stack, not on Python's, so
any k runs at any recursion limit.  A candidate is descended into only if
enough mutual neighbours remain to finish a clique, which is the whole of the
pruning story; the last two vertices come from the same pass as k = 2.
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
    """Smallest ``need``-clique inside ``cand``, or None; ``need`` >= 3.

    ``acc`` holds the vertices taken so far and ``cand`` their common
    neighbours above the last one.  Taking a vertex saves the level's
    ``(acc, cand, need)`` on a stack; a level that runs out of candidates
    resumes the one below it.
    """
    acc = 0
    stack = []
    while True:
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            sub = adj[low.bit_length() - 1] & cand
            if sub.bit_count() >= need - 1:
                if need > 3:
                    stack.append((acc, cand, need))
                    acc, cand, need = acc | low, sub, need - 1
                    continue
                hit = _edge(adj, sub)
                if hit is not None:
                    return acc | low | hit
        if not stack:
            return None
        acc, cand, need = stack.pop()
