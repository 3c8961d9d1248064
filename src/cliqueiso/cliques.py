"""k-clique detection over bitmask adjacency.

The search extends partial cliques one vertex at a time in increasing vertex
order, so the first completion is the lexicographically smallest witness.  A
candidate is descended into only if enough mutual neighbours remain to finish
a clique, which is the whole of the pruning story.  The last vertex needs no
descent: any remaining candidate completes the clique, so the lowest one is
taken directly.
"""

from __future__ import annotations

from typing import Sequence


def find_in_mask(adj: Sequence[int], pool: int, k: int) -> int | None:
    """Lexicographically smallest k-clique inside ``pool``, as a mask, or None.

    Shared by the verifier, the solvers and the constructive builder so that
    every "which clique" decision in the package agrees.
    """
    if k == 0:
        return 0
    return _descend(adj, pool, k, 0)


def _descend(adj: Sequence[int], cand: int, need: int, acc: int) -> int | None:
    """Smallest ``need``-clique in ``cand``, ORed onto ``acc``; ``need`` >= 1.

    Every vertex of ``cand`` is adjacent to every vertex of ``acc``.
    """
    if need == 1:
        return acc | (cand & -cand) if cand else None
    while cand.bit_count() >= need:
        low = cand & -cand
        cand ^= low
        sub = adj[low.bit_length() - 1] & cand
        if sub.bit_count() >= need - 1:
            hit = _descend(adj, sub, need - 1, acc | low)
            if hit is not None:
                return hit
    return None
