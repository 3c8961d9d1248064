"""Verification and exact solving of minimum k-clique isolating sets.

A set D isolates the k-cliques of G when G - N[D] has no k-clique; the
isolation number is the minimum size of such a D.  Two independent routes to
the number live here: a brute-force subset oracle for small graphs and a
branch-and-bound solver that is exact at every size it can finish.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .cliques import find_in_mask
from .graph import (
    Graph,
    VertexSet,
    bits,
    closed_mask,
    component_masks,
    mask_of,
    require_k,
    set_of,
)

DEFAULT_ORACLE_CAP = 20


class OracleCapError(ValueError):
    """Raised when the subset oracle is asked for more vertices than its cap."""


@dataclass(frozen=True)
class IsolationCertificate:
    """Outcome of checking one candidate set.

    ``witness`` is a k-clique untouched by the candidate's closed
    neighbourhood, in the host graph's labels; it is present exactly when the
    candidate is invalid.  ``residual_size`` counts the vertices that survive
    the deletion either way.
    """

    candidate: VertexSet
    valid: bool
    witness: VertexSet | None
    residual_size: int


@dataclass(frozen=True)
class SolveReport:
    """An exact answer plus how much work it took.

    ``nodes_expanded`` counts search nodes (subsets tested, for the oracle).
    ``bound_prunes`` counts the nodes the packing bound cut off, also where
    the branching clique alone used up the budget, and
    ``incumbent_updates`` the times the search beat its best set so far,
    starting from the greedy set; both are 0 for the oracle.  The counters
    and ``elapsed`` are informative only; correctness never depends on them.
    """

    iota: int
    optimal_set: VertexSet
    nodes_expanded: int
    bound_prunes: int
    incumbent_updates: int
    elapsed: float


def verify_isolating(g: Graph, k: int, candidate: Iterable[int]) -> IsolationCertificate:
    """Check whether deleting N[candidate] leaves the graph k-clique-free."""
    require_k(k)
    cand_mask = mask_of(candidate, g.n)
    residual = g.full_mask & ~closed_mask(g.adj, cand_mask)
    witness = find_in_mask(g.adj, residual, k)
    return IsolationCertificate(
        candidate=set_of(cand_mask),
        valid=witness is None,
        witness=None if witness is None else set_of(witness),
        residual_size=residual.bit_count(),
    )


def iota_oracle(g: Graph, k: int, *, cap: int = DEFAULT_ORACLE_CAP) -> SolveReport:
    """Exact isolation number by scanning subsets in increasing size.

    Within each size, subsets are tried in lexicographic order and the first
    that verifies is returned, so the reported set is canonical.  Refuses
    graphs larger than ``cap`` vertices.
    """
    require_k(k)
    if g.n > cap:
        raise OracleCapError(
            f"oracle cap is {cap} vertices, got {g.n}; raise cap= to override"
        )
    start = time.perf_counter()
    combo, tested = oracle_scan(g.adj, k)
    return SolveReport(
        len(combo), frozenset(combo), tested, 0, 0, time.perf_counter() - start
    )


def oracle_scan(adj: Sequence[int], k: int) -> tuple[tuple[int, ...], int]:
    """The subset scan behind ``iota_oracle``: the first isolating subset of
    the whole graph in (size, lexicographic) order, whose length is the
    isolation number, and how many subsets were tested."""
    n = len(adj)
    full = (1 << n) - 1
    closed = [adj[v] | (1 << v) for v in range(n)]
    tested = 0
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            tested += 1
            covered = 0
            for v in combo:
                covered |= closed[v]
            if find_in_mask(adj, full & ~covered, k) is None:
                return combo, tested
    raise AssertionError("unreachable: the full vertex set always isolates")


def greedy_mask(adj: Sequence[int], within: int, k: int) -> int:
    """A valid (not necessarily minimum) isolating set of ``within``, built
    greedily.

    Repeatedly find a k-clique in the residual and add the clique vertex of
    maximum residual degree (ties to the smallest index).
    """
    chosen = 0
    residual = within
    while True:
        clique = find_in_mask(adj, residual, k)
        if clique is None:
            return chosen
        best_v = -1
        best_deg = -1
        while clique:
            low = clique & -clique
            clique ^= low
            v = low.bit_length() - 1
            deg = (adj[v] & residual).bit_count()
            if deg > best_deg:
                best_v, best_deg = v, deg
        chosen |= 1 << best_v
        residual &= ~(adj[best_v] | (1 << best_v))


def packing_bound(
    adj: Sequence[int],
    ball: Mapping[int, int],
    pool: int,
    k: int,
    clique: int,
    forbidden: int,
    limit: int,
) -> int:
    """Lower bound on how many more vertices any isolating set of ``pool``
    needs when no vertex of ``forbidden`` may be chosen, given ``clique``, the
    first k-clique of ``pool``; a return value of at least ``limit`` means
    only that the bound reaches ``limit``.

    Greedily packs k-cliques whose hitter sets are pairwise disjoint.  A
    vertex kills a clique C exactly when it lies in N[C], so C needs a chosen
    vertex in its hitter set H = N[C] minus ``forbidden``, and distinct packed
    cliques need distinct vertices.  After C is packed, N[H] leaves the pool:
    a later clique outside N[H] has a hitter set disjoint from H.  When N[C]
    misses ``forbidden``, N[H] is N[N[C]], the union of the precomputed
    distance-two balls ``ball[v]`` over v in C.  An empty H means no allowed
    set isolates the pool, and the bound returns ``limit`` at once; so does
    reaching ``limit`` packed cliques, since the caller prunes either way.
    """
    count = 0
    while True:
        count += 1
        if count >= limit:
            return count
        hood = clique
        rest = clique
        while rest:
            low = rest & -rest
            rest ^= low
            hood |= adj[low.bit_length() - 1]
        if hood & forbidden:
            hitters = hood & ~forbidden
            if not hitters:
                return limit
            reach = hitters
            while hitters:
                low = hitters & -hitters
                hitters ^= low
                reach |= adj[low.bit_length() - 1]
            pool &= ~reach
        else:
            while clique:
                low = clique & -clique
                clique ^= low
                pool &= ~ball[low.bit_length() - 1]
        clique = find_in_mask(adj, pool, k)
        if clique is None:
            return count


def iota_solve(g: Graph, k: int) -> SolveReport:
    """Exact isolation number by branch and bound.

    The problem splits over connected components (isolation is additive across
    them).  Within a component the search starts from the greedy set as its
    incumbent, branches on the closed neighbourhood of the first residual
    k-clique (smallest vertex first; each tried vertex is forbidden in the
    later branches, so no subset is visited twice) and prunes with
    ``packing_bound``.  That bound packs cliques with disjoint sets of
    still-allowed hitters, starting from the branching clique; it prunes at
    once when some clique has no allowed hitter and stops packing when the
    count reaches the slack ``best size - size``.  The branching clique alone
    is a packing of one, so a node with slack at most one is pruned without
    calling the bound.  For the same reason a component whose greedy set is a
    single vertex is not searched: that vertex is returned with the counts of
    the root's own prune (one node, one bound prune, no update).  A valid
    bound never prunes an ancestor of the first optimal leaf, so the bound
    decides how many nodes are visited, never which set is returned.  The
    report counts nodes, bound prunes and incumbent updates over all
    components.  The search keeps its nodes on an explicit stack, so its
    depth, one level per chosen vertex, never meets Python's recursion limit.
    """
    require_k(k)
    start = time.perf_counter()
    best, nodes, prunes, updates = solve_mask(g.adj, component_masks(g.adj, g.full_mask), k)
    return SolveReport(
        best.bit_count(), set_of(best), nodes, prunes, updates, time.perf_counter() - start
    )


def solve_mask(adj: Sequence[int], comps: Iterable[int], k: int) -> tuple[int, int, int, int]:
    """The search behind ``iota_solve`` over the components ``comps``: a
    minimum isolating set of their union as a mask, plus the node, prune and
    update counts summed over them.

    Each component is searched depth first from an explicit stack of nodes
    ``(chosen, covered, forbidden, size)``.  A node's children are pushed
    highest candidate first, each with the candidates below it forbidden, so
    they are popped lowest first, exactly in the order of a recursive search.
    """
    total = nodes = prunes = updates = 0
    for comp in comps:
        best = greedy_mask(adj, comp, k)
        if best & (best - 1) == 0:
            # No clique at all, or one vertex is optimal: the root's bound of
            # one clique would prune.
            total |= best
            nodes += 1
            if best:
                prunes += 1
            continue
        ball = {v: closed_mask(adj, adj[v] | 1 << v) for v in bits(comp)}
        best_size = best.bit_count()
        stack = [(0, 0, 0, 0)]
        while stack:
            chosen, covered, forbidden, size = stack.pop()
            nodes += 1
            residual = comp & ~covered
            clique = find_in_mask(adj, residual, k)
            if clique is None:
                if size < best_size:
                    best = chosen
                    best_size = size
                    updates += 1
                continue
            limit = best_size - size
            # The branching clique alone bounds by one, so a slack of one or
            # less prunes without packing.
            if limit <= 1 or packing_bound(
                adj, ball, residual, k, clique, forbidden, limit
            ) >= limit:
                prunes += 1
                continue
            candidates = closed_mask(adj, clique) & ~forbidden & ~chosen
            while candidates:
                u = candidates.bit_length() - 1
                high = 1 << u
                candidates ^= high
                stack.append(
                    (chosen | high, covered | adj[u] | high, forbidden | candidates, size + 1)
                )
        total |= best
    return total, nodes, prunes, updates
