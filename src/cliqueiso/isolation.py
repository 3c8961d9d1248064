"""Verification and exact solving of minimum k-clique isolating sets.

A set D isolates the k-cliques of G when G - N[D] has no k-clique; the
isolation number is the minimum size of such a D.  Two independent routes to
the number live here: a brute-force subset oracle for small graphs and a
branch-and-bound solver that is exact at every size it can finish.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

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

ORACLE_CAP = 20


class OracleCapError(ValueError):
    """Raised when the subset oracle is asked for more vertices than its cap."""


class IsolationCertificate(NamedTuple):
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


class SolveReport(NamedTuple):
    """An exact answer plus how much work it took.

    ``nodes_expanded`` counts search nodes (subsets tested, for the oracle).
    ``bound_prunes`` counts the nodes the packing bound cut off, also where
    the branching clique alone used up the budget and where, one vertex short
    of the best set, no single candidate isolates the rest; and
    ``incumbent_updates`` the times the search beat its best set so far,
    starting from the greedy set; both are 0 for the oracle.  The counters
    are informative only; correctness never depends on them.  The report
    depends only on the graph and k, so equal calls give equal reports.
    """

    iota: int
    optimal_set: VertexSet
    nodes_expanded: int
    bound_prunes: int
    incumbent_updates: int


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


def iota_oracle(g: Graph, k: int) -> SolveReport:
    """Exact isolation number by scanning subsets in increasing size.

    Within each size, subsets are tried in lexicographic order and the first
    that verifies is returned, so the reported set is canonical.  Refuses
    graphs of more than ``ORACLE_CAP`` vertices, a fixed limit: the scan may
    test all 2^n subsets.
    """
    require_k(k)
    if g.n > ORACLE_CAP:
        raise OracleCapError(f"oracle cap is {ORACLE_CAP} vertices, got {g.n}")
    combo, tested = oracle_scan(g.adj, k)
    return SolveReport(len(combo), frozenset(combo), tested, 0, 0)


def oracle_scan(adj: Sequence[int], k: int) -> tuple[tuple[int, ...], int]:
    """The subset scan behind ``iota_oracle``: the first isolating subset of
    the whole graph in (size, lexicographic) order, whose length is the
    isolation number, and how many subsets were tested.

    The empty set and then each single vertex are tested before any
    ``combinations`` generator is built; the order and the count are the same
    as in one scan, so the single vertex v is subset v + 2.  Nothing is
    bounded or pruned: every subset before the answer is tested.
    """
    n = len(adj)
    full = (1 << n) - 1
    # The isolation tests are inline, not cliques.isolates: through it, the
    # scans of the 82,413 non-excluded n <= 6, k <= 3 instances took 0.204 s
    # against 0.153 s (process time, median of 9 alternated in-process runs,
    # 2-core box, Python 3.11.7).
    if find_in_mask(adj, full, k) is None:
        return (), 1
    for v in range(n):
        if find_in_mask(adj, full & ~(adj[v] | 1 << v), k) is None:
            return (v,), v + 2
    closed = [adj[v] | (1 << v) for v in range(n)]
    tested = n + 1
    for size in range(2, n + 1):
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
    ball: Sequence[int],
    pool: int,
    k: int,
    clique: int,
    forbidden: int,
    limit: int,
) -> tuple[int, int]:
    """A lower bound on how many more vertices any isolating set of ``pool``
    needs when no vertex of ``forbidden`` may be chosen, and ``later``, the
    union of N[H] over the cliques packed after the first.  The packing starts
    from ``clique``, any k-clique of ``pool`` (not necessarily its first), or
    from the pool's first k-clique when ``clique`` is 0.  A bound of at least
    ``limit`` means only that it reaches ``limit``.

    Greedily packs k-cliques whose hitter sets are pairwise disjoint, starting
    from ``clique`` and then taking the first k-clique left in the pool, so the
    labels of ``adj`` decide which cliques are packed.  A vertex kills a
    clique C exactly when it lies in N[C], so C needs a chosen vertex in its
    hitter set H = N[C] minus ``forbidden``, and distinct packed cliques need
    distinct vertices.  After C is packed, N[H] leaves the pool: a later
    clique outside N[H] has a hitter set disjoint from H.  When N[C] misses
    ``forbidden``, N[H] is N[N[C]], the union of the precomputed distance-two
    balls ``ball[v]`` over v in C.  An empty H means no allowed set isolates
    the pool, and the bound returns ``limit`` at once; so does reaching
    ``limit`` packed cliques, since the caller prunes either way.

    A vertex u of the first clique's H misses N[C] for every later packed
    clique C, so those cliques survive N[u] with their hitter sets still
    disjoint, and forbidding more vertices only shrinks them.  So a search
    child that chooses u keeps them as a packing, and a clique found outside
    ``later`` adds to it.
    """
    count = 0
    later = 0
    if not clique:
        clique = find_in_mask(adj, pool, k)
    while clique is not None:
        count += 1
        if count >= limit:
            return count, later
        # N[C] and N[H] inline, not closed_mask: the call made solve-random's
        # k = 2 pool 3-4% slower.
        hood = clique
        rest = clique
        while rest:
            low = rest & -rest
            rest ^= low
            hood |= adj[low.bit_length() - 1]
        if hood & forbidden:
            hitters = hood & ~forbidden
            if not hitters:
                return limit, later
            reach = hitters
            while hitters:
                low = hitters & -hitters
                hitters ^= low
                reach |= adj[low.bit_length() - 1]
        else:
            reach = 0
            while clique:
                low = clique & -clique
                clique ^= low
                reach |= ball[low.bit_length() - 1]
        pool &= ~reach
        if count > 1:
            later |= reach
        clique = find_in_mask(adj, pool, k)
    return count, later


def degree_relabel(
    adj: Sequence[int], within: int, code: list[int], closed: list[int]
) -> tuple[list[int], list[int]]:
    """The subgraph on ``within`` relabeled 0, 1, ... by ascending degree in
    it, ties to the smaller label: its adjacency rows, and the distance-two
    ball N[N[i]] of each new label i.  Each vertex v of ``within`` also gets
    the bit of its new label in ``code[v]`` and its closed row in the new
    labels in ``closed[v]``.

    ``packing_bound`` packs cliques in label order, so on these rows it packs
    cliques of low-degree vertices first, whose balls are small and leave more
    of the pool to pack.
    """
    order = sorted(bits(within), key=lambda v: ((adj[v] & within).bit_count(), v))
    rows = [0] * len(order)
    placed = 0
    for i, v in enumerate(order):
        bit = 1 << i
        code[v] = bit
        # Each edge is entered once, from its later end, whose earlier
        # neighbours already have their codes.
        row = 0
        earlier = adj[v] & placed
        while earlier:
            low = earlier & -earlier
            earlier ^= low
            w = code[low.bit_length() - 1]
            row |= w
            rows[w.bit_length() - 1] |= bit
        rows[i] = row
        placed |= 1 << v
    balls = []
    for i, v in enumerate(order):
        closed[v] = rows[i] | 1 << i
        balls.append(closed_mask(rows, closed[v]))
    return rows, balls


def iota_solve(g: Graph, k: int) -> SolveReport:
    """Exact isolation number by branch and bound.

    The problem splits over connected components (isolation is additive across
    them), and ``solve_mask`` searches each one; its docstring describes the
    search and every lever it pulls.  The report sums over all components the
    nodes expanded (settled children included), the bound prunes (see
    ``SolveReport``) and the incumbent updates, counted from the greedy set.
    The search keeps its nodes on an explicit stack, so its depth, one level
    per chosen vertex, never meets Python's recursion limit.
    """
    require_k(k)
    best, nodes, prunes, updates = solve_mask(g.adj, component_masks(g.adj, g.full_mask), k)
    return SolveReport(best.bit_count(), set_of(best), nodes, prunes, updates)


def solve_mask(adj: Sequence[int], comps: Iterable[int], k: int) -> tuple[int, int, int, int]:
    """The search behind ``iota_solve`` over the components ``comps``: a
    minimum isolating set of their union as a mask, plus the node, prune and
    update counts summed over them.

    It takes a list of components, not one, so that one pair of relabel
    tables (``dcode`` and ``dclosed``, below), each as long as the host
    graph, is shared by every component: allocating them per component made
    3,000 disjoint 16-vertex components at k = 1 about 1.5× slower.

    Each component starts from ``greedy_mask``'s set as its incumbent.  A node
    branches on the closed neighbourhood N[C] of the first k-clique C of its
    residual in host labels, smallest vertex first; each tried vertex is
    forbidden in the later branches, so no subset is visited twice.  A node
    with no clique left is a leaf, which replaces the incumbent when smaller.
    ``packing_bound`` packs cliques whose still-allowed hitters are pairwise
    disjoint, starting from the branching clique and then in ascending-degree
    order (below); the node is pruned at once when some clique has no allowed
    hitter, or when the count reaches the slack, the incumbent's size less the
    node's.  The branching clique alone is a packing of one, so a node with
    slack at most one is pruned without calling the bound.  For the same
    reason a component whose greedy set is one vertex is not searched: that
    vertex is returned with the counts of the root's own prune (one node, one
    bound prune, no update); an empty greedy set is one leaf node.  A valid
    bound never prunes an ancestor of the first optimal leaf, so the bound and
    the relabeling decide how many nodes are visited, never which set is
    returned or how often the incumbent improves.

    Each component is searched depth first from an explicit stack of nodes
    ``(chosen, covered, forbidden, size, dcovered, dforbidden, later,
    inherited)``.  A node's children are pushed highest candidate first, each
    with the candidates below it forbidden, so they are popped lowest first,
    exactly in the order of a recursive search.  A candidate lies in N[C] for
    a clique C of the residual, so it is never a chosen vertex, and only
    ``forbidden`` is masked out of N[C].

    At slack two the node's children would be leaves, and ``_last_vertex``
    finds the first of them that isolates the residual, which becomes the
    incumbent; when none does, the node counts a bound prune.  At slack three
    the children would be slack-two nodes that push nothing, popped one after
    another, so the node settles them where it stands, lowest candidate first:
    each still counts as a node and follows the same leaf, prune and slack-two
    rules, against the incumbent as its earlier siblings left it.  The settle
    keeps ``seen``, the k-cliques of its residual R found so far by the
    children's own searches and by ``_last_vertex``, each with its N[C].  A
    seen C that misses N[u] lies in the child u's rest R - N[u], so that child
    is no leaf without a search, and its last vertex, which must kill C, lies
    in N[C]: the candidates start as the intersection of those N[C] outside
    ``forbidden``.  Only when no seen clique survives does the child search
    its rest.  Dropping vertices that fail anyway leaves the lowest isolating
    vertex the answer, so the tree, the set and every counter are as without
    ``seen``.

    Packing in host labels starts with the low labels, which may be hubs
    whose balls empty the pool.  So a component whose greedy set has at least
    four vertices is relabeled once by ``degree_relabel``, and the bound runs
    on those rows: ``dcovered`` and ``dforbidden`` are ``covered`` and
    ``forbidden`` in the new labels, and ``dcode`` and ``dclosed`` hold each
    host vertex's new bit and new closed row (one list for the whole call,
    which ``degree_relabel`` fills in for each component's vertices).  The
    search itself stays in host labels, so the tree's order and the reported
    set do not depend on the relabeling.  A component whose greedy set has
    three vertices is neither relabeled nor packed.  Its root, at slack
    three, would be its only node to pack, since the root settles every
    child in place and pushes nothing; so it settles at once.  The packing
    could only have pruned it when iota is three, and then the settle finds
    no better set either: the set and the updates are the same, and only the
    node and prune counts grow.  Over every connected graph with n <= 6 at
    k = 1, 11,783 components have a greedy set of three and 480 of them an
    iota of three; the tables cost more than the settles they would spare.

    A node that packs without pruning hands its children the packing's
    ``later`` and its count less the branching clique, ``inherited``.  A
    child u lies in the branching clique's hitter set, so those cliques
    stay in its residual, away from N[u], and are still a packing under its
    own ``dforbidden`` (``packing_bound``).  So a child with ``inherited``
    cliques first extends them on its pool outside ``later`` and prunes if
    that reaches its slack; only when it falls short does it pack afresh
    from its own branching clique, whose packing it hands on.  That fresh
    packing is the same with or without an inherited one, so every node it
    prunes is still pruned: the extension only removes nodes.
    """
    total = nodes = prunes = updates = 0
    dcode: list[int] = []
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
        best_size = best.bit_count()
        # Only a greedy set of four or more leaves a node below the root
        # that packs, so only these components need the tables.
        packs = best_size > 3
        if packs:
            if not dcode:
                dcode = [0] * len(adj)
                dclosed = [0] * len(adj)
            drows, dball = degree_relabel(adj, comp, dcode, dclosed)
            dcomp = (1 << len(drows)) - 1
        stack = [(0, 0, 0, 0, 0, 0, 0, 0)]
        while stack:
            chosen, covered, forbidden, size, dcovered, dforbidden, later, inherited = stack.pop()
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
            if limit <= 1:
                prunes += 1
                continue
            if limit == 2:
                hood = closed_mask(adj, clique)
                last = _last_vertex(adj, residual, hood & ~forbidden, k, [(clique, hood)])
                if last:
                    best = chosen | last
                    best_size = size + 1
                    updates += 1
                else:
                    prunes += 1
                continue
            if packs:
                pool = dcomp & ~dcovered
                # The parent's packed cliques but its branching one,
                # ``inherited`` of them, are a packing here too; extend it
                # outside ``later``.
                if inherited and packing_bound(
                    drows, dball, pool & ~later, k, 0, dforbidden, limit - inherited
                )[0] >= limit - inherited:
                    prunes += 1
                    continue
                dclique = 0
                rest = clique
                while rest:
                    low = rest & -rest
                    rest ^= low
                    dclique |= dcode[low.bit_length() - 1]
                count, later = packing_bound(drows, dball, pool, k, dclique, dforbidden, limit)
                if count >= limit:
                    prunes += 1
                    continue
            size += 1
            if limit == 3:
                # The children, lowest first; ``forbidden`` gains each tried
                # one, and ``seen`` every clique of the residual found so far,
                # with its closed neighbourhood.
                candidates = closed_mask(adj, clique) & ~forbidden
                seen = []
                while candidates:
                    low = candidates & -candidates
                    candidates ^= low
                    nodes += 1
                    cut = adj[low.bit_length() - 1] | low
                    rest = residual & ~cut
                    # A seen clique that misses N[low] lies in the child's
                    # rest, so the child is no leaf, and its last vertex must
                    # lie in that clique's hood.
                    allowed = ~forbidden
                    alive = 0
                    for found, reach in seen:
                        if not found & cut:
                            allowed &= reach
                            alive = found
                    if not alive:
                        alive = find_in_mask(adj, rest, k)
                        if alive is None:
                            if size < best_size:
                                best = chosen | low
                                best_size = size
                                updates += 1
                            forbidden |= low
                            continue
                        reach = closed_mask(adj, alive)
                        seen.append((alive, reach))
                        allowed &= reach
                    if best_size - size <= 1:
                        prunes += 1
                    else:
                        last = _last_vertex(adj, rest, allowed, k, seen)
                        if last:
                            best = chosen | low | last
                            best_size = size + 1
                            updates += 1
                        else:
                            prunes += 1
                    forbidden |= low
                continue
            hood = clique
            dhood = 0
            rest = clique
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                hood |= adj[v]
                dhood |= dclosed[v]
            candidates = hood & ~forbidden
            dcandidates = dhood & ~dforbidden
            while candidates:
                u = candidates.bit_length() - 1
                high = 1 << u
                candidates ^= high
                dcandidates ^= dcode[u]
                stack.append((
                    chosen | high,
                    covered | adj[u] | high,
                    forbidden | candidates,
                    size,
                    dcovered | dclosed[u],
                    dforbidden | dcandidates,
                    later,
                    count - 1,
                ))
        total |= best
    return total, nodes, prunes, updates


def _last_vertex(
    adj: Sequence[int], residual: int, candidates: int, k: int, seen: list[tuple[int, int]]
) -> int:
    """The lowest vertex of ``candidates`` whose closed neighbourhood leaves
    no k-clique in ``residual``, as a bit, or 0 if there is none.

    ``candidates`` must hold every allowed vertex that could answer; a caller
    that knows a k-clique C of ``residual`` passes the allowed part of N[C],
    since only a vertex of N[C] kills C.  While candidates remain, the lowest,
    v, is tried: if a clique C' survives N[v], every candidate outside N[C'],
    v among them, leaves C' alive and is dropped.  Each such C' is appended to
    ``seen`` with N[C'].
    """
    while candidates:
        low = candidates & -candidates
        clique = find_in_mask(adj, residual & ~(adj[low.bit_length() - 1] | low), k)
        if clique is None:
            return low
        hood = closed_mask(adj, clique)
        seen.append((clique, hood))
        candidates &= hood
    return 0
