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
from typing import Iterable, Sequence

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

    ``nodes_expanded`` and ``elapsed`` are informative only; correctness never
    depends on them.
    """

    iota: int
    optimal_set: VertexSet
    nodes_expanded: int
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
    adj = g.adj
    full = g.full_mask
    closed = [adj[v] | (1 << v) for v in range(g.n)]
    tested = 0
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            tested += 1
            covered = 0
            for v in combo:
                covered |= closed[v]
            if find_in_mask(adj, full & ~covered, k) is None:
                return SolveReport(size, frozenset(combo), tested, time.perf_counter() - start)
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
        for v in bits(clique):
            deg = (adj[v] & residual).bit_count()
            if deg > best_deg:
                best_v, best_deg = v, deg
        chosen |= 1 << best_v
        residual &= ~(adj[best_v] | (1 << best_v))


def packing_bound(adj: Sequence[int], pool: int, k: int) -> int:
    """Lower bound on how many more vertices any isolating set needs.

    Greedily packs k-cliques whose closed neighbourhoods are pairwise disjoint
    (after taking a clique, everything within distance two of it leaves the
    pool).  Any vertex that kills one packed clique lies in that clique's
    closed neighbourhood, so distinct packed cliques need distinct vertices.
    """
    count = 0
    while True:
        clique = find_in_mask(adj, pool, k)
        if clique is None:
            return count
        count += 1
        pool &= ~closed_mask(adj, closed_mask(adj, clique))


def iota_solve(g: Graph, k: int) -> SolveReport:
    """Exact isolation number by branch and bound.

    The problem splits over connected components (isolation is additive across
    them).  Within a component the search keeps a valid incumbent, branches on
    the closed neighbourhood of the first residual k-clique (smallest vertex
    first, with chosen-vertex exclusion so no subset is visited twice) and
    prunes with the disjoint-clique packing bound.
    """
    require_k(k)
    start = time.perf_counter()
    total = 0
    iota = 0
    nodes = 0
    for comp in component_masks(g.adj, g.full_mask):
        best, comp_nodes = _solve_component(g.adj, comp, k)
        total |= best
        iota += best.bit_count()
        nodes += comp_nodes
    return SolveReport(iota, set_of(total), nodes, time.perf_counter() - start)


def _solve_component(adj: Sequence[int], comp: int, k: int) -> tuple[int, int]:
    incumbent = greedy_mask(adj, comp, k)
    if incumbent == 0:
        return 0, 1
    best_mask = incumbent
    best_size = incumbent.bit_count()
    nodes = 0

    def search(chosen: int, covered: int, forbidden: int, size: int) -> None:
        nonlocal best_mask, best_size, nodes
        nodes += 1
        residual = comp & ~covered
        clique = find_in_mask(adj, residual, k)
        if clique is None:
            if size < best_size:
                best_mask = chosen
                best_size = size
            return
        if size + packing_bound(adj, residual, k) >= best_size:
            return
        candidates = closed_mask(adj, clique) & ~forbidden & ~chosen
        barred = forbidden
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            u = low.bit_length() - 1
            search(chosen | low, covered | adj[u] | low, barred, size + 1)
            barred |= low

    search(0, 0, 0, 0)
    return best_mask, nodes
