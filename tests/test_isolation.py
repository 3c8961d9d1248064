"""Isolation predicate, subset-scan oracle, the exact branch-and-bound solver,
a hitting-set ILP cross-check, and a golden corpus that pins the solver's sets
and every search counter.

``TestGolden`` checks the committed file byte for byte against the corpus
regenerated from the code.  When a solver output is meant to change, rewrite
the file with ``PYTHONPATH=src python -m tests.test_isolation`` and commit the
diff.  It prints how many entries changed iota or set and how many changed
their incumbent updates, the total node and prune counts before and after, and
how many entries grew, before it writes.
"""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, target
import hypothesis.strategies as st

from cliqueiso import (
    ExceptionKind,
    Graph,
    OracleCapError,
    build_complete,
    build_cycle,
    build_extremal,
    build_path,
    bounded_isolating_set,
    classify_exception,
    enumerate_connected,
    gen_random_connected,
    iota_oracle,
    iota_solve,
    verify_isolating,
)
from cliqueiso import isolation
from cliqueiso.cliques import find_in_mask
from cliqueiso.graph import mask_of, set_of
from cliqueiso.isolation import degree_relabel, greedy_mask, packing_bound

from .support import (
    adjacency_sets,
    connected_graphs,
    corpus_text,
    disjoint_union,
    graphs,
    labeled_graphs,
    naive_closed_neighborhood,
    naive_delete,
    naive_first_isolator,
    naive_iota,
    naive_is_isolating,
    naive_k_cliques,
    planted,
    random_tree,
    run_at_low_recursion_limit,
    tree_iota,
)


# The integer draw of ``graphs`` leans sparse, so the solver and bound
# properties also draw dense graphs, one fair coin per vertex pair.
SOLVER_GRAPHS = st.one_of(graphs(max_n=9), graphs(min_n=7, max_n=9, coin=True))
BOUND_GRAPHS = st.one_of(graphs(max_n=8), graphs(min_n=6, max_n=8, coin=True))

# Two triangles, {0, 1, 2} and {6, 7, 8}, joined by the path 2-3-4-5-6.
TWO_TRIANGLES = Graph.from_edges(
    9, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8), (7, 8)]
)


def distance_two_rows(g: Graph) -> list[int]:
    """N[N[v]] of every vertex, rebuilt from the naive neighbourhood helper."""
    return [
        mask_of(naive_closed_neighborhood(g, naive_closed_neighborhood(g, [v])), g.n)
        for v in range(g.n)
    ]


def degree_renamed(g: Graph) -> tuple[Graph, list[int]]:
    """``g`` with its vertices renamed 0, 1, ... by ascending degree, ties to
    the smaller label, rebuilt from the edge list; and each vertex's new name."""
    nbrs = adjacency_sets(g)
    order = sorted(range(g.n), key=lambda v: (len(nbrs[v]), v))
    name = [0] * g.n
    for i, v in enumerate(order):
        name[v] = i
    return Graph.from_edges(g.n, [(name[u], name[v]) for u, v in g.edges()]), name


def packing(g: Graph, pool: int, k: int, forbidden: int = 0, limit: int | None = None) -> int:
    """``packing_bound`` on ``pool``, started from its first k-clique; with no
    ``limit``, one that no packing reaches."""
    first = find_in_mask(g.adj, pool, k)
    if first is None:
        return 0
    if limit is None:
        limit = g.n + 1
    return packing_bound(g.adj, distance_two_rows(g), pool, k, first, forbidden, limit)[0]


def naive_packing(g: Graph, pool: set[int], k: int) -> int:
    """Take the lexicographically first k-clique left in ``pool``, delete its
    distance-two ball from ``pool``, and count how often that can be done."""
    pool = set(pool)
    count = 0
    while True:
        first = next(naive_k_cliques(g, k, pool), None)
        if first is None:
            return count
        count += 1
        pool -= naive_closed_neighborhood(g, naive_closed_neighborhood(g, first))


def naive_least_isolator(g: Graph, pool: set[int], k: int, forbidden: set[int]) -> int | None:
    """Size of the smallest set of vertices outside ``forbidden`` whose closed
    neighbourhood meets every k-clique inside ``pool``, or None if none does."""
    cliques = [set(c) for c in naive_k_cliques(g, k, pool)]
    allowed = [u for u in range(g.n) if u not in forbidden]
    for size in range(len(allowed) + 1):
        for subset in combinations(allowed, size):
            covered = naive_closed_neighborhood(g, subset)
            if all(c & covered for c in cliques):
                return size
    return None


def vertex_subset(g: Graph, data) -> set[int]:
    """A drawn set of vertices of ``g``."""
    if not g.n:
        return set()
    return data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))


class TestVerify:
    def test_valid_certificate(self):
        c5 = build_cycle(5)
        cert = verify_isolating(c5, 2, [0, 2])
        assert cert.valid
        assert cert.witness is None
        assert cert.residual_size == 0

    def test_invalid_certificate_carries_witness(self):
        g = build_complete(4)
        cert = verify_isolating(g, 4, [])
        assert not cert.valid
        assert cert.witness == frozenset({0, 1, 2, 3})
        assert cert.residual_size == 4

    def test_witness_uses_host_labels(self):
        # Deleting N[0] from the path leaves the edge (2, 3) as host vertices 2, 3.
        p = build_path(4)
        cert = verify_isolating(p, 2, [0])
        assert not cert.valid
        assert cert.witness == frozenset({2, 3})

    def test_out_of_range_candidate_rejected(self):
        with pytest.raises(ValueError):
            verify_isolating(build_path(3), 2, [3])

    @given(graphs(max_n=8), st.integers(min_value=1, max_value=3), st.data())
    def test_matches_naive_predicate(self, g, k, data):
        subset = data.draw(
            st.sets(st.integers(min_value=0, max_value=max(g.n - 1, 0)))
            if g.n
            else st.just(set())
        )
        subset = {u for u in subset if u < g.n}
        cert = verify_isolating(g, k, subset)
        assert cert.valid == naive_is_isolating(g, k, subset)
        if cert.witness is not None:
            residual = set(range(g.n)) - naive_closed_neighborhood(g, subset)
            assert cert.witness <= residual
            nbrs = adjacency_sets(g)
            assert all(b in nbrs[a] for a in cert.witness for b in cert.witness if a < b)
            assert len(cert.witness) == k


class TestOracle:
    def test_complete_graphs_need_one_vertex(self):
        for k in range(1, 7):
            assert iota_oracle(build_complete(k), k).iota == 1

    def test_five_cycle_needs_two(self):
        assert iota_oracle(build_cycle(5), 2).iota == 2

    def test_path_domination_values(self):
        # Domination number of a path is ceil(n/3).
        for n, want in [(1, 1), (2, 1), (3, 1), (4, 2), (6, 2), (7, 3)]:
            assert iota_oracle(build_path(n), 1).iota == want

    def test_no_clique_means_empty_set(self):
        rep = iota_oracle(build_path(5), 3)
        assert rep.iota == 0
        assert rep.optimal_set == frozenset()

    def test_cap_refusal_names_the_cap(self):
        with pytest.raises(OracleCapError) as info:
            iota_oracle(build_path(21), 2)
        assert str(info.value) == "oracle cap is 20 vertices, got 21"

    def test_set_and_count_are_the_first_isolator_and_its_rank(self):
        # labeled_graphs(5) starts with the graph with no vertices, whose
        # first isolator is the empty set at rank 1.
        for g in labeled_graphs(5):
            for k in (1, 2, 3):
                subset, rank = naive_first_isolator(g, k)
                rep = iota_oracle(g, k)
                assert (rep.optimal_set, rep.nodes_expanded) == (frozenset(subset), rank), (
                    g.n, sorted(g.edges()), k
                )

    @given(graphs(max_n=7), st.integers(min_value=1, max_value=3))
    def test_agrees_with_subset_scan(self, g, k):
        rep = iota_oracle(g, k)
        assert rep.iota == naive_iota(g, k)
        assert (rep.bound_prunes, rep.incumbent_updates) == (0, 0)
        assert len(rep.optimal_set) == rep.iota
        assert verify_isolating(g, k, rep.optimal_set).valid


class TestSolver:
    def test_report_shape(self):
        rep = iota_solve(build_cycle(5), 2)
        assert rep.iota == 2
        assert len(rep.optimal_set) == 2
        assert rep.nodes_expanded >= 1

    def test_empty_and_trivial_graphs(self):
        assert iota_solve(Graph.from_edges(0, []), 1).iota == 0
        assert iota_solve(Graph.from_edges(3, []), 1).iota == 3
        assert iota_solve(Graph.from_edges(3, []), 2).iota == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exhaustive_small_graphs_match_oracle(self, k):
        for n in range(1, 6):
            for g in enumerate_connected(n):
                assert iota_solve(g, k).iota == iota_oracle(g, k).iota, g

    @given(SOLVER_GRAPHS, st.integers(min_value=1, max_value=3))
    @settings(max_examples=80)
    def test_matches_oracle_on_arbitrary_graphs(self, g, k):
        rep = iota_solve(g, k)
        assert rep.iota == iota_oracle(g, k).iota
        assert verify_isolating(g, k, rep.optimal_set).valid

    @given(graphs(min_n=1, max_n=9), st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=40)
    def test_vertex_deletion_costs_at_most_one(self, g, k, data):
        v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        rest = naive_delete(g, naive_closed_neighborhood(g, [v]))
        assert iota_solve(g, k).iota <= 1 + iota_solve(rest, k).iota

    @given(graphs(max_n=9), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60)
    def test_counters_are_consistent(self, g, k):
        rep = iota_solve(g, k)
        greedy = greedy_mask(g.adj, g.full_mask, k).bit_count()
        # The search starts from the greedy set and only ever records improvements.
        assert (rep.incumbent_updates >= 1) == (rep.iota < greedy)
        assert rep.incumbent_updates <= greedy - rep.iota
        # Pruned nodes and improving leaves are distinct nodes.
        assert rep.bound_prunes + rep.incumbent_updates <= rep.nodes_expanded

    @given(st.lists(graphs(min_n=1, max_n=5), min_size=2, max_size=4))
    @settings(max_examples=40)
    def test_additive_over_disjoint_parts(self, parts):
        k = 2
        whole = disjoint_union(parts)
        assert iota_solve(whole, k).iota == sum(iota_solve(p, k).iota for p in parts)


    def test_last_level_is_settled_without_children(self):
        # Greedy takes {0, 2}, so the root has a slack of two: it looks for
        # one vertex that isolates the rest (vertex 1) instead of pushing a
        # child per candidate.
        rep = iota_solve(build_path(3), 1)
        assert (rep.iota, rep.optimal_set) == (1, frozenset({1}))
        assert (rep.nodes_expanded, rep.bound_prunes, rep.incumbent_updates) == (1, 0, 1)

    def test_one_surviving_clique_rules_out_several_candidates(self, monkeypatch):
        # Star 0-{1, 2, 3} with the path 3-4-5 at k = 1.  Greedy takes {0, 4},
        # so the root at slack two tries the candidates N[0] = {0, 1, 2, 3}.
        # Without N[0], vertex 4 survives, and N[4] = {3, 4, 5} leaves only 3
        # in play: 1 and 2 are never tried.  Without N[3], vertex 1 survives,
        # no candidate is left, and the root prunes.
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
        searched = []
        monkeypatch.setattr(
            isolation, "find_in_mask", lambda *args: searched.append(args[1]) or find_in_mask(*args)
        )
        rep = iota_solve(g, 1)
        assert (rep.iota, rep.optimal_set) == (2, frozenset({0, 4}))
        assert (rep.nodes_expanded, rep.bound_prunes, rep.incumbent_updates) == (1, 1, 0)
        assert searched[-3:] == [g.full_mask, mask_of([4, 5], 6), mask_of([1, 2, 5], 6)]

    def test_slack_three_root_tries_each_candidate_at_slack_two(self, monkeypatch):
        # The path 3-1-0-2-4 at k = 1.  Greedy takes {0, 3, 4}, so the root
        # has a slack of three.  It is the only node of a greedy-3 component
        # that could pack, so it neither relabels nor packs: it tries the
        # candidates N[0] = {0, 1, 2} as children at slack two at once.
        # Below 0 the clique {3} leaves {4} alive for each of its candidates,
        # a bound prune.  Below 1 the clique {4}, found below 0, has the
        # candidates N[4] = {2, 4}, and 2 isolates {2, 4}: the set {1, 2}.
        # Below 2 the slack is one, a bound prune.
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
        assert iota_oracle(g, 1).iota == 2
        searched = []
        monkeypatch.setattr(
            isolation, "find_in_mask", lambda *args: searched.append(args[1]) or find_in_mask(*args)
        )
        for table in ("degree_relabel", "packing_bound"):
            monkeypatch.setattr(isolation, table, lambda *args: pytest.fail("the root packs"))
        rep = iota_solve(g, 1)
        assert (rep.iota, rep.optimal_set) == (2, frozenset({1, 2}))
        assert (rep.nodes_expanded, rep.bound_prunes, rep.incumbent_updates) == (4, 2, 1)
        # The root's pool, then the pools of 0's child and of 1's last
        # vertex; 2's child needs no search.
        assert searched[-4:] == [g.full_mask, mask_of([3, 4], 5), mask_of([4], 5), 0]

    def test_slack_three_children_reuse_the_cliques_of_their_siblings(self, monkeypatch):
        # The path 3-1-0-2-4 at k = 1, as above, with every pool searched.
        # Greedy searches the whole path, {3, 4}, {4} and nothing; the root
        # searches the path and, with a greedy set of three, does not pack.
        # Below 0 the search of {3, 4} finds {3}, and trying 1 finds {4} in
        # {4}.  {4} misses N[1], so it lies in the pool {2, 4} below 1, and
        # only its hood {2, 4} can hold 1's last vertex: {2, 4} is never
        # searched, and 2 is tried at once.  {3} misses N[2], so the child 2
        # is no leaf, and {1, 3} is never searched either.
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
        searched = []
        monkeypatch.setattr(
            isolation, "find_in_mask", lambda *args: searched.append(args[1]) or find_in_mask(*args)
        )
        rep = iota_solve(g, 1)
        assert (rep.iota, rep.optimal_set) == (2, frozenset({1, 2}))
        assert (rep.nodes_expanded, rep.bound_prunes, rep.incumbent_updates) == (4, 2, 1)
        greedy = [g.full_mask, mask_of([3, 4], 5), mask_of([4], 5), 0]
        assert searched == greedy + [g.full_mask, mask_of([3, 4], 5), mask_of([4], 5), 0]

    def test_pendant_triangle_with_a_slack_four_root(self):
        # A triangle 0-1-2 with a pendant 8 at 0 and the path 1-3-4-5-6-7, at
        # k = 1.  Greedy takes {0, 3, 5, 7}, so the root has a slack of four
        # and branches on N[0] = {0, 1, 2, 8}; the first optimal leaf lies
        # below 0, which is tried first.
        g = Graph.from_edges(
            9, [(0, 1), (0, 2), (1, 2), (0, 8), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        )
        assert iota_oracle(g, 1).iota == 3
        rep = iota_solve(g, 1)
        assert (rep.iota, rep.optimal_set, rep.incumbent_updates) == (3, frozenset({0, 3, 6}), 1)

    def test_children_inherit_the_parents_packing(self, monkeypatch):
        # The cliques a node packs after its branching one stay in each
        # child's residual, with hitter sets the child's extra forbidden
        # vertices only shrink.  So a child extends them outside their reach
        # and prunes when that uses up its slack, before packing afresh.  With
        # every packing started from the child's own clique this graph takes
        # 18 nodes and 13 prunes for the same set and update.
        g = gen_random_connected(11, 0.15, 7)
        calls = []

        def spy(*args):
            result = packing_bound(*args)
            calls.append((args[4], args[6], result[0]))
            return result

        monkeypatch.setattr(isolation, "packing_bound", spy)
        rep = iota_solve(g, 1)
        assert (rep.iota, rep.optimal_set) == (3, frozenset({2, 5, 8}))
        assert (rep.nodes_expanded, rep.bound_prunes, rep.incumbent_updates) == (10, 7, 1)
        # At least one extension, started without a clique, reached its limit.
        assert any(clique == 0 and count >= limit for clique, limit, count in calls)

    def test_long_path_at_low_recursion_limit(self):
        # The search is one node deeper per chosen vertex: 100 deep here.
        out = run_at_low_recursion_limit(
            "from cliqueiso import build_path, iota_solve\n"
            "rep = iota_solve(build_path(300), 1)\n"
            "print(rep.iota, rep.nodes_expanded)\n"
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["100", "13050"]


class TestBounds:
    @given(graphs(max_n=9), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60)
    def test_greedy_is_isolating_and_solver_never_beats_bounds(self, g, k):
        greedy = set_of(greedy_mask(g.adj, g.full_mask, k))
        assert verify_isolating(g, k, greedy).valid
        lower = packing(g, g.full_mask, k)
        exact = iota_solve(g, k).iota
        assert lower <= exact <= len(greedy)

    def test_packing_bound_counts_far_apart_cliques(self):
        # No single vertex touches both triangles.
        g = TWO_TRIANGLES
        assert packing(g, g.full_mask, 3) == 2
        assert iota_solve(g, 3).iota == 2

    def test_packing_bound_removes_the_whole_clique_ball(self):
        # On 0-1-2-3-4 at k = 2 the first edge {0, 1} has N[N[{0, 1}]] = {0..3}.
        # N[N[0]] alone is {0, 1, 2} and would leave the edge {3, 4} to pack,
        # a bound of 2 against iota = 1 (vertex 2).
        p5 = build_path(5)
        assert packing(p5, p5.full_mask, 2) == naive_packing(p5, set(range(5)), 2) == 1
        assert iota_solve(p5, 2).iota == 1

    @given(graphs(max_n=9), st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=60)
    def test_packing_bound_matches_naive_packing(self, g, k, data):
        # With nothing forbidden the bound is the distance-two packing, cut
        # off at the limit.
        pool = vertex_subset(g, data)
        limit = data.draw(st.integers(min_value=1, max_value=g.n + 1))
        want = naive_packing(g, pool, k)
        assert packing(g, mask_of(pool, g.n), k) == want
        assert packing(g, mask_of(pool, g.n), k, limit=limit) == min(want, limit)

    @given(BOUND_GRAPHS, st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=120)
    def test_packing_bound_is_a_lower_bound_with_forbidden_vertices(self, g, k, data):
        pool = vertex_subset(g, data)
        forbidden = vertex_subset(g, data)
        limit = data.draw(st.integers(min_value=1, max_value=g.n + 1))
        bounds = [packing(g, mask_of(pool, g.n), k, mask_of(forbidden, g.n), limit)]
        # The solver packs on degree-ordered rows, from its branching clique,
        # which need not be the first clique in either labeling.
        cliques = list(naive_k_cliques(g, k, pool))
        if cliques:
            h, name = degree_renamed(g)
            start = data.draw(st.sampled_from(cliques))
            bounds.append(
                packing_bound(
                    h.adj,
                    distance_two_rows(h),
                    mask_of([name[v] for v in pool], g.n),
                    k,
                    mask_of([name[v] for v in start], g.n),
                    mask_of([name[v] for v in forbidden], g.n),
                    limit,
                )[0]
            )
        least = naive_least_isolator(g, pool, k, forbidden)
        # Reaching the limit claims only that no allowed set below it exists.
        if least is not None and least < limit:
            assert max(bounds) <= least

    @given(BOUND_GRAPHS, st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=120)
    def test_inherited_packing_is_a_lower_bound_for_a_child(self, g, k, data):
        # A parent packs its pool from a clique C; a child takes a vertex u of
        # C's allowed hitters and forbids more of them.  The parent's other
        # packed cliques, extended outside their reach, bound the child.
        pool = set(range(g.n)) - vertex_subset(g, data)
        forbidden = vertex_subset(g, data)
        cliques = list(naive_k_cliques(g, k, pool))
        if not cliques:
            return
        start = data.draw(st.sampled_from(cliques))
        hitters = sorted(naive_closed_neighborhood(g, start) - forbidden)
        if not hitters:
            return
        u = data.draw(st.sampled_from(hitters))
        ball = distance_two_rows(g)
        count, later = packing_bound(
            g.adj,
            ball,
            mask_of(pool, g.n),
            k,
            mask_of(start, g.n),
            mask_of(forbidden, g.n),
            g.n + 1,
        )
        if count > g.n:
            return  # some packed clique has no allowed hitter: the parent prunes
        inherited = count - 1
        # Most draws pack one clique, which leaves nothing to inherit.
        target(float(inherited))
        child_pool = pool - naive_closed_neighborhood(g, [u])
        child_forbidden = forbidden | data.draw(st.sets(st.sampled_from(hitters))) - {u}
        limit = data.draw(st.integers(min_value=1, max_value=g.n + 1))
        bound = inherited + packing_bound(
            g.adj,
            ball,
            mask_of(child_pool, g.n) & ~later,
            k,
            0,
            mask_of(child_forbidden, g.n),
            limit - inherited,
        )[0]
        least = naive_least_isolator(g, child_pool, k, child_forbidden)
        # Reaching the limit claims only that no allowed set below it exists.
        if least is not None and least < limit:
            assert bound <= least

    @given(graphs(max_n=9), st.data())
    def test_degree_relabel_matches_renaming_by_degree(self, g, data):
        within = mask_of(vertex_subset(g, data), g.n)
        code = [-1] * g.n
        closed = [-1] * g.n
        rows, balls = degree_relabel(g.adj, within, code, closed)
        h, name = degree_renamed(naive_delete(g, set(range(g.n)) - set_of(within)))
        inside = sorted(set_of(within))
        assert rows == list(h.adj)
        assert balls == distance_two_rows(h)
        # Only the vertices of ``within`` get entries.
        want_code = [-1] * g.n
        want_closed = [-1] * g.n
        for i, v in enumerate(inside):
            want_code[v] = 1 << name[i]
            want_closed[v] = h.adj[name[i]] | 1 << name[i]
        assert code == want_code
        assert closed == want_closed

    def test_forbidden_hitters_raise_the_bound(self):
        # On 0-1-2-3-4 at k = 2 vertex 2 alone kills every edge.  With 2
        # forbidden, {0, 1} needs 0 or 1 and {3, 4} needs 3 or 4: two vertices,
        # where the distance-two packing still counts one.
        p5 = build_path(5)
        barred = mask_of([2], 5)
        assert packing(p5, p5.full_mask, 2) == 1
        assert packing(p5, p5.full_mask, 2, barred) == 2
        assert naive_least_isolator(p5, set(range(5)), 2, {2}) == 2

    def test_clique_without_allowed_hitters_prunes_at_once(self, monkeypatch):
        # All of N[{0, 1, 2}] is forbidden, so no allowed set kills that
        # triangle, and the bound returns the limit without looking for the
        # second triangle.
        g = TWO_TRIANGLES
        searched = []
        monkeypatch.setattr(
            isolation, "find_in_mask", lambda *args: searched.append(args) or find_in_mask(*args)
        )
        assert packing(g, g.full_mask, 3, mask_of([0, 1, 2, 3], 9), limit=5) == 5
        assert searched == []
        assert naive_least_isolator(g, set(range(9)), 3, {0, 1, 2, 3}) is None


def ilp_isolator(g: Graph, k: int) -> set[int]:
    """A minimum isolating set found as the minimum hitting set of the family
    {N[C] : C a k-clique}, one 0/1 variable per vertex, by scipy's HiGHS."""
    np = pytest.importorskip("numpy")
    opt = pytest.importorskip("scipy.optimize")
    nbrs = adjacency_sets(g)
    hoods = [set(c).union(*(nbrs[u] for u in c)) for c in naive_k_cliques(g, k)]
    if not hoods:
        return set()
    rows = np.zeros((len(hoods), g.n))
    for row, hood in zip(rows, hoods):
        row[sorted(hood)] = 1
    res = opt.milp(
        np.ones(g.n),
        constraints=opt.LinearConstraint(rows, lb=1),
        integrality=np.ones(g.n),
        bounds=opt.Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert res.success, res.message
    return {v for v in range(g.n) if res.x[v] > 0.5}


class TestRelabeling:
    """iota belongs to the graph, not to its labels, and so does the bound;
    but the solver branches and the construction picks its pivots in label
    order.  So both run on a graph and on a relabeled copy of it.  The
    graphs go up to 14 vertices: at 9 a settle that skips its last candidate
    went unseen in 80 draws, and at 14 it failed on every seed tried."""

    @staticmethod
    def check(g: Graph, k: int, perm: list[int]) -> None:
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        iota = iota_solve(g, k).iota
        assert iota_solve(h, k).iota == iota
        if classify_exception(g, k) is ExceptionKind.NONE:
            for labeled in (g, h):
                assert iota <= len(bounded_isolating_set(labeled, k).set) <= g.n // (k + 1)

    @given(connected_graphs(max_n=14), st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=80)
    def test_iota_and_the_bound_survive_a_relabeling(self, g, k, data):
        self.check(g, k, data.draw(st.permutations(range(g.n))))

    @given(planted(max_host=4, max_copies=2), st.data())
    @settings(max_examples=30)
    def test_planted_graphs_survive_a_relabeling(self, g, data):
        # planted graphs reach Case1_Sub2 and Case1_Sub3 at k = 2 (TestPlanted)
        self.check(g, 2, data.draw(st.permutations(range(g.n))))


class TestTightGraphsAtK1:
    """At k = 1, iota is the domination number, and a connected graph on n >= 2
    vertices has 2 * iota = n exactly when it is C4 or a corona H o K1: H with
    one leaf hung on each vertex (Payan and Xuong 1982; Fink, Jacobson, Kinch
    and Roberts 1985).  A census over networkx's atlas of every graph with at
    most 7 vertices checks the solver against that theorem."""

    def test_tight_graphs_are_c4_and_the_coronas(self):
        nx = pytest.importorskip("networkx")
        tight = {}
        for h in nx.graph_atlas_g():
            n = h.number_of_nodes()
            if n == 0 or not nx.is_connected(h):
                continue
            g = Graph.from_edges(n, list(h.edges()))
            # On n >= 4 vertices a corona is a graph whose n/2 leaves have
            # distinct neighbours; K2 = K1 o K1 is the one smaller corona.
            leaves = [v for v in h if h.degree(v) == 1]
            corona = n == 2 or (
                n >= 4
                and 2 * len(leaves) == n
                and len({next(iter(h[v])) for v in leaves}) == len(leaves)
            )
            c4 = n == 4 and all(d == 2 for _, d in h.degree())
            is_tight = 2 * iota_solve(g, 1).iota == n
            assert is_tight == (corona or c4), sorted(h.edges())
            if is_tight:
                # The construction's set, at most floor(n/2) and at least
                # iota, meets both.
                assert 2 * len(bounded_isolating_set(g, 1).set) == n
                tight[n] = tight.get(n, 0) + 1
        assert tight == {2: 1, 4: 2, 6: 2}


class TestTreeCensusAtK1:
    """The same theorem on every tree with at most 14 vertices, from
    networkx's ``nonisomorphic_trees``: C4 is no tree, so a tree on n >= 2
    vertices has 2 * iota = n exactly when it is a corona, and the tight
    trees on n = 2m vertices are as many as the trees on m vertices
    (OEIS A000055).  The census holds 5,446 trees; 110 of them have a greedy
    set of three vertices, whose root ``solve_mask`` settles without packing,
    and 5,312 a greedy set of four or more, which pack."""

    def test_tight_trees_are_the_coronas(self):
        nx = pytest.importorskip("networkx")
        tight = {}
        for n in range(2, 15):
            for h in nx.nonisomorphic_trees(n):
                g = Graph.from_edges(n, list(h.edges()))
                leaves = [v for v in h if h.degree(v) == 1]
                corona = n == 2 or (
                    2 * len(leaves) == n
                    and len({next(iter(h[v])) for v in leaves}) == len(leaves)
                )
                iota = iota_solve(g, 1).iota
                assert (2 * iota == n) == corona, sorted(h.edges())
                built = len(bounded_isolating_set(g, 1).set)
                assert iota <= built <= n // 2, sorted(h.edges())
                if corona:
                    tight[n] = tight.get(n, 0) + 1
        assert tight == {2: 1, 4: 1, 6: 1, 8: 2, 10: 3, 12: 6, 14: 11}


class TestTreeIota:
    """``support.tree_iota``, dynamic programs on trees: an exact iota at
    k = 1 and 2 at sizes that neither the solver nor the oracle reaches,
    checked against both where they do."""

    @given(st.data())
    def test_matches_the_subset_scan(self, data):
        n = data.draw(st.integers(min_value=1, max_value=10))
        parents = [data.draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
        perm = data.draw(st.permutations(range(n)))
        g = Graph.from_edges(n, [(perm[p], perm[i]) for i, p in enumerate(parents, 1)])
        for k in (1, 2, 3):
            assert tree_iota(g.adj, k) == naive_iota(g, k)

    def test_matches_the_solver(self):
        rng = random.Random(10)
        for _ in range(300):
            g = random_tree(rng, rng.randint(1, 30))
            assert tree_iota(g.adj, 1) == iota_solve(g, 1).iota

    def test_matches_the_solver_on_every_tree_to_14_at_k2(self):
        nx = pytest.importorskip("networkx")
        for n in range(2, 15):
            for h in nx.nonisomorphic_trees(n):
                g = Graph.from_edges(n, list(h.edges()))
                assert tree_iota(g.adj, 2) == iota_solve(g, 2).iota, sorted(h.edges())

    def test_paths_need_a_third(self):
        for n in range(1, 61):
            assert tree_iota(build_path(n).adj, 1) == -(-n // 3)

    def test_refuses_rows_that_are_no_tree(self):
        for g in (build_cycle(4), disjoint_union([build_path(2), build_path(1)])):
            with pytest.raises(ValueError, match="not a tree"):
                tree_iota(g.adj, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_construction_between_iota_and_the_bound_at_2000(self, seed):
        g = random_tree(random.Random(seed), 2000)
        for k in (1, 2):
            assert tree_iota(g.adj, k) <= len(bounded_isolating_set(g, k).set) <= 2000 // (k + 1)


GOLDEN = Path(__file__).with_name("golden_solve.json")
GOLDEN_KS = (1, 2, 3)


def _golden_graphs() -> list[tuple[str, Graph]]:
    """The fixed corpus: a few paths, cycles and extremal graphs with at most
    20 vertices, and seeded random connected graphs with 10 to 40 vertices."""
    out = [(f"path_{n}", build_path(n)) for n in (3, 8, 13, 20)]
    out.extend((f"cycle_{n}", build_cycle(n)) for n in (5, 11, 20))
    out.extend(
        (f"extremal_{n}_{k}", build_extremal(n, k)) for k in GOLDEN_KS for n in (12, 20)
    )
    rng = random.Random(1802)
    for i in range(25):
        n = rng.randint(10, 40)
        p = round(rng.uniform(0.05, 0.25), 3)
        seed = rng.randrange(2**32)
        out.append((f"random_{i}_{n}_{p}_{seed}", gen_random_connected(n, p, seed)))
    return out


def _solve_record(g: Graph, k: int) -> dict:
    rep = iota_solve(g, k)
    return {
        "iota": rep.iota,
        "set": sorted(rep.optimal_set),
        "nodes": rep.nodes_expanded,
        "prunes": rep.bound_prunes,
        "updates": rep.incumbent_updates,
    }


def _golden_corpus() -> dict:
    return {
        "instances": [
            {
                "name": name,
                "n": g.n,
                "edges": [list(e) for e in g.edges()],
                "results": {str(k): _solve_record(g, k) for k in GOLDEN_KS},
            }
            for name, g in _golden_graphs()
        ],
    }


class TestHittingSetILP:
    """A fourth route to iota, independent of the solver, the oracle and the
    naive scans: the integer program over the closed neighbourhoods of the
    k-cliques, which reaches sizes the oracle refuses."""

    def test_golden_corpus(self):
        for inst in json.loads(GOLDEN.read_text(encoding="utf-8"))["instances"]:
            g = Graph.from_edges(inst["n"], [tuple(e) for e in inst["edges"]])
            for k in GOLDEN_KS:
                chosen = ilp_isolator(g, k)
                assert len(chosen) == inst["results"][str(k)]["iota"], (inst["name"], k)
                assert naive_is_isolating(g, k, chosen), (inst["name"], k)

    def test_solve_random_anchor(self):
        g = gen_random_connected(60, 0.1, 2)
        assert len(ilp_isolator(g, 2)) == iota_solve(g, 2).iota == 6

    def test_sparse_80_vertex_graph_at_k1(self):
        # A graph where the node count, not the cost per node, decides the
        # solver's time: about 357,000 nodes.
        g = gen_random_connected(80, 0.06, 1)
        rep = iota_solve(g, 1)
        assert rep.optimal_set == frozenset(
            {0, 15, 17, 19, 25, 34, 54, 55, 56, 59, 63, 66, 72, 75}
        )
        assert (rep.iota, rep.incumbent_updates) == (14, 11)
        assert len(ilp_isolator(g, 1)) == 14


class TestGolden:
    """Optimal sets and search counters must stay exactly as recorded: equal
    node, prune and update counts on the same inputs mean the search visited
    the same tree."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text(encoding="utf-8"))

    @pytest.fixture(scope="class")
    def regenerated(self):
        return _golden_corpus()

    def test_corpus_is_the_generated_one(self, golden):
        names = [inst["name"] for inst in golden["instances"]]
        assert names == [name for name, _ in _golden_graphs()]
        assert len(names) * len(GOLDEN_KS) >= 100

    def test_instances_match(self, golden, regenerated):
        # Record by record, so that a failure names the graph and k.
        made = {inst["name"]: inst["results"] for inst in regenerated["instances"]}
        for inst in golden["instances"]:
            assert inst["name"] in made, inst["name"]
            for k in GOLDEN_KS:
                assert made[inst["name"]][str(k)] == inst["results"][str(k)], (inst["name"], k)

    def test_committed_file_is_the_regenerated_corpus(self, regenerated):
        # Byte for byte: which graphs the corpus holds, their edges, every
        # record and the layout.  Compared as lists of lines, which join to
        # the two texts, so that a failure quotes the first record that differs.
        want = GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
        assert corpus_text(regenerated).splitlines(keepends=True) == want


def _records(corpus: dict) -> dict[tuple[str, str], dict]:
    return {
        (inst["name"], k): record
        for inst in corpus["instances"]
        for k, record in inst["results"].items()
    }


def _corpus_changes(old: dict, new: dict) -> str:
    """What regenerating the corpus changes: entries whose iota or set moved,
    entries whose incumbent updates moved, total search nodes and bound prunes
    before and after, and entries whose node count grew."""
    before, after = _records(old), _records(new)
    shared = before.keys() & after.keys()
    moved = sum(
        (before[key]["iota"], before[key]["set"]) != (after[key]["iota"], after[key]["set"])
        for key in shared
    )
    updates = sum(before[key]["updates"] != after[key]["updates"] for key in shared)
    grew = sum(after[key]["nodes"] > before[key]["nodes"] for key in shared)
    totals = "; ".join(
        f"{field}: {sum(r[field] for r in before.values())} -> "
        f"{sum(r[field] for r in after.values())}"
        for field in ("nodes", "prunes")
    )
    return (
        f"{len(after)} entries ({len(after.keys() - shared)} new, "
        f"{len(before.keys() - shared)} gone); iota or set changed: {moved}; "
        f"updates changed: {updates}; {totals}; entries with more nodes: {grew}"
    )


if __name__ == "__main__":
    corpus = _golden_corpus()
    print(_corpus_changes(json.loads(GOLDEN.read_text(encoding="utf-8")), corpus))
    GOLDEN.write_text(corpus_text(corpus), encoding="utf-8")
