"""Isolation predicate, subset-scan oracle, and the exact branch-and-bound solver."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cliqueiso import (
    Graph,
    OracleCapError,
    build_complete,
    build_cycle,
    build_path,
    enumerate_connected,
    iota_oracle,
    iota_solve,
    verify_isolating,
)
from cliqueiso.graph import set_of
from cliqueiso.isolation import greedy_mask, packing_bound

from .support import (
    disjoint_union,
    graphs,
    naive_closed_neighborhood,
    naive_delete,
    naive_iota,
    naive_is_isolating,
)


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
            assert all(g.has_edge(a, b) for a in cert.witness for b in cert.witness if a < b)
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
        with pytest.raises(OracleCapError, match="12"):
            iota_oracle(build_path(13), 2, cap=12)

    @given(graphs(max_n=7), st.integers(min_value=1, max_value=3))
    def test_agrees_with_subset_scan(self, g, k):
        rep = iota_oracle(g, k)
        assert rep.iota == naive_iota(g, k)
        assert len(rep.optimal_set) == rep.iota
        assert verify_isolating(g, k, rep.optimal_set).valid


class TestSolver:
    def test_report_shape(self):
        rep = iota_solve(build_cycle(5), 2)
        assert rep.iota == 2
        assert len(rep.optimal_set) == 2
        assert rep.nodes_expanded >= 1
        assert rep.elapsed >= 0.0

    def test_empty_and_trivial_graphs(self):
        assert iota_solve(Graph.from_edges(0, []), 1).iota == 0
        assert iota_solve(Graph.from_edges(3, []), 1).iota == 3
        assert iota_solve(Graph.from_edges(3, []), 2).iota == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exhaustive_small_graphs_match_oracle(self, k):
        for n in range(1, 6):
            for g in enumerate_connected(n, cap=5):
                assert iota_solve(g, k).iota == iota_oracle(g, k).iota, g

    @given(graphs(max_n=9), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60)
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

    @given(st.lists(graphs(min_n=1, max_n=5), min_size=2, max_size=4))
    @settings(max_examples=40)
    def test_additive_over_disjoint_parts(self, parts):
        k = 2
        whole = disjoint_union(parts)
        assert iota_solve(whole, k).iota == sum(iota_solve(p, k).iota for p in parts)


class TestBounds:
    @given(graphs(max_n=9), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60)
    def test_greedy_is_isolating_and_solver_never_beats_bounds(self, g, k):
        greedy = set_of(greedy_mask(g.adj, g.full_mask, k))
        assert verify_isolating(g, k, greedy).valid
        lower = packing_bound(g.adj, g.full_mask, k)
        exact = iota_solve(g, k).iota
        assert lower <= exact <= len(greedy)

    def test_packing_bound_counts_far_apart_cliques(self):
        # Two triangles joined by a long path: no single vertex touches both.
        g = Graph.from_edges(
            9,
            [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8), (7, 8)],
        )
        assert packing_bound(g.adj, g.full_mask, 3) == 2
        assert iota_solve(g, 3).iota == 2
