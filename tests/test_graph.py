"""Graph representation: construction, neighborhoods, subgraphs, recognizers."""

import re

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cliqueiso import (
    ExceptionKind,
    Graph,
    build_complete,
    build_cycle,
    build_extremal,
    build_path,
    classify_exception,
)
from cliqueiso.graph import (
    bits,
    closed_mask,
    component_masks,
    exception_kind,
    induced,
    mask_of,
    require_k,
    set_of,
)

from .support import (
    adjacency_sets,
    connected_graphs,
    graphs,
    hubs,
    labeled_graphs,
    naive_components,
    naive_delete,
    spines,
)

C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


def naive_kinds(g: Graph) -> list[ExceptionKind]:
    """The excluded shape of ``g`` at k = 1..4, straight from the definition:
    complete on exactly k vertices, or at k = 2 a connected 2-regular graph on
    five vertices."""
    degrees = [len(nbrs) for nbrs in adjacency_sets(g)]
    kinds = []
    for k in range(1, 5):
        if g.n == k and degrees == [k - 1] * k:
            kinds.append(ExceptionKind.K_CLIQUE)
        elif (k, g.n) == (2, 5) and degrees == [2] * 5 and len(naive_components(g)) == 1:
            kinds.append(ExceptionKind.FIVE_CYCLE_AT_K2)
        else:
            kinds.append(ExceptionKind.NONE)
    return kinds


class TestConstruction:
    def test_from_edges_round_trip(self):
        g = Graph.from_edges(5, C5_EDGES)
        assert g.n == 5
        assert g.edge_count == 5
        assert g.edges() == sorted(C5_EDGES)

    def test_vertex_out_of_range_rejected(self):
        for edge in [(0, 3), (-1, 0)]:
            message = f"edge {edge} out of range for a graph on 3 vertices"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Graph.from_edges(3, [edge])
        message = "adjacency of vertex 1 mentions an out-of-range vertex"
        for row in (0b1000, -1):
            with pytest.raises(ValueError, match=f"^{message}$"):
                Graph((0b000, row, 0b000))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError, match="^self-loop at vertex 2$"):
            Graph((0b000, 0b000, 0b100))

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="^asymmetric adjacency between 1 and 0$"):
            Graph((0b10, 0b00))
        # The first pair reported: the lowest vertex, then its lowest
        # neighbour that does not list it back.
        with pytest.raises(ValueError, match="^asymmetric adjacency between 2 and 0$"):
            Graph((0b0110, 0b0001, 0b1000, 0b0100))

    def test_negative_n_rejected(self):
        # [0] * -1 is [], so from_edges itself refuses a negative count.
        with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
            Graph.from_edges(-1, [])

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        assert g.n == 0
        assert g.edges() == []
        assert g.full_mask == 0

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_immutability(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 3

    def test_repr_lists_edges(self):
        assert repr(Graph.from_edges(2, [(0, 1)])) == "Graph(n=2, edges=[(0, 1)])"


class TestMasks:
    def test_bits_iterates_ascending(self):
        assert list(bits(0b101101)) == [0, 2, 3, 5]
        assert list(bits(0)) == []

    def test_mask_set_round_trip(self):
        assert set_of(mask_of([4, 1], 5)) == frozenset({1, 4})
        assert mask_of([], 3) == 0

    def test_mask_of_validates_range(self):
        with pytest.raises(ValueError):
            mask_of([3], 3)


class TestNeighborhoodsAndSubgraphs:
    def test_closed_neighborhood(self):
        g = Graph.from_edges(5, C5_EDGES)
        assert set_of(closed_mask(g.adj, mask_of([0], 5))) == frozenset({0, 1, 4})
        assert set_of(closed_mask(g.adj, mask_of([0, 2], 5))) == frozenset({0, 1, 2, 3, 4})
        assert closed_mask(g.adj, 0) == 0

    def test_induced_keeps_internal_edges_only(self):
        g = Graph.from_edges(5, C5_EDGES)
        sub = induced(g, [1, 2, 4])
        assert sub.graph.n == 3
        assert sub.graph.edges() == [(0, 1)]
        assert sub.to_parent == (1, 2, 4)

    def test_components_ordered_by_smallest_member(self):
        g = Graph.from_edges(6, [(3, 4), (0, 5)])
        assert [set_of(m) for m in component_masks(g.adj, g.full_mask)] == [
            frozenset({0, 5}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3, 4}),
        ]

    @given(graphs(max_n=8))
    def test_components_partition_vertices(self, g):
        comps = [set_of(m) for m in component_masks(g.adj, g.full_mask)]
        assert sorted(u for c in comps for u in c) == list(range(g.n))
        assert comps == naive_components(g)

    @given(st.one_of(connected_graphs(max_n=40), graphs(max_n=10), spines(), hubs()), st.data())
    def test_components_of_a_subset_match_naive(self, g, data):
        # A drawn set of dropped vertices is usually small, so most of each
        # graph survives: spines keep long one-vertex runs and hubs wide layers.
        dropped = data.draw(st.sets(st.integers(min_value=0, max_value=max(g.n - 1, 0))))
        within = set(range(g.n)) - dropped
        comps = [set_of(m) for m in component_masks(g.adj, mask_of(within, g.n))]
        assert comps == naive_components(g, within)

    @pytest.mark.parametrize("g", [build_path(300), build_extremal(300, 3)], ids=["path", "extremal"])
    def test_components_after_removing_a_closed_neighbourhood(self, g):
        for v in (0, 1, 2, 75, 150, 151, 223, 298, 299):
            within = set(range(g.n)) - set_of(closed_mask(g.adj, 1 << v))
            comps = [set_of(m) for m in component_masks(g.adj, mask_of(within, g.n))]
            assert comps == naive_components(g, within)

    @given(graphs(min_n=1, max_n=8), st.data())
    def test_induced_edges_match_parent(self, g, data):
        keep = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
        sub = induced(g, keep)
        back = sub.to_parent
        nbrs = adjacency_sets(g)
        for u, v in sub.graph.edges():
            assert back[v] in nbrs[back[u]]
        kept = sorted(keep)
        expected = sum(
            1 for i, a in enumerate(kept) for b in kept[i + 1 :] if b in nbrs[a]
        )
        assert sub.graph.edge_count == expected


def connected(g: Graph) -> bool:
    """The connectivity test the package runs: exactly one component mask."""
    return len(component_masks(g.adj, g.full_mask)) == 1


class TestConnectivity:
    def test_empty_graph_not_connected(self):
        assert not connected(Graph.from_edges(0, []))

    def test_single_vertex_connected(self):
        assert connected(Graph.from_edges(1, []))

    def test_path_connected_union_not(self):
        assert connected(build_path(6))
        assert not connected(Graph.from_edges(4, [(0, 1), (2, 3)]))

    @given(connected_graphs(max_n=9))
    def test_tree_plus_extras_connected(self, g):
        assert connected(g)


class TestExceptionRecognizer:
    def test_complete_graph_matches_only_its_own_k(self):
        for k in range(1, 6):
            g = build_complete(k)
            assert classify_exception(g, k) is ExceptionKind.K_CLIQUE
            assert classify_exception(g, k + 1) is ExceptionKind.NONE
            if k > 1:
                assert classify_exception(g, k - 1) is ExceptionKind.NONE

    def test_five_cycle_only_at_k2(self):
        c5 = build_cycle(5)
        assert classify_exception(c5, 2) is ExceptionKind.FIVE_CYCLE_AT_K2
        assert classify_exception(c5, 1) is ExceptionKind.NONE
        assert classify_exception(c5, 3) is ExceptionKind.NONE

    def test_near_misses_are_not_exceptional(self):
        chorded = Graph.from_edges(5, C5_EDGES + [(0, 2)])
        assert classify_exception(chorded, 2) is ExceptionKind.NONE
        assert classify_exception(build_cycle(6), 2) is ExceptionKind.NONE
        missing_edge = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert classify_exception(missing_edge, 3) is ExceptionKind.NONE

    def test_k2_means_single_edge(self):
        assert classify_exception(Graph.from_edges(2, [(0, 1)]), 2) is ExceptionKind.K_CLIQUE

    def test_matches_naive_definition_on_every_small_graph(self):
        # Every labeled graph, connected or not, with n <= 6 at k = 1..4.
        for g in labeled_graphs(6):
            for k, want in enumerate(naive_kinds(g), start=1):
                assert classify_exception(g, k) is want, (g, k)

    def test_matches_naive_definition_on_every_vertex_mask(self):
        # The construction classifies pieces, not whole graphs: every vertex
        # mask of every labeled graph with n <= 5 at k = 1..4, against the
        # subgraph the mask induces.
        for g in labeled_graphs(5):
            for mask in range(1 << g.n):
                sub = naive_delete(g, {u for u in range(g.n) if not mask >> u & 1})
                for k, want in enumerate(naive_kinds(sub), start=1):
                    assert exception_kind(g.adj, mask, k) is want, (g, mask, k)


class TestRequireK:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
    def test_rejects_non_positive_int(self, bad):
        with pytest.raises((TypeError, ValueError)):
            require_k(bad)

    def test_accepts_positive_int(self):
        require_k(1)
        require_k(10)
