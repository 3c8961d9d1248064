"""Clique detection against naive combination scans."""

from itertools import combinations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cliqueiso import (
    Graph,
    build_complete,
    build_path,
    find_k_clique,
    has_k_clique,
)

from .support import adjacency_sets, graphs


def naive_all_cliques(g: Graph, k: int) -> list[frozenset[int]]:
    nbrs = adjacency_sets(g)
    return [
        frozenset(combo)
        for combo in combinations(range(g.n), k)
        if all(b in nbrs[a] for a, b in combinations(combo, 2))
    ]


class TestDetection:
    def test_path_has_edges_but_no_triangle(self):
        p = build_path(6)
        assert has_k_clique(p, 1)
        assert has_k_clique(p, 2)
        assert not has_k_clique(p, 3)

    def test_complete_graph_has_all_sizes(self):
        g = build_complete(5)
        for k in range(1, 6):
            assert has_k_clique(g, k)
        assert not has_k_clique(g, 6)

    def test_k_larger_than_n(self):
        assert not has_k_clique(build_path(2), 3)
        assert find_k_clique(build_path(2), 3) is None

    def test_empty_graph_has_nothing(self):
        g = Graph.from_edges(0, [])
        assert not has_k_clique(g, 1)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            has_k_clique(build_path(2), 0)


class TestFind:
    def test_lexicographically_first_clique(self):
        g = Graph.from_edges(6, [(0, 5), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        assert find_k_clique(g, 2) == frozenset({0, 5})
        assert find_k_clique(g, 3) == frozenset({1, 2, 3})

    def test_prefers_smaller_vertex_over_denser_region(self):
        g = Graph.from_edges(6, [(0, 4), (1, 2), (1, 3), (2, 3), (4, 5)])
        assert find_k_clique(g, 2) == frozenset({0, 4})

    @given(graphs(max_n=8), st.integers(min_value=1, max_value=4))
    def test_find_matches_naive_minimum(self, g, k):
        naive = naive_all_cliques(g, k)
        got = find_k_clique(g, k)
        if not naive:
            assert got is None
        else:
            assert got == min(naive, key=sorted)

