"""Clique detection (``find_in_mask``) against naive combination scans."""

from itertools import combinations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cliqueiso import (
    Graph,
    build_complete,
    build_path,
    verify_isolating,
)
from cliqueiso.cliques import find_in_mask
from cliqueiso.graph import set_of

from .support import adjacency_sets, graphs


def first_clique(g: Graph, k: int) -> frozenset[int] | None:
    hit = find_in_mask(g.adj, g.full_mask, k)
    return None if hit is None else set_of(hit)


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
        assert first_clique(p, 1) is not None
        assert first_clique(p, 2) is not None
        assert first_clique(p, 3) is None

    def test_complete_graph_has_all_sizes(self):
        g = build_complete(5)
        for k in range(1, 6):
            assert first_clique(g, k) is not None
        assert first_clique(g, 6) is None

    def test_k_larger_than_n(self):
        assert first_clique(build_path(2), 3) is None

    def test_empty_graph_has_nothing(self):
        g = Graph.from_edges(0, [])
        assert first_clique(g, 1) is None

    def test_bad_k_rejected(self):
        # The kernel trusts k; the public entry points that take k check it.
        with pytest.raises(ValueError):
            verify_isolating(build_path(2), 0, ())


class TestFind:
    def test_lexicographically_first_clique(self):
        g = Graph.from_edges(6, [(0, 5), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        assert first_clique(g, 2) == frozenset({0, 5})
        assert first_clique(g, 3) == frozenset({1, 2, 3})

    def test_prefers_smaller_vertex_over_denser_region(self):
        g = Graph.from_edges(6, [(0, 4), (1, 2), (1, 3), (2, 3), (4, 5)])
        assert first_clique(g, 2) == frozenset({0, 4})

    @given(graphs(max_n=8), st.integers(min_value=1, max_value=4))
    def test_find_matches_naive_minimum(self, g, k):
        naive = naive_all_cliques(g, k)
        got = first_clique(g, k)
        # The public route to the same clique: the witness against the empty set.
        assert verify_isolating(g, k, ()).witness == got
        if not naive:
            assert got is None
        else:
            assert got == min(naive, key=sorted)

