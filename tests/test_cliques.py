"""Clique detection (``find_in_mask``) and the isolation test (``isolates``)
against naive combination scans."""

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from cliqueiso import (
    Graph,
    build_complete,
    build_path,
    verify_isolating,
)
from cliqueiso.cliques import find_in_mask, isolates
from cliqueiso.graph import bits, mask_of, set_of

from .support import (
    graphs,
    ks,
    labeled_graphs,
    naive_closed_neighborhood,
    naive_has_clique,
    naive_k_cliques,
)


SMALL_GRAPHS = st.one_of(graphs(max_n=10), graphs(min_n=7, max_n=10, coin=True))


def first_clique(g: Graph, k: int) -> frozenset[int] | None:
    hit = find_in_mask(g.adj, g.full_mask, k)
    return None if hit is None else set_of(hit)


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

    # Every k up to 6 on up to ten vertices, half of the graphs dense, so the
    # descent stacks several levels and backtracks across them.  The smallest
    # clique is the first of the naive lexicographic list.
    @given(SMALL_GRAPHS)
    def test_find_matches_naive_minimum(self, g):
        for k in range(1, 7):
            naive = next(naive_k_cliques(g, k), None)
            got = first_clique(g, k)
            # The public route to the same clique: the witness against the empty set.
            assert verify_isolating(g, k, ()).witness == got
            assert got == (None if naive is None else frozenset(naive))

    @given(SMALL_GRAPHS, st.data())
    def test_sub_pools_match_naive_minimum(self, g, data):
        pool = data.draw(st.sets(st.integers(min_value=0, max_value=max(g.n - 1, 0))))
        pool = {u for u in pool if u < g.n}
        for k in range(1, 7):
            naive = next(naive_k_cliques(g, k, within=pool), None)
            got = find_in_mask(g.adj, mask_of(pool, g.n), k)
            assert got == (None if naive is None else mask_of(naive, g.n))

    def test_every_pool_of_every_small_graph(self):
        # Every vertex mask of every labeled graph with n <= 5 at k = 1..4,
        # so each path of the kernel (k = 1, k = 2 and the descent for
        # k >= 3) meets every pool it can on these sizes.  The smallest
        # clique inside a pool is the first one of the graph's lexicographic
        # list that the pool contains.
        for g in labeled_graphs(5):
            for k in range(1, 5):
                naive = [mask_of(c, g.n) for c in naive_k_cliques(g, k)]
                for pool in range(1 << g.n):
                    want = next((c for c in naive if c & pool == c), None)
                    assert find_in_mask(g.adj, pool, k) == want, (g, pool, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_empty_and_too_small_pools(self, k):
        g = build_complete(6)
        assert find_in_mask(g.adj, 0, k) is None
        for size in range(k):
            # The top `size` vertices: a clique, but too few of them.
            assert find_in_mask(g.adj, mask_of(range(6 - size, 6), 6), k) is None
        top = mask_of(range(6 - k, 6), 6)
        assert find_in_mask(g.adj, top, k) == top


@st.composite
def masked_graphs(draw):
    """A G(n, 1/2) graph with two arbitrary vertex masks, ``within`` and ``d``."""
    g = draw(graphs(coin=True))
    masks = st.integers(min_value=0, max_value=g.full_mask)
    return g, draw(masks), draw(masks)


class TestIsolates:
    # ``d`` may reach outside ``within``; its N[d] is removed all the same.
    @given(masked_graphs(), ks())
    @example((Graph(()), 0, 0), 1)
    @example((build_complete(4), 0, 0), 2)
    def test_matches_the_naive_definition(self, drawn, k):
        g, within, d = drawn
        outside = set(range(g.n)) - set(bits(within))
        removed = outside | naive_closed_neighborhood(g, list(bits(d)))
        assert isolates(g.adj, within, d, k) is not naive_has_clique(g, k, removed)
