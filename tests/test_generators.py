"""Graph generators: fixed families, the extremal family, seeded random graphs,
and exhaustive enumeration with its connectivity filter."""

import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cliqueiso import (
    EnumerationCapError,
    Graph,
    build_complete,
    build_cycle,
    build_extremal,
    build_path,
    enumerate_connected,
    gen_random_connected,
    iota_solve,
)
from cliqueiso.generators import _connected

from .pins import BOUNDARY_P
from .support import (
    adjacency_sets,
    graph_from_edge_bits,
    naive_components,
    naive_random_connected,
)

# Connected labeled graphs on n vertices (OEIS A001187).
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


class TestFixedFamilies:
    def test_path(self):
        p = build_path(5)
        assert p.edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert build_path(1).edges() == []
        with pytest.raises(ValueError):
            build_path(0)

    def test_cycle(self):
        c = build_cycle(4)
        assert c.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert all(len(nbrs) == 2 for nbrs in adjacency_sets(c))
        with pytest.raises(ValueError):
            build_cycle(2)

    def test_complete(self):
        g = build_complete(5)
        assert g.edge_count == 10
        assert build_complete(1).edge_count == 0
        with pytest.raises(ValueError):
            build_complete(0)
        for n in (1, 2, 3, 40):
            assert build_complete(n) == Graph.from_edges(n, combinations(range(n), 2))

    def test_complete_builds_rows_without_an_edge_list(self):
        # A list of K_300's 44,850 edge tuples peaks at 3.2 MB traced; the
        # rows themselves take about 0.02 MB.
        tracemalloc.start()
        try:
            g = build_complete(300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert g.edge_count == 300 * 299 // 2


class TestExtremalFamily:
    def test_parameter_arithmetic(self):
        # n = 12, k = 3: three blocks on a 3-vertex path (labels 0..2).
        nbrs = adjacency_sets(build_extremal(12, 3))
        assert nbrs[2] == {1, 9, 10, 11}
        assert nbrs[3] == {0, 4, 5}
        # n = 14, k = 3: three blocks on a 5-vertex path; path vertices 3, 4 carry none.
        nbrs = adjacency_sets(build_extremal(14, 3))
        assert nbrs[3] == {2, 4}
        assert nbrs[4] == {3}
        assert nbrs[5] == {0, 6, 7}

    def test_extremal_builds_rows_without_an_edge_list(self):
        # A list of the 22,351 edge tuples of build_extremal(300, 149) peaks
        # at 1.6 MB traced; the rows themselves take about 0.02 MB.
        tracemalloc.start()
        try:
            g = build_extremal(300, 149)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000
        # Two blocks of 149 on a 2-vertex spine, each block joined to its vertex.
        assert g.edge_count == 1 + 2 * (149 * 148 // 2 + 149)

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=6))
    def test_parameter_invariants(self, n, k):
        blocks = n // (k + 1)
        path_len = n - k * blocks
        assert blocks <= path_len <= blocks + k
        g = build_extremal(n, k)
        assert g.n == n
        nbrs = adjacency_sets(g)
        for u in range(n):
            if u < path_len:
                want = (u > 0) + (u < path_len - 1) + (k if u < blocks else 0)
            else:
                want = k  # k - 1 block mates and one path vertex
            assert len(nbrs[u]) == want, (n, k, u)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            build_extremal(0, 2)
        with pytest.raises(ValueError, match="at least 1"):
            build_extremal(5, 0)

    def test_small_n_degenerates_to_path(self):
        assert build_extremal(3, 4).edges() == build_path(3).edges()

    def test_seven_two_structure(self):
        # n = 7, k = 2: 2 blocks on a 3-path; 2 path edges plus two blocks of
        # (1 internal + 2 join) edges = 8 edges total.
        g = build_extremal(7, 2)
        assert g.n == 7
        assert g.edge_count == 8
        assert len(naive_components(g)) == 1

    def test_block_structure(self):
        # n = 11, k = 3: two blocks on a 5-vertex path.
        k, blocks, path_len = 3, 2, 5
        nbrs = adjacency_sets(build_extremal(11, k))
        path = list(range(path_len))
        for i in range(path_len - 1):
            assert path[i + 1] in nbrs[path[i]]
        for b in range(blocks):
            block = [path_len + b * k + j for j in range(k)]
            for idx, u in enumerate(block):
                for w in block[idx + 1 :]:
                    assert w in nbrs[u]
                assert u in nbrs[b]
            # nothing joins a block to any other path vertex or block
            for u in block:
                assert nbrs[u] == set(block) - {u} | {b}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_solver_attains_the_floor(self, k):
        for n in range(3, 13):
            g = build_extremal(n, k)
            assert iota_solve(g, k).iota == n // (k + 1)


class TestRandomConnected:
    def test_seed_determinism(self):
        a = gen_random_connected(12, 0.3, 99)
        b = gen_random_connected(12, 0.3, 99)
        assert a.edges() == b.edges()

    def test_seeds_vary_output(self):
        outcomes = {tuple(gen_random_connected(10, 0.3, s).edges()) for s in range(8)}
        assert len(outcomes) > 1

    def test_always_connected(self):
        for seed in range(30):
            assert len(naive_components(gen_random_connected(9, 0.1, seed))) == 1

    def test_p_one_gives_complete_graph(self):
        g = gen_random_connected(7, 1.0, 5)
        assert g.edge_count == 21

    def test_single_vertex(self):
        assert gen_random_connected(1, 0.5, 0).n == 1

    @pytest.mark.parametrize("bad_p", [0.0, -0.1, 1.5])
    def test_bad_probability_rejected(self, bad_p):
        with pytest.raises(ValueError):
            gen_random_connected(5, bad_p, 1)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            gen_random_connected(0, 0.5, 1)


class TestRandomStream:
    """Every seeded graph is a pure function of (n, p, seed): the Pruefer
    draws, then one ``random()`` per non-tree pair in lexicographic order.
    ``naive_random_connected`` spends the stream the same way, pair by pair;
    the generator reads it in blocks of 8,192 pair draws, so every graph
    from n = 130 on (8,256 draws) takes more than one."""

    @pytest.mark.parametrize("p", [0.05, *BOUNDARY_P])
    def test_matches_pair_by_pair_generator(self, p):
        for n in [*range(1, 41), 150]:
            for seed in (0, 1, 7, 2**32 - 1):
                want = naive_random_connected(n, p, seed).adj
                assert gen_random_connected(n, p, seed).adj == want, (n, p, seed)

    @given(
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=0, max_value=1, exclude_min=True),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_pair_by_pair_generator_anywhere(self, n, p, seed):
        assert gen_random_connected(n, p, seed).adj == naive_random_connected(n, p, seed).adj


class TestEdgeBits:
    def test_bit_i_is_the_ith_pair_in_lexicographic_order(self):
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert [graph_from_edge_bits(4, 1 << i).edges() for i in range(6)] == [[e] for e in pairs]

    def test_round_trip(self):
        bits = (1 << 0) | (1 << 5)
        g = graph_from_edge_bits(4, bits)
        assert g.edges() == [(0, 1), (2, 3)]

    @given(st.integers(min_value=0, max_value=2**10 - 1))
    def test_every_mask_is_a_graph(self, mask):
        g = graph_from_edge_bits(5, mask)
        assert g.n == 5
        assert g.edge_count == mask.bit_count()


class TestEnumeration:
    @pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
    def test_connected_counts(self, n, count):
        # check-theorem sweeps the rows of ``_connected`` unsplit, each graph
        # its own one component, so it relies on every one being connected.
        rows = list(_connected(n))
        assert len(rows) == count
        for adj in rows:
            assert type(adj) is tuple
            assert len(naive_components(Graph(adj))) == 1
        assert [g.adj for g in enumerate_connected(n)] == rows

    def test_connectivity_filter_matches_naive_check(self):
        expected = [
            mask
            for mask in range(64)
            if len(naive_components(graph_from_edge_bits(4, mask))) == 1
        ]
        got = list(enumerate_connected(4))
        assert len(got) == len(expected) == CONNECTED_COUNTS[4]
        assert [g.adj for g in got] == [graph_from_edge_bits(4, m).adj for m in expected]

    def test_deterministic_ascending_edge_masks(self):
        # Connected masks on 3 vertices are 3, 5, 6 and 7 over the pairs
        # (0, 1), (0, 2), (1, 2).
        sizes = [g.edge_count for g in enumerate_connected(3)]
        assert sizes == [2, 2, 2, 3]
        assert next(enumerate_connected(3)).edges() == [(0, 1), (0, 2)]

    def test_edge_masks_ascend_at_six(self):
        # The connectivity filter runs on raw rows; the graphs that pass keep
        # the edge-mask order, starting from the star at vertex 0.
        index = {pair: i for i, pair in enumerate(combinations(range(6), 2))}
        graphs = list(enumerate_connected(6))
        assert graphs[0].edges() == [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]
        masks = [sum(1 << index[e] for e in g.edges()) for g in graphs]
        assert masks == sorted(set(masks))
        assert masks[-1] == 2**15 - 1

    def test_n_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            enumerate_connected(0)

    def test_cap_refusal_names_the_cap(self):
        with pytest.raises(EnumerationCapError, match="^enumeration cap is 8 vertices, got 9$"):
            enumerate_connected(9)
