"""Isolation predicate, subset-scan oracle, the exact branch-and-bound solver,
and a golden corpus that pins the solver's sets and search-tree sizes.

Regenerate the corpus only when a solver output is meant to change:
``PYTHONPATH=src python -m tests.test_isolation``.
"""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cliqueiso import (
    Graph,
    OracleCapError,
    build_complete,
    build_cycle,
    build_extremal,
    build_path,
    enumerate_connected,
    gen_random_connected,
    iota_oracle,
    iota_solve,
    verify_isolating,
)
from cliqueiso.cliques import find_in_mask
from cliqueiso.graph import mask_of, set_of
from cliqueiso.isolation import greedy_mask, packing_bound

from .support import (
    adjacency_sets,
    disjoint_union,
    graphs,
    naive_closed_neighborhood,
    naive_delete,
    naive_iota,
    naive_is_isolating,
)


def distance_two_rows(g: Graph) -> dict[int, int]:
    """N[N[v]] of every vertex, rebuilt from the naive neighbourhood helper."""
    return {
        v: mask_of(naive_closed_neighborhood(g, naive_closed_neighborhood(g, [v])), g.n)
        for v in range(g.n)
    }


def packing(g: Graph, pool: int, k: int) -> int:
    """``packing_bound`` on ``pool``, started from its first k-clique."""
    first = find_in_mask(g.adj, pool, k)
    return 0 if first is None else packing_bound(g.adj, distance_two_rows(g), pool, k, first)


def naive_packing(g: Graph, pool: set[int], k: int) -> int:
    """Take the lexicographically first k-clique left in ``pool``, delete its
    distance-two ball from ``pool``, and count how often that can be done."""
    nbrs = adjacency_sets(g)
    pool = set(pool)
    count = 0
    while True:
        first = next(
            (c for c in combinations(sorted(pool), k)
             if all(b in nbrs[a] for a, b in combinations(c, 2))),
            None,
        )
        if first is None:
            return count
        count += 1
        pool -= naive_closed_neighborhood(g, naive_closed_neighborhood(g, first))


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
        assert (rep.bound_prunes, rep.incumbent_updates) == (0, 0)
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
        # Two triangles joined by a long path: no single vertex touches both.
        g = Graph.from_edges(
            9,
            [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8), (7, 8)],
        )
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
        pool = data.draw(st.sets(st.integers(min_value=0, max_value=max(g.n - 1, 0))))
        pool = {u for u in pool if u < g.n}
        assert packing(g, mask_of(pool, g.n), k) == naive_packing(g, pool, k)


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
    return {"iota": rep.iota, "set": sorted(rep.optimal_set), "nodes": rep.nodes_expanded}


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


class TestGolden:
    """Optimal sets and search-node counts must stay exactly as recorded: equal
    node counts on the same inputs mean the search visited the same tree."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_corpus_is_the_generated_one(self, golden):
        names = [inst["name"] for inst in golden["instances"]]
        assert names == [name for name, _ in _golden_graphs()]
        assert len(names) * len(GOLDEN_KS) >= 100

    def test_instances_match(self, golden):
        for inst in golden["instances"]:
            g = Graph.from_edges(inst["n"], [tuple(e) for e in inst["edges"]])
            for k in GOLDEN_KS:
                assert _solve_record(g, k) == inst["results"][str(k)], (inst["name"], k)


if __name__ == "__main__":
    corpus = _golden_corpus()
    GOLDEN.write_text(
        "{\n  \"instances\": [\n"
        + ",\n".join(
            "    " + json.dumps(item, separators=(",", ":")) for item in corpus["instances"]
        )
        + "\n  ]\n}\n"
    )
