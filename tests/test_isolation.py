"""Isolation predicate, subset-scan oracle, the exact branch-and-bound solver,
a hitting-set ILP cross-check, and a golden corpus that pins the solver's sets
and search-tree sizes.

Regenerate the corpus only when a solver output is meant to change:
``PYTHONPATH=src python -m tests.test_isolation``.  It prints how many entries
changed iota or set, the total node count before and after, and how many
entries grew, before it writes.
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
from cliqueiso import isolation
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
    naive_k_cliques,
    run_at_low_recursion_limit,
)


# Two triangles, {0, 1, 2} and {6, 7, 8}, joined by the path 2-3-4-5-6.
TWO_TRIANGLES = Graph.from_edges(
    9, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8), (7, 8)]
)


def distance_two_rows(g: Graph) -> dict[int, int]:
    """N[N[v]] of every vertex, rebuilt from the naive neighbourhood helper."""
    return {
        v: mask_of(naive_closed_neighborhood(g, naive_closed_neighborhood(g, [v])), g.n)
        for v in range(g.n)
    }


def packing(g: Graph, pool: int, k: int, forbidden: int = 0, limit: int | None = None) -> int:
    """``packing_bound`` on ``pool``, started from its first k-clique; with no
    ``limit``, one that no packing reaches."""
    first = find_in_mask(g.adj, pool, k)
    if first is None:
        return 0
    if limit is None:
        limit = g.n + 1
    return packing_bound(g.adj, distance_two_rows(g), pool, k, first, forbidden, limit)


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


    def test_long_path_at_low_recursion_limit(self):
        # The search is one node deeper per chosen vertex: 100 deep here.
        out = run_at_low_recursion_limit(
            "from cliqueiso import build_path, iota_solve\n"
            "rep = iota_solve(build_path(300), 1)\n"
            "print(rep.iota, rep.nodes_expanded)\n"
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["100", "13200"]


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

    @given(graphs(max_n=8), st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=80)
    def test_packing_bound_is_a_lower_bound_with_forbidden_vertices(self, g, k, data):
        pool = vertex_subset(g, data)
        forbidden = vertex_subset(g, data)
        limit = data.draw(st.integers(min_value=1, max_value=g.n + 1))
        bound = packing(g, mask_of(pool, g.n), k, mask_of(forbidden, g.n), limit)
        least = naive_least_isolator(g, pool, k, forbidden)
        # Reaching the limit claims only that no allowed set below it exists.
        if least is not None and least < limit:
            assert bound <= least

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


class TestHittingSetILP:
    """A fourth route to iota, independent of the solver, the oracle and the
    naive scans: the integer program over the closed neighbourhoods of the
    k-cliques, which reaches sizes the oracle refuses."""

    def test_golden_corpus(self):
        for inst in json.loads(GOLDEN.read_text())["instances"]:
            g = Graph.from_edges(inst["n"], [tuple(e) for e in inst["edges"]])
            for k in GOLDEN_KS:
                chosen = ilp_isolator(g, k)
                assert len(chosen) == inst["results"][str(k)]["iota"], (inst["name"], k)
                assert naive_is_isolating(g, k, chosen), (inst["name"], k)

    def test_solve_random_anchor(self):
        g = gen_random_connected(60, 0.1, 2)
        assert len(ilp_isolator(g, 2)) == iota_solve(g, 2).iota == 6


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


def _records(corpus: dict) -> dict[tuple[str, str], dict]:
    return {
        (inst["name"], k): record
        for inst in corpus["instances"]
        for k, record in inst["results"].items()
    }


def _corpus_changes(old: dict, new: dict) -> str:
    """What regenerating the corpus changes: entries whose iota or set moved,
    total search nodes before and after, and entries whose node count grew."""
    before, after = _records(old), _records(new)
    shared = before.keys() & after.keys()
    moved = sum(
        (before[key]["iota"], before[key]["set"]) != (after[key]["iota"], after[key]["set"])
        for key in shared
    )
    grew = sum(after[key]["nodes"] > before[key]["nodes"] for key in shared)
    return (
        f"{len(after)} entries ({len(after.keys() - shared)} new, "
        f"{len(before.keys() - shared)} gone); iota or set changed: {moved}; "
        f"nodes: {sum(r['nodes'] for r in before.values())} -> "
        f"{sum(r['nodes'] for r in after.values())}; entries with more nodes: {grew}"
    )


if __name__ == "__main__":
    corpus = _golden_corpus()
    print(_corpus_changes(json.loads(GOLDEN.read_text()), corpus))
    GOLDEN.write_text(
        "{\n  \"instances\": [\n"
        + ",\n".join(
            "    " + json.dumps(item, separators=(",", ":")) for item in corpus["instances"]
        )
        + "\n  ]\n}\n"
    )
