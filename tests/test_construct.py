"""Constructive bounded isolating sets: exceptional handling, every construction
branch (pinned by crafted configurations), soundness sweeps, and a golden
corpus that pins sets and traces.

Regenerate the corpus only when a construction output is meant to change:
``PYTHONPATH=src python -m tests.test_construct``.
"""

import inspect
import json
import random
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import cliqueiso.construct as construct
from cliqueiso import (
    BoundResult,
    BranchTag,
    ExceptionKind,
    ExceptionalGraphError,
    Graph,
    TraceStep,
    bounded_isolating_set,
    bounded_sets_per_component,
    build_complete,
    build_cycle,
    build_extremal,
    build_path,
    classify_exception,
    enumerate_connected,
    gen_random_connected,
    iota_oracle,
    iota_solve,
    verify_isolating,
)
from cliqueiso.isolation import degree_relabel, packing_bound

from .pins import bound_record, trace_record
from .support import (
    connected_graphs,
    disjoint_union,
    gadgets,
    naive_components,
    package_env,
    piece_checked,
    planted,
    random_gadget,
    random_plant,
    write_corpus,
)


def assert_sound(g: Graph, k: int, res) -> None:
    assert verify_isolating(g, k, res.set).valid
    assert len(res.set) <= res.bound == g.n // (k + 1)
    chosen = {u for step in res.trace for u in step.chosen}
    assert chosen == set(res.set)


class TestExceptionalInputs:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_complete_graph_refused_with_kind(self, k):
        with pytest.raises(ExceptionalGraphError) as info:
            bounded_isolating_set(build_complete(k), k)
        assert info.value.kind is ExceptionKind.K_CLIQUE

    def test_five_cycle_refused_at_k2_only(self):
        with pytest.raises(ExceptionalGraphError) as info:
            bounded_isolating_set(build_cycle(5), 2)
        assert info.value.kind is ExceptionKind.FIVE_CYCLE_AT_K2
        res = piece_checked(bounded_isolating_set, build_cycle(5), 3)
        assert res.set == frozenset()

    def test_disconnected_input_redirected(self):
        g = disjoint_union([build_path(2), build_path(2)])
        with pytest.raises(ValueError, match="component"):
            bounded_isolating_set(g, 2)


class TestPerComponent:
    def test_exceptional_components_get_forced_optima(self):
        g = disjoint_union([build_complete(2), build_cycle(5), build_path(4)])
        parts = piece_checked(bounded_sets_per_component, g, 2)
        by_kind = {p.exception: p for p in parts}
        k2 = by_kind[ExceptionKind.K_CLIQUE]
        assert k2.set == {min(k2.vertices)} and k2.result is None
        c5 = by_kind[ExceptionKind.FIVE_CYCLE_AT_K2]
        assert len(c5.set) == 2 and c5.result is None
        plain = by_kind[ExceptionKind.NONE]
        assert plain.result is not None and len(plain.set) <= len(plain.vertices) // 3
        union = frozenset().union(*(p.set for p in parts))
        assert verify_isolating(g, 2, union).valid

    def test_component_sets_live_inside_their_components(self):
        g = disjoint_union([build_path(5), build_complete(4)])
        for part in piece_checked(bounded_sets_per_component, g, 3):
            assert part.set <= part.vertices

    @given(st.lists(connected_graphs(max_n=6), min_size=1, max_size=3),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=50)
    def test_union_always_isolates(self, parts, k):
        g = disjoint_union(parts)
        results = piece_checked(bounded_sets_per_component, g, k)
        union = frozenset().union(*(p.set for p in results)) if results else frozenset()
        assert verify_isolating(g, k, union).valid


# Crafted configurations reaching each recursion branch, with the hand-traced
# output sets frozen in.  Each graph was cross-checked against the subset-scan
# oracle at build time; the checks below re-verify soundness on every run.
BRANCH_CASES = [
    # label, edges, n, k, tag that must appear, frozen output (or None)
    ("base_small_edge", [(0, 1)], 2, 1, BranchTag.BASE_SMALL, {0}),
    ("no_clique", [(0, 1), (1, 2), (0, 2)], 3, 4, BranchTag.NO_CLIQUE, set()),
    ("dominating_vertex", [(0, 1), (0, 2), (0, 3), (1, 2)], 4, 2,
     BranchTag.DOMINATING_VERTEX, {0}),
    ("no_exceptional", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 6, 2,
     BranchTag.NO_EXCEPTIONAL, None),
    ("case2_clique_side", [(0, 1), (0, 2), (2, 3), (3, 4)], 5, 2,
     BranchTag.CASE2, {2}),
    ("case2_cycle_side", [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (5, 6), (6, 7)],
     8, 2, BranchTag.CASE2, {2, 5}),
    ("case2_hanging_cycle", [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)],
     8, 2, BranchTag.CASE2, {2, 5}),
    ("sub1_general_remainder", [(0, 3), (0, 4), (0, 7), (1, 2), (1, 3), (2, 4), (4, 5),
                                (5, 6), (6, 7), (5, 8)],
     9, 2, BranchTag.CASE1_SUB1, None),
    ("sub2_terminal_chord", [(0, 1), (0, 2), (1, 2), (1, 4), (2, 3), (3, 4)], 5, 2,
     BranchTag.CASE1_SUB2, {1}),
    ("sub2_terminal_wide_overlap", [(0, 1), (0, 2), (0, 3), (2, 3), (4, 5), (4, 6), (5, 6),
                                    (1, 4), (2, 5), (2, 6)],
     7, 3, BranchTag.CASE1_SUB2, {2}),
    ("sub2_terminal_tight_overlap", [(0, 1), (0, 2), (0, 3), (2, 3), (4, 5), (4, 6), (5, 6),
                                     (1, 4), (2, 5), (2, 6), (3, 5)],
     7, 3, BranchTag.CASE1_SUB2, {5}),
    ("sub2_terminal_cycle_block", [(0, 1), (0, 2), (1, 3), (2, 4), (2, 7), (3, 4), (3, 7),
                                   (4, 5), (5, 6), (6, 7)],
     8, 2, BranchTag.CASE1_SUB2, {3, 7}),
    ("sub2_recursive", [(0, 1), (0, 2), (1, 2), (1, 4), (2, 3), (3, 4), (1, 5)], 6, 2,
     BranchTag.CASE1_SUB2, None),
    ("sub3_terminal", [(0, 3), (0, 4), (0, 7), (1, 2), (1, 3), (2, 4), (4, 5), (5, 6),
                       (6, 7)],
     8, 2, BranchTag.CASE1_SUB3, {0, 4}),
    ("sub3_recursive", [(0, 3), (0, 4), (0, 7), (1, 2), (1, 3), (2, 4), (4, 5), (5, 6),
                        (6, 7), (3, 8)],
     9, 2, BranchTag.CASE1_SUB3, None),
]


class TestBranches:
    @pytest.mark.parametrize(
        "edges,n,k,tag,frozen",
        [case[1:] for case in BRANCH_CASES],
        ids=[case[0] for case in BRANCH_CASES],
    )
    def test_branch_fires_and_output_is_sound(self, edges, n, k, tag, frozen):
        g = Graph.from_edges(n, edges)
        res = piece_checked(bounded_isolating_set, g, k)
        assert tag in {step.tag for step in res.trace}
        assert_sound(g, k, res)
        assert iota_oracle(g, k).iota <= len(res.set)
        if frozen is not None:
            assert res.set == frozenset(frozen)

    def test_all_branches_are_pinned(self):
        covered = {case[4] for case in BRANCH_CASES}
        assert covered == set(BranchTag)

    def test_lone_vertex_is_exceptional_at_k1(self):
        # K_1 is the k = 1 complete graph, so the bound refuses it; at k = 2 it
        # holds vacuously with the empty set.
        with pytest.raises(ExceptionalGraphError):
            bounded_isolating_set(Graph.from_edges(1, []), 1)
        res = piece_checked(bounded_isolating_set, Graph.from_edges(1, []), 2)
        assert res.set == frozenset()

    @pytest.mark.parametrize("k", [1, 2])
    def test_empty_graph_needs_no_vertex(self, k):
        # The 0-vertex graph has no component, so it is neither disconnected
        # nor exceptional: its root piece is empty and takes one BaseSmall step.
        g = Graph.from_edges(0, [])
        assert piece_checked(bounded_isolating_set, g, k) == BoundResult(
            frozenset(), 0, (TraceStep(BranchTag.BASE_SMALL, ()),), 0
        )
        assert bounded_sets_per_component(g, k) == []
        for report in (iota_solve(g, k), iota_oracle(g, k)):
            assert report.iota == 0
            assert report.optimal_set == frozenset()


class TestSweeps:
    @given(connected_graphs(min_n=1, max_n=9), st.integers(min_value=1, max_value=3))
    @settings(max_examples=80)
    def test_arbitrary_connected_instances(self, g, k):
        if classify_exception(g, k) is not ExceptionKind.NONE:
            return
        res = piece_checked(bounded_isolating_set, g, k)
        assert_sound(g, k, res)

    def test_random_graphs_stay_within_bound(self):
        rng = random.Random(1207)
        for _ in range(150):
            n = rng.randint(8, 13)
            g = gen_random_connected(n, rng.uniform(0.05, 0.6), rng.randrange(2**32))
            for k in (1, 2, 3):
                if classify_exception(g, k) is ExceptionKind.NONE:
                    assert_sound(g, k, piece_checked(bounded_isolating_set, g, k))

    def test_extremal_family_members(self):
        for k in (1, 2, 3):
            for n in range(3, 15):
                g = build_extremal(n, k)
                if len(naive_components(g)) != 1:
                    continue
                if classify_exception(g, k) is not ExceptionKind.NONE:
                    continue
                assert_sound(g, k, piece_checked(bounded_isolating_set, g, k))


class TestPlanted:
    """Copies of an 8-vertex seed that drives the construction into its
    rarest k = 2 rules, hung on a tree and relabeled (``support.plant``)."""

    @given(planted())
    @settings(max_examples=60)
    def test_every_piece_checked(self, g):
        assert_sound(g, 2, piece_checked(bounded_isolating_set, g, 2))

    def test_fixed_seed_fires_case1_sub2_and_sub3(self):
        rng = random.Random(30)
        tags = Counter()
        for _ in range(200):
            g = random_plant(rng, host=20, copies=20)
            res = piece_checked(bounded_isolating_set, g, 2)
            assert len(res.set) <= res.bound == g.n // 3
            tags.update(step.tag for step in res.trace)
        assert tags[BranchTag.CASE1_SUB3] > 0
        assert tags[BranchTag.CASE1_SUB2] > 0


class TestGadgets:
    """Copies of K_k hung on a small core (``support.random_gadget``), which
    drive the construction into Case2 and Case1_Sub2 at k = 3 and 4."""

    @pytest.mark.parametrize("k", [3, 4])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_every_piece_checked(self, k, data):
        g = data.draw(gadgets(k))
        assert_sound(g, k, piece_checked(bounded_isolating_set, g, k))

    @pytest.mark.parametrize("k", [3, 4])
    def test_fixed_seed_fires_case2_and_case1_sub2(self, k):
        rng = random.Random(31)
        tags = Counter()
        for _ in range(2000):
            g = random_gadget(rng, k)
            res = piece_checked(bounded_isolating_set, g, k)
            assert len(res.set) <= res.bound == g.n // (k + 1)
            tags.update(step.tag for step in res.trace)
        assert tags[BranchTag.CASE2] > 0
        assert tags[BranchTag.CASE1_SUB2] > 0


def _members(mask: int) -> set[int]:
    return {u for u in range(mask.bit_length()) if mask >> u & 1}


class TestExcision:
    """Every Case step drops x and the cut from its piece.  What is left must
    split into the pivot's piece and the x-only general components exactly as
    a plain search over vertex sets splits it."""

    @pytest.fixture
    def excisions(self, monkeypatch):
        real = construct._excise
        signature = inspect.signature(real)
        calls = []

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append((signature.bind(*args, **kwargs).arguments, out))
            return out

        monkeypatch.setattr(construct, "_excise", recording)
        return calls

    @staticmethod
    def _check(g: Graph, k: int, calls) -> int:
        for args, out in calls:
            alive = _members(args["piece"]) - _members(args["xb"]) - _members(args["cut"])
            found = [_members(out[0])] + [_members(cm) for cm in out[-1]]
            # the pivot's component first, the rest by lowest vertex
            expected = sorted(naive_components(g, alive), key=lambda c: args["pivot"] not in c)
            assert found == expected, (g.edges(), k)
        count = len(calls)
        calls.clear()
        return count

    def test_every_small_connected_graph(self, excisions):
        count = 0
        for n in range(1, 7):
            for g in enumerate_connected(n):
                for k in (1, 2):
                    if classify_exception(g, k) is ExceptionKind.NONE:
                        bounded_isolating_set(g, k)
                        count += self._check(g, k, excisions)
        assert count == 30_729

    def test_branch_cases(self, excisions):
        count = 0
        for _, edges, n, k, _, _ in BRANCH_CASES:
            g = Graph.from_edges(n, edges)
            piece_checked(bounded_isolating_set, g, k)
            count += self._check(g, k, excisions)
        assert count > 0


class TestOneSplitPerStep:
    """``_linkage`` is the construction's only per-step component split: one
    split of the whole graph, then one per step that removes a pivot's
    neighbourhood (NoExceptional and the Case rules)."""

    @pytest.mark.parametrize("make,k,expected", [
        (lambda: build_extremal(2000, 3), 3, 1 + 250),  # 250 Case2
        (lambda: build_path(1000), 1, 1 + 499),  # 499 NoExceptional
        # 250 NoExceptional and 29 Case2
        (lambda: gen_random_connected(1600, 0.003125, 3), 2, 1 + 250 + 29),
    ], ids=["extremal-2000", "path-1000", "random-1600"])
    def test_split_count(self, monkeypatch, make, k, expected):
        g = make()
        real = construct.component_masks
        calls = []

        def counting(adj, within):
            calls.append(within)
            return real(adj, within)

        monkeypatch.setattr(construct, "component_masks", counting)
        bounded_isolating_set(g, k)
        assert len(calls) == expected


class TestLargePiece:
    def test_extremal_2000_peels_one_block_per_case2(self):
        # The piece from path vertex 2i on has pivot 2i.  Without N[2i], the
        # triangle of 2i+1 hangs on 2i+1 alone, so Case2 takes 2i+1 and pushes
        # 2i with its own triangle, which 2i dominates, then the path from
        # 2i+2 on.
        res = piece_checked(bounded_isolating_set, build_extremal(2000, 3), 3)
        assert res.set == frozenset(range(500))
        assert res.depth == 250
        expected = []
        for i in range(250):
            expected.append(TraceStep(BranchTag.CASE2, (2 * i + 1,)))
            expected.append(TraceStep(BranchTag.DOMINATING_VERTEX, (2 * i,)))
        assert list(res.trace) == expected


def _packing_lower_bound(g: Graph, k: int) -> int:
    """The number of k-cliques ``packing_bound`` packs with pairwise disjoint
    closed neighbourhoods on the degree-relabeled graph, nothing forbidden and
    no limit: each needs its own vertex, so this bounds iota from below."""
    code, closed = [0] * g.n, [0] * g.n
    rows, balls = degree_relabel(g.adj, g.full_mask, code, closed)
    return packing_bound(rows, balls, (1 << len(rows)) - 1, k, 0, 0, g.n + 1)[0]


class TestSharpnessAtScale:
    def test_extremal_2000_meets_the_packing_bound(self):
        # Where the packing, the constructed set (which isolates, or the
        # construction raises) and floor(n/(k+1)) coincide, iota is
        # floor(n/(k+1)) without the exact search.
        for k in range(1, 5):
            g = build_extremal(2000, k)
            floor = g.n // (k + 1)
            assert _packing_lower_bound(g, k) == len(bounded_isolating_set(g, k).set) == floor
        # The known gap: on the 4000-vertex graph at k = 2 the spine's end
        # vertex carries no block, has degree 1 and sorts first in the
        # relabeling, and the packing falls one clique short of the set.
        g = build_extremal(4000, 2)
        assert (_packing_lower_bound(g, 2), len(bounded_isolating_set(g, 2).set)) == (1332, 1333)


class TestNoRecursion:
    """The construction runs on one explicit work stack, so a deep piece tree
    never meets Python's recursion limit."""

    @pytest.mark.parametrize("n,k", [(1000, 1), (2000, 2)])
    def test_long_path_at_default_limit(self, n, k):
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            res = piece_checked(bounded_isolating_set, build_path(n), k)
        finally:
            sys.setrecursionlimit(saved)
        assert len(res.set) == res.bound == n // (k + 1)
        assert_sound(build_path(n), k, res)


# Runs under ``python -O``, with two broken rules in turn.  Case1_Sub1 also
# takes x, one vertex more than its piece pays for, on the branch case that
# reaches it; the per-step check must name the rule.  Then one step of the
# piece {6, 7, 8} of the 9-vertex path loses its vertex: every step keeps
# within its budget, but the set no longer isolates that piece at k = 1.
CORRUPT_RULES = """
import cliqueiso.construct as construct
from cliqueiso import Graph, build_path, bounded_isolating_set

real_multi = construct._case_multi_link
real_step = construct._step

def greedy(adj, piece, k, pivot, entries, picked):
    tag, chosen, children = real_multi(adj, piece, k, pivot, entries, picked)
    if tag is construct.CASE1_SUB1:
        links = picked[2]
        chosen |= links & -links
    return tag, chosen, children

def dropping(adj, piece, k):
    tag, chosen, children = real_step(adj, piece, k)
    if piece == 0b111000000:
        chosen = 0
    return tag, chosen, children

sub1 = Graph.from_edges(9, %r)
assert False, "asserts must be stripped for this check to mean anything"
for name, target, mutant, g, k in (
    ("greedy", "_case_multi_link", greedy, sub1, 2),
    ("dropping", "_step", dropping, build_path(9), 1),
):
    real = getattr(construct, target)
    setattr(construct, target, mutant)
    try:
        bounded_isolating_set(g, k)
    except AssertionError as exc:
        print(name, exc)
    else:
        print(name, "no error")
    setattr(construct, target, real)
""" % (dict((case[0], case[1]) for case in BRANCH_CASES)["sub1_general_remainder"],)


class TestChecksUnderOptimize:
    def test_corrupted_piece_raises_under_dash_o(self):
        out = subprocess.run(
            [sys.executable, "-O", "-c", CORRUPT_RULES],
            capture_output=True, text=True, env=package_env(), timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "greedy the Case1_Sub1 step on the piece of 9 vertices from vertex 0 must stay "
            "inside it and spend k + 1 of its vertices per chosen vertex",
            "dropping construction broke its own guarantee; this is a bug",
        ]


GOLDEN = Path(__file__).with_name("golden_construct.json")
GOLDEN_KS = (1, 2, 3, 4)
CHECKED = partial(piece_checked, bounded_isolating_set)


def _golden_graphs() -> list[tuple[str, Graph]]:
    """The fixed connected corpus: every branch case, small extremal, path and
    cycle graphs, and seeded random graphs up to 40 vertices."""
    out = [(f"branch_{case[0]}", Graph.from_edges(case[2], case[1])) for case in BRANCH_CASES]
    for k in GOLDEN_KS:
        for n in range(3, 21):
            g = build_extremal(n, k)
            if len(naive_components(g)) == 1:
                out.append((f"extremal_{n}_{k}", g))
    out.extend((f"path_{n}", build_path(n)) for n in range(1, 21))
    out.extend((f"cycle_{n}", build_cycle(n)) for n in range(3, 21))
    rng = random.Random(2018)
    for i in range(80):
        n = rng.randint(6, 40)
        p = round(rng.uniform(0.02, 0.3), 3)
        seed = rng.randrange(2**32)
        out.append((f"random_{i}_{n}_{p}_{seed}", gen_random_connected(n, p, seed)))
    return out


def _golden_unions() -> list[tuple[str, Graph]]:
    """Disjoint unions mixing exceptional shapes (K_k, the 5-cycle) with
    ordinary components, for the per-component entry point."""
    return [
        ("k2_c5_p4", disjoint_union([build_complete(2), build_cycle(5), build_path(4)])),
        ("p5_k4", disjoint_union([build_path(5), build_complete(4)])),
        ("k3_c5_ext8", disjoint_union([build_complete(3), build_cycle(5), build_extremal(8, 2)])),
        ("k1_c6_k4_c5", disjoint_union([build_complete(1), build_cycle(6), build_complete(4),
                                        build_cycle(5)])),
        ("ext12_k1_p7", disjoint_union([build_extremal(12, 3), build_complete(1), build_path(7)])),
    ]


def _per_component_record(g: Graph, k: int) -> list:
    return [
        {
            "vertices": sorted(p.vertices),
            "exception": p.exception.value,
            "set": sorted(p.set),
            "trace": None if p.result is None else trace_record(p.result.trace),
        }
        for p in piece_checked(bounded_sets_per_component, g, k)
    ]


def _golden_corpus() -> dict:
    return {
        "instances": [
            {
                "name": name,
                "n": g.n,
                "edges": [list(e) for e in g.edges()],
                "results": {str(k): bound_record(g, k, CHECKED) for k in GOLDEN_KS},
            }
            for name, g in _golden_graphs()
        ],
        "per_component": [
            {
                "name": name,
                "n": g.n,
                "edges": [list(e) for e in g.edges()],
                "results": {str(k): _per_component_record(g, k) for k in GOLDEN_KS},
            }
            for name, g in _golden_unions()
        ],
    }


class TestGolden:
    """Sets, bounds and traces must stay exactly as recorded."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_corpus_covers_every_branch(self, golden):
        tags = {
            step[0]
            for inst in golden["instances"]
            for rec in inst["results"].values()
            for step in rec.get("trace", ())
        }
        assert tags == {tag.value for tag in BranchTag}
        assert len(golden["instances"]) >= 200
        kinds = {
            part["exception"]
            for inst in golden["per_component"]
            for parts in inst["results"].values()
            for part in parts
        }
        assert kinds == {kind.value for kind in ExceptionKind}

    def test_instances_match(self, golden):
        for inst in golden["instances"]:
            g = Graph.from_edges(inst["n"], [tuple(e) for e in inst["edges"]])
            for k in GOLDEN_KS:
                assert bound_record(g, k, CHECKED) == inst["results"][str(k)], (inst["name"], k)

    def test_per_component_match(self, golden):
        for inst in golden["per_component"]:
            g = Graph.from_edges(inst["n"], [tuple(e) for e in inst["edges"]])
            for k in GOLDEN_KS:
                assert _per_component_record(g, k) == inst["results"][str(k)], (inst["name"], k)


if __name__ == "__main__":
    write_corpus(GOLDEN, _golden_corpus())
