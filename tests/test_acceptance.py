"""Acceptance suite: one test (and one pass/fail line under ``pytest -v``) per
shipping criterion, each at its stated tolerance.

Run ``pytest -v tests/test_acceptance.py`` for the per-criterion report.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

from cliqueiso import (
    ExceptionKind,
    bounded_isolating_set,
    build_complete,
    build_cycle,
    build_extremal,
    classify_exception,
    enumerate_connected,
    gen_random_connected,
    iota_oracle,
    iota_solve,
    verify_isolating,
)

from .support import (
    disjoint_union,
    graph_from_edge_bits,
    naive_closed_neighborhood,
    naive_delete,
    naive_domination,
    piece_checked,
)

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


def _banner(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def _random_graph(rng: random.Random, n: int):
    pairs = list(combinations(range(n), 2))
    mask = rng.getrandbits(len(pairs)) if pairs else 0
    return graph_from_edge_bits(n, mask, pairs)


def test_criterion_01_exceptional_values():
    """K_k needs one vertex for every k in 1..6 and the 5-cycle needs two at
    k = 2 — each strictly above floor(n/(k+1)) — in under a second."""
    t0 = time.perf_counter()
    for k in range(1, 7):
        g = build_complete(k)
        assert iota_solve(g, k).iota == 1 == iota_oracle(g, k).iota
        assert 1 > g.n // (k + 1)
    c5 = build_cycle(5)
    assert iota_solve(c5, 2).iota == 2 == iota_oracle(c5, 2).iota
    assert 2 > 5 // 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _banner(1, "exceptional graphs attain 1 and 2, above the floor, <1s")


def test_criterion_02_sharpness_grid():
    """The extremal family attains floor(n/(k+1)) exactly for 3 <= n <= 18,
    1 <= k <= 4, within two minutes."""
    t0 = time.perf_counter()
    for n in range(3, 19):
        for k in range(1, 5):
            got = iota_solve(build_extremal(n, k), k).iota
            assert got == n // (k + 1), (n, k, got)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _banner(2, "sharpness grid 3<=n<=18, 1<=k<=4 exact, <2min")


def test_criterion_03_exhaustive_theorem_check():
    """Every connected graph with n <= 6, at every k in {1,2,3}, satisfies
    iota <= floor(n/(k+1)) unless exceptional; zero violations, <5min."""
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        seen = 0
        for g in enumerate_connected(n):
            seen += 1
            for k in (1, 2, 3):
                if classify_exception(g, k) is not ExceptionKind.NONE:
                    continue
                assert iota_oracle(g, k).iota * (k + 1) <= g.n, (g, k)
                checked += 1
        assert seen == CONNECTED_COUNTS[n]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _banner(3, f"exhaustive n<=6: {checked} oracle checks, zero violations, <5min")


def _assert_constructed(g, k) -> None:
    """The construction on (g, k), every piece checked, returns a verified
    isolating set within the floor that it reports as its bound, and its
    trace's chosen vertices make up exactly that set."""
    res = piece_checked(bounded_isolating_set, g, k)
    assert verify_isolating(g, k, res.set).valid
    assert len(res.set) <= res.bound == g.n // (k + 1)
    assert {u for step in res.trace for u in step.chosen} == res.set


def test_criterion_04_constructive_soundness():
    """The constructive routine returns a verified isolating set within the
    floor on the exhaustive corpus and on 1,000 seeded random graphs."""
    checked = 0
    for n in range(1, 7):
        for g in enumerate_connected(n):
            for k in (1, 2, 3):
                if classify_exception(g, k) is not ExceptionKind.NONE:
                    continue
                _assert_constructed(g, k)
                checked += 1
    rng = random.Random(140822)
    for _ in range(1000):
        g = gen_random_connected(rng.randint(8, 14), rng.uniform(0.05, 0.6),
                                 rng.randrange(2**32))
        for k in (1, 2, 3):
            if classify_exception(g, k) is not ExceptionKind.NONE:
                continue
            _assert_constructed(g, k)
            checked += 1
    _banner(4, f"constructive sets verified on {checked} instances, zero failures")


def test_criterion_05_oracle_equivalence():
    """Branch-and-bound equals the subset-scan oracle on 500 seeded random
    graphs with n <= 12 at k in {1,2,3}."""
    rng = random.Random(500_12)
    for _ in range(500):
        g = _random_graph(rng, rng.randint(1, 12))
        for k in (1, 2, 3):
            assert iota_solve(g, k).iota == iota_oracle(g, k).iota, (g, k)
    _banner(5, "solver == oracle on 500 random graphs, k in {1,2,3}")


def test_criterion_06_deletion_and_additivity():
    """Deleting a closed neighborhood costs at most one set member (every
    vertex, 100 graphs); disjoint unions solve additively (100 unions)."""
    rng = random.Random(61)
    for _ in range(100):
        g = _random_graph(rng, rng.randint(1, 10))
        k = rng.choice((1, 2, 3))
        whole = iota_solve(g, k).iota
        for v in range(g.n):
            rest = naive_delete(g, naive_closed_neighborhood(g, [v]))
            assert whole <= 1 + iota_solve(rest, k).iota, (g, k, v)
    rng = random.Random(62)
    for _ in range(100):
        parts = [_random_graph(rng, rng.randint(1, 6))
                 for _ in range(rng.randint(2, 4))]
        k = rng.choice((1, 2, 3))
        whole = disjoint_union(parts)
        assert iota_solve(whole, k).iota == sum(iota_solve(p, k).iota for p in parts)
    _banner(6, "neighborhood-deletion inequality and additivity hold")


def test_criterion_07_domination_equivalence():
    """At k = 1 the solver computes the domination number (checked against an
    independent brute force) and stays within n/2 on all connected 2<=n<=6."""
    total = 0
    for n in range(2, 7):
        for g in enumerate_connected(n):
            gamma = naive_domination(g)
            assert iota_solve(g, 1).iota == gamma, g
            assert 2 * gamma <= g.n, g
            total += 1
    _banner(7, f"k=1 equals brute-force domination on {total} graphs, <= n/2")


def test_criterion_08_ratio_at_finite_scale():
    """iota(B)/n is exactly 1/(k+1) at the stated multiples of k+1."""
    for n in (3, 6, 9, 12):
        got = iota_solve(build_extremal(n, 2), 2).iota
        assert Fraction(got, n) == Fraction(1, 3), n
    for n in (4, 8, 12):
        got = iota_solve(build_extremal(n, 3), 3).iota
        assert Fraction(got, n) == Fraction(1, 4), n
    _banner(8, "extremal ratio exactly 1/(k+1) at finite scale")


def test_criterion_09_cli_determinism(tmp_path):
    """Every command with a fixed seed emits byte-identical reports (and
    files) across two consecutive runs."""
    out = tmp_path / "seeded.edges"
    batches = []
    for _ in range(2):
        chunks = []
        for argv in (
            ["gen", "random", "--n", "10", "--p", "0.3", "--seed", "42",
             "--out", str(out)],
            ["solve", str(out), "--k", "2"],
            ["bound", str(out), "--k", "2"],
            ["verify", str(out), "--k", "2", "0 1 2 3 4 5 6 7 8 9"],
            ["check-theorem", "--mode", "random", "--n-max", "8", "--k-max", "2",
             "--count", "25", "--seed", "9"],
            ["check-theorem", "--mode", "exhaustive", "--n-max", "4", "--k-max", "2"],
        ):
            proc = subprocess.run([sys.executable, "-m", "cliqueiso.cli", *argv],
                                  capture_output=True)
            assert proc.returncode == 0, (argv, proc.stderr)
            chunks.append(proc.stdout)
        chunks.append(out.read_bytes())
        batches.append(b"".join(chunks))
    assert batches[0] == batches[1]
    rep = json.loads(batches[0].split(b"\n")[1])
    assert rep["command"] == "solve"
    _banner(9, "fixed-seed CLI runs are byte-identical")
