"""One digest that pins what the solver and the construction return, search
counters and traces included, on every small connected graph.

A change to the mask kernels that is meant to be a pure speed-up must leave
this digest as it is.  A second digest leaves out the search-tree counters
(``nodes_expanded`` and ``bound_prunes``), so a change to the bound or the
pruning, which may only change those two, must leave it as it is.  Recompute
them only when an output is meant to change:
``PYTHONPATH=src python -m tests.test_behaviour_pin`` prints both, and exits
1 when either differs from its pin, without pytest.
"""

import hashlib
import json
import sys

from cliqueiso import ExceptionalGraphError, bounded_isolating_set, enumerate_connected, iota_solve

PIN_N_MAX = 5
PIN_KS = (1, 2, 3)
PIN_SHA256 = "1daf363493fd43ad2b6314ddd51f364da32716c2aba0a36436e6825a2aa184c4"
PIN_WITHOUT_TREE_SHA256 = "bff3cfcabdd09a50d0b8c9cb438a660417e44772cb829e1a5d5bb7a3bbd8f017"


def _records(g, k, tree: bool) -> list:
    rep = iota_solve(g, k)
    solve = [rep.iota, sorted(rep.optimal_set), rep.incumbent_updates]
    if tree:
        solve[2:2] = [rep.nodes_expanded, rep.bound_prunes]
    try:
        res = bounded_isolating_set(g, k)
    except ExceptionalGraphError as exc:
        return [solve, exc.kind.value]
    trace = [[step.tag.value, list(step.chosen)] for step in res.trace]
    return [solve, [sorted(res.set), trace, res.depth]]


def behaviour_digest(tree: bool = True) -> str:
    """SHA-256 over ``iota_solve`` and ``bounded_isolating_set`` on every
    labeled connected graph with at most PIN_N_MAX vertices, at every k in
    PIN_KS; without ``tree``, leaving out the search's node and prune
    counts."""
    h = hashlib.sha256()
    for n in range(1, PIN_N_MAX + 1):
        for index, g in enumerate(enumerate_connected(n)):
            for k in PIN_KS:
                rec = [n, index, k, _records(g, k, tree)]
                h.update(json.dumps(rec, separators=(",", ":")).encode())
                h.update(b"\n")
    return h.hexdigest()


def test_solver_and_construction_outputs_are_pinned():
    assert behaviour_digest() == PIN_SHA256


def test_outputs_without_search_tree_counts_are_pinned():
    assert behaviour_digest(tree=False) == PIN_WITHOUT_TREE_SHA256


if __name__ == "__main__":
    digests = (behaviour_digest(), behaviour_digest(tree=False))
    print(*digests, sep="\n")
    sys.exit(0 if digests == (PIN_SHA256, PIN_WITHOUT_TREE_SHA256) else 1)
