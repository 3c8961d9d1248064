"""One digest that pins what the solver and the construction return, search
counters and traces included, on every small connected graph.

A change to the mask kernels that is meant to be a pure speed-up must leave
this digest as it is.  Recompute it only when an output is meant to change:
``PYTHONPATH=src python -m tests.test_behaviour_pin`` prints it.
"""

import hashlib
import json

from cliqueiso import ExceptionalGraphError, bounded_isolating_set, enumerate_connected, iota_solve

PIN_N_MAX = 5
PIN_KS = (1, 2, 3)
PIN_SHA256 = "321c3ad802f2e03e9fd5102de33d6bce0f0674601af46d1108efe671ded1ceed"


def _records(g, k) -> list:
    rep = iota_solve(g, k)
    solve = [
        rep.iota,
        sorted(rep.optimal_set),
        rep.nodes_expanded,
        rep.bound_prunes,
        rep.incumbent_updates,
    ]
    try:
        res = bounded_isolating_set(g, k)
    except ExceptionalGraphError as exc:
        return [solve, exc.kind.value]
    trace = [[step.tag.value, list(step.chosen)] for step in res.trace]
    return [solve, [sorted(res.set), trace, res.depth]]


def behaviour_digest() -> str:
    """SHA-256 over ``iota_solve`` and ``bounded_isolating_set`` on every
    labeled connected graph with at most PIN_N_MAX vertices, at every k in
    PIN_KS."""
    h = hashlib.sha256()
    for n in range(1, PIN_N_MAX + 1):
        for index, g in enumerate(enumerate_connected(n)):
            for k in PIN_KS:
                rec = [n, index, k, _records(g, k)]
                h.update(json.dumps(rec, separators=(",", ":")).encode())
                h.update(b"\n")
    return h.hexdigest()


def test_solver_and_construction_outputs_are_pinned():
    assert behaviour_digest() == PIN_SHA256


if __name__ == "__main__":
    print(behaviour_digest())
