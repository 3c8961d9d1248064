"""Workload definitions: which graphs each workload generates from its seed,
which CLI ops it runs on them, and how a report is reduced to the canonical
form that is compared with the stored expectation.

Nothing here imports ``cliqueiso`` at module level, so the time to import the
package falls inside the set-up measurement of ``worker.py``.

Seeded inputs are drawn from fixed pools of generator seeds: the workload seed
picks which pool members run, and ``expected.json`` holds the expected report
of every pool member, so any workload seed can be checked.  The pools are
plain ranges of generator seeds, never filtered by how the program behaves
on them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("solve-random", "bound-sparse", "check-exhaustive")
SCALES = ("full", "small")

# solve-random: (n, p, k, graphs per round, pool size).  Search effort per
# random graph is heavy-tailed, so a round runs all but a few members of each
# pool: the seed picks which members are left out and the order, and the
# round's total work stays close to the same from seed to seed.  The denser
# k = 3 slot keeps the k = 3 search path in the mix.
SOLVE_SLOTS = {
    "full": ((40, 0.1, 2, 30, 32), (40, 0.08, 1, 30, 32), (60, 0.2, 3, 5, 6)),
    "small": ((12, 0.3, 2, 2, 3), (12, 0.25, 1, 2, 3), (14, 0.5, 3, 1, 2)),
}
# The ROADMAP baseline graph (239,152 search nodes).  A single op as long as
# half a round would make the round's time swing with the host, so it runs in
# the traced run only, where its exact node count is recorded.
SOLVE_ANCHOR = {"full": (60, 0.1, 2, 2), "small": None}  # (n, p, graph seed, k)

# bound-sparse: a random graph of average degree about 7, the extremal family
# (path spine plus K_3 blocks) and a bare path, whose piece tree is one level
# per step and therefore the deepest.  The path is kept at n = 1000 because
# the construction on it grows faster than quadratically today (n = 2000 takes
# about 5x as long), and it still exceeds the default recursion limit.
BOUND_RANDOM = {"full": (1600, 0.003125, 2), "small": (60, 0.06, 2)}  # (n, p, k)
BOUND_POOL = {"full": 16, "small": 4}
BOUND_EXTREMAL = {"full": (2000, 3), "small": (40, 3)}  # (n, k)
BOUND_PATH = {"full": (1000, 1), "small": (30, 1)}  # (n, k)

# check-exhaustive: every labeled connected graph up to n_max, k = 1..k_max.
CHECK_ARGS = {"full": (6, 3), "small": (4, 3)}  # (n_max, k_max)


@dataclass(frozen=True)
class GraphSpec:
    """One generated input file."""

    kind: str  # "random", "extremal" or "path"
    n: int
    p: float = 0.0
    graph_seed: int = 0
    k: int = 0  # block size for "extremal"

    @property
    def name(self) -> str:
        if self.kind == "random":
            return f"random-n{self.n}-p{self.p}-g{self.graph_seed}"
        if self.kind == "extremal":
            return f"extremal-n{self.n}-k{self.k}"
        return f"path-n{self.n}"

    def build(self):
        from cliqueiso import build_extremal, build_path, gen_random_connected

        if self.kind == "random":
            return gen_random_connected(self.n, self.p, self.graph_seed)
        if self.kind == "extremal":
            return build_extremal(self.n, self.k)
        return build_path(self.n)


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``graph`` is None for ops that read no input file."""

    verb: str
    k: int
    graph: GraphSpec | None = None
    n_max: int = 0

    @property
    def key(self) -> str:
        if self.graph is None:
            return f"check-theorem:exhaustive-n{self.n_max}-k{self.k}"
        return f"{self.verb}:{self.graph.name}:k{self.k}"

    def argv(self, input_dir: Path) -> list[str]:
        if self.graph is None:
            return [
                "check-theorem", "--mode", "exhaustive",
                "--n-max", str(self.n_max), "--k-max", str(self.k),
            ]
        return [self.verb, str(input_dir / f"{self.graph.name}.edges"), "--k", str(self.k)]


def _anchor_ops(scale: str) -> list[Op]:
    if SOLVE_ANCHOR[scale] is None:
        return []
    n, p, gseed, k = SOLVE_ANCHOR[scale]
    return [Op("solve", k, GraphSpec("random", n, p, gseed))]


def ops_for(workload: str, seed: int, scale: str) -> list[Op]:
    """The ops of one timed round, a pure function of (workload, seed, scale)."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "solve-random":
        ops = []
        for n, p, k, count, pool in SOLVE_SLOTS[scale]:
            for gseed in rng.sample(range(pool), count):
                ops.append(Op("solve", k, GraphSpec("random", n, p, gseed)))
        rng.shuffle(ops)
        return ops
    if workload == "bound-sparse":
        n, p, k = BOUND_RANDOM[scale]
        gseed = rng.randrange(BOUND_POOL[scale])
        en, ek = BOUND_EXTREMAL[scale]
        pn, pk = BOUND_PATH[scale]
        return [
            Op("bound", k, GraphSpec("random", n, p, gseed)),
            Op("bound", ek, GraphSpec("extremal", en, k=ek)),
            Op("bound", pk, GraphSpec("path", pn)),
        ]
    if workload == "check-exhaustive":
        n_max, k_max = CHECK_ARGS[scale]
        return [Op("check-theorem", k_max, n_max=n_max)]
    raise ValueError(f"unknown workload {workload!r}")


def trace_ops(workload: str, seed: int, scale: str) -> list[Op]:
    """The ops of the traced run: the timed round, after the anchor op."""
    anchor = _anchor_ops(scale) if workload == "solve-random" else []
    return anchor + ops_for(workload, seed, scale)


def pool_ops(scale: str) -> list[Op]:
    """Every op any seed can draw at this scale; ``expected.json`` covers them."""
    ops = _anchor_ops(scale)
    for n, p, k, _, pool in SOLVE_SLOTS[scale]:
        ops.extend(Op("solve", k, GraphSpec("random", n, p, g)) for g in range(pool))
    n, p, k = BOUND_RANDOM[scale]
    ops.extend(Op("bound", k, GraphSpec("random", n, p, g)) for g in range(BOUND_POOL[scale]))
    ops.extend(ops_for("bound-sparse", 0, scale)[1:])
    ops.extend(ops_for("check-exhaustive", 0, scale))
    return ops


def input_specs(ops: list[Op]) -> list[GraphSpec]:
    """The distinct input files the ops read, in first-use order."""
    seen: dict[str, GraphSpec] = {}
    for op in ops:
        if op.graph is not None:
            seen.setdefault(op.graph.name, op.graph)
    return list(seen.values())


def report_rows(text: str) -> list[dict]:
    """A CLI report: one JSON object per non-blank line."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def canonical(op: Op, text: str) -> list[dict]:
    """The report lines as dicts, minus what is not behaviour.

    ``solve``'s ``nodes`` is a search counter, and ``input`` carries the
    directory the run happened to use; both are dropped or normalised.
    """
    rows = report_rows(text)
    for row in rows:
        if "input" in row:
            row["input"] = Path(row["input"]).name
        if op.verb == "solve":
            row.pop("nodes", None)
    return rows


def digest(rows: list[dict]) -> str:
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def summary(op: Op, rows: list[dict]) -> dict:
    """A few readable fields stored beside the digest, to show what differs."""
    if op.verb == "check-theorem":
        return {
            "rows": len(rows),
            "graphs": sum(r.get("graphs", 0) for r in rows),
            "violations": max((r.get("violations", 0) for r in rows), default=0),
        }
    row = rows[0] if rows else {}
    keep = ("n", "m", "k", "iota", "size", "bound", "valid")
    out = {f: row[f] for f in keep if f in row}
    if "trace" in row:
        out["trace_steps"] = len(row["trace"])
    return out


EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())
