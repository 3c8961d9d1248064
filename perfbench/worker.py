"""One phase of one workload, run by ``run.py`` in a fresh interpreter.

Phases:

* ``setup``: import the package, generate the workload's inputs (those of the
  traced run, which include the timed round's) and write them as edge-list
  files.  Reports how long that took, also at the reference host speed, from
  probes of the host's speed just before and after.
* ``run``: a closed loop with one client and no threads.  Each round calls
  ``cliqueiso.cli.main`` once per op, in order, each call starting after the
  previous one returned; rounds repeat until ``--seconds`` have passed.
  Tracing is off.  Every op's time is kept, per round, both as measured and
  scaled to the reference host speed (``hostspeed.py``).  Every report is
  checked after the timed rounds.
* ``trace``: calls ``bounded_isolating_set`` directly on each ``bound`` input
  at the interpreter's default recursion limit (before any CLI call, since the
  CLI raises the limit), then runs the traced run's ops once untraced and once
  traced and reports the per-layer metrics.

The last line of stdout is one JSON object with the phase's results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from hostspeed import HostSpeed, probe_median, scale
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
clock = time.perf_counter
SETUP_PROBES = 11


def use_checkout_source() -> None:
    """Import ``cliqueiso`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "cliqueiso" / "__init__.py").is_file():
        raise SystemExit(f"no cliqueiso package under {SRC}")
    sys.path.insert(0, str(SRC))


def check_source(module) -> None:
    if SRC.resolve() not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"cliqueiso was imported from {module.__file__}, not from {SRC}")


@dataclass
class Outcome:
    op: Op
    seconds: float
    code: int | None
    out: str
    err: str


def call_cli(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """One op: ``cli.main(argv)`` with its output captured.  The name is
    looked up on the module at each call so a traced ``main`` is used."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        code = None
        err.write(f"raised {exc!r}")
    return code, out.getvalue(), err.getvalue()


def run_round(cli, ops: list[Op], input_dir: Path) -> tuple[float, list[Outcome]]:
    outcomes = []
    start = clock()
    for op in ops:
        argv = op.argv(input_dir)
        t0 = clock()
        code, out, err = call_cli(cli, argv)
        outcomes.append(Outcome(op, clock() - t0, code, out, err))
    return clock() - start, outcomes


def check(outcome: Outcome, expected: dict, graphs: dict, verify) -> str | None:
    """Why the op's output is wrong, or None when it matches the expected
    report and every returned set isolates its graph."""
    op = outcome.op
    if outcome.code != 0:
        return f"{op.key}: exit status {outcome.code}: {outcome.err.strip()[:200]}"
    try:
        rows = workloads.canonical(op, outcome.out)
    except (ValueError, TypeError, AttributeError) as exc:
        return f"{op.key}: unreadable report ({exc!r})"
    want = expected.get(op.key)
    if want is None:
        return f"{op.key}: no expected report stored"
    if workloads.digest(rows) != want["sha256"]:
        return (
            f"{op.key}: report differs from the expected one: "
            f"got {workloads.summary(op, rows)}, want {want['summary']}"
        )
    if op.graph is None:
        return None
    row = rows[0]
    size = row["iota"] if op.verb == "solve" else row["size"]
    if size != len(row["set"]):
        return f"{op.key}: reported size {size} but the set has {len(row['set'])} members"
    if op.verb == "bound" and size > row["bound"]:
        return f"{op.key}: set size {size} exceeds the bound {row['bound']}"
    if not verify(graphs[op.graph.name], op.k, row["set"]).valid:
        return f"{op.key}: returned set does not isolate"
    return None


def items(outcome: Outcome) -> int:
    """Work units of one op that passed its check: a solved instance, an
    input vertex, or a checked (graph, k) instance counted from the report."""
    op = outcome.op
    if op.verb == "solve":
        return 1
    if op.verb == "bound":
        return op.graph.n
    return sum(r.get("graphs", 0) for r in workloads.report_rows(outcome.out))


def tally(outcomes: list[Outcome], expected: dict, graphs: dict, verify) -> tuple[list[str], int]:
    """Failure messages, and the work units of the ops that passed."""
    failures, done = [], 0
    for o in outcomes:
        msg = check(o, expected, graphs, verify)
        if msg:
            failures.append(msg)
        else:
            done += items(o)
    return failures, done


def op_record(outcome: Outcome, graphs: dict) -> dict:
    """What ran, with the exact per-op counts a reader can compare."""
    op = outcome.op
    rec: dict = {"key": op.key, "argv": op.argv(Path("inputs")), "k": op.k}
    if op.graph is not None:
        g = graphs[op.graph.name]
        rec.update(n=g.n, m=g.edge_count)
    try:
        rows = workloads.report_rows(outcome.out)
    except ValueError:
        return rec
    if op.verb == "solve" and rows:
        rec["search_nodes"] = rows[0].get("nodes")
    elif op.verb == "bound" and rows:
        rec["trace_steps"] = len(rows[0].get("trace", []))
    elif op.verb == "check-theorem":
        rec["instances"] = sum(r.get("graphs", 0) for r in rows)
    return rec


def load_graphs(ops: list[Op], input_dir: Path, read_graph) -> dict:
    return {
        spec.name: read_graph(input_dir / f"{spec.name}.edges")
        for spec in workloads.input_specs(ops)
    }


def phase_setup(ops: list[Op], input_dir: Path) -> dict:
    probe_before = probe_median(SETUP_PROBES)
    start = clock()
    import cliqueiso
    import cliqueiso.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    input_dir.mkdir(parents=True, exist_ok=True)
    made = []
    for spec in workloads.input_specs(ops):
        g = spec.build()
        cliqueiso.write_graph(input_dir / f"{spec.name}.edges", g)
        made.append({"name": spec.name, "n": g.n, "m": g.edge_count})
    measured_s = clock() - start
    host_probe_s = statistics.median([probe_before, probe_median(SETUP_PROBES)])
    check_source(cliqueiso)
    return {
        "setup_s": scale(measured_s, host_probe_s),
        "measured_s": measured_s,
        "host_probe_s": host_probe_s,
        "inputs": made,
    }


def phase_run(ops: list[Op], input_dir: Path, seconds: float) -> dict:
    import cliqueiso.cli as cli
    from cliqueiso.edgelist import read_graph
    from cliqueiso.isolation import verify_isolating

    check_source(cli)
    graphs = load_graphs(ops, input_dir, read_graph)
    rounds: list[float] = []
    raw_seconds: list[list[float]] = []  # per round, per op
    op_seconds: list[list[float]] = []  # the same, at the reference host speed
    probe_seconds: list[float] = []
    outcomes: list[Outcome] = []
    start = clock()
    with HostSpeed() as speed:
        while not rounds or clock() - start < seconds:
            round_start = speed.mark()
            raw, scaled = [], []
            for op in ops:
                before = speed.mark()
                code, out, err = call_cli(cli, op.argv(input_dir))
                after = speed.mark()
                raw.append(speed.raw(before, after))
                scaled.append(speed.scaled(before, after))
                probe_seconds.append(speed.probe_s(before, after))
                outcomes.append(Outcome(op, raw[-1], code, out, err))
            rounds.append(speed.raw(round_start, speed.mark()))
            raw_seconds.append(raw)
            op_seconds.append(scaled)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures, done = tally(outcomes, workloads.load_expected(), graphs, verify_isolating)
    return {
        "rounds": rounds,
        "raw_seconds": raw_seconds,
        "op_seconds": op_seconds,
        "probe_p50_s": statistics.median(probe_seconds),
        "items": done,
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": peak_kib / 1024,
        "ops": [op_record(o, graphs) for o in outcomes[: len(ops)]],
    }


def phase_trace(ops: list[Op], input_dir: Path) -> dict:
    import cliqueiso.cli as cli
    from cliqueiso.construct import bounded_isolating_set
    from cliqueiso.edgelist import read_graph
    from cliqueiso.isolation import verify_isolating
    from tracer import Tracer

    check_source(cli)
    graphs = load_graphs(ops, input_dir, read_graph)
    recursion_failures = 0
    for op in ops:
        if op.verb == "bound":
            try:
                bounded_isolating_set(graphs[op.graph.name], op.k)
            except RecursionError:
                recursion_failures += 1

    untraced_wall, plain = run_round(cli, ops, input_dir)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced = run_round(cli, ops, input_dir)
    finally:
        tracer.uninstall()
    outcomes = plain + traced
    failures, _ = tally(outcomes, workloads.load_expected(), graphs, verify_isolating)
    metrics = tracer.metrics()
    metrics["construct.bounded_isolating_set.failed"] = (recursion_failures, "count")
    metrics["trace_overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "ops": [op_record(o, graphs) for o in traced],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("phase", choices=["setup", "run", "trace"])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--input-dir", type=Path, required=True)
    args = ap.parse_args(argv)

    use_checkout_source()
    ops = workloads.ops_for(args.workload, args.seed, args.scale)
    traced_ops = workloads.trace_ops(args.workload, args.seed, args.scale)
    if args.phase == "setup":
        result = phase_setup(traced_ops, args.input_dir)
    elif args.phase == "run":
        result = phase_run(ops, args.input_dir, args.seconds)
    else:
        result = phase_trace(traced_ops, args.input_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
