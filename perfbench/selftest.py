"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

* Runs every workload at its smallest scale, untraced and traced, and checks
  that each run is correct and emits exactly the metrics BENCHMARK.json
  names, each with its declared unit.
* Feeds corrupted reports (a wrong set, a wrong count, a non-zero exit) to
  the same check the benchmark uses and requires each to count as failed,
  while a report differing only in ``solve``'s ``nodes`` counter passes.
* Copies only BENCHMARK.json and the benchmark directory into an empty
  directory and requires the benchmark to exit non-zero there without
  printing a result.

Exits 0 when every check passes.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from worker import ROOT, Outcome, call_cli, check, tally, use_checkout_source

HERE = Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench" / "selftest"


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
        "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--scale", "small",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(problems: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for workload in workloads.WORKLOADS:
            proc = run_bench(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {proc.stdout[-1500:]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")
            print(f"ok    {where}: {len(got)} metrics")


def corrupt_row(text: str, change) -> str:
    rows = workloads.report_rows(text)
    change(rows)
    return "\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n"


def check_corruption(problems: list[str]) -> None:
    use_checkout_source()
    import cliqueiso.cli as cli
    from cliqueiso import verify_isolating, write_graph

    input_dir = SCRATCH / "inputs"
    input_dir.mkdir(parents=True, exist_ok=True)
    expected = workloads.load_expected()
    by_verb = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.ops_for(workload, 0, "small"):
            by_verb.setdefault(op.verb, op)
    graphs = {}
    for op in by_verb.values():
        if op.graph is not None:
            graphs[op.graph.name] = op.graph.build()
            write_graph(input_dir / f"{op.graph.name}.edges", graphs[op.graph.name])

    def drop_member(rows):
        rows[0]["set"] = rows[0]["set"][1:]

    def bump(field):
        def change(rows):
            rows[-1][field] += 1
        return change

    cases = {
        "solve": [("wrong set", drop_member), ("wrong iota", bump("iota"))],
        "bound": [("wrong set", drop_member), ("wrong size", bump("size"))],
        "check-theorem": [("wrong graph count", bump("graphs"))],
    }
    for verb, op in by_verb.items():
        code, out, err = call_cli(cli, op.argv(input_dir))
        good = Outcome(op, 0.0, code, out, err)
        msg = check(good, expected, graphs, verify_isolating)
        if msg:
            problems.append(f"{verb}: the uncorrupted report fails: {msg}")
        bad = [Outcome(op, 0.0, code, corrupt_row(out, change), err) for _, change in cases[verb]]
        bad.append(Outcome(op, 0.0, 3, out, err))
        failures, _ = tally([good, *bad], expected, graphs, verify_isolating)
        failed = len(failures)
        if failed != len(bad):
            problems.append(f"{verb}: {failed} of {len(bad)} corrupted reports counted as failed")
        if verb == "solve":
            recount = Outcome(op, 0.0, code, corrupt_row(out, bump("nodes")), err)
            if check(recount, expected, graphs, verify_isolating):
                problems.append("solve: a different node count was treated as a wrong report")
        print(f"ok    {verb}: {len(bad)} corrupted reports counted as failed")


def check_without_sources(problems: list[str]) -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "solve-random", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    print(f"ok    without sources: exit {proc.returncode}")


def main() -> int:
    problems: list[str] = []
    try:
        check_corruption(problems)
        check_without_sources(problems)
        check_metrics(problems)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for p in problems:
        print(f"FAIL  {p}")
    print("selftest passed" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
