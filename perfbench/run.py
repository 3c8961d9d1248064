"""Benchmark of the cliqueiso CLI.  See perfbench/README.md for the workloads
and metrics.

    python3 perfbench/run.py --workload solve-random --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout.  Every phase runs in a fresh interpreter (``worker.py``):
``--trace 0`` sets up several times before and after running the untraced
closed loop, and prints the end-to-end metrics; ``--trace 1`` sets up once
and runs the traced ops, printing the per-layer metrics.  Inputs go under
``.perfbench/`` and are deleted afterwards; the full record of the run stays in
``.perfbench/results/``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SCALES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 11
DEADLINE_S = 170.0
# The end-to-end throughput is one metric across workloads; this is its name
# on each workload, for the printed table.
ITEMS_ALIAS = {
    "solve-random": "solve_per_s",
    "bound-sparse": "bound_vertices_per_s",
    "check-exhaustive": "checks_per_s",
}


class ChildFailed(RuntimeError):
    pass


def child(phase: str, args: argparse.Namespace, input_dir: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, "-E", "-s", str(HERE / "worker.py"), phase,
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
        "--seconds", str(args.seconds), "--input-dir", str(input_dir.relative_to(ROOT)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{phase} phase ran past the deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{phase} phase exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def set_up(args: argparse.Namespace, input_dir: Path, deadline: float) -> dict:
    """One set-up into an empty input directory, as in a fresh checkout.
    Set-ups that overwrote the files of the one before ran slower the more of
    them had run; into an empty directory they do not."""
    shutil.rmtree(input_dir, ignore_errors=True)
    return child("setup", args, input_dir, deadline)


def round_seconds(op_seconds: list[list[float]]) -> float:
    """One round's time, each op taken at its median over the rounds.

    The host's speed drifts over seconds.  Taking every op at its median
    before summing drops the rounds an op ran in a slow spell, which the
    median of whole rounds, each many seconds long, cannot.
    """
    return sum(statistics.median(times) for times in zip(*op_seconds))


def end_to_end(setups: list[dict], run: dict) -> dict:
    wall = round_seconds(run["op_seconds"])
    samples = [t for times in run["op_seconds"] for t in times]
    return {
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "op_p50_s": {"value": statistics.median(samples), "unit": "s"},
        "items_per_s": {"value": run["items"] / len(run["rounds"]) / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }


def print_table(workload: str, metrics: dict, attempted: int, failed: int, extra: dict) -> None:
    print(f"# {workload}")
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:>16.6g} {m['unit']}")
        if name == "items_per_s":
            print(f"{'  = ' + ITEMS_ALIAS[workload]:45s} {m['value']:>16.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"{name:45s} {value:>16.6g}")
    print(f"{'ops_failed_ratio':45s} {failed / max(attempted, 1):>16.6g} ratio  ({failed}/{attempted})")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="cliqueiso benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", choices=SCALES, default="full",
        help="input sizes; 'small' is for the benchmark's self-test",
    )
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cliqueiso" / "__init__.py").is_file():
        print(f"error: no cliqueiso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    work = ROOT / ".perfbench" / run_id
    results_dir = ROOT / ".perfbench" / "results"
    shutil.rmtree(work, ignore_errors=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    input_dir = work / "inputs"
    try:
        if args.trace:
            setups = [set_up(args, input_dir, deadline)]
            out = child("trace", args, input_dir, deadline)
            metrics = out["metrics"]
            extra = {"untraced_wall_s": out["untraced_wall_s"], "traced_wall_s": out["traced_wall_s"]}
        else:
            setups = [set_up(args, input_dir, deadline) for _ in range(SETUP_REPS - SETUP_REPS // 2)]
            out = child("run", args, input_dir, deadline)
            # The rest run after the loop, so set-up is sampled at two
            # moments of the host, half a minute apart.
            setups += [set_up(args, input_dir, deadline) for _ in range(SETUP_REPS // 2)]
            metrics = end_to_end(setups, out)
            extra = {
                "op_samples": sum(len(times) for times in out["op_seconds"]),
                "rounds": len(out["rounds"]),
                "measured_wall_s": round_seconds(out["raw_seconds"]),
                "host_probe_p50_s": out["probe_p50_s"],
            }
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = out["attempted"], out["failed"]
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {"args": vars(args), "setups": setups, "phase": out, "result": result}
    (results_dir / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    for msg in out["failures"]:
        print(f"FAILED {msg}")
    print_table(args.workload, metrics, attempted, failed, extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
