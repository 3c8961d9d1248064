"""Regenerate ``expected.json``: the expected report of every op any workload
seed can draw, at every scale.

Run from the repository root:  python3 perfbench/make_expected.py

It runs the current program, so only run it when a report is meant to
change; the benchmark's correctness check compares later runs against what it
writes.  Each stored set is verified with ``verify_isolating`` before it is
written.  Takes a few minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import workloads
from worker import ROOT, Outcome, call_cli, op_record, use_checkout_source


def main() -> int:
    use_checkout_source()
    import cliqueiso.cli as cli
    from cliqueiso import verify_isolating, write_graph

    input_dir = ROOT / ".perfbench" / "expected-inputs"
    input_dir.mkdir(parents=True, exist_ok=True)
    expected = {}
    try:
        for scale in workloads.SCALES:
            ops = workloads.pool_ops(scale)
            graphs = {}
            for spec in workloads.input_specs(ops):
                graphs[spec.name] = spec.build()
                write_graph(input_dir / f"{spec.name}.edges", graphs[spec.name])
            for op in ops:
                t0 = time.perf_counter()
                code, out, err = call_cli(cli, op.argv(input_dir))
                if code != 0:
                    raise SystemExit(f"{op.key}: exit status {code}: {err}")
                rows = workloads.canonical(op, out)
                if op.graph is not None and not verify_isolating(
                    graphs[op.graph.name], op.k, rows[0]["set"]
                ).valid:
                    raise SystemExit(f"{op.key}: returned set does not isolate")
                expected[op.key] = {
                    "sha256": workloads.digest(rows),
                    "summary": workloads.summary(op, rows),
                }
                rec = op_record(Outcome(op, 0.0, code, out, err), graphs)
                print(f"{time.perf_counter() - t0:7.2f}s {json.dumps(rec)}", file=sys.stderr)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    text = json.dumps(expected, indent=1, sort_keys=True) + "\n"
    workloads.EXPECTED_PATH.write_text(text)
    print(f"wrote {len(expected)} expected reports to {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
