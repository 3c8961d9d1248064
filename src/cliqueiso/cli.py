"""Command-line front end.

Verbs: ``solve`` (exact isolation number), ``bound`` (constructive set within
floor(n/(k+1))), ``verify`` (check a candidate set), ``gen`` (write graph
files) and ``check-theorem`` (sweep a corpus and assert the bound plus solver
agreement).  Reports are line-delimited JSON objects with sorted keys so a run
with fixed inputs and seeds is byte-identical; the verbs that read a graph
file share one header (command, input, n, m, k).  Timings are kept out
of the reports and go to stderr: ``solve`` writes one line of search counters,
``bound`` one line with the construction's step count, piece-tree depth and
branch-tag histogram, and ``check-theorem`` per-row stats, the same histogram
among them, and progress.  Exit status: 0 success or valid, 1 invalid
verification, 2 input error, 3 bound violation found.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from collections import Counter
from typing import Iterable, Iterator, Mapping

from .cliques import find_in_mask
from .construct import (
    BoundResult,
    BranchTag,
    bounded_isolating_set,
    bounded_sets_per_component,
    construct_mask,
)
from .edgelist import MAX_VERTICES, format_edge_list, read_graph, write_graph
from .generators import (
    DEFAULT_ENUMERATION_CAP,
    build_complete,
    build_cycle,
    build_extremal,
    build_path,
    enumerate_connected,
    gen_random_connected,
)
from .graph import NONE, Graph, closed_mask, component_masks, exception_kind
from .isolation import DEFAULT_ORACLE_CAP, iota_solve, oracle_scan, solve_mask, verify_isolating

_EXIT_OK = 0
_EXIT_INVALID = 1
_EXIT_INPUT = 2
_EXIT_VIOLATION = 3
_EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that went away

PROGRESS_EVERY = 100_000  # graphs of a batch between stderr progress lines


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _report(args: argparse.Namespace, g: Graph, **fields) -> None:
    """Emit one report of a verb that reads a graph file, under the header
    every such verb shares."""
    _emit(dict(command=args.command, input=args.path, n=g.n, m=g.edge_count, k=args.k, **fields))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return _EXIT_INPUT


def _parse_set_literal(text: str) -> frozenset[int]:
    fields = text.replace(",", " ").split()
    try:
        return frozenset(int(f) for f in fields)
    except ValueError:
        raise ValueError(f"malformed set literal {text!r}: members must be integers") from None


def _trace_json(trace: Iterable) -> list[dict]:
    return [{"tag": st.tag.value, "chosen": list(st.chosen)} for st in trace]


def _tag_fields(counts: Mapping[str, int]) -> str:
    """How many construction steps each rule produced, given per tag value,
    as ``Tag=count`` fields in ``BranchTag`` order."""
    return " ".join(f"{tag.value}={counts[tag.value]}" for tag in BranchTag)


def _bound_stats(results: list[BoundResult], start: float) -> None:
    """One stderr line: the number of construction steps over ``results``,
    the deepest piece tree among them, and how many steps each rule produced,
    in ``BranchTag`` order."""
    counts = Counter(st.tag.value for res in results for st in res.trace)
    depth = max((res.depth for res in results), default=0)
    print(
        f"bound: trace_steps={counts.total()} depth={depth} {_tag_fields(counts)} "
        f"elapsed_s={time.perf_counter() - start:.3f}",
        file=sys.stderr,
    )


def cmd_solve(args: argparse.Namespace) -> int:
    g = read_graph(args.path)
    rep = iota_solve(g, args.k)
    cert = verify_isolating(g, args.k, rep.optimal_set)
    _report(
        args, g, iota=rep.iota, set=sorted(rep.optimal_set), valid=cert.valid,
        nodes=rep.nodes_expanded,
    )
    print(
        f"solve: nodes={rep.nodes_expanded} bound_prunes={rep.bound_prunes} "
        f"incumbent_updates={rep.incumbent_updates} elapsed_s={rep.elapsed:.3f}",
        file=sys.stderr,
    )
    return _EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    g = read_graph(args.path)
    start = time.perf_counter()
    if args.per_component:
        parts = bounded_sets_per_component(g, args.k)
        components = [
            {
                "vertices": sorted(c.vertices),
                "exception": c.exception.value,
                "set": sorted(c.set),
                "size": len(c.set),
                "bound": len(c.vertices) // (args.k + 1),
                "trace": _trace_json(c.result.trace) if c.result else None,
            }
            for c in parts
        ]
        _report(args, g, per_component=True, components=components)
        _bound_stats([c.result for c in parts if c.result], start)
        return _EXIT_OK
    res = bounded_isolating_set(g, args.k)
    _report(
        args, g, size=len(res.set), bound=res.bound, set=sorted(res.set), valid=True,
        trace=_trace_json(res.trace),
    )
    _bound_stats([res], start)
    return _EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = read_graph(args.path)
    cand = _parse_set_literal(args.set)
    cert = verify_isolating(g, args.k, cand)
    _report(
        args, g, set=sorted(cert.candidate), valid=cert.valid,
        witness=None if cert.witness is None else sorted(cert.witness),
        residual_size=cert.residual_size,
    )
    return _EXIT_OK if cert.valid else _EXIT_INVALID


def cmd_gen(args: argparse.Namespace) -> int:
    if args.n > MAX_VERTICES:
        return _fail(f"gen --n is capped at {MAX_VERTICES} vertices, got {args.n}")
    params: dict = {}
    if args.kind == "extremal":
        if args.k is None:
            return _fail("gen extremal requires --k")
        g = build_extremal(args.n, args.k)
        params = {"k": args.k}
    elif args.kind == "path":
        g = build_path(args.n)
    elif args.kind == "cycle":
        g = build_cycle(args.n)
    elif args.kind == "complete":
        g = build_complete(args.n)
    else:  # random
        if args.seed is None:
            return _fail("gen random requires an explicit --seed")
        if args.p is None:
            return _fail("gen random requires --p")
        g = gen_random_connected(args.n, args.p, args.seed)
        params = {"p": args.p, "seed": args.seed}
    write_graph(args.out, g)
    _emit(
        {
            "command": "gen",
            "kind": args.kind,
            "n": g.n,
            "m": g.edge_count,
            "out": args.out,
            **params,
        }
    )
    return _EXIT_OK


def _check_graph(
    g: Graph, ks: range, oracle_cap: int
) -> Iterator[tuple[int | None, list, dict | None]]:
    """Check every instance (g, k) for k in ``ks``, yielding (iota, the
    construction's trace, violation-detail) per k; iota is None and the trace
    empty for an excluded shape, which is not solved, and the trace is empty
    when the construction fails.

    The components are found once and serve every k, both for the solver and
    for the construction's connectivity guard.  Each instance then runs on
    the same kernels as ``iota_solve``, ``bounded_isolating_set``,
    ``verify_isolating`` and ``iota_oracle``.
    """
    adj = g.adj
    full = g.full_mask
    comps = component_masks(adj, full)
    previous = None  # iota at k - 1, None when that instance was excluded
    for k in ks:
        if exception_kind(adj, full, k) is not NONE:
            previous = None
            yield None, [], None
            continue
        bound = g.n // (k + 1)
        problems: list[str] = []
        trace = []
        best = solve_mask(adj, comps, k)[0]
        iota = best.bit_count()
        if iota > bound:
            problems.append(f"iota {iota} exceeds bound {bound}")
        if previous is not None and iota > previous:
            problems.append(f"iota {iota} at k={k} exceeds iota {previous} at k={k - 1}")
        previous = iota
        if find_in_mask(adj, full & ~closed_mask(adj, best), k) is not None:
            problems.append("solver set does not isolate")
        try:
            d, trace, _ = construct_mask(adj, comps, k)
            if find_in_mask(adj, full & ~closed_mask(adj, d), k) is not None:
                problems.append("constructed set does not isolate")
            if d.bit_count() > bound:
                problems.append(f"constructed set size {d.bit_count()} exceeds bound {bound}")
        except Exception as exc:  # a construction crash is a finding, not a CLI crash
            problems.append(f"construction failed: {exc}")
        if g.n <= oracle_cap:
            oracle_iota = len(oracle_scan(adj, k)[0])
            if oracle_iota != iota:
                problems.append(f"solver {iota} disagrees with oracle {oracle_iota}")
        if not problems:
            yield iota, trace, None
            continue
        yield iota, trace, {
            "command": "check-theorem",
            "violation": True,
            "n": g.n,
            "k": k,
            "problems": problems,
            "graph": format_edge_list(g),
        }


def _random_graphs(seed: int, count: int, n_max: int) -> Iterator[Graph]:
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, n_max)
        p = rng.uniform(0.05, 0.95)
        yield gen_random_connected(n, p, rng.randrange(2**32))


def _throughput(checked: int, start: float) -> str:
    elapsed = max(time.perf_counter() - start, 1e-9)
    return f"elapsed_s={elapsed:.2f} instances_per_s={checked / elapsed:.0f}"


def cmd_check_theorem(args: argparse.Namespace) -> int:
    """Check the theorem on every (graph, k) instance of one corpus.

    The corpus is a list of batches, each a summary-row head and a graph
    iterator: one batch per n in exhaustive mode, one seeded batch in random
    mode.  An instance is a violation when the solver's iota exceeds the
    bound or the iota of the same graph at k - 1, the solver's set does not
    isolate, the constructed set does not isolate, exceeds the bound or could
    not be built, or, up to ``--oracle-cap`` vertices, the oracle finds
    another iota; its record lists every problem found.  Violation records
    are emitted as they are found, then one summary row per (batch, k);
    ``violations`` in a summary row is the running total over every row so
    far, not the count for that row.  Timing-dependent stats go to stderr:
    per summary row the largest iota of a non-excluded instance, the floor at
    the largest n of the batch, how many construction steps each rule
    produced (``bound``'s histogram), the elapsed seconds and the instances
    per second, plus a progress line every ``PROGRESS_EVERY`` graphs of a
    batch.
    """
    for flag, value, low in (
        ("--n-max", args.n_max, 1),
        ("--k-max", args.k_max, 1),
        ("--count", args.count, 0),
        ("--oracle-cap", args.oracle_cap, 0),
    ):
        if value is not None and value < low:
            return _fail(f"check-theorem {flag} must be at least {low}, got {value}")
    if args.k_max > args.n_max:
        # No graph of the corpus has a clique that large, and each k costs a
        # summary row and a tag table per batch before any graph is read.
        return _fail(
            f"check-theorem --k-max must be at most --n-max {args.n_max}, got {args.k_max}"
        )
    cap = DEFAULT_ENUMERATION_CAP if args.mode == "exhaustive" else MAX_VERTICES
    if args.n_max > cap:
        return _fail(
            f"check-theorem --mode {args.mode} caps --n-max at {cap} vertices, got {args.n_max}"
        )
    if args.mode == "exhaustive":
        batches = [
            ({"mode": "exhaustive", "n": n}, enumerate_connected(n))
            for n in range(1, args.n_max + 1)
        ]
    else:
        if args.seed is None:
            return _fail("check-theorem --mode random requires an explicit --seed")
        if args.count is None:
            return _fail("check-theorem --mode random requires --count")
        head = {"mode": "random", "count": args.count, "seed": args.seed, "n_max": args.n_max}
        batches = [(head, _random_graphs(args.seed, args.count, args.n_max))]
    ks = range(1, args.k_max + 1)
    violations = checked = 0
    start = time.perf_counter()
    for head, graphs in batches:
        label = "check-theorem " + " ".join(f"{key}={value}" for key, value in head.items())
        exceptional = dict.fromkeys(ks, 0)
        max_iota = dict.fromkeys(ks, 0)
        tags = {k: dict.fromkeys((tag.value for tag in BranchTag), 0) for k in ks}
        seen = n_seen = 0
        for g in graphs:
            seen += 1
            n_seen = max(n_seen, g.n)
            for k, (iota, trace, detail) in zip(ks, _check_graph(g, ks, args.oracle_cap)):
                if iota is None:
                    exceptional[k] += 1
                elif iota > max_iota[k]:
                    max_iota[k] = iota
                # Keyed by the plain ``_value_`` attribute: hashing an Enum
                # member or reading ``.value`` runs Python code, once per step.
                counts = tags[k]
                for tag, _ in trace:
                    counts[tag._value_] += 1
                if detail is not None:
                    violations += 1
                    _emit(detail)
            checked += len(ks)
            if seen % PROGRESS_EVERY == 0:
                print(f"{label}: {seen} graphs {_throughput(checked, start)}", file=sys.stderr)
        for k in ks:
            _emit(
                {
                    "command": "check-theorem",
                    **head,
                    "k": k,
                    "graphs": seen,
                    "exceptional": exceptional[k],
                    "violations": violations,
                }
            )
            print(
                f"{label} k={k}: max_iota={max_iota[k]} floor={n_seen // (k + 1)} "
                f"{_tag_fields(tags[k])} {_throughput(checked, start)}",
                file=sys.stderr,
            )
    return _EXIT_VIOLATION if violations else _EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later
    ``main`` in the process; parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="cliqueiso",
        description="Exact and constructive k-clique isolation over edge-list files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="exact minimum isolating set")
    p_solve.add_argument("path", help="edge-list file")
    p_solve.add_argument("--k", type=int, required=True, help="clique size to isolate")
    p_solve.set_defaults(func=cmd_solve)

    p_bound = sub.add_parser("bound", help="constructive set within floor(n/(k+1))")
    p_bound.add_argument("path", help="edge-list file")
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument(
        "--per-component", action="store_true", help="handle each component separately"
    )
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", help="check a candidate isolating set")
    p_verify.add_argument("path", help="edge-list file")
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("set", help="vertex list such as '0 3 5' (may be empty)")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="write a graph file")
    p_gen.add_argument(
        "kind", choices=["extremal", "path", "cycle", "complete", "random"]
    )
    p_gen.add_argument("--n", type=int, required=True, help="vertex count")
    p_gen.add_argument("--k", type=int, help="block size (extremal)")
    p_gen.add_argument("--p", type=float, help="extra-edge probability (random)")
    p_gen.add_argument("--seed", type=int, help="RNG seed (random; required)")
    p_gen.add_argument("--out", required=True, help="output file path")
    p_gen.set_defaults(func=cmd_gen)

    p_check = sub.add_parser(
        "check-theorem", help="sweep a corpus and assert the bound holds"
    )
    p_check.add_argument(
        "--mode", choices=["exhaustive", "random"], default="exhaustive"
    )
    p_check.add_argument(
        "--n-max",
        type=int,
        default=5,
        help=f"largest vertex count (at most {DEFAULT_ENUMERATION_CAP} in exhaustive mode, "
        f"{MAX_VERTICES} in random mode)",
    )
    p_check.add_argument("--k-max", type=int, default=3, help="largest clique size")
    p_check.add_argument("--count", type=int, help="instances (random mode)")
    p_check.add_argument("--seed", type=int, help="RNG seed (random mode; required)")
    p_check.add_argument(
        "--oracle-cap",
        type=int,
        default=DEFAULT_ORACLE_CAP,
        help="cross-check the solver against the subset oracle up to this size "
        f"(default {DEFAULT_ORACLE_CAP})",
    )
    p_check.set_defaults(func=cmd_check_theorem)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # Flush inside the try, so that a reader that went away is seen here.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Not an input error: stdout's reader closed it, as ``| head`` does.
        # Point stdout at devnull, as the Python docs advise, so that the
        # flush at exit does not fail again, and print nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:  # EdgeListError and ExceptionalGraphError included
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
