"""Command-line front end.

Verbs: ``solve`` (exact isolation number), ``bound`` (constructive set within
floor(n/(k+1))), ``verify`` (check a candidate set), ``gen`` (write graph
files) and ``check-theorem`` (sweep a corpus and assert the bound plus solver
agreement).  Reports are line-delimited JSON objects with sorted keys so a run
with fixed inputs and seeds is byte-identical; timings are therefore kept out
of the reports, and ``check-theorem`` writes its stats to stderr.  Exit
status: 0 success or valid, 1 invalid verification, 2 input error, 3 bound
violation found.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Iterable, Iterator

from .construct import (
    ExceptionalGraphError,
    bounded_isolating_set,
    bounded_sets_per_component,
)
from .edgelist import MAX_VERTICES, EdgeListError, format_edge_list, read_graph, write_graph
from .generators import (
    DEFAULT_ENUMERATION_CAP,
    build_complete,
    build_cycle,
    build_extremal,
    build_path,
    enumerate_connected,
    gen_random_connected,
)
from .graph import ExceptionKind, Graph, classify_exception, is_connected
from .isolation import DEFAULT_ORACLE_CAP, iota_oracle, iota_solve, verify_isolating

_EXIT_OK = 0
_EXIT_INVALID = 1
_EXIT_INPUT = 2
_EXIT_VIOLATION = 3

PROGRESS_EVERY = 100_000  # graphs of a batch between stderr progress lines


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return _EXIT_INPUT


def _bump_recursion(n: int) -> None:
    need = 1000 + 8 * n
    if sys.getrecursionlimit() < need:
        sys.setrecursionlimit(need)


def _parse_set_literal(text: str) -> frozenset[int]:
    fields = text.replace(",", " ").split()
    try:
        return frozenset(int(f) for f in fields)
    except ValueError:
        raise ValueError(f"malformed set literal {text!r}: members must be integers") from None


def _trace_json(trace: Iterable) -> list[dict]:
    return [{"tag": st.tag.value, "chosen": list(st.chosen)} for st in trace]


def cmd_solve(args: argparse.Namespace) -> int:
    g = read_graph(args.path)
    _bump_recursion(g.n)
    rep = iota_solve(g, args.k)
    cert = verify_isolating(g, args.k, rep.optimal_set)
    _emit(
        {
            "command": "solve",
            "input": args.path,
            "n": g.n,
            "m": g.edge_count,
            "k": args.k,
            "iota": rep.iota,
            "set": sorted(rep.optimal_set),
            "valid": cert.valid,
            "nodes": rep.nodes_expanded,
        }
    )
    return _EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    g = read_graph(args.path)
    if args.per_component:
        parts = bounded_sets_per_component(g, args.k)
        _emit(
            {
                "command": "bound",
                "input": args.path,
                "n": g.n,
                "m": g.edge_count,
                "k": args.k,
                "per_component": True,
                "components": [
                    {
                        "vertices": sorted(c.vertices),
                        "exception": c.exception.value,
                        "set": sorted(c.set),
                        "size": len(c.set),
                        "bound": len(c.vertices) // (args.k + 1),
                        "trace": _trace_json(c.result.trace) if c.result else None,
                    }
                    for c in parts
                ],
            }
        )
        return _EXIT_OK
    if not is_connected(g):
        return _fail("graph is disconnected; rerun with --per-component")
    kind = classify_exception(g, args.k)
    if kind is not ExceptionKind.NONE:
        return _fail(
            f"the floor(n/(k+1)) bound excludes this graph (shape: {kind.value}); "
            "its forced optimal set is available via --per-component"
        )
    res = bounded_isolating_set(g, args.k)
    _emit(
        {
            "command": "bound",
            "input": args.path,
            "n": g.n,
            "m": g.edge_count,
            "k": args.k,
            "size": len(res.set),
            "bound": res.bound,
            "set": sorted(res.set),
            "valid": True,
            "trace": _trace_json(res.trace),
        }
    )
    return _EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = read_graph(args.path)
    cand = _parse_set_literal(args.set)
    cert = verify_isolating(g, args.k, cand)
    _emit(
        {
            "command": "verify",
            "input": args.path,
            "n": g.n,
            "m": g.edge_count,
            "k": args.k,
            "set": sorted(cert.candidate),
            "valid": cert.valid,
            "witness": None if cert.witness is None else sorted(cert.witness),
            "residual_size": cert.residual_size,
        }
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


def _check_instance(g: Graph, k: int, oracle_cap: int) -> tuple[int | None, dict | None]:
    """Returns (iota, violation-detail); iota is None for an excluded shape,
    which is not solved."""
    if classify_exception(g, k) is not ExceptionKind.NONE:
        return None, None
    bound = g.n // (k + 1)
    problems: list[str] = []
    rep = iota_solve(g, k)
    if rep.iota > bound:
        problems.append(f"iota {rep.iota} exceeds bound {bound}")
    try:
        res = bounded_isolating_set(g, k)
        cert = verify_isolating(g, k, res.set)
        if not cert.valid:
            problems.append("constructed set does not isolate")
        if len(res.set) > bound:
            problems.append(f"constructed set size {len(res.set)} exceeds bound {bound}")
    except Exception as exc:  # a construction crash is a finding, not a CLI crash
        problems.append(f"construction failed: {exc}")
    if g.n <= oracle_cap:
        orep = iota_oracle(g, k, cap=oracle_cap)
        if orep.iota != rep.iota:
            problems.append(f"solver {rep.iota} disagrees with oracle {orep.iota}")
    if not problems:
        return rep.iota, None
    return rep.iota, {
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
    mode.  Violation records are emitted as they are found, then one summary
    row per (batch, k); ``violations`` in a summary row is the running total
    over every row so far, not the count for that row.  Timing-dependent
    stats go to stderr: per summary row the largest iota of a non-excluded
    instance, the floor at the largest n of the batch, the elapsed seconds
    and the instances per second, plus a progress line every
    ``PROGRESS_EVERY`` graphs of a batch.
    """
    for flag, value, low in (
        ("--n-max", args.n_max, 1),
        ("--k-max", args.k_max, 1),
        ("--count", args.count, 0),
    ):
        if value is not None and value < low:
            return _fail(f"check-theorem {flag} must be at least {low}, got {value}")
    if args.mode == "exhaustive":
        if args.n_max > DEFAULT_ENUMERATION_CAP:
            return _fail(
                f"check-theorem --mode exhaustive caps --n-max at "
                f"{DEFAULT_ENUMERATION_CAP} vertices, got {args.n_max}"
            )
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
        seen = n_seen = 0
        for g in graphs:
            seen += 1
            n_seen = max(n_seen, g.n)
            for k in ks:
                iota, detail = _check_instance(g, k, args.oracle_cap)
                if iota is None:
                    exceptional[k] += 1
                elif iota > max_iota[k]:
                    max_iota[k] = iota
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
                f"{_throughput(checked, start)}",
                file=sys.stderr,
            )
    return _EXIT_VIOLATION if violations else _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
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
        help=f"largest vertex count (exhaustive mode: at most {DEFAULT_ENUMERATION_CAP})",
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
        return args.func(args)
    except EdgeListError as exc:
        return _fail(str(exc))
    except ExceptionalGraphError as exc:
        return _fail(f"{exc} (kind: {exc.kind.value})")
    except ValueError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
