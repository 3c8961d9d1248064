"""Command-line front end.

Verbs: ``solve`` (exact isolation number), ``bound`` (constructive set within
floor(n/(k+1))), ``verify`` (check a candidate set), ``gen`` (write graph
files) and ``check-theorem`` (sweep a corpus and assert the bound plus solver
agreement).  Reports are line-delimited JSON objects with sorted keys so a run
with fixed inputs and seeds is byte-identical; the verbs that read a graph
file share one header (command, input, n, m, k).  Timings are kept out
of the reports and go to stderr: ``solve`` writes one line of search counters,
``bound`` one line with the construction's step count, piece-tree depth and
branch-tag histogram, both with the seconds spent reading the graph file, and
``check-theorem`` per-row stats, the same histogram among them, and progress.
Exit status: 0 success or valid, 1 invalid verification, 2 input error, 3
bound violation found, 141 (128 + SIGPIPE) when the reader of stdout closed it
early.  A stderr that is closed or whose reader went away loses its lines and
changes nothing else: stdout and the exit status are those of a run whose
stderr took every line.
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
from itertools import islice
from typing import Iterable, Iterator, Mapping

from .cliques import isolates
from .construct import (
    BoundResult,
    BranchTag,
    bounded_isolating_set,
    bounded_sets_per_component,
    construct_mask,
)
from .edgelist import MAX_EDGES, MAX_VERTICES, _decimal, format_edge_list, read_graph, write_graph
from .generators import (
    ENUMERATION_CAP,
    _connected,
    _random_rows,
    build_complete,
    build_cycle,
    build_extremal,
    build_path,
    gen_random_connected,
)
from .graph import NONE, Graph, exception_kind
from .isolation import ORACLE_CAP, iota_solve, oracle_scan, solve_mask, verify_isolating

_EXIT_OK = 0
_EXIT_INVALID = 1
_EXIT_INPUT = 2
_EXIT_VIOLATION = 3
_EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that went away

PROGRESS_EVERY = 100_000  # graphs of a batch between stderr progress lines
# Graphs that check-theorem checks together, one stage at a time
# (_check_chunk).  The same work in that order runs faster from a chunk of 8
# up.  The n <= 6, k <= 3 sweep in-process on a 2-core box, median of 9:
# 3.14 s at 1, 2.37 at 8, 2.30 at 32, 2.26 at 64, 2.16 at 128, 2.21 at 256
# and 2.30 at 1024.  Under perfbench (4 pairs), 64 matched 256 on wall_s,
# 2.27 against 2.26 s, with 2% less peak_rss_mb.
CHUNK = 64


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _report(args: argparse.Namespace, g: Graph, **fields) -> None:
    """Emit one report of a verb that reads a graph file, under the header
    every such verb shares."""
    _emit(dict(command=args.command, input=args.path, n=g.n, m=g.edge_count, k=args.k, **fields))


def _to_stderr(line: str) -> None:
    """Write ``line`` to stderr: the CLI's one stderr writer.  When stderr
    cannot take it, closed or with its reader gone, point stderr at devnull
    and drop the line, so that stdout and the exit status stay those of a
    run whose stderr took every line."""
    if sys.stderr is None:  # fd 2 was closed when the interpreter started
        return
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def _fail(message: str) -> int:
    _to_stderr(f"error: {message}")
    return _EXIT_INPUT


def _parse_set_literal(text: str) -> frozenset[int]:
    fields = text.replace(",", " ").split()
    try:
        return frozenset(_decimal(f) for f in fields)
    except ValueError:
        raise ValueError(f"malformed set literal {text!r}: members must be integers") from None


def _trace_json(trace: Iterable) -> list[dict]:
    return [{"tag": st.tag.value, "chosen": list(st.chosen)} for st in trace]


def _tag_fields(counts: Mapping[str, int]) -> str:
    """How many construction steps each rule produced, given per tag value,
    as ``Tag=count`` fields in ``BranchTag`` order."""
    return " ".join(f"{tag.value}={counts[tag.value]}" for tag in BranchTag)


def _read_timed(path: str) -> tuple[Graph, float]:
    """``read_graph(path)`` and the seconds it took, parsing and ``Graph``
    validation included."""
    start = time.perf_counter()
    g = read_graph(path)
    return g, time.perf_counter() - start


def _bound_stats(results: list[BoundResult], read_s: float, start: float) -> None:
    """One stderr line: the number of construction steps over ``results``,
    the deepest piece tree among them, how many steps each rule produced, in
    ``BranchTag`` order, then the seconds spent reading the graph and since
    ``start``."""
    counts = Counter(st.tag.value for res in results for st in res.trace)
    depth = max((res.depth for res in results), default=0)
    _to_stderr(
        f"bound: trace_steps={counts.total()} depth={depth} {_tag_fields(counts)} "
        f"read_s={read_s:.3f} elapsed_s={time.perf_counter() - start:.3f}"
    )


def cmd_solve(args: argparse.Namespace) -> int:
    g, read_s = _read_timed(args.path)
    start = time.perf_counter()
    rep = iota_solve(g, args.k)
    elapsed = time.perf_counter() - start
    cert = verify_isolating(g, args.k, rep.optimal_set)
    _report(
        args, g, iota=rep.iota, set=sorted(rep.optimal_set), valid=cert.valid,
        nodes=rep.nodes_expanded,
    )
    _to_stderr(
        f"solve: nodes={rep.nodes_expanded} bound_prunes={rep.bound_prunes} "
        f"incumbent_updates={rep.incumbent_updates} read_s={read_s:.3f} "
        f"elapsed_s={elapsed:.3f}"
    )
    return _EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    """Report the constructed set of the whole graph or, when
    ``bounded_isolating_set`` refuses the graph as disconnected or as an
    excluded shape, a set for each component: iota adds up over components,
    and an excluded component gets its forced optimal set."""
    g, read_s = _read_timed(args.path)
    start = time.perf_counter()
    try:
        res = bounded_isolating_set(g, args.k)
    except ValueError:  # ExceptionalGraphError included; a bad k is refused again below
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
        results = [c.result for c in parts if c.result]
    else:
        _report(
            args, g, size=len(res.set), bound=res.bound, set=sorted(res.set), valid=True,
            trace=_trace_json(res.trace),
        )
        results = [res]
    _bound_stats(results, read_s, start)
    return _EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cand = _parse_set_literal(args.set)  # before the read, which may take seconds
    g = read_graph(args.path)
    cert = verify_isolating(g, args.k, cand)
    _report(
        args, g, set=sorted(cert.candidate), valid=cert.valid,
        witness=None if cert.witness is None else sorted(cert.witness),
        residual_size=cert.residual_size,
    )
    return _EXIT_OK if cert.valid else _EXIT_INVALID


def _extremal_edges(n: int, k: int) -> int:
    """``build_extremal(n, k)``'s edge count: the spine's path_len - 1, and
    k(k+1)/2 per block, its own k(k-1)/2 and the k that join it to the
    spine.  A k below 1 is counted as 1."""
    k = max(k, 1)
    blocks = n // (k + 1)
    return n - k * blocks - 1 + blocks * k * (k + 1) // 2


# Each ``gen`` kind: its builder, the arguments it takes after --n, and how
# many edges it would write, from n and those arguments, for the MAX_EDGES
# check before building.  The count is the expected one for ``random`` and
# exact otherwise; ``cmd_gen`` clamps n at 0 and the counts clamp the other
# arguments into range, so that a call the builder refuses is counted small
# and the builder's own message is the one printed.
_GEN = {
    "extremal": (build_extremal, ("k",), _extremal_edges),
    "path": (build_path, (), lambda n: n - 1),
    "cycle": (build_cycle, (), lambda n: n),
    "complete": (build_complete, (), lambda n: n * (n - 1) // 2),
    "random": (gen_random_connected, ("p", "seed"),
               lambda n, p, seed: min(max(p, 0), 1) * (n * (n - 1) / 2 - n + 1) + n - 1),
}


def _require(verb: str, args: argparse.Namespace, reads: tuple, names: tuple) -> None:
    """Refuse ``verb`` unless, of the optional arguments ``names``, every one
    it ``reads`` is given and no other is."""
    for name in names:
        given = getattr(args, name) is not None
        if name in reads and not given:
            raise ValueError(f"{verb} requires an explicit --{name}")
        if given and name not in reads:
            raise ValueError(f"{verb} does not read --{name}")


def cmd_gen(args: argparse.Namespace) -> int:
    build, reads, count = _GEN[args.kind]
    _require(f"gen {args.kind}", args, reads, ("k", "p", "seed"))
    if args.n > MAX_VERTICES:
        return _fail(f"gen --n is capped at {MAX_VERTICES} vertices, got {args.n}")
    params = {name: getattr(args, name) for name in reads}
    edges = count(max(args.n, 0), *params.values())
    if edges > MAX_EDGES:
        return _fail(
            f"gen {args.kind} would write about {edges:.0f} edges, above the limit of {MAX_EDGES}"
        )
    g = build(args.n, *params.values())
    if g.edge_count > MAX_EDGES:  # a random draw above its expected count
        return _fail(f"gen {args.kind} drew {g.edge_count} edges, above the limit of {MAX_EDGES}")
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


def _check_chunk(
    chunk: list[tuple[int, ...]], ks: range
) -> list[tuple[tuple[int, ...], int, int | None, list, list[str]]]:
    """Check every instance (adj, k) for the adjacency rows adj of each graph
    in ``chunk`` and k in ``ks``, in corpus order (graph by graph, then k by
    k): one (adj, k, iota, the construction's trace, problems) per instance.
    iota is None, the trace empty and no problem listed for an excluded
    shape, which is not solved, and the trace is empty when the construction
    fails.

    The rows are taken as they come: no ``Graph`` is built and no component
    split is made.  Both corpora are connected by construction, so the whole
    vertex set is each graph's root piece, and its one component for
    ``solve_mask``.  A disconnected graph is still never a clean pass: at
    k = 1 the construction on it always fails (its pivot, or its one chosen
    vertex, leaves another component untouched), and that failure is one of
    the instance's problems.

    Each stage runs over every instance of the chunk before the next starts:
    the classification; the kernels behind ``iota_solve``,
    ``bounded_isolating_set`` and ``iota_oracle``, the last only for graphs
    of at most ``ORACLE_CAP`` vertices; then the checks.  Only a
    construction failure is caught, per instance; any other exception ends
    the chunk, and no finding of it is returned.
    """
    instances = []  # (adj, full, k) in corpus order; full is None for an excluded shape
    for adj in chunk:
        full = (1 << len(adj)) - 1
        instances += [
            (adj, full if exception_kind(adj, full, k) is NONE else None, k) for k in ks
        ]
    solved = [(adj, full, k) for adj, full, k in instances if full is not None]
    bests = [solve_mask(adj, (full,), k)[0] for adj, full, k in solved]
    built = []
    for adj, full, k in solved:
        try:
            d, trace, _ = construct_mask(adj, full, k)
            built.append((d, trace, None))
        except Exception as exc:  # a construction crash is a finding, not a CLI crash
            built.append((0, [], f"construction failed: {exc}"))
    oracle = [
        len(oracle_scan(adj, k)[0]) if len(adj) <= ORACLE_CAP else None for adj, _, k in solved
    ]
    outcomes = zip(bests, built, oracle)
    findings = []
    previous = None  # iota of the instance before, None when that one was excluded
    for adj, full, k in instances:
        if full is None:
            previous = None
            findings.append((adj, k, None, [], []))
            continue
        best, (d, trace, failure), oracle_iota = next(outcomes)
        bound = len(adj) // (k + 1)
        problems = []
        iota = best.bit_count()
        if iota > bound:
            problems.append(f"iota {iota} exceeds bound {bound}")
        if k > 1 and previous is not None and iota > previous:
            problems.append(f"iota {iota} at k={k} exceeds iota {previous} at k={k - 1}")
        previous = iota
        if not isolates(adj, full, best, k):
            problems.append("solver set does not isolate")
        if failure is not None:
            problems.append(failure)
        else:
            if not isolates(adj, full, d, k):
                problems.append("constructed set does not isolate")
            if d.bit_count() > bound:
                problems.append(f"constructed set size {d.bit_count()} exceeds bound {bound}")
        if oracle_iota is not None and oracle_iota != iota:
            problems.append(f"solver {iota} disagrees with oracle {oracle_iota}")
        findings.append((adj, k, iota, trace, problems))
    return findings


def _random_graphs(seed: int, count: int, n_max: int) -> Iterator[tuple[int, ...]]:
    """The adjacency rows of random mode's ``count`` seeded connected graphs,
    those of ``gen_random_connected`` with no ``Graph`` built."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, n_max)
        p = rng.uniform(0.05, 0.95)
        yield _random_rows(n, p, rng.randrange(2**32))


def _throughput(checked: int, start: float) -> str:
    elapsed = max(time.perf_counter() - start, 1e-9)
    return f"elapsed_s={elapsed:.2f} instances_per_s={checked / elapsed:.0f}"


def cmd_check_theorem(args: argparse.Namespace) -> int:
    """Check the theorem on every (graph, k) instance of one corpus.

    The corpus is a list of batches, each a summary-row head and an iterator
    over adjacency rows: one batch per n in exhaustive mode, every labeled
    connected graph on n vertices from ``_connected``, and one seeded batch
    of ``gen_random_connected`` graphs in random mode.  Both are connected by
    construction, so the graphs reach ``_check_chunk`` as rows, with no
    component split, and a ``Graph`` is built only to print a violation
    record's edge list.  An instance is a violation when the solver's iota
    exceeds the bound or the iota of the same graph at k - 1, the solver's
    set does not isolate, the constructed set does not isolate, exceeds the
    bound or could not be built, or, up to ``ORACLE_CAP`` vertices, the
    oracle finds another iota; its record lists every problem found.  A
    batch is read ``CHUNK`` graphs at a time: ``_check_chunk`` checks each
    chunk whole and returns one finding per instance, and this verb then
    tallies the findings and builds and emits the violation records, still
    in corpus order (graph by graph, then k by k); so an exception from the
    solver or the oracle ends the sweep before any record of its chunk.  One summary
    row per (batch, k) follows the batch's records; ``violations`` in a
    summary row is the running total over every row so far, not the count
    for that row.
    Timing-dependent stats go to stderr: per summary row the largest iota of
    a non-excluded instance, the floor at the largest n of the batch, how
    many construction steps each rule produced (``bound``'s histogram), the
    elapsed seconds and the instances per second, plus a progress line every
    ``PROGRESS_EVERY`` graphs of a batch.
    """
    _require(
        f"check-theorem --mode {args.mode}", args,
        ("count", "seed") if args.mode == "random" else (), ("count", "seed"),
    )
    for flag, value, low in (
        ("--n-max", args.n_max, 1),
        ("--k-max", args.k_max, 1),
        ("--count", args.count, 0),
    ):
        if value is not None and value < low:
            return _fail(f"check-theorem {flag} must be at least {low}, got {value}")
    if args.k_max > args.n_max:
        # No graph of the corpus has a clique that large, and each k costs a
        # summary row and a tag table per batch before any graph is read.
        return _fail(
            f"check-theorem --k-max must be at most --n-max {args.n_max}, got {args.k_max}"
        )
    cap = ENUMERATION_CAP if args.mode == "exhaustive" else MAX_VERTICES
    if args.n_max > cap:
        return _fail(
            f"check-theorem --mode {args.mode} caps --n-max at {cap} vertices, got {args.n_max}"
        )
    if args.mode == "exhaustive":
        batches = [
            ({"mode": "exhaustive", "n": n}, _connected(n))
            for n in range(1, args.n_max + 1)
        ]
    else:
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
        while chunk := list(islice(graphs, CHUNK)):
            for adj, k, iota, trace, problems in _check_chunk(chunk, ks):
                if iota is None:
                    exceptional[k] += 1
                elif iota > max_iota[k]:
                    max_iota[k] = iota
                # Keyed by the plain ``_value_`` attribute: hashing an Enum
                # member or reading ``.value`` runs Python code, once per step.
                counts = tags[k]
                for tag, _ in trace:
                    counts[tag._value_] += 1
                if problems:
                    violations += 1
                    _emit(dict(
                        command="check-theorem", violation=True, n=len(adj), k=k,
                        problems=problems, graph=format_edge_list(Graph(adj)),
                    ))
                checked += 1
                if k < args.k_max:
                    continue
                seen += 1  # the graph's last instance is checked
                n_seen = max(n_seen, len(adj))
                if seen % PROGRESS_EVERY == 0:
                    _to_stderr(f"{label}: {seen} graphs {_throughput(checked, start)}")
        for k in ks:
            _emit({
                "command": "check-theorem", **head, "k": k, "graphs": seen,
                "exceptional": exceptional[k], "violations": violations,
            })
            _to_stderr(
                f"{label} k={k}: max_iota={max_iota[k]} floor={n_seen // (k + 1)} "
                f"{_tag_fields(tags[k])} {_throughput(checked, start)}"
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
    # The arguments of the verbs that read a graph file, behind ``_report``'s
    # shared header.
    graph_file = argparse.ArgumentParser(add_help=False)
    graph_file.add_argument("path", help="edge-list file")
    graph_file.add_argument("--k", type=int, required=True, help="clique size to isolate")

    p_solve = sub.add_parser("solve", parents=[graph_file], help="exact minimum isolating set")
    p_solve.set_defaults(func=cmd_solve)

    p_bound = sub.add_parser(
        "bound", parents=[graph_file], help="constructive set within floor(n/(k+1))"
    )
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser(
        "verify", parents=[graph_file], help="check a candidate isolating set"
    )
    p_verify.add_argument("set", help="vertex list such as '0 3 5' (may be empty)")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="write a graph file")
    p_gen.add_argument("kind", choices=_GEN)
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
        help=f"largest vertex count (at most {ENUMERATION_CAP} in exhaustive mode, "
        f"{MAX_VERTICES} in random mode)",
    )
    p_check.add_argument("--k-max", type=int, default=3, help="largest clique size")
    p_check.add_argument("--count", type=int, help="instances (random mode)")
    p_check.add_argument("--seed", type=int, help="RNG seed (random mode; required)")
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
        # Not an input error: stdout's reader closed it, as ``| head`` does
        # (``_to_stderr`` catches stderr's own).  Point stdout at devnull, as
        # the Python docs advise, so that the flush at exit does not fail
        # again, and print nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:  # EdgeListError and ExceptionalGraphError included
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
