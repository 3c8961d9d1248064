"""Every SHA-256 pin of the package's byte-identical outputs, in one table,
and the runner that checks them.

``PYTHONPATH=src python -m tests.pins`` checks each entry of ``PINS`` and
prints every mismatch with the entry's name, the pinned digest and the digest
it got, so a re-pin is a one-line edit of the table.  It exits 1 on any
mismatch or failed command.

A ``Pin`` runs CLI commands in subprocesses; entries with the same commands
share one run.  Each runs its commands in order in one fresh temporary
directory, so that every report's ``"input"`` is a bare file name.  A command
is the arguments of ``python -m cliqueiso.cli``; a leading ``-O`` runs it
under ``python -O``.  Stderr is always hashed without its timing fields
(``TIMING``).  A ``Digest`` hashes bytes made in this process, and
``tests/test_pins.py`` checks each one in tier 1 too.

This module imports nothing outside the standard library and the package, so
it runs whole on a Python that has nothing installed.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import cliqueiso
from cliqueiso import (
    BranchTag, ExceptionKind, ExceptionalGraphError, Graph, bounded_isolating_set, build_extremal,
    classify_exception, enumerate_connected, format_edge_list, gen_random_connected, iota_solve,
    write_graph,
)
from cliqueiso.cli import main

# The two fields that end every check-theorem stderr row and vary from run to run.
TIMING = re.compile(rb" elapsed_s=[^ \n]+ instances_per_s=[^ \n]+$", re.M)

# What one entry's commands leave behind, by name: the last command's
# "stdout" and "stderr" (``TIMING`` cut off) and every file they wrote.
Outputs = dict[str, bytes]


def package_env() -> dict[str, str]:
    """The environment for a fresh interpreter that imports this checkout's
    package."""
    return {**os.environ, "PYTHONPATH": str(Path(cliqueiso.__file__).resolve().parents[1])}


def run(commands: tuple[str, ...]) -> Outputs:
    """Run ``commands`` in order in a fresh temporary directory.  Raise
    ``subprocess.CalledProcessError`` for the first that exits nonzero."""
    with tempfile.TemporaryDirectory() as tmp:
        for command in commands:
            args = command.split()
            flags, args = (["-O"], args[1:]) if args[0] == "-O" else ([], args)
            done = subprocess.run(
                [sys.executable, *flags, "-m", "cliqueiso.cli", *args],
                cwd=tmp, env=package_env(), capture_output=True, timeout=600, check=True,
            )
        outputs = {path.name: path.read_bytes() for path in Path(tmp).iterdir()}
    outputs["stdout"] = done.stdout
    outputs["stderr"] = TIMING.sub(b"", done.stderr)
    return outputs


@dataclass(frozen=True)
class Pin:
    """The SHA-256 of one output of ``commands``: ``"stdout"``,
    ``"stderr"`` or the name of a file they wrote."""

    name: str
    commands: tuple[str, ...]
    output: str
    sha256: str

    def check(self, outputs: Callable[[tuple[str, ...]], Outputs]) -> str | None:
        return _mismatch(outputs(self.commands)[self.output], self.sha256)


@dataclass(frozen=True)
class Digest:
    """The SHA-256 of the bytes that ``produce()`` makes in this process."""

    name: str
    produce: Callable[[], bytes]
    sha256: str

    def check(self, outputs: Callable[[tuple[str, ...]], Outputs]) -> str | None:
        return _mismatch(self.produce(), self.sha256)


def _mismatch(data: bytes, sha256: str) -> str | None:
    actual = hashlib.sha256(data).hexdigest()
    return None if actual == sha256 else f"expected {sha256}, got {actual}"


def _line(record) -> bytes:
    return json.dumps(record, separators=(",", ":")).encode() + b"\n"


def trace_record(trace) -> list:
    return [[step.tag.value, list(step.chosen)] for step in trace]


@functools.lru_cache(maxsize=None)
def behaviour() -> tuple[bytes, bytes]:
    """What ``iota_solve`` and ``bounded_isolating_set`` return on every
    labeled connected graph with n <= 5 at k <= 3, one JSON line per instance;
    then the same without ``nodes_expanded`` and ``bound_prunes``, which are
    all that a change to the bound or the pruning may change."""
    lines: tuple[list[bytes], list[bytes]] = ([], [])
    for n in range(1, 6):
        for index, g in enumerate(enumerate_connected(n)):
            for k in (1, 2, 3):
                rep = iota_solve(g, k)
                try:
                    res = bounded_isolating_set(g, k)
                    built = [sorted(res.set), trace_record(res.trace), res.depth]
                except ExceptionalGraphError as exc:
                    built = exc.kind.value
                head = [rep.iota, sorted(rep.optimal_set)]
                tree = [*head, rep.nodes_expanded, rep.bound_prunes, rep.incumbent_updates]
                for out, solve in zip(lines, (tree, [*head, rep.incumbent_updates])):
                    out.append(_line([n, index, k, [solve, built]]))
    return b"".join(lines[0]), b"".join(lines[1])


def solver_n6() -> bytes:
    """``iota_solve``'s set and incumbent updates on every labeled connected
    graph with n = 6 at k <= 3, one JSON line per instance, without the node
    and prune counts.  These are the first graphs where iota reaches three,
    the one case where a greedy-3 root settles without packing."""
    return b"".join(
        _line([index, k, sorted(rep.optimal_set), rep.incumbent_updates])
        for index, g in enumerate(enumerate_connected(6))
        for k in (1, 2, 3)
        for rep in (iota_solve(g, k),)
    )


def bound_record(g: Graph, k: int, construct=bounded_isolating_set) -> dict:
    """``construct(g, k)`` as the construction's golden corpus records it: the
    set, the bound and the trace, or the kind of exception that refuses g."""
    kind = classify_exception(g, k)
    if kind is not ExceptionKind.NONE:
        return {"refused": kind.value}
    res = construct(g, k)
    return {"set": sorted(res.set), "bound": res.bound, "trace": trace_record(res.trace)}


def construction() -> bytes:
    """``bound_record`` on every labeled connected graph with n <= 6 at
    k <= 4, one JSON line per instance."""
    return b"".join(
        _line([n, index, k, bound_record(g, k)])
        for n in range(1, 7)
        for index, g in enumerate(enumerate_connected(n))
        for k in (1, 2, 3, 4)
    )


def cli_stdout(commands: dict[str, int], g: Graph | None = None) -> bytes:
    """The stdout of ``cliqueiso.cli.main`` on each of ``commands``, split as
    a shell splits them, in a fresh temporary directory that holds ``g`` as
    ``g.edges``.  Raise ``subprocess.CalledProcessError`` for the first that
    does not exit with the code it maps to."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        os.chdir(tmp)
        try:
            if g is not None:
                write_graph("g.edges", g)
            for command, code in commands.items():
                args = shlex.split(command)
                got = main(args)
                if got != code:
                    raise subprocess.CalledProcessError(got, args, stderr=err.getvalue().encode())
        finally:
            os.chdir(cwd)
    return out.getvalue().encode()


def tag_counts(stderr: bytes) -> Counter:
    """How many construction steps each rule produced, summed over the
    ``Tag=count`` fields of check-theorem's stderr rows."""
    tags = {tag.value for tag in BranchTag}
    counts: Counter = Counter()
    for line in stderr.decode().splitlines():
        for field in line.partition(": ")[2].split():
            key, _, value = field.partition("=")
            if key in tags:
                counts[key] += int(value)
    return counts


@dataclass(frozen=True)
class RuleCoverage:
    """Every construction rule fires: each but NoClique in the stderr rows of
    ``sweep``, and NoClique, which needs a piece of three or more vertices
    without a k-clique (so k >= 3), in those of ``no_clique_sweep``."""

    name: str
    sweep: tuple[str, ...]
    no_clique_sweep: tuple[str, ...]

    def check(self, outputs: Callable[[tuple[str, ...]], Outputs]) -> str | None:
        fired = tag_counts(outputs(self.sweep)["stderr"])
        missing = [
            tag.value for tag in BranchTag if tag is not BranchTag.NO_CLIQUE and not fired[tag.value]
        ]
        if not tag_counts(outputs(self.no_clique_sweep)["stderr"])[BranchTag.NO_CLIQUE.value]:
            missing.append(f"{BranchTag.NO_CLIQUE.value} (second sweep)")
        return f"expected every rule to fire, got none of {missing}" if missing else None


EXHAUSTIVE_N6 = ("-O check-theorem --mode exhaustive --n-max 6 --k-max 3",)
# 40,000 graphs with n <= 10 at k <= 2: the only sweep that reaches every
# rule but NoClique, Case1_Sub3 included.
RANDOM_40K = ("-O check-theorem --mode random --count 40000 --n-max 10 --k-max 2 --seed 1",)


# Probabilities at which deciding a pair from its two stream words is easiest
# to get wrong: p = j/256, whose threshold 2**53 * p has top byte j and low
# bits zero; p just above and below 37/256; p * 2**53 not an integer; a
# threshold below 2**45, whose top byte is 0; and p = 1, every pair an edge.
BOUNDARY_P = (1 / 512, 1 / 256, 37 / 256, 255 / 256, 0.5, (37 * 2**45 + 1) / 2**53,
              (37 * 2**45 - 1) / 2**53, 0.1, 2 / 3, 1e-9, 1.0)


def _bound(gen: str, graph: str, k: int) -> tuple[str, ...]:
    return (f"gen {gen} --out {graph}", f"-O bound {graph} --k {k}")


PINS = (
    # The sweep reports are byte-identical for fixed inputs.  This one is also
    # the n <= 5 sweep of tests/test_cli.py, without -O.
    Pin("exhaustive-n5-k3", ("check-theorem --mode exhaustive --n-max 5 --k-max 3",), "stdout",
        "fe4b5d21dc64f7ba50682c6c7ec0f6b5a4c670c85645c6faa47659acf54a799e"),
    Pin("random-2000", ("-O check-theorem --mode random --count 2000 --n-max 16 --k-max 4 --seed 1",),
        "stdout", "7b2d61363e25e85804792887f5adac78973b35b235b40db46f70f2a231bd4d20"),
    # A seeded graph far larger than any sweep's: its bytes pin the random
    # stream of gen_random_connected (Pruefer draws, then one random() per
    # non-tree pair in lexicographic order).
    Pin("gen-random-2000", ("gen random --n 2000 --p 0.002 --seed 7 --out g2000.edges",),
        "g2000.edges", "22e67e48acd4393e0147c4834af121b3062b2be1289fb23da694870cfe7bc0ee"),
    # Pieces far larger than any sweep reaches.  The extremal and the
    # 1600-vertex graphs take the Case2 excision 250 and 29 times.  On the path
    # every component split walks one-vertex BFS layers (500 steps, depth
    # 499); on the 4000-vertex graph the splits walk wide layers too (1,130
    # steps, depth 874).
    Pin("bound-extremal-2000", _bound("extremal --n 2000 --k 3", "ext2000.edges", 3), "stdout",
        "21e014ed9648d30b4f8ce2c79507c238d3f51109e6d7b6971a198bd0f2767319"),
    Pin("bound-random-1600", _bound("random --n 1600 --p 0.003125 --seed 3", "rnd1600.edges", 2),
        "stdout", "7c26636ebcf6ba04b64e0178e76e13b626b5cb4224be8f2e79a8e1576cd9e6a4"),
    Pin("bound-path-1000", _bound("path --n 1000", "path1000.edges", 1), "stdout",
        "d9da3aa6e736014b04c6c5cf9538e8e1430bda91170de38364e44378d2afe61c"),
    Pin("bound-random-4000", _bound("random --n 4000 --p 0.001 --seed 1", "rnd4000.edges", 1),
        "stdout", "2ddc781ef06f22c9ad8cd17b43666996f3d981aff2a1ca7c41c2f6ccccff44b7"),
    # Stdout does not show the construction's steps; stderr does, in each
    # row's max_iota, floor and Tag=count histogram.
    Pin("exhaustive-n6-k3", EXHAUSTIVE_N6, "stdout",
        "079467c32c0cb7e8c639410b2ddc59a4f3aaaad3606e5d35d7bbe4a42375bb02"),
    Pin("exhaustive-n6-k3-stderr", EXHAUSTIVE_N6, "stderr",
        "7f464a07e13965f51fc52fcbf84e4c50d73fc3c5771718ecb00faded0e4bd152"),
    Pin("random-40k", RANDOM_40K, "stdout",
        "3e8aca700fdc6fca56bf8270832fac5470d08039e6d94d54b16eddc671f7eb0b"),
    Pin("random-40k-stderr", RANDOM_40K, "stderr",
        "e9c98f9449831fd8db82010a53ac9afe8c8d10d1a522c03f0a7ac3ccc3f3bf42"),
    RuleCoverage("rule-coverage", RANDOM_40K, EXHAUSTIVE_N6),
    # What the CLI's reports do not show: search counters and construction traces.
    Digest("behaviour", lambda: behaviour()[0],
           "1daf363493fd43ad2b6314ddd51f364da32716c2aba0a36436e6825a2aa184c4"),
    Digest("behaviour-without-tree-counts", lambda: behaviour()[1],
           "bff3cfcabdd09a50d0b8c9cb438a660417e44772cb829e1a5d5bb7a3bbd8f017"),
    Digest("solver-n6-k3", solver_n6,
           "380e270d620dca6ac937ca07fe765f934195529c37da33f46efe811d4fd8f1f5"),
    Digest("construction-n6-k4", construction,
           "41fa6145a98c634f0172d77f08d86483ca3e2a41a81478d7113914b3e2860427"),
    # The size of the random graph in perfbench's bound-sparse workload; the
    # digest was taken from the pair-by-pair generator of tests/support.py.
    Digest("gen-random-1600",
           lambda: format_edge_list(gen_random_connected(1600, 0.003125, 0)).encode(),
           "aae14f24703ad33e43682dd46a50b6e68792e40ec9a57dd2d2b8335977dd5dfb"),
    # Seeded graphs of 300 vertices, spanning several blocks of pair draws,
    # at the probabilities of BOUNDARY_P; the digest was taken from the
    # pair-by-pair generator of tests/support.py.
    Digest("gen-random-boundaries", lambda: b"".join(
        format_edge_list(gen_random_connected(300, p, seed)).encode()
        for p in BOUNDARY_P for seed in (1, 2**32 - 1)
    ), "16e0dff50a954382fa6ce902c0d485f1ef5ace5e6c35f264bd9d4f3d1591d5fc"),
    # Short reports of each verb.  The verify pair is one valid set, then one
    # invalid set; the per-component graph is K_2 on 0-1, the 5-cycle on 2..6
    # and the path on 7..13.
    Digest("solve-random-30",
           lambda: cli_stdout({"solve g.edges --k 2": 0}, gen_random_connected(30, 0.15, 3)),
           "0732734fed32ce67fa7bd22fc2f96b4712b2085792499d5a51100a6ea34514da"),
    Digest("bound-extremal-200",
           lambda: cli_stdout({"bound g.edges --k 3": 0}, build_extremal(200, 3)),
           "c57a6cc9159dec1822abf21aad6a23e292091e3b42909ef065589597841db4f7"),
    Digest("bound-per-component-k2", lambda: cli_stdout(
        {"bound g.edges --k 2": 0},
        Graph.from_edges(14, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (2, 6),
                              *((u, u + 1) for u in range(7, 13))]),
    ), "595a16a93826d4460ddb81940c1fc2b277df48073213454e7cc50a790072d370"),
    Digest("verify-extremal-7", lambda: cli_stdout(
        {"verify g.edges --k 2 '0 1'": 0, "verify g.edges --k 2 2": 1}, build_extremal(7, 2),
    ), "604aa925823458e6d79306d5299b3b552b35f91ed29cd0006a235f34b53b4bdb"),
    # The README's random sweep.
    Digest("random-200-seed-7", lambda: cli_stdout(
        {"check-theorem --mode random --count 200 --n-max 10 --k-max 2 --seed 7": 0},
    ), "b24eaf8abca861ef8ed7f11e8fe4add99039d6c2873dfec871c43a73ad6330eb"),
)


def failures(entries) -> list[str]:
    """One line per entry of ``entries`` that does not hold, naming it."""
    runs: dict[tuple[str, ...], Outputs] = {}

    def outputs(commands: tuple[str, ...]) -> Outputs:
        if commands not in runs:
            runs[commands] = run(commands)
        return runs[commands]

    found = []
    for entry in entries:
        try:
            problem = entry.check(outputs)
        except subprocess.CalledProcessError as exc:
            problem = f"{shlex.join(exc.cmd)} exited {exc.returncode}: {exc.stderr.decode()[-2000:]}"
        except subprocess.TimeoutExpired as exc:
            problem = str(exc)
        if problem is not None:
            found.append(f"{entry.name}: {problem}")
    return found


if __name__ == "__main__":
    found = failures(PINS)
    for line in found:
        print(line)
    print(f"{len(PINS) - len(found)} of {len(PINS)} pins hold")
    sys.exit(1 if found else 0)
