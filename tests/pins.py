"""Every SHA-256 pin of the CLI's byte-identical output, in one table, and the
runner that checks them.

``PYTHONPATH=src python -m tests.pins`` runs each entry of ``PINS`` and
prints every mismatch with the entry's name, the pinned digest and the digest
it got, so a re-pin is a one-line edit of the table.  It exits 1 on any
mismatch or failed command.  Entries with the same commands share one run.

Each entry runs its commands in order in one fresh temporary directory, so
that every report's ``"input"`` is a bare file name.  A command is the
arguments of ``python -m cliqueiso.cli``; a leading ``-O`` runs it under
``python -O``.  Stderr is always hashed without its timing fields (``TIMING``).

This module imports nothing outside the standard library and the package, so
it runs whole on a Python that has nothing installed.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import cliqueiso
from cliqueiso import BranchTag

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
        actual = hashlib.sha256(outputs(self.commands)[self.output]).hexdigest()
        return None if actual == self.sha256 else f"expected {self.sha256}, got {actual}"


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
            problem = f"{' '.join(exc.cmd)} exited {exc.returncode}: {exc.stderr.decode()[-2000:]}"
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
