"""The pin runner of tests/pins.py, on small in-memory entries, and every
in-process digest of its table."""

import hashlib
import re
from pathlib import Path

import pytest

from cliqueiso import BranchTag, build_extremal

from .pins import PINS, TIMING, Digest, Pin, RuleCoverage, cli_stdout, failures, run

TESTS = Path(__file__).resolve().parent
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tests.yml"
PATH5 = ("gen path --n 5 --out p5.edges",)
HEX64 = re.compile(r"\b[0-9a-f]{64}\b")
DIGESTS = [entry for entry in PINS if isinstance(entry, Digest)]


@pytest.mark.parametrize("digest", DIGESTS, ids=[digest.name for digest in DIGESTS])
def test_digest_holds(digest):
    assert failures([digest]) == []


def test_a_wrong_digest_names_the_entry_and_both_digests():
    actual = hashlib.sha256(run(PATH5)["p5.edges"]).hexdigest()
    wrong = "0" * 64
    assert failures([Pin("path5", PATH5, "p5.edges", actual)]) == []
    assert failures([Pin("path5", PATH5, "p5.edges", wrong)]) == [
        f"path5: expected {wrong}, got {actual}"
    ]


def test_a_failed_command_names_the_entry():
    (line,) = failures([Pin("no-seed", ("gen random --n 5 --p 0.5 --out r.edges",), "r.edges", "0" * 64)])
    assert line.startswith("no-seed: ")
    assert "exited 2" in line and "requires an explicit --seed" in line


def test_an_unexpected_exit_code_names_the_entry():
    # An invalid set exits 1 where the entry expects 0.
    produce = lambda: cli_stdout({"verify g.edges --k 2 ''": 0}, build_extremal(7, 2))
    (line,) = failures([Digest("verify", produce, "0" * 64)])
    assert line.startswith("verify: verify g.edges --k 2 '' exited 1: ")


def test_the_stderr_cut_removes_only_the_two_timing_fields():
    stderr = (
        b"check-theorem mode=exhaustive n=3 k=1: max_iota=1 floor=1 Case2=2 "
        b"elapsed_s=0.01 instances_per_s=17467\n"
        b"check-theorem mode=random count=9 seed=1 n_max=9: 100000 graphs "
        b"elapsed_s=3.50 instances_per_s=28571\n"
        b"bound: trace_steps=2 depth=1 Case2=2 elapsed_s=0.003\n"
    )
    assert TIMING.sub(b"", stderr) == (
        b"check-theorem mode=exhaustive n=3 k=1: max_iota=1 floor=1 Case2=2\n"
        b"check-theorem mode=random count=9 seed=1 n_max=9: 100000 graphs\n"
        b"bound: trace_steps=2 depth=1 Case2=2 elapsed_s=0.003\n"
    )


def _row(zero: str) -> bytes:
    """A check-theorem stderr row where the rule ``zero`` reads 0 and every
    other reads 1."""
    fields = " ".join(f"{tag.value}={int(tag.value != zero)}" for tag in BranchTag)
    return f"check-theorem mode=random k=2: max_iota=3 floor=3 {fields}\n".encode()


def test_rule_coverage_fails_when_one_tag_reads_zero():
    (coverage,) = [entry for entry in PINS if isinstance(entry, RuleCoverage)]

    def check(sweep_zero: str, no_clique_sweep_zero: str):
        stderr = {coverage.sweep: _row(sweep_zero),
                  coverage.no_clique_sweep: _row(no_clique_sweep_zero)}
        return coverage.check(lambda commands: {"stderr": stderr[commands]})

    # NoClique need not fire in the first sweep, nor any other rule in the second.
    assert check("NoClique", "Case2") is None
    for tag in BranchTag:
        if tag is BranchTag.NO_CLIQUE:
            problem = check("NoClique", "NoClique")
        else:
            problem = check(tag.value, "Case2")
        assert problem is not None and tag.value in problem, tag


def test_entry_names_are_unique():
    names = [entry.name for entry in PINS]
    assert len(names) == len(set(names))


def test_no_pin_lives_in_the_workflow():
    text = WORKFLOW.read_text(encoding="utf-8")
    assert HEX64.search(text) is None
    assert "sha256sum" not in text
    # Nor in another test file or a golden corpus.
    others = [path for path in TESTS.glob("*.py") if path.name != "pins.py"]
    assert [p.name for p in others if HEX64.search(p.read_text(encoding="utf-8"))] == []
    corpora = TESTS.rglob("*.json")
    sha_key = re.compile(r'"sha256"\s*:')
    assert [p.name for p in corpora if sha_key.search(p.read_text(encoding="utf-8"))] == []
