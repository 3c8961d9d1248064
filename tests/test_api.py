"""The package's public surface: the names it exports and the README's
library tour and CLI commands."""

import ast
import copy
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cliqueiso
from cliqueiso import (
    BoundResult,
    BranchTag,
    ComponentResult,
    ExceptionKind,
    Graph,
    IsolationCertificate,
    SolveReport,
    TraceStep,
    bounded_isolating_set,
    bounded_sets_per_component,
    build_path,
    iota_oracle,
    iota_solve,
    verify_isolating,
)
from cliqueiso.graph import Subgraph

from .pins import package_env

PUBLIC_NAMES = [
    "BoundResult",
    "BranchTag",
    "ComponentResult",
    "EdgeListError",
    "EnumerationCapError",
    "ExceptionKind",
    "ExceptionalGraphError",
    "Graph",
    "IsolationCertificate",
    "OracleCapError",
    "SolveReport",
    "TraceStep",
    "bounded_isolating_set",
    "bounded_sets_per_component",
    "build_complete",
    "build_cycle",
    "build_extremal",
    "build_path",
    "classify_exception",
    "enumerate_connected",
    "format_edge_list",
    "gen_random_connected",
    "iota_oracle",
    "iota_solve",
    "parse_edge_list",
    "read_graph",
    "verify_isolating",
    "write_graph",
]

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(cliqueiso.__file__).resolve().parent

# One instance of each result record, built by keyword, and its repr as it
# read when the records were frozen dataclasses.
RECORDS = [
    (TraceStep, dict(tag=BranchTag.CASE2, chosen=(1, 4)),
     "TraceStep(tag=<BranchTag.CASE2: 'Case2'>, chosen=(1, 4))"),
    (BoundResult,
     dict(set=frozenset({1, 4}), bound=2, trace=(TraceStep(BranchTag.CASE2, (1, 4)),), depth=1),
     "BoundResult(set=frozenset({1, 4}), bound=2, "
     "trace=(TraceStep(tag=<BranchTag.CASE2: 'Case2'>, chosen=(1, 4)),), depth=1)"),
    (ComponentResult,
     dict(vertices=frozenset({0, 1}), exception=ExceptionKind.NONE, set=frozenset({1}), result=None),
     "ComponentResult(vertices=frozenset({0, 1}), exception=<ExceptionKind.NONE: 'none'>, "
     "set=frozenset({1}), result=None)"),
    (IsolationCertificate,
     dict(candidate=frozenset({2}), valid=False, witness=frozenset({0, 1}), residual_size=2),
     "IsolationCertificate(candidate=frozenset({2}), valid=False, witness=frozenset({0, 1}), "
     "residual_size=2)"),
    (SolveReport,
     dict(iota=1, optimal_set=frozenset({3}), nodes_expanded=5, bound_prunes=2,
          incumbent_updates=1),
     "SolveReport(iota=1, optimal_set=frozenset({3}), nodes_expanded=5, bound_prunes=2, "
     "incumbent_updates=1)"),
    (Subgraph, dict(graph=Graph.from_edges(3, [(0, 1), (1, 2)]), to_parent=(4, 7, 9)),
     "Subgraph(graph=Graph(n=3, edges=[(0, 1), (1, 2)]), to_parent=(4, 7, 9))"),
]


def test_all_is_the_reviewed_surface():
    assert sorted(cliqueiso.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(cliqueiso, name), name


def test_readme_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.S)
    assert block is not None, "the Library tour has no python block"
    exec(compile(block.group(1), "README.md (Library tour)", "exec"), {})


def test_readme_cli_block_runs(tmp_path):
    # Every command of the CLI section's shell block, in order in one
    # directory, after the edge-list files that the section shows.
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## CLI") : text.index("## Tests")]
    for body, name in re.findall(r"```text\n(# (\S+\.edges).*?)```", section, re.S):
        (tmp_path / name).write_text(body, encoding="utf-8")
    block = re.search(r"```sh\n(.*?)```", section, re.S)
    assert block is not None, "the CLI section has no shell block"
    commands = [shlex.split(line, comments=True) for line in block.group(1).splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "cliqueiso" for argv in commands)
    for argv in commands:
        out = subprocess.run([sys.executable, "-m", "cliqueiso.cli", *argv[1:]], cwd=tmp_path,
                             capture_output=True, text=True, env=package_env(), timeout=300)
        assert out.returncode == 0, (argv, out.stderr)


def test_package_holds_no_assert_statement():
    # python -O strips assert statements, and the -O test run cannot see a
    # check that vanished with them, so the package must hold none.
    found = [
        f"{path}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_the_cli_reads_the_clock():
    # A result record depends only on the call's inputs; the CLI times what
    # it runs, and no other module of the package imports ``time``.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if (isinstance(node, ast.Import) and any(a.name == "time" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "time")
    ]
    assert found == []


def test_only_the_clis_writer_names_stderr():
    # One stderr path: a stderr that is closed or whose reader went away is
    # handled in ``cli._to_stderr``, so every stderr line goes through it.
    def named(tree: ast.AST) -> list[int]:
        return [
            node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "stderr"
                and isinstance(node.value, ast.Name) and node.value.id == "sys")
            or (isinstance(node, ast.ImportFrom) and node.module == "sys"
                and any(a.name == "stderr" for a in node.names))
        ]

    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines = set(named(tree))
        if path.name == "cli.py":
            (writer,) = [
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_to_stderr"
            ]
            assert named(writer)
            lines -= set(named(writer))
        found += [f"{path.name}:{line}" for line in sorted(lines)]
    assert found == []


# Each public call that returns a record, and its arguments after the graph.
CALLS = [
    (iota_solve, (1,)),
    (iota_oracle, (1,)),
    (verify_isolating, (1, [1, 4])),
    (bounded_isolating_set, (1,)),
    (bounded_sets_per_component, (1,)),
]


@pytest.mark.parametrize("call,args", CALLS, ids=[call.__name__ for call, _ in CALLS])
def test_equal_calls_give_equal_records(call, args):
    g = build_path(10)
    assert call(g, *args) == call(build_path(10), *args)


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_result_records_keep_their_contract(cls, fields, text):
    record = cls(**fields)
    assert repr(record) == text
    twin = cls(**copy.deepcopy(fields))
    assert twin == record and hash(twin) == hash(record)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    # Records are named tuples: a record is the tuple of its fields, in order.
    assert record == tuple(fields.values())


def test_only_graph_is_a_dataclass():
    """Each ``@dataclass`` execs about six generated methods when the package
    is imported, a cost every CLI process pays, so the result records are
    named tuples.  ``Graph`` stays a dataclass, because its ``__post_init__``
    validates rows that come from outside the program."""

    def named(decorator: ast.expr) -> str | None:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)

    found = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.ClassDef)
        and any(named(d) == "dataclass" for d in node.decorator_list)
    ]
    assert found == ["graph.py:Graph"]
