"""The package's public surface: the names it exports and the README's tour."""

import ast
import re
from pathlib import Path

import cliqueiso

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


def test_all_is_the_reviewed_surface():
    assert sorted(cliqueiso.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(cliqueiso, name), name


def test_readme_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.S)
    assert block is not None, "the Library tour has no python block"
    exec(compile(block.group(1), "README.md (Library tour)", "exec"), {})


def test_package_holds_no_assert_statement():
    # python -O strips assert statements, and the -O test run cannot see a
    # check that vanished with them, so the package must hold none.
    package = Path(cliqueiso.__file__).resolve().parent
    found = [
        f"{path}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
