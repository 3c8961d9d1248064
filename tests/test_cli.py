"""Command-line front end: verbs, exit statuses, report contents, determinism."""

import argparse
import hashlib
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cliqueiso.cli as cli
from cliqueiso import (
    BranchTag,
    ExceptionKind,
    ExceptionalGraphError,
    Graph,
    bounded_isolating_set,
    build_complete,
    build_cycle,
    build_extremal,
    build_path,
    classify_exception,
    enumerate_connected,
    format_edge_list,
    gen_random_connected,
    iota_oracle,
    iota_solve,
    parse_edge_list,
    read_graph,
    verify_isolating,
    write_graph,
)
from cliqueiso.cli import main
from cliqueiso.edgelist import MAX_EDGES
from cliqueiso.isolation import greedy_mask, oracle_scan

from .pins import PINS, TIMING, failures, package_env
from .support import disjoint_union, labeled_graphs, naive_components, run_at_low_recursion_limit

# check-theorem's chunk sizes that the record and stats tests run at: one that
# ends chunks inside a batch at every n >= 4, and the default.
CHUNKS = (7, cli.CHUNK)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.edges"
    write_graph(path, build_cycle(5))
    return str(path)


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.edges"
    write_graph(path, build_complete(5))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    reports = [json.loads(line) for line in out.out.splitlines() if line]
    return code, reports, out.err


def oversized(adj, root, k):
    """A broken construction: one vertex over the bound, the lowest labels,
    which fail to isolate wherever a k-clique survives outside them."""
    bound = len(adj) // (k + 1)
    return (1 << bound + 1) - 1, [], 0


def stats_line(err: str, verb: str) -> list[tuple[str, str]]:
    """The ``key=value`` fields of the one stderr stats line of ``verb``."""
    (line,) = err.splitlines()
    head, _, rest = line.partition(": ")
    assert head == verb
    return [tuple(field.split("=")) for field in rest.split()]


class TestSolve:
    def test_five_cycle(self, capsys, c5_file):
        code, reports, _ = run(capsys, ["solve", c5_file, "--k", "2"])
        assert code == 0
        (rep,) = reports
        assert rep["command"] == "solve"
        assert rep["iota"] == 2
        assert rep["valid"] is True
        assert verify_isolating(read_graph(c5_file), 2, rep["set"]).valid

    def test_complete_graph(self, capsys, k5_file):
        code, reports, _ = run(capsys, ["solve", k5_file, "--k", "5"])
        assert code == 0
        assert reports[0]["iota"] == 1

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, reports, err = run(capsys, ["solve", str(tmp_path / "nope"), "--k", "2"])
        assert code == 2
        assert not reports
        assert "error:" in err

    def test_header_mismatch_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("3 2\n0 1\n")
        code, _, err = run(capsys, ["solve", str(bad), "--k", "2"])
        assert code == 2
        assert "error:" in err

    def test_counters_on_stderr_and_stdout_pinned(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # a relative input path keeps the report's bytes fixed
        g = gen_random_connected(30, 0.15, 3)
        write_graph("g.edges", g)
        code = main(["solve", "g.edges", "--k", "2"])
        out = capsys.readouterr()
        assert code == 0
        (pin,) = [pin for pin in PINS if pin.name == "solve-random-30"]
        assert hashlib.sha256(out.out.encode()).hexdigest() == pin.sha256
        fields = stats_line(out.err, "solve")
        assert [key for key, _ in fields] == [
            "nodes", "bound_prunes", "incumbent_updates", "elapsed_s",
        ]
        stats = {key: float(value) for key, value in fields}
        rep = json.loads(out.out)
        assert stats["nodes"] == rep["nodes"]
        # The search beat the greedy incumbent here, so it updated it at least once.
        assert rep["iota"] < greedy_mask(g.adj, g.full_mask, 2).bit_count()
        assert stats["incumbent_updates"] >= 1
        assert 0 < stats["bound_prunes"] < stats["nodes"]
        assert stats["elapsed_s"] >= 0

    def test_rejected_call_leaves_the_shared_parser_intact(self, capsys):
        # The parser is built once per process; a call that argparse rejects
        # must not change how the next call parses or what it prints.
        with pytest.raises(SystemExit) as exc:
            main(["solve", "g.edges", "--k", "two"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        (pin,) = [pin for pin in PINS if pin.name == "solve-random-30"]
        assert failures([pin]) == []
        assert cli._build_parser() is cli._build_parser()

    def test_no_update_when_greedy_is_optimal(self, capsys, k5_file):
        code, reports, err = run(capsys, ["solve", k5_file, "--k", "5"])
        assert code == 0
        stats = dict(stats_line(err, "solve"))
        assert stats["incumbent_updates"] == "0"
        assert reports[0]["nodes"] == int(stats["nodes"]) == 1

    def test_bad_k_is_input_error(self, capsys, c5_file):
        code, _, err = run(capsys, ["solve", c5_file, "--k", "0"])
        assert code == 2

    def test_huge_vertex_count_is_input_error(self, capsys, tmp_path):
        # Rejected from the header alone, before any memory is spent on n.
        huge = tmp_path / "huge.edges"
        for header in ("50001 0\n", "100000000 0\n"):
            huge.write_text(header)
            for verb in ("solve", "bound"):
                code, reports, err = run(capsys, [verb, str(huge), "--k", "2"])
                assert code == 2
                assert not reports
                assert "limit" in err


class TestBound:
    def test_reports_set_within_floor(self, capsys, tmp_path):
        path = tmp_path / "b12.edges"
        write_graph(path, build_extremal(12, 3))
        code, reports, _ = run(capsys, ["bound", str(path), "--k", "3"])
        assert code == 0
        (rep,) = reports
        assert rep["size"] <= rep["bound"] == 3
        assert rep["valid"] is True
        assert [step["tag"] for step in rep["trace"]]
        assert verify_isolating(read_graph(path), 3, rep["set"]).valid

    def test_branch_histogram_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "b12.edges"
        write_graph(path, build_extremal(12, 3))
        code, reports, err = run(capsys, ["bound", str(path), "--k", "3"])
        assert code == 0
        fields = stats_line(err, "bound")
        assert [key for key, _ in fields] == (
            ["trace_steps", "depth"] + [tag.value for tag in BranchTag] + ["elapsed_s"]
        )
        stats = dict(fields)
        trace = reports[0]["trace"]
        assert int(stats["trace_steps"]) == len(trace)
        tags = Counter(step["tag"] for step in trace)
        assert {tag.value: int(stats[tag.value]) for tag in BranchTag} == {
            tag.value: tags[tag.value] for tag in BranchTag
        }

    def test_piece_tree_depth_on_stderr(self, capsys, tmp_path):
        # Each step on a path leaves one child piece, so the piece tree is a
        # chain with one level per step.
        path = tmp_path / "p30.edges"
        write_graph(path, build_path(30))
        code, _, err = run(capsys, ["bound", str(path), "--k", "1"])
        assert code == 0
        stats = dict(stats_line(err, "bound"))
        assert int(stats["depth"]) == int(stats["trace_steps"]) - 1 == 14

    def test_triangle_free_at_k3_gives_empty_set(self, capsys, tmp_path):
        path = tmp_path / "p6.edges"
        write_graph(path, build_path(6))
        code, reports, _ = run(capsys, ["bound", str(path), "--k", "3"])
        assert code == 0
        (rep,) = reports
        assert rep["set"] == []
        assert [step["tag"] for step in rep["trace"]] == ["NoClique"]

    def test_exceptional_graph_diagnosed(self, capsys, c5_file):
        code, reports, err = run(capsys, ["bound", c5_file, "--k", "2"])
        assert code == 2
        assert not reports
        assert "5-cycle-at-k2" in err
        assert "--per-component" in err

    def test_disconnected_suggests_per_component(self, capsys, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("4 2\n0 1\n2 3\n")
        code, _, err = run(capsys, ["bound", str(path), "--k", "2"])
        assert code == 2
        assert "--per-component" in err

    def test_empty_graph_is_accepted_by_every_verb(self, capsys, tmp_path):
        # No component at all is not two or more: bound builds the empty set
        # with one BaseSmall step, as it does for one vertex at k = 2.
        path = str(tmp_path / "empty.edges")
        write_graph(path, Graph.from_edges(0, []))
        code, (rep,), _ = run(capsys, ["solve", path, "--k", "1"])
        assert (code, rep["iota"], rep["set"], rep["valid"]) == (0, 0, [], True)
        code, (rep,), err = run(capsys, ["bound", path, "--k", "1"])
        assert (code, rep["size"], rep["bound"], rep["set"], rep["valid"]) == (0, 0, 0, [], True)
        assert rep["trace"] == [{"chosen": [], "tag": "BaseSmall"}]
        assert dict(stats_line(err, "bound"))["depth"] == "0"
        code, (rep,), _ = run(capsys, ["bound", path, "--k", "1", "--per-component"])
        assert (code, rep["components"]) == (0, [])
        code, (rep,), _ = run(capsys, ["verify", path, "--k", "1", ""])
        assert (code, rep["valid"], rep["witness"]) == (0, True, None)

    def test_per_component_covers_exceptional_parts(self, capsys, tmp_path):
        path = tmp_path / "mixed.edges"
        path.write_text("7 6\n0 1\n1 2\n2 3\n4 5\n4 6\n5 6\n")
        code, reports, err = run(capsys, ["bound", str(path), "--k", "3", "--per-component"])
        assert code == 0
        comps = reports[0]["components"]
        # The K_3 part is forced, not constructed, so only the path's steps count.
        stats = dict(stats_line(err, "bound"))
        assert int(stats["trace_steps"]) == len(comps[0]["trace"]) >= 1
        assert comps[1]["trace"] is None
        assert [c["vertices"] for c in comps] == [[0, 1, 2, 3], [4, 5, 6]]
        assert comps[0]["exception"] == "none"
        assert comps[1]["exception"] == "k-clique"
        assert comps[1]["set"] == [4]
        union = [u for c in comps for u in c["set"]]
        assert verify_isolating(read_graph(path), 3, union).valid


class TestVerify:
    def test_valid_set_exits_zero(self, capsys, k5_file):
        code, reports, _ = run(capsys, ["verify", k5_file, "--k", "4", "0"])
        assert code == 0
        assert reports[0]["valid"] is True

    def test_invalid_set_exits_one_with_witness(self, capsys, k5_file):
        code, reports, _ = run(capsys, ["verify", k5_file, "--k", "4", ""])
        assert code == 1
        (rep,) = reports
        assert rep["valid"] is False
        assert rep["witness"] == [0, 1, 2, 3]

    def test_extremal_path_heads_isolate(self, capsys, tmp_path):
        path = tmp_path / "b72.edges"
        write_graph(path, build_extremal(7, 2))
        code, reports, _ = run(capsys, ["verify", str(path), "--k", "2", "0 1"])
        assert code == 0
        assert reports[0]["valid"] is True

    def test_stdout_pinned(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # a relative input path keeps the report's bytes fixed
        write_graph("g.edges", build_extremal(7, 2))
        codes = [main(["verify", "g.edges", "--k", "2", "0 1"]),
                 main(["verify", "g.edges", "--k", "2", "2"])]
        out = capsys.readouterr().out
        assert codes == [0, 1]
        (pin,) = [pin for pin in PINS if pin.name == "verify-extremal-7"]
        assert hashlib.sha256(out.encode()).hexdigest() == pin.sha256

    def test_comma_separated_set(self, capsys, c5_file):
        code, reports, _ = run(capsys, ["verify", c5_file, "--k", "2", "0,2"])
        assert code == 0

    def test_malformed_set_is_usage_error(self, capsys, c5_file):
        code, _, err = run(capsys, ["verify", c5_file, "--k", "2", "0 q"])
        assert code == 2
        assert "set literal" in err

    def test_out_of_range_member_is_input_error(self, capsys, c5_file):
        code, _, err = run(capsys, ["verify", c5_file, "--k", "2", "9"])
        assert code == 2


class TestGen:
    def test_extremal_writes_canonical_file(self, capsys, tmp_path):
        out = str(tmp_path / "b72.edges")
        code, reports, _ = run(capsys, ["gen", "extremal", "--n", "7", "--k", "2", "--out", out])
        assert code == 0
        assert reports[0]["m"] == 8
        g = read_graph(out)
        assert g.n == 7 and g.edge_count == 8
        text = open(out).read()
        body = [ln for ln in text.splitlines()[1:] if ln and not ln.startswith("#")]
        assert body == sorted(body, key=lambda ln: tuple(map(int, ln.split())))

    def test_complete_singleton(self, capsys, tmp_path):
        out = str(tmp_path / "k1.edges")
        code, reports, _ = run(capsys, ["gen", "complete", "--n", "1", "--out", out])
        assert code == 0
        assert open(out).read() == "1 0\n"

    def test_random_requires_seed_and_p(self, capsys, tmp_path):
        out = str(tmp_path / "r.edges")
        code, _, err = run(capsys, ["gen", "random", "--n", "8", "--p", "0.2", "--out", out])
        assert code == 2 and "--seed" in err
        code, _, err = run(capsys, ["gen", "random", "--n", "8", "--seed", "4", "--out", out])
        assert code == 2 and "--p" in err

    def test_random_seed_reproduces_bytes(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.edges"), str(tmp_path / "b.edges")
        for out in (a, b):
            code, _, _ = run(capsys, ["gen", "random", "--n", "8", "--p", "0.2",
                                      "--seed", "42", "--out", out])
            assert code == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_extremal_requires_k(self, capsys, tmp_path):
        code, _, err = run(capsys, ["gen", "extremal", "--n", "7",
                                    "--out", str(tmp_path / "x.edges")])
        assert code == 2 and "--k" in err

    def test_round_trip_reproduces_graph(self, capsys, tmp_path):
        out = str(tmp_path / "cyc.edges")
        run(capsys, ["gen", "cycle", "--n", "9", "--out", out])
        assert read_graph(out).edges() == build_cycle(9).edges()

    @pytest.fixture
    def no_build(self, monkeypatch):
        """Every builder behind ``gen`` fails the test if it is called."""
        def built(*args):
            pytest.fail("a graph was built")

        for kind in cli._FAMILIES:
            monkeypatch.setitem(cli._FAMILIES, kind, built)
        for name in ("build_extremal", "gen_random_connected"):
            monkeypatch.setattr(cli, name, built)

    def test_vertex_count_above_cap_is_refused(self, capsys, no_build, tmp_path):
        # gen never writes a file that read_graph would refuse, and refuses
        # before building anything: a graph at the cap is not cheap.
        out = tmp_path / "p.edges"
        code, reports, err = run(capsys, ["gen", "path", "--n", "50001", "--out", str(out)])
        assert code == 2
        assert not reports
        assert "50000" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["complete", "--n", "2001"],
        # one block of 49,999 joined to the one path vertex: K_50000
        ["extremal", "--n", "50000", "--k", "49999"],
        # at p = 1 the expected count is exact: the 2,001,000 pairs of K_2001
        ["random", "--n", "2001", "--p", "1", "--seed", "1"],
    ])
    def test_edge_count_above_cap_is_refused(self, capsys, no_build, tmp_path, argv):
        out = tmp_path / "g.edges"
        code, reports, err = run(capsys, ["gen", *argv, "--out", str(out)])
        assert code == 2
        assert not reports
        assert str(MAX_EDGES) in err
        assert not out.exists()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 30])
    def test_edge_count_is_the_builders(self, n):
        def count(kind, **params):
            return cli._gen_edges(argparse.Namespace(kind=kind, n=n, **params))

        assert count("complete") == build_complete(n).edge_count
        assert count("random", p=1) == gen_random_connected(n, 1, n).edge_count
        for k in range(1, n + 2):
            assert count("extremal", k=k) == build_extremal(n, k).edge_count


class TestCheckTheorem:
    def test_exhaustive_small_clean(self, capsys):
        code, reports, _ = run(capsys, ["check-theorem", "--mode", "exhaustive",
                                        "--n-max", "4", "--k-max", "3"])
        assert code == 0
        summaries = [r for r in reports if "graphs" in r]
        assert all(r["violations"] == 0 for r in summaries)
        per_nk = {(r["n"], r["k"]): r for r in summaries}
        assert per_nk[(4, 3)]["graphs"] == 38
        # the lone exceptional instances below n=5: K_k itself at each k
        assert per_nk[(2, 2)]["exceptional"] == 1
        assert per_nk[(3, 3)]["exceptional"] == 1

    def test_exhaustive_flags_c5_as_exceptional(self, capsys):
        code, reports, _ = run(capsys, ["check-theorem", "--mode", "exhaustive",
                                        "--n-max", "5", "--k-max", "2"])
        assert code == 0
        per_nk = {(r["n"], r["k"]): r for r in reports if "graphs" in r}
        # 12 labelings of the 5-cycle are the only exceptional graphs at (5, 2)
        assert per_nk[(5, 2)]["exceptional"] == 12
        assert per_nk[(5, 2)]["violations"] == 0

    def test_random_mode_is_deterministic(self, capsys):
        args = ["check-theorem", "--mode", "random", "--n-max", "10",
                "--k-max", "2", "--count", "50", "--seed", "7"]
        code1, reports1, _ = run(capsys, args)
        code2, reports2, _ = run(capsys, args)
        assert code1 == code2 == 0
        assert reports1 == reports2

    def test_random_mode_requires_seed_and_count(self, capsys):
        code, _, err = run(capsys, ["check-theorem", "--mode", "random", "--count", "5"])
        assert code == 2 and "--seed" in err
        code, _, err = run(capsys, ["check-theorem", "--mode", "random", "--seed", "5"])
        assert code == 2 and "--count" in err

    def test_exhaustive_n_max_above_cap_is_refused(self, capsys, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(cli, "_connected", no_enumeration)
        code, reports, err = run(capsys, ["check-theorem", "--mode", "exhaustive",
                                          "--n-max", "9", "--k-max", "1"])
        assert code == 2
        assert not reports
        assert "--n-max" in err and "8" in err

    def test_random_n_max_above_cap_is_refused(self, capsys, monkeypatch):
        # Random mode draws n up to --n-max, so it shares the edge-list cap
        # and refuses before a single graph is built.
        monkeypatch.setattr(
            cli, "gen_random_connected", lambda *a: pytest.fail("a graph was built")
        )
        code, reports, err = run(capsys, ["check-theorem", "--mode", "random", "--seed", "1",
                                          "--count", "5", "--n-max", "50001", "--k-max", "1"])
        assert code == 2
        assert not reports
        assert "--n-max" in err and "50000" in err

    @pytest.mark.parametrize("argv,flag", [
        (["--k-max", "0"], "--k-max"),
        (["--n-max", "0"], "--n-max"),
        (["--mode", "random", "--seed", "1", "--count", "5", "--n-max", "0"], "--n-max"),
        (["--mode", "random", "--seed", "1", "--count", "5", "--k-max", "-1"], "--k-max"),
        (["--mode", "random", "--seed", "1", "--count", "-1"], "--count"),
        (["--oracle-cap", "-1"], "--oracle-cap"),
    ])
    def test_out_of_range_counts_name_the_flag(self, capsys, argv, flag):
        code, reports, err = run(capsys, ["check-theorem", *argv])
        assert code == 2
        assert not reports
        assert flag in err

    @pytest.mark.parametrize("argv", [
        ["--mode", "exhaustive", "--n-max", "5", "--k-max", "1"],
        ["--mode", "random", "--count", "30", "--n-max", "8", "--k-max", "2", "--seed", "3"],
    ])
    def test_violations_are_reported_and_counted(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "construct_mask", oversized)
        # Every instance that is not excluded, graph by graph, then k by k.
        if "exhaustive" in argv:
            corpus = [g for n in range(1, 6) for g in enumerate_connected(n)]
            ks = (1,)
        else:
            corpus = [Graph(len(adj), adj) for adj in cli._random_graphs(3, 30, 8)]
            ks = (1, 2)
        instances = [
            (format_edge_list(g), k) for g in corpus for k in ks
            if classify_exception(g, k) is ExceptionKind.NONE
        ]
        for chunk in CHUNKS:
            monkeypatch.setattr(cli, "CHUNK", chunk)
            code, reports, _ = run(capsys, ["check-theorem", *argv])
            assert code == 3
            assert [(r["graph"], r["k"]) for r in reports if "problems" in r] == instances
            records = 0
            non_exceptional = 0
            for rep in reports:
                if "graphs" in rep:
                    non_exceptional += rep["graphs"] - rep["exceptional"]
                    assert rep["violations"] == records
                    continue
                records += 1
                assert rep["violation"] is True
                g = parse_edge_list(rep["graph"])
                assert rep["n"] == g.n
                bound = g.n // (rep["k"] + 1)
                problems = [f"constructed set size {bound + 1} exceeds bound {bound}"]
                if not verify_isolating(g, rep["k"], range(bound + 1)).valid:
                    problems.insert(0, "constructed set does not isolate")
                assert rep["problems"] == problems
            assert records == non_exceptional > 0
            if "exhaustive" in argv:
                # {0, 1, 2} leaves vertex 4 of the path 0-1-2-3-4 undominated.
                path = format_edge_list(build_path(5))
                (rec,) = [r for r in reports if r.get("graph") == path]
                assert (rec["n"], rec["k"]) == (5, 1)
                assert rec["problems"] == [
                    "constructed set does not isolate",
                    "constructed set size 3 exceeds bound 2",
                ]

    def test_solver_over_the_bound_is_reported(self, capsys, monkeypatch):
        # A broken solver that answers with every vertex: over the bound, and
        # at odds with the oracle, which still runs on these small graphs.
        monkeypatch.setattr(cli, "solve_mask", lambda adj, comps, k: ((1 << len(adj)) - 1, 0, 0, 0))
        code, reports, _ = run(capsys, ["check-theorem", "--mode", "exhaustive",
                                        "--n-max", "4", "--k-max", "2"])
        assert code == 3
        records = [rep for rep in reports if rep.get("violation")]
        assert records
        for rep in records:
            g = parse_edge_list(rep["graph"])
            n, k = rep["n"], rep["k"]
            assert rep["problems"] == [
                f"iota {n} exceeds bound {n // (k + 1)}",
                f"solver {n} disagrees with oracle {iota_oracle(g, k).iota}",
            ]

    def test_solver_set_that_does_not_isolate_is_reported(self, capsys, monkeypatch):
        # A broken solver that answers with the lowest iota labels: the right
        # size, so the bound and the oracle see nothing wrong, and only the
        # check of the set itself can tell.
        solve = cli.solve_mask

        def lowest(adj, comps, k):
            best, *counts = solve(adj, comps, k)
            return (1 << best.bit_count()) - 1, *counts

        monkeypatch.setattr(cli, "solve_mask", lowest)
        code, reports, _ = run(capsys, ["check-theorem", "--mode", "exhaustive",
                                        "--n-max", "5", "--k-max", "2"])
        assert code == 3
        records = {
            (rep["graph"], rep["k"]): rep["problems"] for rep in reports if "problems" in rep
        }
        rejected = {}
        for n in range(1, 6):
            for g in enumerate_connected(n):
                for k in (1, 2):
                    if classify_exception(g, k) is not ExceptionKind.NONE:
                        continue
                    if not verify_isolating(g, k, range(iota_solve(g, k).iota)).valid:
                        rejected[(format_edge_list(g), k)] = ["solver set does not isolate"]
        assert records == rejected
        assert rejected

    def test_iota_growing_with_k_is_reported(self, capsys, monkeypatch):
        # A broken solver that answers at k = 2, from three vertices up, with
        # its k = 1 set plus the lowest vertex outside it: a set that still
        # isolates, one vertex larger than the answer at k = 1.  The oracle
        # is off, so only the bound and the comparison across k can tell.  At
        # k = 3 the solver answers right again, at most its true iota at k = 2,
        # so every record is at k = 2; a triangle-free graph's iota of 0 at
        # k = 3 is followed by the next graph's k = 1 in the same chunk.
        solve = cli.solve_mask

        def grows_at_two(adj, comps, k):
            if k != 2 or len(adj) < 3:
                return solve(adj, comps, k)
            best, *counts = solve(adj, comps, 1)
            return best | (best + 1) & ~best, *counts

        monkeypatch.setattr(cli, "solve_mask", grows_at_two)
        for chunk in CHUNKS:
            monkeypatch.setattr(cli, "CHUNK", chunk)
            code, reports, _ = run(capsys, ["check-theorem", "--mode", "exhaustive",
                                            "--n-max", "4", "--k-max", "3", "--oracle-cap", "0"])
            assert code == 3
            records = [rep for rep in reports if rep.get("violation")]
            # Every instance at k = 2 with a solved k = 1 instance beside it:
            # 4 + 38 connected graphs at n = 3, 4 (K_2 is excluded at k = 2).
            assert len(records) == 42
            for rep in records:
                n, k = rep["n"], rep["k"]
                assert k == 2
                iota = iota_solve(parse_edge_list(rep["graph"]), 1).iota
                problems = [f"iota {iota + 1} at k=2 exceeds iota {iota} at k=1"]
                if iota + 1 > n // 3:
                    problems.insert(0, f"iota {iota + 1} exceeds bound {n // 3}")
                assert rep["problems"] == problems

    def test_iota_growing_after_an_excluded_instance_is_not_compared(self, capsys, monkeypatch):
        # A broken solver that answers at k = 3, from two vertices up, with
        # its k = 1 set plus the lowest vertex outside it: one vertex more
        # than its answer at k = 1, so more than the true iota at k = 2.
        # The comparison across k must skip the graphs whose k = 2 instance
        # is excluded, K_2 and the twelve labelled 5-cycles; the oracle is off.
        solve = cli.solve_mask

        def grows_at_three(adj, comps, k):
            if k != 3 or len(adj) < 2:
                return solve(adj, comps, k)
            best, *counts = solve(adj, comps, 1)
            return best | (best + 1) & ~best, *counts

        monkeypatch.setattr(cli, "solve_mask", grows_at_three)
        expected = {}
        for g in (g for n in range(2, 6) for g in enumerate_connected(n)):
            if classify_exception(g, 3) is not ExceptionKind.NONE:
                continue  # K_3
            iota, bound = iota_solve(g, 1).iota + 1, g.n // 4
            problems = [f"iota {iota} exceeds bound {bound}"] if iota > bound else []
            if classify_exception(g, 2) is ExceptionKind.NONE:
                problems.append(f"iota {iota} at k=3 exceeds iota {iota_solve(g, 2).iota} at k=2")
            expected[format_edge_list(g)] = problems
        exempt = [g for g, problems in expected.items() if not any("at k=2" in p for p in problems)]
        assert len(exempt) == 13
        for chunk in CHUNKS:
            monkeypatch.setattr(cli, "CHUNK", chunk)
            code, reports, _ = run(capsys, ["check-theorem", "--mode", "exhaustive",
                                            "--n-max", "5", "--k-max", "3", "--oracle-cap", "0"])
            assert code == 3
            records = [rep for rep in reports if rep.get("violation")]
            assert {rep["k"] for rep in records} == {3}
            assert {rep["graph"]: rep["problems"] for rep in records} == expected
            assert len(records) == len(expected)

    def test_an_exception_leaves_none_of_its_chunk_printed(self, capsys, monkeypatch):
        # Every instance has a record, and the solver fails on one instance
        # in the middle of the n = 4 batch's second chunk of 7 graphs: the
        # exception leaves main after the records of the chunks before it,
        # and with none of its own chunk's.
        four = list(enumerate_connected(4))
        doomed = four[10].adj
        solve = cli.solve_mask

        def fails_once(adj, comps, k):
            if adj == doomed and k == 2:
                raise RuntimeError("solver crashed")
            return solve(adj, comps, k)

        monkeypatch.setattr(cli, "construct_mask", oversized)
        monkeypatch.setattr(cli, "solve_mask", fails_once)
        monkeypatch.setattr(cli, "CHUNK", 7)
        with pytest.raises(RuntimeError, match="solver crashed"):
            main(["check-theorem", "--mode", "exhaustive", "--n-max", "4", "--k-max", "2"])

        def records(graphs):
            return [
                ("record", format_edge_list(g), k) for g in graphs for k in (1, 2)
                if classify_exception(g, k) is ExceptionKind.NONE
            ]

        expected = []
        for n in (1, 2, 3):
            expected += records(enumerate_connected(n)) + [("summary", n, k) for k in (1, 2)]
        expected += records(four[:7])
        got = [
            ("record", rep["graph"], rep["k"]) if rep.get("violation")
            else ("summary", rep["n"], rep["k"])
            for rep in map(json.loads, capsys.readouterr().out.splitlines())
        ]
        assert got == expected

    def test_k_max_above_n_max_is_refused(self, capsys, monkeypatch):
        # No graph on at most --n-max vertices has a larger clique; refused
        # before a single graph is enumerated.
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumeration started")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "_connected", no_enumeration)
            code, reports, err = run(capsys, ["check-theorem", "--mode", "exhaustive",
                                              "--n-max", "4", "--k-max", "5"])
        assert code == 2
        assert not reports
        assert "--k-max" in err and "--n-max 4" in err
        code, reports, _ = run(capsys, ["check-theorem", "--mode", "exhaustive",
                                        "--n-max", "4", "--k-max", "4"])
        assert code == 0
        assert {r["k"] for r in reports if "graphs" in r} == {1, 2, 3, 4}

    def test_oracle_disagreement_is_reported(self, capsys, monkeypatch):
        # A broken oracle that finds one vertex more than the solver's answer.
        def one_more(adj, k):
            combo, tested = oracle_scan(adj, k)
            return combo + (len(adj),), tested

        monkeypatch.setattr(cli, "oracle_scan", one_more)
        code, reports, _ = run(capsys, ["check-theorem", "--mode", "exhaustive",
                                        "--n-max", "4", "--k-max", "1"])
        assert code == 3
        records = [rep for rep in reports if rep.get("violation")]
        # Every non-excluded instance: 38 + 4 + 1 connected graphs at n = 2..4.
        assert len(records) == 43
        for rep in records:
            iota = iota_solve(parse_edge_list(rep["graph"]), rep["k"]).iota
            assert rep["problems"] == [f"solver {iota} disagrees with oracle {iota + 1}"]

    def test_construction_failure_is_reported(self, capsys, monkeypatch):
        # Random mode fed a disconnected graph: the solver and the oracle
        # handle it, and the construction, which takes the whole graph as one
        # piece, finds a residual component out of the pivot's reach.
        g = disjoint_union([build_path(3), build_path(3)])
        monkeypatch.setattr(cli, "gen_random_connected", lambda n, p, seed: g)
        code, reports, _ = run(capsys, ["check-theorem", "--mode", "random", "--count", "2",
                                        "--n-max", "6", "--k-max", "1", "--seed", "1"])
        assert code == 3
        records = [rep for rep in reports if rep.get("violation")]
        assert len(records) == 2
        for rep in records:
            assert rep["graph"] == format_edge_list(g)
            assert rep["problems"] == [
                "construction failed: every residual component touches N(pivot)"
            ]

    def test_a_disconnected_graph_is_never_a_clean_pass(self):
        # The sweep does not split its graphs, since both corpora are
        # connected.  Should a disconnected one slip in, the construction
        # fails on it at k = 1, the first k of every sweep.
        disconnected = [
            g.adj for g in labeled_graphs(6) if g.n and len(naive_components(g)) > 1
        ]
        assert len(disconnected) == 1 + 4 + 26 + 296 + 6064
        findings = cli._check_chunk(disconnected, range(1, 4), cli.DEFAULT_ORACLE_CAP)
        assert [adj for adj, k, *_ in findings if k == 1] == disconnected
        for adj, k, iota, trace, problems in findings:
            if k == 1:
                assert trace == []
                assert any(p.startswith("construction failed: ") for p in problems), adj

    def test_stats_and_progress_go_to_stderr(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "PROGRESS_EVERY", 10)
        for chunk in CHUNKS:
            monkeypatch.setattr(cli, "CHUNK", chunk)
            code, reports, err = run(capsys, ["check-theorem", "--mode", "exhaustive",
                                              "--n-max", "4", "--k-max", "1"])
            assert code == 0
            assert len(reports) == 4
            lines = err.splitlines()
            # 38 connected graphs at n = 4: progress after 10, 20 and 30 of them.
            progress = [line for line in lines if "graphs elapsed_s=" in line]
            assert [line.split(": ")[1].split()[0] for line in progress] == ["10", "20", "30"]
            (row,) = [
                line for line in lines if line.startswith("check-theorem mode=exhaustive n=4 k=1:")
            ]
            fields = dict(field.split("=") for field in row.split(": ")[1].split())
            # Ore: a connected graph on n >= 2 vertices has a dominating set of size n/2.
            assert fields["max_iota"] == fields["floor"] == "2"
            assert float(fields["elapsed_s"]) >= 0
            assert float(fields["instances_per_s"]) > 0

    def test_chunk_size_leaves_the_output_unchanged(self, capsys, monkeypatch):
        # The pinned sweep in-process: its 728 graphs at n = 5 end a chunk of
        # 7 more than 100 times inside one batch.
        (pin,) = [pin for pin in PINS if pin.name == "exhaustive-n5-k3"]
        errs = set()
        for chunk in (1, 7, cli.CHUNK):
            monkeypatch.setattr(cli, "CHUNK", chunk)
            assert main(pin.commands[0].split()) == 0
            out = capsys.readouterr()
            assert hashlib.sha256(out.out.encode()).hexdigest() == pin.sha256
            errs.add(TIMING.sub(b"", out.err.encode()))
        assert len(errs) == 1

    def test_branch_histogram_per_row_on_stderr(self, capsys):
        code, _, err = run(capsys, ["check-theorem", "--mode", "exhaustive",
                                    "--n-max", "4", "--k-max", "2"])
        assert code == 0
        rows = [line for line in err.splitlines() if line.startswith("check-theorem mode=exhaustive n=4 ")]
        assert len(rows) == 2
        for k, row in zip((1, 2), rows):
            fields = [tuple(field.split("=")) for field in row.split(": ")[1].split()]
            assert [key for key, _ in fields] == (
                ["max_iota", "floor"] + [tag.value for tag in BranchTag]
                + ["elapsed_s", "instances_per_s"]
            )
            # The steps of bounded_isolating_set on every graph of the row.
            steps = Counter()
            for g in enumerate_connected(4):
                try:
                    steps.update(step.tag.value for step in bounded_isolating_set(g, k).trace)
                except ExceptionalGraphError:
                    pass
            stats = dict(fields)
            assert {tag.value: int(stats[tag.value]) for tag in BranchTag} == {
                tag.value: steps[tag.value] for tag in BranchTag
            }
            assert sum(steps.values()) > 0


class TestProcessLevel:
    def test_bound_on_long_path_keeps_default_recursion_limit(self, tmp_path):
        path = tmp_path / "p2000.edges"
        write_graph(path, build_path(2000))
        script = (
            "import sys\n"
            "from cliqueiso.cli import main\n"
            "limit = sys.getrecursionlimit()\n"
            f"code = main(['bound', {str(path)!r}, '--k', '2'])\n"
            "print(limit, sys.getrecursionlimit(), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=package_env(), timeout=300)
        assert out.returncode == 0, out.stderr
        # The last stderr line is the script's; the one before it is bound's stats line.
        before, after = map(int, out.stderr.splitlines()[-1].split())
        assert before == after <= 1000
        rep = json.loads(out.stdout)
        assert rep["size"] == rep["bound"] == 666
        assert verify_isolating(read_graph(path), 2, rep["set"]).valid

    @staticmethod
    def main_at_low_limit(argv: list[str]) -> subprocess.CompletedProcess:
        """``main(argv)`` at a recursion limit of 120; the limit it leaves
        is the last stderr line."""
        return run_at_low_recursion_limit(
            "from cliqueiso.cli import main\n"
            f"code = main({argv!r})\n"
            "print(sys.getrecursionlimit(), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )

    def test_verify_finds_a_150_clique_at_low_recursion_limit(self, tmp_path):
        path = tmp_path / "k150.edges"
        write_graph(path, build_complete(150))
        out = self.main_at_low_limit(["verify", str(path), "--k", "150", ""])
        assert out.returncode == 1, out.stderr
        rep = json.loads(out.stdout)
        assert rep["valid"] is False
        assert rep["witness"] == list(range(150))

    def test_bound_at_k150_at_low_recursion_limit(self, tmp_path):
        path = tmp_path / "b160.edges"
        write_graph(path, build_extremal(160, 150))
        out = self.main_at_low_limit(["bound", str(path), "--k", "150"])
        assert out.returncode == 0, out.stderr
        rep = json.loads(out.stdout)
        assert rep["size"] <= rep["bound"] == 1
        assert verify_isolating(read_graph(path), 150, rep["set"]).valid

    def test_solve_leaves_the_recursion_limit_alone(self, tmp_path):
        path = tmp_path / "k150.edges"
        write_graph(path, build_complete(150))
        out = self.main_at_low_limit(["solve", str(path), "--k", "150"])
        assert out.returncode == 0, out.stderr
        assert out.stderr.splitlines()[-1] == "120"
        assert json.loads(out.stdout)["iota"] == 1

    def test_module_entry_point_round_trip(self, tmp_path):
        out = tmp_path / "g.edges"
        args = [sys.executable, "-m", "cliqueiso.cli", "gen", "random", "--n", "9",
                "--p", "0.25", "--seed", "11", "--out", str(out)]
        first = subprocess.run(args, capture_output=True, text=True)
        assert first.returncode == 0
        solve = subprocess.run(
            [sys.executable, "-m", "cliqueiso.cli", "solve", str(out), "--k", "2"],
            capture_output=True, text=True,
        )
        assert solve.returncode == 0
        rep = json.loads(solve.stdout)
        assert verify_isolating(read_graph(out), 2, rep["set"]).valid

    def test_console_script_resolves_to_main(self):
        """The ``cliqueiso`` script that an install would write calls
        ``cliqueiso.cli.main``; nothing is built or installed here."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        if not pyproject.is_file():
            pytest.skip("no pyproject.toml beside the tests")
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["cliqueiso"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is main

    def test_closed_stdout_exits_as_sigpipe_without_a_message(self, tmp_path):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the command writes anything
        try:
            out = subprocess.run(
                [sys.executable, "-m", "cliqueiso.cli", "gen", "path", "--n", "5",
                 "--out", str(tmp_path / "p5.edges")],
                stdout=write, stderr=subprocess.PIPE, env=package_env(), timeout=300,
            )
        finally:
            os.close(write)
        assert (out.returncode, out.stderr) == (141, b"")

    def test_check_theorem_bytes_are_pinned(self):
        (pin,) = [pin for pin in PINS if pin.name == "exhaustive-n5-k3"]
        assert failures([pin]) == []
