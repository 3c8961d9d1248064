"""Command-line front end: verbs, exit statuses, report contents, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

import cliqueiso.cli as cli
from cliqueiso import (
    BoundResult,
    build_complete,
    build_cycle,
    build_extremal,
    build_path,
    format_edge_list,
    parse_edge_list,
    read_graph,
    verify_isolating,
    write_graph,
)
from cliqueiso.cli import main

from .support import package_env

# SHA-256 of the stdout of `check-theorem --mode exhaustive --n-max 5 --k-max 3`.
# The reports are promised byte-identical, so a change here must be deliberate.
CHECK_THEOREM_N5_K3_SHA256 = "fe4b5d21dc64f7ba50682c6c7ec0f6b5a4c670c85645c6faa47659acf54a799e"


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

    def test_bad_k_is_input_error(self, capsys, c5_file):
        code, _, err = run(capsys, ["solve", c5_file, "--k", "0"])
        assert code == 2

    def test_huge_vertex_count_is_input_error(self, capsys, tmp_path):
        # Rejected from the header alone, before any memory is spent on n.
        huge = tmp_path / "huge.edges"
        for header in ("100001 0\n", "100000000 0\n"):
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

    def test_disconnected_suggests_per_component(self, capsys, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("4 2\n0 1\n2 3\n")
        code, _, err = run(capsys, ["bound", str(path), "--k", "2"])
        assert code == 2
        assert "--per-component" in err

    def test_per_component_covers_exceptional_parts(self, capsys, tmp_path):
        path = tmp_path / "mixed.edges"
        path.write_text("7 6\n0 1\n1 2\n2 3\n4 5\n4 6\n5 6\n")
        code, reports, _ = run(capsys, ["bound", str(path), "--k", "3", "--per-component"])
        assert code == 0
        comps = reports[0]["components"]
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

    def test_vertex_count_above_cap_is_refused(self, capsys, monkeypatch, tmp_path):
        # gen never writes a file that read_graph would refuse, and refuses
        # before building anything: a graph at the cap is not cheap.
        for name in ("build_path", "build_cycle", "build_complete", "build_extremal",
                     "gen_random_connected"):
            monkeypatch.setattr(cli, name, lambda *a: pytest.fail("a graph was built"))
        out = tmp_path / "p.edges"
        code, reports, err = run(capsys, ["gen", "path", "--n", "100001", "--out", str(out)])
        assert code == 2
        assert not reports
        assert "100000" in err
        assert not out.exists()


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

        monkeypatch.setattr(cli, "enumerate_connected", no_enumeration)
        code, reports, err = run(capsys, ["check-theorem", "--mode", "exhaustive",
                                          "--n-max", "9", "--k-max", "1"])
        assert code == 2
        assert not reports
        assert "--n-max" in err and "8" in err

    @pytest.mark.parametrize("argv,flag", [
        (["--k-max", "0"], "--k-max"),
        (["--n-max", "0"], "--n-max"),
        (["--mode", "random", "--seed", "1", "--count", "5", "--n-max", "0"], "--n-max"),
        (["--mode", "random", "--seed", "1", "--count", "5", "--k-max", "-1"], "--k-max"),
        (["--mode", "random", "--seed", "1", "--count", "-1"], "--count"),
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
        # A broken construction: one vertex over the bound, the lowest labels,
        # which fail to isolate wherever a k-clique survives outside them.
        def oversized(g, k):
            bound = g.n // (k + 1)
            return BoundResult(frozenset(range(bound + 1)), bound, ())

        monkeypatch.setattr(cli, "bounded_isolating_set", oversized)
        code, reports, _ = run(capsys, ["check-theorem", *argv])
        assert code == 3
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

    def test_stats_and_progress_go_to_stderr(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "PROGRESS_EVERY", 10)
        code, reports, err = run(capsys, ["check-theorem", "--mode", "exhaustive",
                                          "--n-max", "4", "--k-max", "1"])
        assert code == 0
        assert len(reports) == 4
        lines = err.splitlines()
        # 38 connected graphs at n = 4: progress after 10, 20 and 30 of them.
        progress = [line for line in lines if "graphs elapsed_s=" in line]
        assert [line.split(": ")[1].split()[0] for line in progress] == ["10", "20", "30"]
        (row,) = [line for line in lines if line.startswith("check-theorem mode=exhaustive n=4 k=1:")]
        fields = dict(field.split("=") for field in row.split(": ")[1].split())
        # Ore: a connected graph on n >= 2 vertices has a dominating set of size n/2.
        assert fields["max_iota"] == fields["floor"] == "2"
        assert float(fields["elapsed_s"]) >= 0
        assert float(fields["instances_per_s"]) > 0


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
        before, after = map(int, out.stderr.split())
        assert before == after <= 1000
        rep = json.loads(out.stdout)
        assert rep["size"] == rep["bound"] == 666
        assert verify_isolating(read_graph(path), 2, rep["set"]).valid

    def test_installed_entry_point_round_trip(self, tmp_path):
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

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        out = tmp_path / "g.edges"
        gen = [sys.executable, "-m", "cliqueiso.cli", "gen", "random", "--n", "10",
               "--p", "0.3", "--seed", "3", "--out", str(out)]
        outputs = set()
        files = set()
        for _ in range(2):
            r = subprocess.run(gen, capture_output=True)
            s = subprocess.run(
                [sys.executable, "-m", "cliqueiso.cli", "solve", str(out), "--k", "2"],
                capture_output=True,
            )
            b = subprocess.run(
                [sys.executable, "-m", "cliqueiso.cli", "bound", str(out), "--k", "2"],
                capture_output=True,
            )
            outputs.add(r.stdout + s.stdout + b.stdout)
            files.add(out.read_bytes())
        assert len(outputs) == 1
        assert len(files) == 1

    def test_check_theorem_bytes_are_pinned(self):
        out = subprocess.run(
            [sys.executable, "-m", "cliqueiso.cli", "check-theorem", "--mode", "exhaustive",
             "--n-max", "5", "--k-max", "3"],
            capture_output=True, env=package_env(), timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert hashlib.sha256(out.stdout).hexdigest() == CHECK_THEOREM_N5_K3_SHA256
