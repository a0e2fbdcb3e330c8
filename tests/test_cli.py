import dataclasses
import re

import pytest

from maxleaf import (ExpansionTrace, InstanceSpec, certify, generate, max_leaf_exact, parse,
                     serialize, tree)
from maxleaf.cli import main, parse_gen_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_star_file(tmp_path, capsys):
    path = tmp_path / "star.edgelist"
    path.write_text("5 4\n0 1\n0 2\n0 3\n0 4\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert err == ""
    assert out == "n=5\nm=4\nleaves=4\n"


@pytest.mark.parametrize("module", ["maxleaf", "maxleaf.cli"])
def test_python_dash_m_runs_the_cli(capsys, module):
    import os
    import subprocess
    import sys

    import maxleaf

    argv = ["certify", "--gen", "grid:5x7"]
    _, expected, _ = run_cli(capsys, *argv)
    src = os.path.dirname(os.path.dirname(maxleaf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_runtime_imports_only_the_standard_library():
    import os
    import subprocess
    import sys

    import maxleaf

    src = os.path.dirname(os.path.dirname(maxleaf.__file__))
    script = (
        "import importlib, pkgutil, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import maxleaf\n"
        "for info in pkgutil.iter_modules(maxleaf.__path__):\n"
        "    importlib.import_module(f'maxleaf.{info.name}')\n"
        "top = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(top - set(sys.stdlib_module_names) - {'maxleaf'})))\n")
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_solve_reads_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n0 1\n1 2\n"))
    code, out, err = run_cli(capsys, "solve", "-")
    assert code == 0
    assert "leaves=2" in out


def test_solve_trace_on_cycle5(capsys):
    code, out, err = run_cli(capsys, "solve", "--gen", "cycle:5", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6   # n, m, leaves plus one line per expansion step
    assert lines[:3] == ["n=5", "m=5", "leaves=2"]
    assert lines[3] == "step=1 case=W2 center=0 added=1,4"
    assert lines[4] == "step=2 case=W0 center=4 added=3"
    assert lines[5] == "step=3 case=W1 center=3 added=2"


def test_solve_edges_and_dot(capsys):
    code, out, _ = run_cli(capsys, "solve", "--gen", "cycle:5", "--edges", "--dot")
    assert code == 0
    assert "0 1\n0 4\n2 3\n3 4\n" in out
    assert "graph G {" in out
    assert "1 -- 2 [style=dashed];" in out  # the one non-tree edge


def test_solve_disconnected_exit_3(tmp_path, capsys):
    path = tmp_path / "two.edgelist"
    path.write_text("4 2\n0 1\n2 3\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 3
    assert "disconnected" in err


# Every degree <= 1, so no start vertex exists; and a triangle plus an edge,
# where a run starts but reaches only part of the graph.
DISCONNECTED = {
    "4 2\n0 1\n2 3\n": "no vertex of degree >= 2: graph is disconnected",
    "5 4\n0 1\n1 2\n0 2\n3 4\n": "graph is disconnected: reached 3 of 5 vertices",
}


@pytest.mark.parametrize("text", DISCONNECTED)
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_certify_disconnected_exit_3(tmp_path, capsys, monkeypatch, text, source):
    import io
    if source == "file":
        path = tmp_path / "parts.edgelist"
        path.write_text(text)
        arg = str(path)
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        arg = "-"
    assert run_cli(capsys, "certify", arg) == (3, "", f"error: {DISCONNECTED[text]}\n")


# An explicit start vertex of degree < 2, or out of range, is a usage error
# on a connected graph but reports disconnection on a disconnected one.
REFUSED_START = {
    "maxdeg": "graph is disconnected: reached 3 of 5 vertices",
    "vertex:0": "graph is disconnected: reached 3 of 5 vertices",
    "vertex:3": "start vertex 3 has degree 1 < 2, and the graph is disconnected",
    "vertex:9": "start vertex 9 out of range [0, 5), and the graph is disconnected",
}


@pytest.mark.parametrize("policy", REFUSED_START)
def test_certify_disconnected_exit_3_under_every_start_policy(tmp_path, capsys, policy):
    path = tmp_path / "parts.edgelist"
    path.write_text("5 4\n0 1\n1 2\n0 2\n3 4\n")
    assert run_cli(capsys, "certify", str(path), "--start-policy", policy) == (
        3, "", f"error: {REFUSED_START[policy]}\n")


# The exit code of each command under each start policy, from one rule: a
# disconnected input exits 3 everywhere; on a connected one, a refused
# explicit start exits 1, and so does certify below 3 vertices.
MATRIX_INPUTS = {
    "two edges": ("4 2\n0 1\n2 3\n", False),
    "triangle plus edge": ("5 4\n0 1\n1 2\n0 2\n3 4\n", False),
    "one vertex": ("1 0\n", True),
    "one edge": ("2 1\n0 1\n", True),
    "two vertices": ("2 0\n", False),
    "edge plus vertex": ("3 1\n0 1\n", False),
    "star:5": (None, True),
}
MATRIX_POLICIES = [(), ("--start-policy", "maxdeg"), ("--start-policy", "vertex:0"),
                   ("--start-policy", "vertex:3")]


def _expected_exit(command, policy, text, connected):
    if not connected:
        return 3
    if policy[-1:] == ("vertex:3",):     # out of range, or a star leaf
        return 1
    if command == "certify" and text is not None and int(text.split()[0]) < 3:
        return 1
    return 0


@pytest.mark.parametrize("name", MATRIX_INPUTS)
@pytest.mark.parametrize("command, policy", [
    *((c, p) for c in ("solve", "certify", "compare") for p in MATRIX_POLICIES),
    ("oracle", ())])
def test_exit_code_matrix(tmp_path, capsys, name, command, policy):
    text, connected = MATRIX_INPUTS[name]
    if text is None:
        source = ("--gen", name)
    else:
        path = tmp_path / "g.edgelist"
        path.write_text(text)
        source = (str(path),)
    code, out, err = run_cli(capsys, command, *source, *policy)
    assert code == _expected_exit(command, policy, text, connected), err
    assert (out == "") == (code != 0)


@pytest.mark.parametrize("policy, err", [
    ("vertex:1", "error: start vertex 1 has degree 1 < 2\n"),
    ("vertex:9", "error: start vertex 9 out of range [0, 5)\n")])
def test_certify_bad_start_vertex_on_a_connected_graph_exits_1(capsys, policy, err):
    assert run_cli(capsys, "certify", "--gen", "star:5", "--start-policy", policy) == (
        1, "", err)


def test_solve_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.edgelist"
    path.write_text("2 1\n0 0\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "line 2" in err


def test_header_above_the_vertex_cap_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("maxleaf.graph.MAX_VERTICES", 3)
    path = tmp_path / "big.dimacs"
    path.write_text("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    code, out, err = run_cli(capsys, "solve", "--format", "dimacs", str(path))
    assert (code, out) == (2, "")
    assert err == "parse error: line 1: vertex count must be <= 3, got 4\n"


@pytest.mark.parametrize("spec", ["cycle:101", "star:101", "complete:101", "grid:101x1",
                                  "random:101:100"])
def test_gen_above_the_vertex_cap_exits_1(capsys, monkeypatch, spec):
    monkeypatch.setattr("maxleaf.graph.MAX_VERTICES", 100)
    code, out, err = run_cli(capsys, "gen", "--gen", spec)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.endswith(
        " asks for 101 vertices, more than the cap of 100\n")


def test_gen_above_the_edge_cap_exits_1(capsys, monkeypatch):
    import importlib
    monkeypatch.setattr(importlib.import_module("maxleaf.generate"), "MAX_EDGES", 100)
    assert run_cli(capsys, "gen", "--gen", "grid:6x10") == (
        1, "", "error: grid asks for 104 edges, more than the cap of 100\n")


def test_certify_cycle5(capsys):
    code, out, err = run_cli(capsys, "certify", "--gen", "cycle:5")
    assert code == 0
    assert out == ("n=5\nm=5\nleaves=2\nu_size=2\nk=1\n"
                   "upper_bound=3\nratio_bound=1.5000\nlemmas=pass\n")


@pytest.mark.parametrize("argv, expected", [
    (("--gen", "random:2000:8000", "--seed", "1"),
     "n=2000\nm=8000\nleaves=1454\nu_size=41\nk=2\n"
     "upper_bound=1958\nratio_bound=1.3466\nlemmas=pass\n"),
    (("--gen", "grid:5x7"),
     "n=35\nm=58\nleaves=18\nu_size=1\nk=1\n"
     "upper_bound=34\nratio_bound=1.8889\nlemmas=pass\n"),
])
def test_certify_output_is_pinned(capsys, argv, expected):
    assert run_cli(capsys, "certify", *argv) == (0, expected, "")


def test_certify_star5(capsys):
    code, out, _ = run_cli(capsys, "certify", "--gen", "star:5")
    assert code == 0
    assert "u_size=0" in out and "k=1" in out
    assert "upper_bound=5" in out and "leaves=4" in out
    assert "lemmas=pass" in out


def test_certify_output_is_the_same_on_both_parse_paths(tmp_path, capsys):
    text = serialize(generate(InstanceSpec("random_connected", (60, 150), 5)))
    canonical = tmp_path / "canonical.edgelist"
    canonical.write_text(text)
    commented = tmp_path / "commented.edgelist"
    commented.write_text("# random_connected(60, 150), seed 5\n\n"
                         + "".join(f"{line}\n# line {i}\n\n"
                                   for i, line in enumerate(text.splitlines())))
    code, out, err = run_cli(capsys, "certify", str(canonical))
    assert (code, err) == (0, "") and "lemmas=pass" in out
    assert run_cli(capsys, "certify", str(commented)) == (code, out, err)


def test_certify_small_n_is_rejected(capsys, tmp_path):
    path = tmp_path / "edge.edgelist"
    path.write_text("2 1\n0 1\n")
    assert run_cli(capsys, "certify", str(path)) == (
        1, "", "error: certificate needs n >= 3, got n=2\n")


def test_compare_star5(capsys):
    code, out, _ = run_cli(capsys, "compare", "--gen", "star:5")
    assert code == 0
    assert out == "alg=4 opt=4 ratio=1.0000 bound_ok=true\n"


def _failing_audit(g, t, trace):
    cert, report = certify(g, t, trace)
    return cert, dataclasses.replace(report, branch_rank=((0, 1),))


def _inflated_optimum(g, **kwargs):
    return dataclasses.replace(max_leaf_exact(g, **kwargs), opt_leaves=6)


@pytest.mark.parametrize("name, fake, out, err", [
    # One lemma witness: opt <= upper_bound still holds, the audit does not.
    ("certify", _failing_audit, "alg=4 opt=4 ratio=1.0000 bound_ok=true\n",
     "certificate violation: opt=4 upper_bound=5 lemma witnesses (0, 0, 1, 0)\n"),
    # opt = 6 is within 2*alg - 1 = 7 but above the certified bound of 5.
    ("max_leaf_exact", _inflated_optimum, "alg=4 opt=6 ratio=1.5000 bound_ok=true\n",
     "certificate violation: opt=6 upper_bound=5 lemma witnesses (0, 0, 0, 0)\n"),
])
def test_compare_exits_4_on_a_failed_certificate_check(capsys, monkeypatch, name, fake,
                                                        out, err):
    from maxleaf import oracle
    monkeypatch.setattr(oracle, name, fake)
    assert run_cli(capsys, "compare", "--gen", "star:5") == (4, out, err)


def test_certify_exits_4_on_a_failed_lemma_audit(capsys, monkeypatch):
    monkeypatch.setattr("maxleaf.cli.certify", _failing_audit)
    code, out, err = run_cli(capsys, "certify", "--gen", "star:5")
    assert code == 4
    assert out.endswith("upper_bound=5\nratio_bound=1.2500\nlemmas=fail\n")
    assert err == "lemma violation witnesses: (0, 0, 1, 0)\n"


def _tree_adding_start_twice(g, policy=None):
    """tree(), but a W0 step right after the first adds the start again."""
    t, trace = tree(g, policy)
    first, e = trace.added[0], trace.ends[0]
    return t, ExpansionTrace(
        trace.start, (trace.centers[0], first, *trace.centers[1:]),
        (trace.labels[0], "W0", *trace.labels[1:]),
        (e, e + 1, *(end + 1 for end in trace.ends[1:])),
        (*trace.added[:e], trace.start, *trace.added[e:]), trace.touches)


# A trace that does not replay is an audit failure, not a usage error.
@pytest.mark.parametrize("argv", [
    ("certify", "--gen", "star:5"),
    ("compare", "--gen", "star:5"),
    ("tight-search", "--n-max", "8", "--trials", "20", "--out", "{out}")])
def test_a_trace_that_fails_to_replay_exits_4(tmp_path, capsys, monkeypatch, argv):
    from maxleaf import cli, oracle, tightness
    for module in (cli, oracle, tightness):
        monkeypatch.setattr(module, "tree", _tree_adding_start_twice)
    argv = [a.format(out=tmp_path / "t.edgelist") for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert re.fullmatch(r"certificate violation: trace adds vertex \d+ twice\n", err)


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--gen", "complete:4", "--edges")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "opt=3"
    assert lines[1] == "trees=16"
    assert len(lines) == 5


def test_oracle_budget_exit_5(capsys):
    code, out, err = run_cli(capsys, "oracle", "--gen", "complete:6", "--budget", "10")
    assert code == 5
    assert "exhausted" in err
    assert out.startswith("opt=")


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_budget_below_one_exits_1(capsys, command):
    # The input is connected: a bad budget is a usage error, not exit 3.
    code, out, err = run_cli(capsys, command, "--gen", "cycle:5", "--budget", "0")
    assert code == 1
    assert out == ""
    assert err == "error: tree budget must be at least 1, got 0\n"


def test_compare_budget_bounds_the_pruned_search(capsys):
    # K6 has 1296 spanning trees, but compare's pruned search visits 140.
    code, out, err = run_cli(capsys, "compare", "--gen", "complete:6", "--budget", "200")
    assert code == 0
    assert err == ""
    assert out == "alg=5 opt=5 ratio=1.0000 bound_ok=true\n"
    assert run_cli(capsys, "compare", "--gen", "complete:6", "--budget", "100") == (
        5, "", "tree budget 100 exhausted\n")


@pytest.mark.parametrize("argv", [
    ["oracle", "--gen", "cycle:5", "--start-policy", "maxdeg"],
    ["gen", "--gen", "cycle:5", "--start-policy", "maxdeg"],
    ["bench", "--ladder", "8:8", "--runs", "1", "--format", "dimacs"],
    ["gen", "/nonexistent.edgelist", "--gen", "cycle:3"],
])
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_gen_round_trips_through_solve(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen", "--gen", "grid:3x3")
    assert code == 0
    g = parse(out)
    assert g.n == 9 and g.m == 12
    path = tmp_path / "grid.edgelist"
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "solve", str(path))
    assert code == 0 and "n=9" in out2


def test_gen_dimacs_format(capsys):
    code, out, _ = run_cli(capsys, "gen", "--gen", "complete:3", "--format", "dimacs")
    assert code == 0
    assert out == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


def test_gen_requires_spec(capsys):
    code, _, err = run_cli(capsys, "gen")
    assert code == 1
    assert "--gen" in err


def test_gen_infeasible_exit_1(capsys):
    code, _, err = run_cli(capsys, "gen", "--gen", "random:5:3")
    assert code == 1
    assert "error" in err
    assert run_cli(capsys, "gen", "--gen", "star:0") == (
        1, "", "error: star needs >= 1 vertex, got 0\n")
    assert run_cli(capsys, "gen", "--gen", "random:0:0") == (
        1, "", "error: random_connected needs >= 1 vertex, got 0\n")


def test_both_input_sources_rejected(tmp_path, capsys):
    path = tmp_path / "x.edgelist"
    path.write_text("2 1\n0 1\n")
    code, _, err = run_cli(capsys, "solve", str(path), "--gen", "cycle:5")
    assert code == 1
    assert "not both" in err


def test_start_policy_flag(capsys):
    code, out, _ = run_cli(capsys, "solve", "--gen", "grid:3x3",
                           "--start-policy", "maxdeg", "--trace")
    assert code == 0
    assert "center=4" in out.splitlines()[3]  # first expansion at the grid center


def test_bench_single_rung(capsys):
    code, out, _ = run_cli(capsys, "bench", "--ladder", "8:8", "--runs", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,n,median_ms,ratio"
    assert len(lines) == 2
    m, n, median_ms, ratio = lines[1].split(",")
    assert (m, n, ratio) == ("256", "64", "")
    assert float(median_ms) > 0


def test_bench_rejects_zero_runs(capsys, monkeypatch):
    from maxleaf import bench

    def no_generate(spec):
        raise AssertionError("bench generated a graph")

    monkeypatch.setattr(bench, "generate", no_generate)
    with pytest.raises(ValueError, match="runs must be at least 1, got 0"):
        bench.run_ladder((8, 8), runs=0)
    code, out, err = run_cli(capsys, "bench", "--ladder", "8:8", "--runs", "0")
    assert code == 1
    assert out == ""
    assert err == "error: runs must be at least 1, got 0\n"


def test_bench_ladder_has_ratios(capsys):
    code, out, _ = run_cli(capsys, "bench", "--ladder", "8:10", "--runs", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[1].endswith(",")           # first rung: empty ratio
    assert not lines[2].endswith(",")


def test_tight_search_writes_best_instance(tmp_path, capsys):
    out_path = tmp_path / "best.edgelist"
    code, out, _ = run_cli(capsys, "tight-search", "--n-max", "8",
                           "--trials", "300", "--seed", "4", "--out", str(out_path))
    assert code == 0
    assert "alg=" in out and "opt=" in out and "ratio=" in out
    persisted = parse(out_path.read_text())
    header = out.splitlines()[0]
    assert header == f"{persisted.n} {persisted.m}"


def test_tight_search_checks_out_before_searching(tmp_path, capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("tight_search ran")

    monkeypatch.setattr("maxleaf.cli.tight_search", no_search)
    code, out, err = run_cli(capsys, "tight-search", "--n-max", "4", "--trials", "3",
                             "--out", str(tmp_path / "missing" / "x"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_failed_tight_search_keeps_the_previous_out_file(tmp_path, capsys):
    kept = tmp_path / "best.edgelist"
    kept.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "tight-search", "--trials", "0", "--out", str(kept))
    assert (code, out) == (1, "")
    assert kept.read_text() == "3 2\n0 1\n1 2\n"


def test_tight_search_rerun_is_identical(tmp_path, capsys):
    args = ("tight-search", "--n-max", "8", "--trials", "200", "--seed", "6",
            "--out", str(tmp_path / "t.edgelist"))
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_parse_gen_spec_errors():
    with pytest.raises(ValueError, match="unknown generator family"):
        parse_gen_spec("moebius:5", 0)
    with pytest.raises(ValueError, match="parameter"):
        parse_gen_spec("cycle:5:7", 0)
    with pytest.raises(ValueError, match="bad generator"):
        parse_gen_spec("grid:3xq", 0)


def test_missing_input_exit_1(capsys):
    code, _, err = run_cli(capsys, "solve")
    assert code == 1
    assert "no input" in err


def test_unreadable_file_exit_1(capsys):
    code, _, err = run_cli(capsys, "solve", "/nonexistent/path.edgelist")
    assert code == 1


def test_failed_lemma_audit_in_tight_search_exits_4(tmp_path, capsys, monkeypatch):
    import dataclasses

    from maxleaf import tightness
    real = tightness.certify

    def failing_audit(g, t, trace):
        cert, report = real(g, t, trace)
        return cert, dataclasses.replace(report, branch_rank=((0, 1),))

    monkeypatch.setattr(tightness, "certify", failing_audit)
    code, out, err = run_cli(capsys, "tight-search", "--n-max", "8", "--trials", "20",
                             "--out", str(tmp_path / "t.edgelist"))
    assert code == 4
    assert out == ""
    assert err.startswith("certificate violation: edges [")
    assert "lemma audit failed" in err


def test_oracle_disagreement_exit_6(tmp_path, capsys, monkeypatch):
    from maxleaf import tightness
    monkeypatch.setattr(tightness, "max_leaf_cds", lambda g: (0, None))
    code, out, err = run_cli(capsys, "tight-search", "--n-max", "8", "--trials", "20",
                             "--out", str(tmp_path / "t.edgelist"))
    assert code == 6
    assert out == ""
    assert err.startswith("oracle disagreement: ")
    assert "Traceback" not in err
