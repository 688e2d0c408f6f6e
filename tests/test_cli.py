"""End-to-end command line behaviour and exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import loopcorrect
from loopcorrect import graph
from loopcorrect.cli import main
from loopcorrect.exact import brute_force
from loopcorrect.generate import ising_model, random_factor_model
from loopcorrect.graph import (
    SubsetWeights,
    complete_graph,
    cycle_graph,
    enumerate_generalized_loops,
    grid_graph,
    render_edge_list,
    two_triangles_graph,
)
from loopcorrect.graphpoly import theta_direct
from loopcorrect.lbp import run_lbp, run_lbp_factor
from loopcorrect.loopseries import loop_series_marginals, loop_series_z
from loopcorrect.model import (
    PairwiseModel,
    factor_to_json,
    model_from_json,
    pairwise_to_json,
    to_factor_model,
)
from tests.conftest import circular_ladder
from tests.test_generate import NoDraws


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    rc = main(["gen", "example1", "--seed", "11", "-J", "0.5", "-o", str(path)])
    assert rc == 0
    return path


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(render_edge_list(two_triangles_graph()))
    return path


def test_parser_reuse_leaks_no_state(model_file, capsys):
    # main() reuses one parser: every call prints what the same command
    # prints in a fresh interpreter, whatever ran before it in the process
    m = str(model_file)
    calls = [
        (["loopseries", "--model", m, "--target", "1"], 0),
        (["loopseries", "--model", m], 0),
        (["compare", "--model", m, "--check-tol", "1e-30"], 3),
        (["compare", "--model", m, "--no-such-flag"], 1),
        (["compare", "--model", m], 0),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(loopcorrect.__file__).parents[1])}
    for argv, code in calls:
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == code
        fresh = subprocess.run([sys.executable, "-m", "loopcorrect.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err)
        if argv[0] == "loopseries":
            assert ("marginal[" in out) == ("--target" in argv)


def test_gen_topologies(tmp_path):
    out = tmp_path / "m.json"
    assert main(["gen", "example1", "--seed", "1", "-o", str(out)]) == 0
    m = model_from_json(out.read_text())
    assert m.graph == two_triangles_graph()

    assert main(["gen", "tree", "7", "--seed", "1", "-o", str(out)]) == 0
    m = model_from_json(out.read_text())
    assert m.node_count == 7 and len(m.graph.edges) == 6

    assert main(["gen", "cycle", "5", "--seed", "2", "-o", str(out)]) == 0
    m = model_from_json(out.read_text())
    assert len(m.graph.edges) == 5

    assert main(["gen", "grid", "2", "3", "--seed", "3", "-o", str(out)]) == 0
    m = model_from_json(out.read_text())
    assert m.node_count == 6 and len(m.graph.edges) == 7

    assert main(["gen", "random", "6", "9", "--seed", "4", "-o", str(out)]) == 0
    m = model_from_json(out.read_text())
    assert m.node_count == 6 and len(m.graph.edges) == 9


def test_gen_sparse_random_writes_a_tree(tmp_path):
    # 29 of the 435 pairs on 30 nodes are almost never a spanning tree, so
    # this takes the sampler's direct construction
    out = tmp_path / "t.json"
    assert main(["gen", "random", "30", "29", "--seed", "0", "-o", str(out)]) == 0
    g = model_from_json(out.read_text()).graph
    assert g.node_count == 30 and len(g.edges) == 29
    assert len(enumerate_generalized_loops(g)) == 1  # a tree: only the empty loop


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["gen", "random", "7", "9", "--seed", "99", "-o", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_lbp_command(model_file, capsys):
    assert main(["lbp", "--model", str(model_file)]) == 0
    out = capsys.readouterr().out
    assert "log_Z_B" in out and "converged = True" in out


def test_oracle_command(model_file, capsys):
    assert main(["oracle", "--model", str(model_file), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("node,p_minus,p_plus")
    assert "log_Z" in out


def test_loopseries_command(model_file, capsys):
    rc = main(
        [
            "loopseries",
            "--model",
            str(model_file),
            "--terms",
            "--max-size",
            "3",
            "--target",
            "0",
            "--format",
            "csv",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "subset,size,r,partial_sum" in out
    assert "series_total" in out and "marginal[0]" in out


def test_terms_partial_sums_are_fsum_prefixes(model_file, capsys):
    # the running sum is exact, so each row prints fsum of its whole prefix
    assert main(["loopseries", "--model", str(model_file), "--terms", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(",") for line in lines[1:] if line.count(",") == 3]
    model = model_from_json(model_file.read_text())
    terms = loop_series_z(run_lbp(model)).terms
    assert len(rows) == len(terms) > 2
    prefixes = [math.fsum(r for _, r in terms[: k + 1]) for k in range(len(terms))]
    assert [row[3] for row in rows] == [f"{p:.12g}" for p in prefixes]


def test_compare_command_ok(model_file, capsys):
    assert main(["compare", "--model", str(model_file)]) == 0
    out = capsys.readouterr().out
    for needle in (
        "log_Z_exact",
        "log_Z_B",
        "series_total",
        "corrected_rel_error",
        "corrected_error",
    ):
        assert needle in out


def test_compare_identity_failure_exit_code(model_file, capsys):
    # an absurdly tight tolerance forces the identity-check exit path; the
    # verdict follows the tables it judges
    assert main(["compare", "--model", str(model_file), "--check-tol", "1e-30"]) == 3
    cap = capsys.readouterr()
    assert "corrected_rel_error" in cap.out
    assert cap.err.startswith("error: exactness check failed") and cap.err.count("\n") == 1


def test_non_convergence_exit_code(model_file, monkeypatch, capsys):
    import loopcorrect.cli as cli

    assert main(["lbp", "--model", str(model_file), "--max-iters", "2"]) == 2
    capsys.readouterr()
    # the series refuses an unconverged run before compare starts the
    # oracle, on wide models its most costly stage
    calls = []
    monkeypatch.setattr(cli, "brute_force", lambda model: calls.append(model))
    for command in ("loopseries", "compare"):
        assert main([command, "--model", str(model_file), "--max-iters", "2"]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith("error: LBP did not converge") and cap.err.count("\n") == 1
    assert calls == []


@pytest.mark.parametrize("case", ["target", "omega", "theta"])
def test_refusal_prints_nothing_on_stdout(case, model_file, graph_file, tmp_path,
                                          monkeypatch, capsys):
    # every check runs before the first line is printed
    if case == "target":
        argv, code = ["loopseries", "--model", str(model_file), "--target", "99"], 1
    elif case == "omega":
        # K11's theta route outgrows STATE_CAP
        path = tmp_path / "k11.txt"
        path.write_text(render_edge_list(complete_graph(11)))
        argv, code = ["omega", "--graph", str(path), "--check"], 1
    else:
        import loopcorrect.cli as cli

        monkeypatch.setattr(cli, "theta_contraction_deletion",
                            lambda g: theta_direct(cycle_graph(3)))
        argv, code = ["theta", "--graph", str(graph_file), "--check"], 3
    assert main(argv) == code
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1


@pytest.mark.parametrize("kind", ["pairwise", "factor"])
@pytest.mark.parametrize("target", ["99", "-1"])
def test_target_is_checked_before_lbp(kind, target, model_file, tmp_path, monkeypatch, capsys):
    import loopcorrect.cli as cli

    def no_lbp(*args):
        raise AssertionError("LBP ran for an out-of-range target")

    monkeypatch.setattr(cli, "run_lbp", no_lbp)
    monkeypatch.setattr(cli, "run_lbp_factor", no_lbp)
    path = model_file
    if kind == "factor":
        path = tmp_path / "factor.json"
        path.write_text(factor_to_json(to_factor_model(model_from_json(model_file.read_text()))))
    assert main(["loopseries", "--model", str(path), "--target", target]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"error: target node {target} out of range\n"


@pytest.mark.parametrize("kind", ["pairwise", "factor"])
@pytest.mark.parametrize("max_iters", ["10000", "1"])
def test_compare_checks_the_oracle_size_before_lbp(kind, max_iters, tmp_path, monkeypatch,
                                                    capsys):
    # the 2x17 grid's frontier holds 18 variables: compare refuses it from
    # the oracle's plan before LBP runs, so a run that would not converge
    # in --max-iters exits 1, not 2
    import loopcorrect.cli as cli

    def no_lbp(*args):
        raise AssertionError("LBP ran on a model too wide for the oracle")

    monkeypatch.setattr(cli, "run_lbp", no_lbp)
    monkeypatch.setattr(cli, "run_lbp_factor", no_lbp)
    model = ising_model(grid_graph(2, 17), np.random.default_rng(0))
    text = pairwise_to_json(model) if kind == "pairwise" else factor_to_json(to_factor_model(model))
    path = tmp_path / "wide.json"
    path.write_text(text)
    assert main(["compare", "--model", str(path), "--max-iters", max_iters]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: variable elimination holds ")
    assert cap.err.count("\n") == 1


@pytest.mark.parametrize("kind", ["pairwise", "factor"])
def test_compare_sums_the_series_once(kind, model_file, tmp_path, monkeypatch, capsys):
    # Z and every marginal come from one swapped_sums pass, whose forward
    # pass is the Z sum bit for bit
    model = model_from_json(model_file.read_text())
    path = model_file
    if kind == "factor":
        model = to_factor_model(model)
        path = tmp_path / "factor.json"
        path.write_text(factor_to_json(model))
    res = run_lbp(model) if kind == "pairwise" else run_lbp_factor(model)
    assert loop_series_marginals(res)[0].total == loop_series_z(res).total

    def no_plain_sum(*args, **kwargs):
        raise AssertionError("compare ran a plain frontier sum")

    passes = []
    swapped_sums = SubsetWeights.swapped_sums
    monkeypatch.setattr(SubsetWeights, "frontier_sum", no_plain_sum)
    monkeypatch.setattr(SubsetWeights, "swapped_sums",
                        lambda self, alt: passes.append(alt) or swapped_sums(self, alt))
    assert main(["compare", "--model", str(path)]) == 0
    assert "corrected_error" in capsys.readouterr().out
    assert len(passes) == 1


def test_compare_refuses_the_series_before_the_oracle(tmp_path, monkeypatch, capsys):
    # the zero-field 4x4 grid's one pass peaks at 40 states (the Z sum
    # alone at 20): past a cap of 30 compare refuses before the oracle runs
    import loopcorrect.cli as cli

    def no_oracle(model):
        raise AssertionError("the oracle ran before the series was refused")

    monkeypatch.setattr(cli, "brute_force", no_oracle)
    monkeypatch.setattr(graph, "STATE_CAP", 30)
    path = tmp_path / "grid.json"
    path.write_text(pairwise_to_json(
        ising_model(grid_graph(4, 4), np.random.default_rng(0), coupling=0.5, field=0.0)))
    assert main(["compare", "--model", str(path)]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: the frontier sum needs more than 30 states\n"


def test_compare_past_25_variables(tmp_path, capsys):
    # 36 variables: the oracle's frontier holds 7 of them
    path = tmp_path / "grid.json"
    assert main(["gen", "grid", "6", "6", "--seed", "3", "-o", str(path)]) == 0
    assert main(["compare", "--model", str(path)]) == 0
    out = capsys.readouterr().out
    assert float(re.search(r"^corrected_rel_error\s+(\S+)", out, re.M).group(1)) < 1e-8


@pytest.mark.parametrize("argv", [
    ["--check-tol", "nan"],
    ["--check-tol", "inf"],
    ["--check-tol=-1e-8"],
    ["--tol", "nan"],
    ["--tol", "inf"],
])
def test_non_finite_tolerances(model_file, capsys, argv):
    assert main(["compare", "--model", str(model_file), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_lbp_needs_one_sweep(model_file, capsys):
    # with no sweep the beliefs would come from uniform messages
    assert main(["lbp", "--model", str(model_file), "--max-iters", "0"]) == 1
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.startswith("error: ") and cap.err.count("\n") == 1
    assert main(["compare", "--model", str(model_file), "--max-iters=-1"]) == 1
    assert capsys.readouterr().err.startswith("error: max_iters must be at least 1")


def test_negative_max_size(model_file, capsys):
    # no size is <= -1: there is no partial sum to print, not a sum of 0
    assert main(["loopseries", "--model", str(model_file), "--terms", "--max-size", "-1"]) == 1
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.startswith("error: ") and cap.err.count("\n") == 1


@pytest.mark.parametrize("argv, name", [
    (["theta", "--check"], "theta_direct"),
    (["theta", "--method", "cd", "--check"], "theta_direct"),
    (["omega", "--check"], "omega"),
])
def test_check_builds_the_polynomial_once(tmp_path, monkeypatch, argv, name):
    import loopcorrect.cli as cli
    import loopcorrect.graphpoly as graphpoly

    calls = []
    fn = getattr(graphpoly, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for mod in (cli, graphpoly):
        monkeypatch.setattr(mod, name, counted)
    path = tmp_path / "grid.txt"
    path.write_text(render_edge_list(grid_graph(3, 4)))
    assert main([argv[0], "--graph", str(path), *argv[1:]]) == 0
    assert len(calls) == 1


def test_polynomial_commands(graph_file, capsys):
    assert main(["theta", "--graph", str(graph_file), "--method", "cd", "--check"]) == 0
    out = capsys.readouterr().out
    assert "theta = 1 + 2*b^3 + b^6 + b^7*g^2" in out
    assert "attained = True" in out

    assert main(["omega", "--graph", str(graph_file), "--check"]) == 0
    out = capsys.readouterr().out
    assert "omega = 1 + b + b^2 + 3*b^3 + 3*b^4 + 3*b^5 + 4*b^6" in out

    assert main(["matching", "--graph", str(graph_file)]) == 0
    out = capsys.readouterr().out
    assert "alpha =" in out


def test_theta_cd_on_long_cycle(tmp_path, capsys):
    # a cycle of any length series-reduces to one self-loop, so both
    # methods solve and check a 1500-edge cycle
    path = tmp_path / "cycle.txt"
    path.write_text(render_edge_list(cycle_graph(1500)))
    assert main(["theta", "--graph", str(path), "--method", "cd"]) == 0
    assert capsys.readouterr().out == "theta = 1 + b^1500\n"
    assert main(["theta", "--graph", str(path), "--check"]) == 0
    assert capsys.readouterr().out.startswith("theta = 1 + b^1500\nloop_count = 2 ")
    # every node of a circular ladder has degree three, so its core keeps
    # all 501 edges: refused with one line, not a RecursionError traceback
    path.write_text(render_edge_list(circular_ladder(167)))
    assert main(["theta", "--graph", str(path), "--method", "cd"]) == 1
    assert capsys.readouterr().err == (
        "error: 501 edges in the 2-core exceed the contraction-deletion cap 500\n"
    )


def test_omega_past_the_old_determinant_cap(tmp_path, capsys):
    # 16 nodes: the determinant sum was refused past 12 nodes
    grid = tmp_path / "grid.txt"
    grid.write_text(render_edge_list(grid_graph(4, 4)))
    assert main(["omega", "--graph", str(grid), "--check"]) == 0
    assert capsys.readouterr().out.endswith("\ndeterminant-sum identity holds\n")
    # K10: theta outgrows STATE_CAP, but the theta route at g = 2i does not
    clique = tmp_path / "k10.txt"
    clique.write_text(render_edge_list(complete_graph(10)))
    assert main(["omega", "--graph", str(clique), "--check"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("omega = 1 + 35*b + ")
    assert out.endswith("\ndeterminant-sum identity holds\n")
    # K12: the matching form needs no theta; --check needs the theta route,
    # whose frontier outgrows STATE_CAP, so it exits 1 with one line
    clique.write_text(render_edge_list(complete_graph(12)))
    assert main(["omega", "--graph", str(clique)]) == 0
    assert capsys.readouterr().out.startswith("omega = 1 + ")
    assert main(["omega", "--graph", str(clique), "--check"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the frontier sum needs more than") and err.count("\n") == 1


def test_usage_errors(tmp_path):
    assert main(["oracle", "--model", str(tmp_path / "missing.json")]) == 1
    assert main(["gen", "tree", "-o", str(tmp_path / "x.json")]) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("nope")
    assert main(["theta", "--graph", str(bad)]) == 1


_EDGE = {"i": 0, "j": 1, "psi": [[1.0, 2.0], [2.0, 1.0]]}
_GRAPH_FILES = {
    "empty.txt": "",
    "short.txt": "2 3\n0 1\n",
    "nodeless.txt": "0 0\n",
    "split.txt": "4 2\n0 1\n2 3\n",
    "three_fields.txt": "3 1\n0 1 2\n",
    "negative_m.txt": "3 -1\n",
}
_MODEL_FILES = {
    "list.json": [1, 2],
    "psi3.json": {"nodes": 2, "edges": [{**_EDGE, "psi": [[1, 2], [2, 1], [1, 1]]}]},
    "phi3.json": {"nodes": 2, "edges": [_EDGE], "phi": [[1, 2, 3], [1, 1]]},
    "phi_empty.json": {"nodes": 2, "edges": [_EDGE], "phi": []},
    "vars0.json": {"vars": 0, "factors": []},
    "scope5.json": {"vars": 2, "factors": [{"scope": [0, 5], "table": [1, 1, 1, 1]}]},
    "isolated.json": {"nodes": 1, "edges": [], "phi": [[1, 2]]},
    "ok.json": {"nodes": 2, "edges": [_EDGE]},
    # an undamped message update of this arity-5 model sums to zero
    "zero_sum.json": json.loads(factor_to_json(random_factor_model(
        np.random.default_rng(11), max_vars=8, max_arity=5, max_incidences=18, strength=300.0
    ))),
}


@pytest.mark.parametrize("argv, message", [
    (["compare"], "the following arguments are required: --model"),
    (["bogus"], "invalid choice: 'bogus'"),
    (["compare", "--model", "ok.json", "--format", "json"], "invalid choice: 'json'"),
    (["compare", "--model", "ok.json", "--format", "xml"], "invalid choice: 'xml'"),
    (["gen", "bogus", "3"], "unknown topology 'bogus'"),
    (["gen", "cycle", "2"], "cycle needs at least 3 nodes"),
    (["theta", "--graph", "empty.txt"], "empty edge-list input"),
    (["theta", "--graph", "short.txt"], "expected 3 edge lines, got 1"),
    (["theta", "--graph", "nodeless.txt"], "node_count must be positive"),
    (["omega", "--graph", "split.txt"], "omega needs a connected graph"),
    (["oracle", "--model", "list.json"], "model JSON must be an object"),
    (["oracle", "--model", "psi3.json"], "edge potentials must be 2x2"),
    (["oracle", "--model", "phi3.json"], "node potentials must have 2 entries"),
    (["oracle", "--model", "phi_empty.json"], "one node potential table per node required"),
    (["oracle", "--model", "vars0.json"], "variable_count must be positive"),
    (["oracle", "--model", "scope5.json"], "variable id 5 out of range"),
    (["lbp", "--model", "isolated.json"], "node 0 is isolated"),
    (["lbp", "--model", "ok.json", "--damping", "1"], "damping must be in [0, 1)"),
    (["lbp", "--model", "zero_sum.json", "--damping", "0"],
     "a message update summed to zero or a non-finite value"),
    (["loopseries", "--model", "ok.json", "--format", "csv"], "--format needs --terms"),
    (["theta", "--graph", "three_fields.txt"], "edge line 1 must be 'a b', got '0 1 2'"),
    (["matching", "--graph", "negative_m.txt"], "the edge count M must be non-negative, got -1"),
])
def test_refusals_exit_1_with_one_line(tmp_path, monkeypatch, capsys, argv, message):
    # usage errors included: each leaves stdout empty and writes one line
    for name, text in _GRAPH_FILES.items():
        (tmp_path / name).write_text(text)
    for name, doc in _MODEL_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1
    assert message in cap.err


@pytest.mark.parametrize("argv", [["-h"], ["compare", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: loopcorrect")


def test_gen_writes_to_stdout(tmp_path, capsys):
    # without -o the model goes to stdout, byte for byte what -o writes
    assert main(["gen", "example1", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert model_from_json(out).graph == two_triangles_graph()
    path = tmp_path / "m.json"
    assert main(["gen", "example1", "--seed", "1", "-o", str(path)]) == 0
    assert path.read_text() == out


@pytest.mark.parametrize("topology, message", [
    (["grid", "3"], "grid needs R C"),
    (["grid", "3", "x"], "grid needs R C"),
    (["tree"], "tree needs N"),
    (["cycle", "2.5"], "cycle needs N"),
    (["random", "5"], "random needs N M"),
    (["grid", "2", "3", "4"], "grid needs R C"),
    (["example1", "5"], "example1 takes no arguments"),
])
def test_gen_argument_errors(tmp_path, capsys, topology, message):
    assert main(["gen", *topology, "-o", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("doc, field", [
    ({"nodes": 2, "edges": [{"i": 0, "j": 1}]}, "psi"),
    ({"vars": 2, "factors": [{"scope": [0, 1]}]}, "table"),
    ({"nodes": "x", "edges": [_EDGE]}, "nodes"),
    ({"nodes": 2.5, "edges": [_EDGE]}, "nodes"),
    ({"nodes": 2, "edges": [_EDGE], "phi": 3}, "phi"),
    ({"nodes": 2, "edges": [_EDGE], "phi": 0}, "phi"),
])
def test_malformed_model_json(tmp_path, capsys, doc, field):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--model", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(field) in err


@pytest.mark.parametrize("command", ["compare", "lbp"])
@pytest.mark.parametrize("doc", [
    {"nodes": 10**12, "edges": []},
    {"vars": 10**12, "factors": [{"scope": [0, 1], "table": [1, 1, 1, 1]}]},
])
def test_declared_count_is_checked_before_allocation(tmp_path, capsys, command, doc):
    # a node or variable count that the edges or scopes cannot cover exits
    # at once with one short line, before anything of that size is built
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--model", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
    assert str(10**12) in err


@pytest.mark.parametrize("command", ["compare", "lbp"])
def test_deeply_nested_model_json(tmp_path, capsys, command):
    # json.loads recurses once per level; past its limit the document is
    # refused with one line, not a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    assert main([command, "--model", str(path)]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: model JSON nests too deeply\n"


def test_gen_random_edge_count_is_checked_before_any_draw(tmp_path, monkeypatch, capsys):
    import loopcorrect.cli as cli

    monkeypatch.setattr(cli.np.random, "default_rng", lambda seed: NoDraws())
    path = tmp_path / "m.json"
    assert main(["gen", "random", "65536", "2000000000", "-o", str(path)]) == 1
    cap = capsys.readouterr()
    assert cap.out == "" and not path.exists()
    assert cap.err == "error: 2000000000 edges exceed the generator cap of 262144\n"


@pytest.mark.parametrize("command", ["theta", "omega", "matching"])
def test_edge_list_node_count_is_checked_before_allocation(tmp_path, capsys, command):
    # a header above NODE_CAP exits at once with one line, before a list of
    # its size is built: a degree list of 10^12 nodes would take 8 TB
    path = tmp_path / "big.txt"
    path.write_text(f"{10**12} 0\n")
    tracemalloc.start()
    try:
        assert main([command, "--graph", str(path)]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1
    assert str(10**12) in cap.err
    assert peak < 1 << 20


def test_factor_model_via_cli(tmp_path, capsys):
    doc = {
        "vars": 3,
        "factors": [
            {"scope": [0, 1], "table": [1.2, 0.8, 0.9, 1.1]},
            {"scope": [1, 2], "table": [1.1, 0.9, 0.7, 1.3]},
            {"scope": [0, 2], "table": [0.9, 1.2, 1.1, 0.8]},
        ],
    }
    path = tmp_path / "factor.json"
    path.write_text(json.dumps(doc))
    assert main(["compare", "--model", str(path)]) == 0
    out = capsys.readouterr().out
    assert "corrected_rel_error" in out


def test_huge_partition_function(tmp_path, capsys):
    # every psi entry scaled by e^70 puts log Z near 847, past exp's range
    m = ising_model(grid_graph(3, 3), np.random.default_rng(5), coupling=0.5, field=0.3)
    scaled = tuple(
        tuple(tuple(v * math.exp(70) for v in row) for row in tab)
        for tab in m.edge_potentials
    )
    big = PairwiseModel(m.graph, scaled, m.node_potentials)
    path = tmp_path / "big.json"
    path.write_text(pairwise_to_json(big))
    exact = brute_force(big)
    assert exact.log_z > 709
    assert main(["compare", "--model", str(path)]) == 0
    out = capsys.readouterr().out
    assert float(re.search(r"^corrected_rel_error\s+(\S+)", out, re.M).group(1)) < 1e-8
    assert main(["loopseries", "--model", str(path), "--target", "4"]) == 0
    out = capsys.readouterr().out
    log_z = float(re.search(r"^corrected log_Z = (\S+)", out, re.M).group(1))
    assert abs(log_z - exact.log_z) / exact.log_z < 1e-8
    p = re.search(r"^marginal\[4\] corrected = \((\S+), (\S+)\)", out, re.M)
    assert abs(float(p.group(2)) - exact.marginals[4][1]) < 1e-8


def test_terms_listing_cap(tmp_path, capsys):
    # the 6x6 grid's series is summed without listing its ~2.6e12 loops
    path = tmp_path / "grid.json"
    assert main(["gen", "grid", "6", "6", "--seed", "2", "-J", "0.5", "-H", "0.3",
                 "-o", str(path)]) == 0
    assert main(["loopseries", "--model", str(path)]) == 0
    assert "series_total" in capsys.readouterr().out
    assert main(["loopseries", "--model", str(path), "--terms"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "generalized loops exceed the listing cap" in err


def test_max_size_lists_zero_sum_sizes(tmp_path, capsys):
    # at zero field gamma = 0 and odd f values vanish, so every odd-size
    # loop weighs zero; its size is still reported, with an unchanged sum
    path = tmp_path / "grid.json"
    assert main(["gen", "grid", "3", "3", "--seed", "1", "-J", "0.5", "-H", "0",
                 "-o", str(path)]) == 0
    assert main(["loopseries", "--model", str(path), "--max-size", "9"]) == 0
    rows = re.findall(r"^partial_sum\(size<=(\d+)\) = (\S+)$", capsys.readouterr().out, re.M)
    sizes = [int(k) for k, _ in rows]
    loops = enumerate_generalized_loops(grid_graph(3, 3))
    assert sizes == sorted({len(s) for s in loops if len(s) <= 9})
    partial = dict(zip(sizes, (p for _, p in rows)))
    assert 7 in partial and partial[7] == partial[6]


def test_edgeless_pairwise_model(tmp_path, capsys):
    # no edges, so no edge beliefs: the series is the Bethe term alone and
    # Z is the two states of the one free node
    path = tmp_path / "edgeless.json"
    path.write_text('{"nodes": 1, "edges": []}')
    assert main(["compare", "--model", str(path), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = dict(line.split(",") for line in lines if line.count(",") == 1)
    assert float(rows["series_total"]) == 1.0
    assert float(rows["log_Z_exact"]) == float(rows["log_Z_B"]) == float(f"{math.log(2):.12g}")
    assert main(["loopseries", "--model", str(path), "--target", "0"]) == 0
    out = capsys.readouterr().out
    assert "series_total = 1\n" in out and "marginal[0] corrected = (0.5, 0.5)\n" in out
