"""Smoke test of the benchmark harness: every workload's code path, untraced
and traced, on tiny stand-ins (3x3 grid, K4, a 10-model corpus)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
UNITS = dict(run.END_TO_END + run.PER_LAYER)

# Counters that must repeat exactly from one traced run to the next.
EXACT_COUNTS = (
    "graph.loops_out",
    "loopseries.terms",
    "loopseries.z_calls",
    "lbp.iters_pairwise",
    "lbp.iters_factor",
    "exact.states",
)


def test_spec_matches_harness():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in SPEC[key]] == list(table)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_emitted(name, trace, tmp_path):
    res, _ = run.run_workload(name, 3, 0.0, trace, tmp_path, tiny=True)
    line = run.result_line(res, UNITS)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in want]
    for m in want:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
        commands = {f"{op.argv[0]}_s" for op in run.build(name, 3, tmp_path / "x", tiny=True).ops}
        assert commands | {"op_p50_s", "op_tail_s"} <= set(res.extra)
    json.dumps(line)


@pytest.mark.parametrize("name", ["series_grid", "lbp_grid"])
def test_traced_counts_repeat(name, tmp_path):
    wl = run.build(name, 5, tmp_path, tiny=True)
    counts = [
        {k: run.measure(wl, 0.0, trace=True).metrics[k] for k in EXACT_COUNTS}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    worked = ("loopseries.terms", "exact.states") if name == "series_grid" else (
        "lbp.iters_pairwise", "lbp.iters_factor")
    assert all(counts[0][k] > 0 for k in worked)


def test_failed_ops_count_in_fail_frac(tmp_path):
    wl = run.build("series_grid", 0, tmp_path, tiny=True)
    model = wl.ops[1].argv[2]
    wl.ops += [
        # nonzero exit: the input file does not exist
        run.Op("theta", ["theta", "--graph", str(tmp_path / "missing.txt")], run.check_ran),
        # exit 0 but the output disagrees with the (wrong) reference
        run.Op(
            "loopseries",
            ["loopseries", "--model", model, "--target", "5"],
            run.check_loopseries(1.0, 5, (0.5, 0.5)),
        ),
    ]
    res = run.measure(wl, 0.0, trace=False)
    passes = res.attempted // len(wl.ops)
    assert res.failed == 2 * passes
    assert not run.result_line(res, UNITS)["correct"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "poly_check", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
