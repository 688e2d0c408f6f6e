"""Fixed-seed benchmark of the loopcorrect command line.

    python3 bench/run.py                               # all four workloads
    python3 bench/run.py --workload series_grid --seed 0 --seconds 30
    python3 bench/run.py --workload corpus_small --trace 1

Each workload runs in its own process as a closed loop: one client calls
``loopcorrect.cli.main(argv)`` in-process, one op at a time, and checks every
op's output.  Inputs are generated from ``--seed`` during set-up and written
as model-JSON and edge-list files, so each op parses its input as a user's
invocation does.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(per-command times, input digest, versions) goes to ``.bench_out/``.
See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("series_grid", "lbp_grid", "corpus_small", "poly_check")
COMMANDS = ("compare", "loopseries", "lbp", "theta", "omega")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 30
# A run keeps starting passes until the next one would end past --seconds,
# but always makes at least MIN_PASSES, so every timing is a median of two
# or more passes even where one pass is longer than the run.
MIN_PASSES = 2
SETUP_REPS = 5
IMPORT_REPS = 3
REL_TOL = 1e-8
TAIL_SAMPLES = 10  # samples required beyond the reported tail percentile

# The host is shared: other tenants slow every op by up to 1.7x, in phases
# lasting from a second to minutes, so raw pass times spread by 10-35%
# between runs.  Each untraced op is therefore bracketed by two runs of a
# fixed calibration kernel, and its time is rescaled to the speed at which
# the kernel takes CAL_REF_S (its median on a quiet 2-core x86_64 sandbox;
# the constant sets only the scale).
CAL_REF_S = 8.0e-4

END_TO_END = (
    ("wall_norm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("graph.loops_s", "s"),
    ("graph.loops_calls", "count"),
    ("graph.loops_out", "count"),
    ("graph.cycles_s", "s"),
    ("graph.cycles_out", "count"),
    ("loopseries.coeff_s", "s"),
    ("loopseries.coeff_calls", "count"),
    ("loopseries.z_s", "s"),
    ("loopseries.z_calls", "count"),
    ("loopseries.marg_s", "s"),
    ("loopseries.marg_calls", "count"),
    ("loopseries.terms", "count"),
    ("loopseries.peak_alloc_mb", "MB"),
    ("loopseries.cancel_ratio", "ratio"),
    ("loopseries.max_rel_err", "rel"),
    ("lbp.run_s", "s"),
    ("lbp.iters_pairwise", "count"),
    ("lbp.iters_factor", "count"),
    ("lbp.s_per_iter", "s/iter"),
    ("lbp.bethe_s", "s"),
    ("exact.oracle_s", "s"),
    ("exact.states", "count"),
    ("exact.peak_alloc_mb", "MB"),
    ("model.parse_s", "s"),
    ("model.absorb_s", "s"),
    ("graphpoly.theta_direct_s", "s"),
    ("graphpoly.theta_direct_calls", "count"),
    ("graphpoly.theta_cd_s", "s"),
    ("graphpoly.bound_s", "s"),
    ("graphpoly.omega_s", "s"),
    ("graphpoly.omega_calls", "count"),
    ("graphpoly.det_s", "s"),
    ("graphpoly.peak_alloc_mb", "MB"),
    ("poly.exact_divide_s", "s"),
    ("poly.theta_terms", "count"),
    ("poly.max_coeff_bits", "bits"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "frac"),
)


class CheckError(Exception):
    """An op's output did not pass its check."""


@dataclass
class Op:
    """One CLI invocation and the check its output must pass.

    check(out, state) raises CheckError or returns the op's error against
    the exact reference (None where there is no such reference); state is a
    dict shared by the ops of one pass.
    """

    command: str
    argv: list
    check: Callable[[str, dict], Optional[float]]


@dataclass
class Workload:
    ops: list
    workdir: Path


@dataclass
class PassResult:
    wall: float
    op_times: list  # (command, seconds) per op, in op order
    failures: list  # (argv, message)
    max_err: float = 0.0
    cal_times: list = field(default_factory=list)  # kernel seconds before op 0 and after each op


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _number(pattern: str, text: str) -> float:
    m = re.search(pattern, text, re.M)
    if m is None:
        raise CheckError(f"output has no match for {pattern!r}")
    return float(m.group(1))


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def check_ran(out: str, state: dict) -> None:
    """theta / omega: exit 0 (tested by the caller) is the whole check."""
    return None


def check_compare(out: str, state: dict) -> float:
    """compare applies its own 1e-8 check through its exit code; report the
    worst corrected error it printed."""
    errs = [_number(r"^corrected_rel_error\s+(\S+)", out)]
    errs += [float(x) for x in re.findall(r"^\d+\s+\S+\s+(\S+)$", out, re.M)]
    return max(errs)


def check_loopseries(ref_log_z: float, target: int, ref_marginal) -> Callable:
    def check(out: str, state: dict) -> float:
        m = re.search(
            rf"^marginal\[{target}\] corrected = \((\S+), (\S+)\)$", out, re.M
        )
        if m is None:
            raise CheckError(f"no corrected marginal for node {target}")
        errs = [
            _rel(_number(r"^corrected log_Z = (\S+)", out), ref_log_z),
            _rel(float(m.group(1)), ref_marginal[0]),
            _rel(float(m.group(2)), ref_marginal[1]),
        ]
        if max(errs) > REL_TOL:
            raise CheckError(f"series differs from the oracle by {max(errs):.3e}")
        return max(errs)

    return check


def check_lbp(key: str) -> Callable:
    """The pairwise and the factor form of one model run through separate
    code paths; the second of the two to finish must match the first."""

    def check(out: str, state: dict) -> None:
        if "converged = True" not in out:
            raise CheckError("LBP did not report convergence")
        log_z_b = _number(r"^log_Z_B = (\S+)$", out)
        first = state.setdefault(key, log_z_b)
        if _rel(log_z_b, first) > REL_TOL:
            raise CheckError(f"log Z_B {log_z_b!r} != other form's {first!r}")
        return None

    return check


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

def _write(path: Path, text: str) -> str:
    path.write_text(text + ("" if text.endswith("\n") else "\n"), encoding="utf-8")
    return str(path)


def _series_grid(rng, wd: Path, tiny: bool) -> list:
    """The 3x4 grid rather than the 4x4 one: a pass takes about 0.3 s
    instead of 14 s, so a run times each op about a hundred times rather
    than twice, and the calibration kernel around an op tracks the host's
    speed during it."""
    from loopcorrect.exact import brute_force
    from loopcorrect.generate import ising_model
    from loopcorrect.graph import grid_graph
    from loopcorrect.model import factor_to_json, pairwise_to_json, to_factor_model

    model = ising_model(grid_graph(3, 3 if tiny else 4), rng, coupling=0.5, field=0.3)
    pairwise = _write(wd / "grid.json", pairwise_to_json(model))
    factor = _write(wd / "grid_factor.json", factor_to_json(to_factor_model(model)))
    ref = brute_force(model)
    target = 5
    check = check_loopseries(ref.log_z, target, ref.marginals[target])
    series = ["--target", str(target)]
    return [
        Op("compare", ["compare", "--model", pairwise], check_compare),
        Op("loopseries", ["loopseries", "--model", pairwise, *series], check),
        Op("loopseries", ["loopseries", "--model", factor, *series], check),
    ]


def _lbp_grid(rng, wd: Path, tiny: bool) -> list:
    """Eight 10x10 grid models rather than one large grid: LBP's iteration
    count varies with the draw (about 25% between seeds on a 30x30 grid),
    and the total over eight draws varies about a fifth as much."""
    from loopcorrect.generate import ising_model
    from loopcorrect.graph import grid_graph
    from loopcorrect.model import factor_to_json, pairwise_to_json, to_factor_model

    side = 3 if tiny else 10
    ops = []
    for k in range(8):
        model = ising_model(grid_graph(side, side), rng, coupling=0.5, field=0.3)
        pairwise = _write(wd / f"lbp{k}.json", pairwise_to_json(model))
        factor = _write(wd / f"lbp{k}_factor.json", factor_to_json(to_factor_model(model)))
        check = check_lbp(f"lbp{k}")
        ops.append(Op("lbp", ["lbp", "--model", pairwise], check))
        ops.append(Op("lbp", ["lbp", "--model", factor], check))
    return ops


CORPUS_STRUCTURE_SEED = 0
CORPUS_MAX_REDRAWS = 100


def _corpus_small(rng, wd: Path, tiny: bool) -> list:
    """The acceptance recipe's models: 80 pairwise models on 4-10 nodes and
    at most 14 edges (J=1.0, h=0.5), then 40 random factor models.  A pass
    takes 2.5-5 s, so a run times each op six to twelve times.

    A compare op's time is set by the number of generalized loops of its
    graph, which the potentials do not change.  With graphs drawn from the
    seed, a pass took from 7 s to 11 s depending on the seed, so the graphs
    and factor scopes are drawn once from CORPUS_STRUCTURE_SEED and the seed
    draws only the potentials and tables.  The sizes are stratified: the k-th
    pairwise model with n nodes takes the k-th edge count of n's range,
    cyclically.  A draw on which LBP does not converge is redrawn."""
    import numpy as np
    from loopcorrect.generate import ising_model, random_connected_graph, random_factor_model
    from loopcorrect.lbp import run_lbp, run_lbp_factor
    from loopcorrect.model import FactorModel, factor_to_json, pairwise_to_json

    def converged(draw, run):
        for _ in range(CORPUS_MAX_REDRAWS):
            model = draw()
            if run(model).converged:
                return model
        raise RuntimeError(f"no converged draw in {CORPUS_MAX_REDRAWS} tries")

    def tables(fm):
        return FactorModel(fm.variable_count, tuple(
            (scope, tuple(float(np.exp(rng.uniform(-1.0, 1.0))) for _ in table))
            for scope, table in fm.factors
        ))

    structure = np.random.default_rng(CORPUS_STRUCTURE_SEED)
    n_pairwise, n_factor = (7, 3) if tiny else (80, 40)
    texts = []
    for i in range(n_pairwise):
        n = 4 + i % 7
        lo, hi = n - 1, min(14, n * (n - 1) // 2)
        g = random_connected_graph(n, lo + (i // 7) % (hi - lo + 1), structure)
        model = converged(lambda: ising_model(g, rng, coupling=1.0, field=0.5), run_lbp)
        texts.append(pairwise_to_json(model))
    for _ in range(n_factor):
        fm = random_factor_model(structure, max_vars=8, max_arity=3, max_incidences=14)
        texts.append(factor_to_json(converged(lambda: tables(fm), run_lbp_factor)))
    return [
        Op("compare", ["compare", "--model", _write(wd / f"c{i:03d}.json", text)], check_compare)
        for i, text in enumerate(texts)
    ]


def _poly_check(rng, wd: Path, tiny: bool) -> list:
    """Fixed graphs, all inside ENUMERATION_CAP and DETERMINANT_CAP; the
    seed does not change them.  Each op takes under a second (theta on the
    3x5 grid and on K6 took 1-2 s), so a run times each op about twenty
    times and the calibration kernel around an op tracks the host's speed
    during it."""
    from loopcorrect.graph import complete_graph, grid_graph, render_edge_list

    clique = _write(wd / "clique.txt", render_edge_list(complete_graph(4 if tiny else 6)))
    grid = _write(wd / "grid.txt", render_edge_list(grid_graph(3, 3 if tiny else 4)))
    return [
        Op("theta", ["theta", "--graph", grid, "--check"], check_ran),
        Op("theta", ["theta", "--graph", grid, "--method", "cd", "--check"], check_ran),
        Op("omega", ["omega", "--graph", clique, "--check"], check_ran),
        Op("omega", ["omega", "--graph", grid, "--check"], check_ran),
    ]


BUILDERS = {
    "series_grid": _series_grid,
    "lbp_grid": _lbp_grid,
    "corpus_small": _corpus_small,
    "poly_check": _poly_check,
}


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Generate the workload's input files from the seed; same seed, same
    bytes.  tiny selects the stand-ins the smoke test uses."""
    import numpy as np

    workdir.mkdir(parents=True, exist_ok=True)
    ops = BUILDERS[name](np.random.default_rng(seed), workdir, tiny)
    return Workload(ops, workdir)


def input_digest(workdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in workdir.iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def calibration_kernel() -> float:
    """About 0.8 ms of dict, float and small-array work, the mix the program's
    own ops do.  It uses nothing from loopcorrect, so a change to the
    program can change its time only through the caches the op before it
    left; the host's speed changes it fully."""
    import numpy as np

    counts: dict = {}
    x = 0.0
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        x += (i * 0.5) ** 0.5
    a = np.arange(64.0)
    for _ in range(30):
        a = np.sqrt(a + 1.0)
    return x + float(a[-1])


def time_kernel() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def normalized(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """seconds rescaled to the host speed at which the kernel takes CAL_REF_S."""
    return 2.0 * CAL_REF_S * seconds / (kernel_before + kernel_after)


def run_pass(ops: list, tracer=None, calibrate: bool = False) -> PassResult:
    """One pass over ops.  calibrate times the calibration kernel before the
    first op and after each op, outside the ops' own times."""
    from loopcorrect import cli

    gc.collect()
    state: dict = {}
    res = PassResult(wall=0.0, op_times=[], failures=[])
    start = time.perf_counter()
    if calibrate:
        res.cal_times.append(time_kernel())
    for op_id, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = op_id
            span = tracer.open("cli")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op.argv)
        except Exception as exc:  # a traceback out of the CLI is a failed op
            rc, message = None, f"{type(exc).__name__}: {exc}"
        res.op_times.append((op.command, time.perf_counter() - t0))
        if calibrate:
            res.cal_times.append(time_kernel())
        if tracer is not None:
            tracer.close(span)
        if rc == 0:
            try:
                e = op.check(out.getvalue(), state)
                if e is not None:
                    res.max_err = max(res.max_err, e)
                continue
            except CheckError as exc:
                message = str(exc)
        elif rc is not None:
            message = f"exit {rc}: {err.getvalue().strip()[:200]}"
        res.failures.append((op.argv, message))
    res.wall = time.perf_counter() - start
    return res


def tail(samples: list) -> tuple[float, str]:
    """The highest percentile with TAIL_SAMPLES samples beyond it; with
    fewer than 2 * TAIL_SAMPLES samples, the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_SAMPLES:
        return xs[-1], f"max of {n}"
    k = n - TAIL_SAMPLES - 1
    return xs[k], f"p{100.0 * (k + 1) / n:.1f} of {n}"


def e2e_metrics(passes: list) -> tuple[dict, dict]:
    """Each op's latency is its median over the passes.  wall_s and the
    per-command times sum those medians; op_p50_s and op_tail_s are taken
    over them.  Medians per op discard the bursts in which other tenants of
    the machine slow a few ops, which a median of whole passes would keep.

    wall_norm_s sums per-op medians too, after each op's time in each pass
    is scaled by CAL_REF_S over the mean of the two kernel times around it,
    so a slow phase of the host slows the kernel and the op alike."""
    n = len(passes[0].op_times)
    per_op = [statistics.median(p.op_times[i][1] for p in passes) for i in range(n)]
    norm = [
        statistics.median(
            normalized(p.op_times[i][1], p.cal_times[i], p.cal_times[i + 1]) for p in passes
        )
        for i in range(n)
    ]
    commands = [c for c, _ in passes[0].op_times]
    op_tail, label = tail(per_op)
    metrics = {"wall_norm_s": sum(norm)}
    extra = {"wall_s": sum(per_op)}
    extra.update({f"{cmd}_s": sum(t for c, t in zip(commands, per_op) if c == cmd)
                  for cmd in COMMANDS if cmd in commands})
    extra.update(op_p50_s=statistics.median(per_op), op_tail_s=op_tail, op_tail=label,
                 kernel_s=statistics.median(c for p in passes for c in p.cal_times))
    return metrics, extra


def layer_metrics(tracer, mem, untraced: PassResult, traced: PassResult) -> dict:
    st, c = tracer.self_times(), tracer.counts
    iters = c["lbp.iters_pairwise"] + c["lbp.iters_factor"]

    def peak(prefix):
        return max((v for k, v in mem.peak_mb.items() if k.startswith(prefix)), default=0.0)

    special = {
        "loopseries.peak_alloc_mb": peak("loopseries."),
        "loopseries.max_rel_err": traced.max_err,
        "lbp.s_per_iter": st["lbp.run"] / iters if iters else 0.0,
        "exact.peak_alloc_mb": peak("exact."),
        "graphpoly.peak_alloc_mb": peak("graphpoly."),
        "cli.self_s": st["cli"],
        "trace.overhead_frac": (traced.wall - untraced.wall) / untraced.wall,
    }
    out = {}
    for name, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith("_s"):
            out[name] = float(st[name[:-2]])
        else:
            out[name] = c[name]
    return out


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict
    extra: dict = field(default_factory=dict)  # reported, not in BENCHMARK.json
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def measure(wl: Workload, seconds: float, trace: bool) -> RunResult:
    """Untraced: passes until the next would end past `seconds` (at least
    MIN_PASSES).  Traced: one untraced pass, one timed traced pass and one
    tracemalloc pass."""
    from spans import Tracer

    passes = []
    if not trace:
        deadline = time.perf_counter() + seconds
        while True:
            passes.append(run_pass(wl.ops, calibrate=True))
            est = statistics.median(p.wall for p in passes)
            if len(passes) >= MIN_PASSES and time.perf_counter() + est > deadline:
                break
    else:
        passes.append(run_pass(wl.ops))
        tracer, mem = Tracer(), Tracer(memory=True)
        for t in (tracer, mem):
            t.install()
            try:
                passes.append(run_pass(wl.ops, t))
            finally:
                t.uninstall()
    failures = [f for p in passes for f in p.failures]
    res = RunResult(
        attempted=len(wl.ops) * len(passes), failed=len(failures), metrics={}, failures=failures
    )
    if trace:
        res.metrics = layer_metrics(tracer, mem, passes[0], passes[1])
        res.spans = tracer.spans
    else:
        res.metrics, res.extra = e2e_metrics(passes)
        res.extra["passes"] = len(passes)
        res.extra["pass_walls_s"] = [round(p.wall, 4) for p in passes]
    return res


def bracketed(step: Callable[[], float]) -> tuple[float, float]:
    """Run step(), which returns the seconds it measured, between two runs of
    the calibration kernel; return (raw, normalized) seconds."""
    before = time_kernel()
    seconds = step()
    return seconds, normalized(seconds, before, time_kernel())


def import_seconds() -> float:
    """Time to import numpy and loopcorrect.cli in a fresh interpreter, timed
    inside the child so interpreter start-up is left out."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
        "import numpy, loopcorrect.cli; print(time.perf_counter() - t)"
    )
    return float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, check=True).stdout)


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 tiny: bool = False) -> tuple[RunResult, Workload]:
    """Set up SETUP_REPS times (generate, write, references, warm-up on the
    tiny stand-ins), then measure.  setup_s adds the median import time of
    IMPORT_REPS fresh interpreters; each set-up step is normalized by the
    calibration kernel around it, as the ops are."""
    built = []

    def setup_step() -> float:
        t0 = time.perf_counter()
        built.append(build(name, seed, workdir / "inputs", tiny))
        run_pass(build(name, seed, workdir / "warmup", tiny=True).ops)
        return time.perf_counter() - t0

    reps = [bracketed(setup_step) for _ in range(SETUP_REPS)]
    wl = built[-1]
    res = measure(wl, seconds, trace)
    if not trace:
        imports = [bracketed(import_seconds) for _ in range(IMPORT_REPS)]
        import_s, build_s = (statistics.median(r[1] for r in xs) for xs in (imports, reps))
        res.metrics["setup_s"] = import_s + build_s
        res.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        res.extra.update(
            setup_raw_s=statistics.median(r[0] for r in imports) + statistics.median(r[0] for r in reps),
            import_s=import_s, setup_build_s=build_s,
        )
    return res, wl


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def result_line(res: RunResult, units: dict) -> dict:
    return {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res.metrics.items()},
    }


def _print_table(name: str, res: RunResult, units: dict, digest: str) -> None:
    print(f"workload {name}  inputs sha256 {digest[:16]}")
    for k, v in {**res.metrics, **res.extra}.items():
        if isinstance(v, float):
            print(f"  {k:30s} {v:.6g} {units.get(k, 's')}")
        else:
            print(f"  {k:30s} {v} {units.get(k, '')}")
    print(f"  {'fail_frac':30s} {res.failed / res.attempted:.6g} ({res.failed}/{res.attempted} ops)")
    for argv, message in res.failures[:5]:
        print(f"  FAILED {' '.join(argv)}: {message}")


def run_one(args) -> int:
    import numpy

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        res, wl = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
        digest = input_digest(wl.workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = dict(END_TO_END + PER_LAYER)
    line = result_line(res, units)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sha256": digest,
        "fail_frac": res.failed / res.attempted,
        "extra": res.extra,
        "failures": [[" ".join(a), m] for a, m in res.failures],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **line,
    }
    with open(OUT / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        spans = {"ops": [" ".join(op.argv) for op in wl.ops], "spans": res.spans}
        (OUT / f"spans-{args.workload}-s{args.seed}.json").write_text(json.dumps(spans))
    _print_table(args.workload, res, units, digest)
    print(json.dumps(line))
    return 0 if res.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} printed no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "loopcorrect" / "cli.py").is_file():
        sys.stderr.write(f"error: no loopcorrect sources under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


sys.path[:0] = [str(Path(__file__).resolve().parent), str(SRC)]

if __name__ == "__main__":
    sys.exit(main())
