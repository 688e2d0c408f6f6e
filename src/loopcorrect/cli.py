"""Command-line front end.

Commands: lbp, loopseries, oracle, compare, theta, omega, matching, gen.
Exit codes: 0 success, 1 usage or I/O trouble, 2 LBP non-convergence,
3 identity-check failure.  Every computation runs serially in one process.
A command computes and checks everything before it prints; a refusal is an
exception that main reports as one "error: " line on stderr.  A usage error
(a missing or unknown argument or command) is one too: it exits 1.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction

import numpy as np

from .exact import brute_force, check_oracle_size
from .exceptions import IdentityError, LoopcorrectError, NotConvergedError
from .generate import ising_model, make_topology
from .graph import parse_edge_list
from .graphpoly import (
    loop_count_bound,
    matching_polynomial,
    omega,
    omega_determinant_form,
    theta_contraction_deletion,
    theta_direct,
)
from .lbp import LbpOptions, run_lbp, run_lbp_factor
from .loopseries import (
    loop_series_marginal,
    loop_series_marginals,
    loop_series_z,
    truncated_series,
)
from .model import PairwiseModel, model_from_json, pairwise_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_IDENTITY = 3


def _load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _lbp_opts(args) -> LbpOptions:
    return LbpOptions(max_iters=args.max_iters, tol=args.tol, damping=args.damping)


def _run_model_lbp(model, opts):
    if isinstance(model, PairwiseModel):
        return run_lbp(model, opts)
    return run_lbp_factor(model, opts)


def _emit_rows(rows, header, fmt):
    if fmt == "csv":
        sys.stdout.write(",".join(header) + "\n")
        for row in rows:
            sys.stdout.write(",".join(str(c) for c in row) + "\n")
    else:
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(header)
        ]
        sys.stdout.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
        for row in rows:
            sys.stdout.write("  ".join(str(c).ljust(w) for c, w in zip(row, widths)) + "\n")


def cmd_lbp(args) -> int:
    model = _load_model(args.model)
    res = _run_model_lbp(model, _lbp_opts(args))
    rows = [
        (i, f"{b[0]:.12g}", f"{b[1]:.12g}")
        for i, b in enumerate(res.node_beliefs)
    ]
    _emit_rows(rows, ["node", "belief_minus", "belief_plus"], args.format)
    sys.stdout.write(f"log_Z_B = {res.log_z_b:.12g}\n")
    sys.stdout.write(
        f"iterations = {res.iterations}  converged = {res.converged}  "
        f"residual = {res.residual:.3e}\n"
    )
    if not res.converged:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_oracle(args) -> int:
    model = _load_model(args.model)
    res = brute_force(model)
    rows = [
        (i, f"{m[0]:.12g}", f"{m[1]:.12g}") for i, m in enumerate(res.marginals)
    ]
    _emit_rows(rows, ["node", "p_minus", "p_plus"], args.format)
    sys.stdout.write(f"log_Z = {res.log_z:.12g}\n")
    return EXIT_OK


def cmd_loopseries(args) -> int:
    if args.format is not None and not args.terms:
        raise ValueError("--format needs --terms: only the per-term table has a format")
    model = _load_model(args.model)
    if args.target is not None:
        n = model.node_count if isinstance(model, PairwiseModel) else model.variable_count
        if not 0 <= args.target < n:
            raise ValueError(f"target node {args.target} out of range")
    res = _run_model_lbp(model, _lbp_opts(args))
    report = loop_series_z(res)
    # a bad --max-size fails here, before anything is printed
    partials = [] if args.max_size is None else truncated_series(report, args.max_size)
    corr = None if args.target is None else loop_series_marginal(res, args.target, report)
    if args.terms:
        # an exact running sum, rounded once per row: fsum of the prefix
        rows, running = [], Fraction(0)
        for s, r in report.terms:
            running += Fraction(r)
            mask = sum(1 << e for e in s)
            rows.append((mask, len(s), f"{r:.12g}", f"{float(running):.12g}"))
        _emit_rows(rows, ["subset", "size", "r", "partial_sum"], args.format or "table")
    for size, partial in partials:
        sys.stdout.write(f"partial_sum(size<={size}) = {partial:.12g}\n")
    sys.stdout.write(f"series_total = {report.total:.12g}\n")
    sys.stdout.write(f"log_Z_B = {report.log_z_b:.12g}\n")
    sys.stdout.write(f"corrected log_Z = {report.log_z_b + math.log(report.total):.12g}\n")
    if corr is not None:
        sys.stdout.write(
            f"marginal[{args.target}] corrected = "
            f"({corr.corrected_marginal[0]:.12g}, {corr.corrected_marginal[1]:.12g})\n"
        )
    return EXIT_OK


def cmd_compare(args) -> int:
    if not (math.isfinite(args.check_tol) and args.check_tol >= 0.0):
        raise ValueError(f"--check-tol must be finite and non-negative, got {args.check_tol}")
    model = _load_model(args.model)
    # a model too wide for the oracle is refused before LBP runs, and any
    # refusal of the series (an unconverged run, too many states) before
    # the oracle starts
    check_oracle_size(model)
    res = _run_model_lbp(model, _lbp_opts(args))
    report, corrections = loop_series_marginals(res)
    exact = brute_force(model)
    corrected_log_z = report.log_z_b + math.log(report.total)
    rel_err = abs(math.expm1(corrected_log_z - exact.log_z))
    rows = [
        ("log_Z_exact", f"{exact.log_z:.12g}"),
        ("log_Z_B", f"{res.log_z_b:.12g}"),
        ("series_total", f"{report.total:.12g}"),
        ("log(Z_B*total)", f"{corrected_log_z:.12g}"),
        ("bethe_abs_error", f"{abs(res.log_z_b - exact.log_z):.6g}"),
        ("corrected_abs_error", f"{abs(corrected_log_z - exact.log_z):.6g}"),
        ("corrected_rel_error", f"{rel_err:.6g}"),
    ]
    _emit_rows(rows, ["quantity", "value"], args.format)

    marg_rows = []
    worst = 0.0
    for i, corr in enumerate(corrections):
        before = abs(res.node_beliefs[i][1] - exact.marginals[i][1])
        after = abs(corr.corrected_marginal[1] - exact.marginals[i][1])
        worst = max(worst, after)
        marg_rows.append((i, f"{before:.6g}", f"{after:.6g}"))
    _emit_rows(marg_rows, ["node", "belief_error", "corrected_error"], args.format)
    if rel_err > args.check_tol or worst > args.check_tol:
        # a verdict on the printed tables, so it comes after them
        raise IdentityError(
            f"exactness check failed: rel_err={rel_err:.3e} worst_marginal={worst:.3e}"
        )
    return EXIT_OK


def cmd_theta(args) -> int:
    g = _load_graph(args.graph)
    theta = (
        theta_contraction_deletion(g) if args.method == "cd" else theta_direct(g)
    )
    if args.check:
        other = theta_direct(g) if args.method == "cd" else theta_contraction_deletion(g)
        if theta.poly != other.poly:
            raise IdentityError("direct and contraction-deletion theta disagree")
        bound = loop_count_bound(g, theta)
    sys.stdout.write(f"theta = {theta.poly}\n")
    if args.check:
        sys.stdout.write(
            f"loop_count = {bound.count}  bound = {bound.bound:.9g}  "
            f"attained = {bound.attained}\n"
        )
    return EXIT_OK


def cmd_omega(args) -> int:
    g = _load_graph(args.graph)
    w = omega(g)
    if args.check:
        omega_determinant_form(g, w)
    sys.stdout.write(f"omega = {w.poly}\n")
    if args.check:
        sys.stdout.write("determinant-sum identity holds\n")
    return EXIT_OK


def cmd_matching(args) -> int:
    g = _load_graph(args.graph)
    alpha = matching_polynomial(g)
    sys.stdout.write(f"alpha = {alpha.poly}\n")
    return EXIT_OK


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    topo_args = args.topology[1:]
    g = make_topology(args.topology[0], topo_args, rng)
    model = ising_model(g, rng, coupling=args.coupling, field=args.field)
    text = pairwise_to_json(model)
    if args.output == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def _add_lbp_flags(p):
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--damping", type=float, default=0.5)
    p.add_argument("--max-iters", type=int, default=10_000)


def _add_format_flag(p, default="table"):
    p.add_argument("--format", choices=["table", "csv"], default=default)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError for main to
    report; add_subparsers builds its subparsers of the same class."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one, so in-process callers of main() parse without rebuilding it.
    parse_args leaves it unchanged, so callers must not change it either."""
    parser = _Parser(
        prog="loopcorrect",
        description=(
            "Exact loop-series corrections to loopy belief propagation, plus "
            "the associated graph polynomials."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lbp", help="run LBP and print beliefs and log Z_B")
    p.add_argument("--model", required=True)
    _add_lbp_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=cmd_lbp)

    p = sub.add_parser("oracle", help="exact log Z and marginals by variable elimination")
    p.add_argument("--model", required=True)
    _add_format_flag(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("loopseries", help="evaluate the loop series")
    p.add_argument("--model", required=True)
    p.add_argument("--target", type=int, default=None, help="marginal target node")
    p.add_argument("--max-size", type=int, default=None, help="truncation report")
    p.add_argument("--terms", action="store_true", help="dump the per-term table")
    _add_lbp_flags(p)
    _add_format_flag(p, default=None)
    p.set_defaults(func=cmd_loopseries)

    p = sub.add_parser("compare", help="oracle vs Bethe vs corrected values")
    p.add_argument("--model", required=True)
    p.add_argument("--check-tol", type=float, default=1e-8)
    _add_lbp_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("theta", help="the bivariate subgraph-sum polynomial")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--method", choices=["direct", "cd"], default="direct")
    p.add_argument("--check", action="store_true", help="run cross-identities")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("omega", help="theta at xi=sqrt(-1) over (1-b)^(|E|-|V|)")
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--check", action="store_true",
        help="check the matching form against the theta route (determinant-sum identity)",
    )
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("matching", help="matching polynomial")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_matching)

    p = sub.add_parser("gen", help="write a seeded random model JSON")
    p.add_argument(
        "topology",
        nargs="+",
        help="tree N | cycle N | grid R C | example1 | random N M",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coupling", "-J", type=float, default=1.0)
    p.add_argument("--field", "-H", dest="field", type=float, default=0.5)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NotConvergedError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NOT_CONVERGED
    except IdentityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IDENTITY
    except (OSError, ValueError, IndexError, LoopcorrectError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
