"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line; the shared random pairwise corpus is
built once and reused by the partition-function and marginal criteria.
"""

import math
import time

import numpy as np
import pytest

from loopcorrect.exact import brute_force
from loopcorrect.generate import (
    ising_model,
    random_connected_graph,
    random_factor_model,
    random_tree,
)
from loopcorrect.graph import cycle_graph, is_connected, two_triangles_graph
from loopcorrect.graphpoly import (
    _omega_by_theta,
    loop_count_bound,
    omega,
    omega_determinant_form,
    theta_at_beta1,
    theta_contraction_deletion,
    theta_direct,
)
from loopcorrect.lbp import LbpOptions, run_lbp, run_lbp_factor
from loopcorrect.loopseries import (
    coefficients_from_beliefs,
    loop_series_marginal,
    loop_series_z,
)
from loopcorrect.model import to_factor_model
from loopcorrect.poly import UniPoly
from tests.conftest import (
    bouquet_graph,
    corpus_graphs,
    corpus_loop_free,
    corpus_simple_connected,
    single_cycle_graph,
)
from tests.oracles import (
    brute_force_reference,
    contract,
    delete,
    f_product_identity_check,
    loop_identity_subset_sum,
    loop_identity_tables,
    omega_at_1_count,
    regular_graph_matching_check,
    single_cycle_sign_check,
)

OPTS = LbpOptions(tol=1e-12)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def pairwise_corpus():
    """>= 200 converged random pairwise models with their oracle results,
    series reports and the wall time the whole pipeline took."""
    rng = np.random.default_rng(1234)
    runs = []
    t0 = time.monotonic()
    while len(runs) < 200:
        n = int(rng.integers(4, 11))
        m_edges = int(rng.integers(n - 1, min(14, n * (n - 1) // 2) + 1))
        g = random_connected_graph(n, m_edges, rng)
        model = ising_model(g, rng, coupling=1.0, field=0.5)
        res = run_lbp(model, OPTS)
        if not res.converged:
            continue
        exact = brute_force(model)
        report = loop_series_z(res)
        runs.append((model, res, exact, report))
    elapsed = time.monotonic() - t0
    return runs, elapsed


def test_criterion_1_partition_function_exactness(pairwise_corpus):
    runs, elapsed = pairwise_corpus
    worst = 0.0
    for model, res, exact, report in runs:
        z = math.exp(exact.log_z)
        worst = max(worst, abs(report.z_estimate - z) / z)
    ok = worst < 1e-8 and elapsed < 60.0
    _report(
        1,
        ok,
        f"{len(runs)} models, worst relative Z error {worst:.2e}, "
        f"pipeline time {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_marginal_exactness(pairwise_corpus):
    runs, _ = pairwise_corpus
    worst = 0.0
    for model, res, exact, report in runs:
        for i in range(model.node_count):
            corr = loop_series_marginal(res, i, report)
            worst = max(
                worst, float(abs(corr.corrected_marginal - exact.marginals[i]).max())
            )
    _report(2, worst < 1e-8, f"worst corrected-marginal error {worst:.2e}")


def test_criterion_3_tree_exactness():
    rng = np.random.default_rng(77)
    worst_total = worst_logz = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        model = ising_model(random_tree(n, rng), rng, coupling=1.0, field=0.5)
        res = run_lbp(model, OPTS)
        assert res.converged
        report = loop_series_z(res)
        exact = brute_force(model)
        worst_total = max(worst_total, abs(report.total - 1.0))
        worst_logz = max(worst_logz, abs(res.log_z_b - exact.log_z))
    ok = worst_total < 1e-10 and worst_logz < 1e-9
    _report(
        3,
        ok,
        f"50 trees: |total-1| <= {worst_total:.2e}, |logZB-logZ| <= {worst_logz:.2e}",
    )


def test_criterion_4_two_triangles_reproduction():
    rng = np.random.default_rng(5)
    g = two_triangles_graph()
    model = ising_model(g, rng, coupling=0.8, field=0.4)
    res = run_lbp(model, OPTS)
    assert res.converged
    report = loop_series_z(res)
    coeff = coefficients_from_beliefs(res)
    by_subset = dict(report.terms)
    left, right = frozenset({0, 1, 2}), frozenset({4, 5, 6})
    expected_subsets = {frozenset(), left, right, left | right, frozenset(range(7))}
    checks = [set(by_subset) == expected_subsets, len(report.terms) == 5]
    prod = lambda s: math.prod(coeff.beta[e] for e in sorted(s))
    checks.append(by_subset[frozenset()] == 1.0)
    checks.append(math.isclose(by_subset[left], prod(left), rel_tol=1e-11))
    checks.append(math.isclose(by_subset[right], prod(right), rel_tol=1e-11))
    checks.append(
        math.isclose(by_subset[left | right], prod(left | right), rel_tol=1e-11)
    )
    # the 7-edge subset carries the product of all betas times the biases of
    # the two degree-three bridge endpoints
    full = frozenset(range(7))
    checks.append(
        math.isclose(
            by_subset[full],
            prod(full) * coeff.gamma[2] * coeff.gamma[3],
            rel_tol=1e-10,
        )
    )
    _report(4, all(checks), "5 contributing subsets with the printed structure")


def test_criterion_5_factor_graph_exactness():
    rng = np.random.default_rng(4321)
    worst = 0.0
    worst_marg = 0.0
    accepted = 0
    while accepted < 100:
        fm = random_factor_model(rng, max_vars=8, max_arity=3, max_incidences=14)
        res = run_lbp_factor(fm, OPTS)
        if not res.converged:
            continue
        report = loop_series_z(res)
        exact = brute_force(fm)
        z = math.exp(exact.log_z)
        worst = max(worst, abs(report.z_estimate - z) / z)
        for i in range(fm.variable_count):
            corr = loop_series_marginal(res, i, report)
            worst_marg = max(
                worst_marg,
                float(abs(corr.corrected_marginal - exact.marginals[i]).max()),
            )
        accepted += 1
    worst_pair = 0.0
    for _ in range(20):
        g = random_connected_graph(6, int(rng.integers(6, 10)), rng)
        model = ising_model(g, rng, coupling=0.5, field=0.3)
        res_p = run_lbp(model, OPTS)
        fm = to_factor_model(model)
        res_f = run_lbp_factor(fm, OPTS)
        if not (res_p.converged and res_f.converged):
            continue
        worst_pair = max(
            worst_pair,
            abs(loop_series_z(res_p).total - loop_series_z(res_f).total),
        )
    ok = worst < 1e-8 and worst_marg < 1e-8 and worst_pair < 1e-10
    _report(
        5,
        ok,
        f"{accepted} factor models, worst rel Z error {worst:.2e}, "
        f"worst marginal error {worst_marg:.2e}; "
        f"pairwise-reduction gap {worst_pair:.2e}",
    )


def test_criterion_6_state_sum_identities():
    rng = np.random.default_rng(99)
    worst_plain = worst_weighted = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        m_edges = int(rng.integers(n - 1, min(12, n * (n - 1) // 2) + 1))
        g = random_connected_graph(n, m_edges, rng)
        beta = rng.uniform(-1, 1, size=len(g.edges))
        xi = rng.uniform(0.5, 2.5, size=n)
        lhs = brute_force_reference(n, loop_identity_tables(g, beta, xi)).value
        rhs = loop_identity_subset_sum(g, beta, xi)
        worst_plain = max(worst_plain, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        target = int(rng.integers(0, n))
        lw = brute_force_reference(n, loop_identity_tables(g, beta, xi, target)).value
        rw = loop_identity_subset_sum(g, beta, xi, weight_node=target)
        worst_weighted = max(worst_weighted, abs(lw - rw) / max(1.0, abs(lw), abs(rw)))
    ok = worst_plain < 1e-10 and worst_weighted < 1e-10
    _report(
        6,
        ok,
        f"100 assignments: plain {worst_plain:.2e}, weighted {worst_weighted:.2e}",
    )


def test_criterion_7_single_cycle_sign():
    rng = np.random.default_rng(2718)
    accepted = 0
    matches = 0
    while accepted < 100:
        g = single_cycle_graph(int(rng.integers(3, 7)), int(rng.integers(0, 4)), rng)
        model = ising_model(g, rng, coupling=2.0, field=1.0)
        res = run_lbp(model, LbpOptions(tol=1e-12, max_iters=30_000))
        if not res.converged:
            continue
        accepted += 1
        if single_cycle_sign_check(res, target=0):
            matches += 1
    _report(7, matches == accepted, f"{matches}/{accepted} sign agreements")


def test_criterion_8_polynomial_identities():
    t0 = time.monotonic()
    failures = []
    graphs = corpus_graphs()
    for g in graphs:
        if theta_direct(g).poly != theta_contraction_deletion(g).poly:
            failures.append(f"theta direct/cd mismatch on {g}")
        theta_at_beta1(g)  # raises on mismatch
        w = omega(g).poly
        if not all(isinstance(c, int) for c in w.coeffs.values()):
            failures.append(f"omega not integer on {g}")
        if w != _omega_by_theta(g).poly:
            failures.append(f"omega's matching form differs from the theta route on {g}")
        one_b = UniPoly({1: 1}, "b")
        for e, (a, b) in enumerate(g.edges):
            if a == b:
                continue
            gd = delete(g, e)
            if not is_connected(gd)[0]:
                continue
            if omega(g).poly != omega(gd).poly + one_b * omega(contract(g, e)).poly:
                failures.append(f"omega recurrence fails on {g} edge {e}")
    for n in range(1, 21):
        for m in range(1, 21):
            if not f_product_identity_check(n, m):
                failures.append(f"f product identity fails at {n},{m}")
    for L in (1, 2, 3):
        if omega(bouquet_graph(L)).poly != UniPoly({0: 1, 1: 2 * L - 1}, "b"):
            failures.append(f"bouquet omega fails at L={L}")
    for g in corpus_simple_connected():
        omega_determinant_form(g)  # raises on mismatch
    for g in [cycle_graph(n) for n in (3, 4, 5, 6)] + [
        gg for gg in graphs if gg.is_simple() and gg.node_count == 4 and len(gg.edges) == 6
    ]:
        if not regular_graph_matching_check(g):
            failures.append(f"regular-graph identity fails on {g}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    _report(
        8,
        ok,
        f"symbolic battery on {len(graphs)} corpus graphs in {elapsed:.1f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_9_loop_count_bound():
    failures = []
    for g in corpus_graphs():
        b = loop_count_bound(g)
        if b.count > b.bound + 1e-9:
            failures.append(f"bound violated on {g}")
        if (abs(b.count - b.bound) < 1e-9) != b.attained:
            failures.append(f"equality/degree-condition mismatch on {g}")
    two = loop_count_bound(two_triangles_graph())
    if not (two.count == 5 and abs(two.bound - 5.0) < 1e-9 and two.attained):
        failures.append("two-triangles graph does not attain 5/5")
    _report(
        9,
        not failures,
        "bound holds with equality iff max degree <= 3"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_10_omega_at_one_counting():
    failures = []
    for g in corpus_loop_free():
        value, count = omega_at_1_count(g)
        if value != count:
            failures.append(f"count mismatch on {g}")
    for n in (3, 4):
        value, count = omega_at_1_count(cycle_graph(n))
        if (value, count) != (2, 2):
            failures.append(f"cycle C{n} expected (2, 2), got {(value, count)}")
    _report(
        10,
        not failures,
        "omega(1) equals the injective incident-assignment count"
        + (f"; failures: {failures}" if failures else ""),
    )
