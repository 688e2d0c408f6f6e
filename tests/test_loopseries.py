"""The series itself: coefficients, exactness against the oracle, structure."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopcorrect.exact import brute_force
from loopcorrect.exceptions import IdentityError, NotConvergedError
from loopcorrect.generate import (
    ising_model,
    random_connected_graph,
    random_factor_model,
    random_tree,
    single_cycle_graph,
)
from loopcorrect.graph import (
    Multigraph,
    SubsetWeights,
    cycle_graph,
    grid_graph,
    two_triangles_graph,
)
from loopcorrect.lbp import LbpOptions, LbpResult, run_lbp, run_lbp_factor
from loopcorrect.loopseries import (
    _factor_betas,
    coefficients_from_beliefs,
    factor_coefficients,
    loop_series_marginal,
    loop_series_marginal_factor,
    loop_series_marginals,
    loop_series_z,
    loop_series_z_factor,
    truncated_series,
)
from loopcorrect.model import (
    FactorModel,
    PairwiseModel,
    to_factor_model,
    uniform_phi,
)
from loopcorrect.poly import f_values, g_values
from oracles import belief_ratio_state_sum, factor_betas_reference, single_cycle_sign_check
from tests.test_lbp import HYPERTREE


def fake_result(model, node_beliefs, pair_tables):
    """A converged LbpResult of a pairwise model; pair_tables holds each
    edge's belief as a 2x2 table, stored flat as its factor belief."""
    return LbpResult(
        node_beliefs=np.asarray(node_beliefs, dtype=float),
        log_z_b=0.0,
        iterations=1,
        converged=True,
        residual=0.0,
        factor_beliefs=list(np.reshape(np.asarray(pair_tables, dtype=float), (-1, 4))),
        model=model,
    )


def test_coefficients_unbiased():
    m = PairwiseModel(Multigraph(2, ((0, 1),)), (((1.0,) * 2,) * 2,), uniform_phi(2))
    res = fake_result(m, [[0.5, 0.5]] * 2, [[[0.25, 0.25], [0.25, 0.25]]])
    coeff = coefficients_from_beliefs(res)
    assert abs(coeff.gamma).max() == 0.0
    assert abs(coeff.xi - 1.0).max() == 0.0
    assert coeff.beta[0] == pytest.approx(0.0, abs=1e-15)


def test_coefficients_hand_case():
    # correlated table over uniform margins: beta = (0.16 - 0.01) / 0.25
    m = PairwiseModel(Multigraph(2, ((0, 1),)), (((1.0,) * 2,) * 2,), uniform_phi(2))
    res = fake_result(m, [[0.5, 0.5]] * 2, [[[0.4, 0.1], [0.1, 0.4]]])
    coeff = coefficients_from_beliefs(res)
    assert coeff.beta[0] == pytest.approx(0.6, rel=1e-13)


def test_coefficients_product_beliefs_give_zero_beta(rng):
    b0, b1 = 0.3, 0.8
    tab = [[(1 - b0) * (1 - b1), (1 - b0) * b1], [b0 * (1 - b1), b0 * b1]]
    m = PairwiseModel(Multigraph(2, ((0, 1),)), (((1.0,) * 2,) * 2,), uniform_phi(2))
    res = fake_result(m, [[1 - b0, b0], [1 - b1, b1]], [tab])
    coeff = coefficients_from_beliefs(res)
    assert coeff.beta[0] == pytest.approx(0.0, abs=1e-15)


def test_coefficients_refuse_tiny_beliefs():
    m = PairwiseModel(Multigraph(2, ((0, 1),)), (((1.0,) * 2,) * 2,), uniform_phi(2))
    res = fake_result(
        m, [[1e-13, 1 - 1e-13], [0.5, 0.5]], [[[0.25, 0.25], [0.25, 0.25]]]
    )
    with pytest.raises(ValueError):
        coefficients_from_beliefs(res)


def test_beta_bounded_at_fixed_points(rng):
    for _ in range(6):
        g = random_connected_graph(6, 9, rng)
        m = ising_model(g, rng, coupling=1.0, field=0.5)
        res = run_lbp(m)
        if not res.converged:
            continue
        coeff = coefficients_from_beliefs(res)
        assert abs(coeff.beta).max() <= 1.0 + 1e-12


def test_series_requires_convergence(rng):
    m = ising_model(two_triangles_graph(), rng, coupling=1.5, field=0.5)
    res = run_lbp(m, LbpOptions(max_iters=2))
    assert not res.converged
    with pytest.raises(NotConvergedError):
        loop_series_z(res)


def test_tree_series_is_bethe(rng):
    m = ising_model(random_tree(8, rng), rng)
    res = run_lbp(m)
    rep = loop_series_z(res)
    assert rep.terms == [(frozenset(), 1.0)]
    assert rep.total == 1.0
    assert rep.z_estimate == pytest.approx(math.exp(brute_force(m).log_z), rel=1e-9)


def test_two_triangles_term_structure(rng):
    g = two_triangles_graph()
    m = ising_model(g, rng, coupling=0.9, field=0.6)
    res = run_lbp(m)
    assert res.converged
    rep = loop_series_z(res)
    coeff = coefficients_from_beliefs(res)
    by_subset = dict(rep.terms)
    left = frozenset({0, 1, 2})
    right = frozenset({4, 5, 6})
    both = left | right
    everything = frozenset(range(7))
    assert set(by_subset) == {frozenset(), left, right, both, everything}
    assert by_subset[frozenset()] == 1.0
    bprod = lambda s: math.prod(coeff.beta[e] for e in sorted(s))
    assert by_subset[left] == pytest.approx(bprod(left), rel=1e-12)
    assert by_subset[right] == pytest.approx(bprod(right), rel=1e-12)
    assert by_subset[both] == pytest.approx(bprod(both), rel=1e-12)
    # bridge endpoints (nodes 2 and 3) reach degree three: factor gamma_2*gamma_3
    assert by_subset[everything] == pytest.approx(
        bprod(everything) * coeff.gamma[2] * coeff.gamma[3], rel=1e-11
    )


def test_series_exact_on_random_model(rng):
    g = random_connected_graph(8, 12, rng)
    m = ising_model(g, rng, coupling=0.9, field=0.5)
    res = run_lbp(m)
    assert res.converged
    rep = loop_series_z(res)
    z = math.exp(brute_force(m).log_z)
    assert rep.z_estimate == pytest.approx(z, rel=1e-8)
    ratio = belief_ratio_state_sum(res.model, res.node_beliefs, res.factor_beliefs)
    assert ratio == pytest.approx(rep.total, abs=1e-9)


def test_series_exact_on_4x5_grid(rng):
    # 583199 generalized loops: the frontier sum never lists them
    m = ising_model(grid_graph(4, 5), rng, coupling=0.5, field=0.3)
    res = run_lbp(m)
    assert res.converged
    exact = brute_force(m)
    rep = loop_series_z(res)
    assert rep.peak_states == 80
    assert abs(rep.log_z_b + math.log(rep.total) - exact.log_z) < 1e-8
    for i in range(20):
        corr = loop_series_marginal(res, i, rep)
        assert abs(corr.corrected_marginal - exact.marginals[i]).max() < 1e-8
    report, corrections = loop_series_marginals(res)
    assert report.total == rep.total and report.peak_states == 80
    assert [c.target for c in corrections] == list(range(20))
    for corr, p in zip(corrections, exact.marginals):
        assert abs(corr.corrected_marginal - p).max() < 1e-8


@pytest.mark.parametrize("rows, cols, total_peak, by_size_peak", [
    (3, 4, 40, 135),
    (4, 5, 80, 1268),
    (5, 5, 80, 1988),
])
def test_z_series_peak_states(rows, cols, total_peak, by_size_peak):
    """The frontier sizes of the Z series on grids, with and without the
    size split: any change to the fold's pruning or field layout shows."""
    m = ising_model(grid_graph(rows, cols), np.random.default_rng(0), coupling=0.5, field=0.3)
    rep = loop_series_z(run_lbp(m))
    assert rep.peak_states == total_peak
    assert rep.weights.frontier_sum(by_size=True)[1] == by_size_peak


def test_pruning_matches_full_subset_sum(rng):
    # identical totals when summing over all 2^|E| subsets with f factors
    g = random_connected_graph(5, 7, rng)
    m = ising_model(g, rng, coupling=0.8, field=0.5)
    res = run_lbp(m)
    assert res.converged
    coeff = coefficients_from_beliefs(res)
    f_tab = [f_values(coeff.gamma[i], d) for i, d in enumerate(g.degrees())]
    terms = []
    for mask in range(1 << len(g.edges)):
        deg = [0] * g.node_count
        r = 1.0
        for e in range(len(g.edges)):
            if (mask >> e) & 1:
                a, b = g.edges[e]
                deg[a] += 1
                deg[b] += 1
                r *= coeff.beta[e]
        for i, d in enumerate(deg):
            r *= f_tab[i][d]
        terms.append(r)
    assert loop_series_z(res).total == pytest.approx(math.fsum(terms), abs=1e-12)


def test_marginal_tree_bias_is_gamma(rng):
    m = ising_model(random_tree(6, rng), rng)
    res = run_lbp(m)
    coeff = coefficients_from_beliefs(res)
    exact = brute_force(m)
    rep = loop_series_z(res)
    for i in range(6):
        corr = loop_series_marginal(res, i, rep)
        assert corr.bias_series == pytest.approx(coeff.gamma[i], rel=1e-12)
        assert abs(corr.corrected_marginal - res.node_beliefs[i]).max() < 1e-12
        assert abs(corr.corrected_marginal - exact.marginals[i]).max() < 1e-9


def test_marginal_exact_on_random_model(rng):
    g = random_connected_graph(8, 11, rng)
    m = ising_model(g, rng, coupling=0.8, field=0.5)
    res = run_lbp(m)
    assert res.converged
    exact = brute_force(m)
    rep = loop_series_z(res)
    for i in range(8):
        corr = loop_series_marginal(res, i, rep)
        assert abs(corr.corrected_marginal - exact.marginals[i]).max() < 1e-8


def test_marginal_symmetric_model_is_uniform():
    j = 0.7
    e, ei = math.exp(j), math.exp(-j)
    m = PairwiseModel(
        cycle_graph(4), (((e, ei), (ei, e)),) * 4, uniform_phi(4)
    )
    res = run_lbp(m)
    corr = loop_series_marginal(res, 0, loop_series_z(res))
    assert corr.corrected_marginal[0] == pytest.approx(0.5, abs=1e-12)


def test_single_cycle_sign_check(rng):
    hits = 0
    for _ in range(50):
        g = single_cycle_graph(int(rng.integers(3, 7)), int(rng.integers(0, 4)), rng)
        m = ising_model(g, rng, coupling=1.5, field=0.8)
        res = run_lbp(m)
        if not res.converged:
            continue
        assert single_cycle_sign_check(res, target=0)
        hits += 1
    assert hits >= 30
    # every node of the cycle as the target; node 4 hangs off the 4-cycle
    m = ising_model(single_cycle_graph(4, 1, rng), rng, coupling=0.5, field=0.5)
    res = run_lbp(m)
    assert res.converged
    for target in range(4):
        assert single_cycle_sign_check(res, target)


def test_single_cycle_strong_interactions(rng):
    g = single_cycle_graph(4, 2, rng)
    m = ising_model(g, rng, coupling=2.5, field=1.0)
    res = run_lbp(m, LbpOptions(max_iters=50_000))
    if res.converged:
        assert single_cycle_sign_check(res, target=0)


# ---------------------------------------------------------------------------
# Factor-graph series
# ---------------------------------------------------------------------------


def test_per_kind_names_are_the_unified_functions():
    assert factor_coefficients is coefficients_from_beliefs
    assert loop_series_z_factor is loop_series_z
    assert loop_series_marginal_factor is loop_series_marginal


def test_factor_coefficients_conventions(rng):
    res = run_lbp_factor(HYPERTREE)
    assert res.converged
    coeff = coefficients_from_beliefs(res)
    for f, (scope, _) in enumerate(HYPERTREE.factors):
        betas = coeff.factor_beta[f]
        assert betas[0] == 1.0
        for q in range(len(scope)):
            assert betas[1 << q] == 0.0
        # the pinned singleton values really do vanish at the fixed point
        nb = np.asarray(res.node_beliefs)
        bf = np.asarray(res.factor_beliefs[f])
        k = len(scope)
        for pos, i in enumerate(scope):
            raw = 0.0
            for idx in range(1 << k):
                bit = (idx >> (k - 1 - pos)) & 1
                s = 1.0 if bit else -1.0
                raw += bf[idx] * s * coeff.xi[i] ** (-s)
            assert raw == pytest.approx(0.0, abs=1e-9)


def test_factor_beta_matches_pairwise(rng):
    g = random_connected_graph(5, 7, rng)
    m = ising_model(g, rng, coupling=0.7, field=0.4)
    res_p = run_lbp(m)
    res_f = run_lbp_factor(to_factor_model(m))
    assert res_p.converged and res_f.converged
    cp = coefficients_from_beliefs(res_p)
    cf = coefficients_from_beliefs(res_f)
    for e in range(len(g.edges)):
        assert cf.factor_beta[e][0b11] == pytest.approx(cp.beta[e], abs=1e-9)


def _betas_or_refusal(betas, res, xi, nb):
    try:
        return betas(res, xi, nb)
    except (IdentityError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), unary=st.integers(0, 3))
def test_grouped_factor_betas_match_per_factor_loop(seed, unary):
    # one batched basis product per arity group against one product per
    # factor, bit for bit, on scopes of arity 1 to 5
    rng = np.random.default_rng(seed)
    fm = random_factor_model(rng, max_vars=8, max_arity=5, max_incidences=18)
    tables = np.exp(rng.uniform(-1.0, 1.0, (unary, 2)))
    fm = FactorModel(fm.variable_count, fm.factors + tuple(
        ((int(v),), tuple(map(float, t)))
        for v, t in zip(rng.integers(0, fm.variable_count, unary), tables)
    ))
    res = run_lbp_factor(fm)
    assume(res.converged)
    nb = np.asarray(res.node_beliefs)
    xi = np.sqrt(nb[:, 1] / nb[:, 0])
    got = _betas_or_refusal(_factor_betas, res, xi, nb)
    assert got == _betas_or_refusal(factor_betas_reference, res, xi, nb)


def test_factor_beta_uniform_beliefs_vanish():
    fm = FactorModel(3, (((0, 1, 2), (1.0,) * 8), ((0,), (1.0, 1.0))))
    res = run_lbp_factor(fm)
    coeff = coefficients_from_beliefs(res)
    for mask, val in enumerate(coeff.factor_beta[0]):
        if mask:
            assert val == pytest.approx(0.0, abs=1e-12)


def test_factor_series_matches_pairwise(rng):
    g = random_connected_graph(6, 8, rng)
    m = ising_model(g, rng, coupling=0.6, field=0.4)
    res_p = run_lbp(m)
    res_f = run_lbp_factor(to_factor_model(m))
    assert res_p.converged and res_f.converged
    tot_p = loop_series_z(res_p).total
    tot_f = loop_series_z(res_f).total
    assert abs(tot_p - tot_f) < 1e-10


def test_factor_series_hypertree_total_is_one():
    res = run_lbp_factor(HYPERTREE)
    rep = loop_series_z(res)
    assert rep.total == pytest.approx(1.0, abs=1e-12)


def test_factor_series_exact_with_arity_three(rng):
    factors = [
        ((0, 1), tuple(math.exp(float(v)) for v in rng.uniform(-1, 1, 4))),
        ((1, 2), tuple(math.exp(float(v)) for v in rng.uniform(-1, 1, 4))),
        ((2, 3), tuple(math.exp(float(v)) for v in rng.uniform(-1, 1, 4))),
        ((3, 4, 5), tuple(math.exp(float(v)) for v in rng.uniform(-1, 1, 8))),
        ((0, 5), tuple(math.exp(float(v)) for v in rng.uniform(-1, 1, 4))),
        ((1, 4), tuple(math.exp(float(v)) for v in rng.uniform(-1, 1, 4))),
    ]
    fm = FactorModel(6, tuple(factors))
    res = run_lbp_factor(fm)
    assert res.converged
    rep = loop_series_z(res)
    z = math.exp(brute_force(fm).log_z)
    assert rep.z_estimate == pytest.approx(z, rel=1e-8)
    exact = brute_force(fm)
    for i in range(6):
        corr = loop_series_marginal(res, i, rep)
        assert abs(corr.corrected_marginal - exact.marginals[i]).max() < 1e-8


def test_factor_marginal_hypertree_is_belief():
    res = run_lbp_factor(HYPERTREE)
    rep = loop_series_z(res)
    for i in range(HYPERTREE.variable_count):
        corr = loop_series_marginal(res, i, rep)
        assert abs(corr.corrected_marginal - res.node_beliefs[i]).max() < 1e-11


def test_factor_marginal_matches_pairwise_route(rng):
    g = random_connected_graph(5, 7, rng)
    m = ising_model(g, rng, coupling=0.6, field=0.3)
    res_p = run_lbp(m)
    fm = to_factor_model(m)
    res_f = run_lbp_factor(fm)
    assert res_p.converged and res_f.converged
    rep_p, rep_f = loop_series_z(res_p), loop_series_z(res_f)
    for i in range(5):
        a = loop_series_marginal(res_p, i, rep_p).corrected_marginal
        b = loop_series_marginal(res_f, i, rep_f).corrected_marginal
        assert abs(a - b).max() < 1e-10


def test_truncated_series(rng):
    m = ising_model(two_triangles_graph(), rng, coupling=0.8, field=0.5)
    res = run_lbp(m)
    rep = loop_series_z(res)
    assert truncated_series(rep, 0) == [(0, 1.0)]
    upto3 = truncated_series(rep, 3)
    assert upto3[-1][1] == pytest.approx(
        1.0 + rep.per_size[3], rel=1e-12
    )
    full = truncated_series(rep, len(m.graph.edges))
    assert full[-1][1] == pytest.approx(rep.total, rel=1e-12)


@st.composite
def series_models(draw):
    """A random connected pairwise model, a zero-field bipartite grid (gamma
    = 0 everywhere, where the per-target sums drop the states with a
    non-target node at odd degree) or a random factor model."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["pairwise", "grid", "factor"]))
    if kind == "factor":
        return random_factor_model(rng, max_vars=6, max_incidences=12)
    if kind == "grid":
        rows = draw(st.integers(min_value=2, max_value=3))
        g = grid_graph(rows, draw(st.integers(min_value=rows, max_value=4)))
        return ising_model(g, rng, coupling=draw(st.floats(0.1, 0.8)), field=0.0)
    n = draw(st.integers(min_value=3, max_value=7))
    m = draw(st.integers(min_value=n - 1, max_value=min(n * (n - 1) // 2, 11)))
    return ising_model(random_connected_graph(n, m, rng), rng, coupling=0.8, field=0.5)


@given(series_models())
@settings(max_examples=60, deadline=None)
def test_all_marginals_match_per_target_sums(model):
    res = run_lbp(model) if isinstance(model, PairwiseModel) else run_lbp_factor(model)
    assume(res.converged)
    z = loop_series_z(res)
    report, corrections = loop_series_marginals(res)
    assert report.total == z.total and report.peak_states >= z.peak_states
    assert report.weights == z.weights
    assert len(corrections) == len(res.node_beliefs)
    for v, corr in enumerate(corrections):
        want = loop_series_marginal(res, v, z)
        assert corr.target == v and corr.series_total == want.series_total
        assert abs(corr.corrected_marginal - want.corrected_marginal).max() <= 1e-14
        assert abs(corr.bias_series - want.bias_series) <= 1e-12 * max(1.0, abs(want.bias_series))
        assert corr.weights == want.weights


def test_all_marginals_of_the_one_node_edgeless_model():
    """No edges: the node is untouched, so its swapped sum is its g_0 times
    the rest of the sum; at gamma = 0 that is 0 and the belief stands."""
    res = run_lbp(PairwiseModel(Multigraph(1, ()), (), uniform_phi(1)))
    z, (corr,) = loop_series_marginals(res)
    assert (z.total, z.peak_states) == (1.0, 1)
    assert corr.bias_series == 0.0 and corr.corrected_marginal.tolist() == [0.5, 0.5]
    # node 1's zero entry drops the sum's one state, but node 1's swap keeps it
    w = SubsetWeights(Multigraph(2, ()), [[2.0], [0.0]])
    assert w.swapped_sums({0: [7.0], 1: [5.0]}) == (0.0, {0: 0.0, 1: 10.0}, 1)


def test_all_marginals_of_a_zero_field_grid():
    """At zero field gamma = 0, so f is zero at odd degrees and g at even
    ones: every swapped sum runs through states that the Z sum prunes (the
    peak doubles), and each is zero by parity, as every marginal is 1/2 by
    symmetry."""
    m = ising_model(grid_graph(4, 4), np.random.default_rng(0), coupling=0.5, field=0.0)
    res = run_lbp(m)
    z = loop_series_z(res)
    assert not z.coefficients.gamma.any()
    g = {v: g_values(0.0, len(t) - 1) for v, t in enumerate(z.weights.node_tables)}
    total, _, peak = z.weights.swapped_sums(g)
    assert total == z.total and (z.peak_states, peak) == (20, 40)
    exact = brute_force(m)
    report, corrections = loop_series_marginals(res)
    assert (report.total, report.peak_states) == (z.total, 40)
    for corr in corrections:
        assert corr.bias_series == 0.0 == loop_series_marginal(res, corr.target, z).bias_series
        assert corr.corrected_marginal.tolist() == [0.5, 0.5]
        assert abs(exact.marginals[corr.target] - 0.5).max() < 1e-12


def test_all_marginals_memory_on_the_10x10_grid():
    """The forward pass stores each step's states as arrays of keys and
    floats: the 10x10 grid's marginals peak at about 5.4 MiB under
    tracemalloc, where dicts of its 300000 stored states would take several
    times 10 MiB."""
    m = ising_model(grid_graph(10, 10), np.random.default_rng(0), 0.5, 0.3)
    res = run_lbp(m)
    tracemalloc.start()
    try:
        loop_series_marginals(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20
