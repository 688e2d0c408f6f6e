"""The brute-force oracle and the two-sided subset-sum identities."""

import math

import numpy as np
import pytest

from loopcorrect.exact import (
    brute_force,
    belief_ratio_state_sum,
    belief_ratio_state_sum_from_beliefs,
    loop_identity_state_sum,
    loop_identity_subset_sum,
)
from loopcorrect.exceptions import SizeError
from loopcorrect.generate import (
    ising_model,
    random_connected_graph,
    random_factor_model,
    random_tree,
)
from loopcorrect.graph import Multigraph, cycle_graph, two_triangles_graph
from loopcorrect.lbp import run_lbp, run_lbp_factor
from loopcorrect.model import FactorModel, PairwiseModel, to_factor_model, uniform_phi
from oracles import brute_force_reference


def test_single_edge_uniform():
    m = PairwiseModel(Multigraph(2, ((0, 1),)), (((1.0,) * 2,) * 2,), uniform_phi(2))
    res = brute_force(m)
    assert math.exp(res.log_z) == pytest.approx(4.0, rel=1e-14)
    assert abs(res.marginals - 0.5).max() < 1e-14
    assert abs(res.pair_marginals[0] - 0.25).max() < 1e-14


def test_single_edge_closed_form():
    j = 0.5
    e, ei = math.exp(j), math.exp(-j)
    m = PairwiseModel(
        Multigraph(2, ((0, 1),)), (((e, ei), (ei, e)),), uniform_phi(2)
    )
    res = brute_force(m)
    assert math.exp(res.log_z) == pytest.approx(2 * e + 2 * ei, rel=1e-14)


def test_factor_model_all_ones():
    fm = FactorModel(
        3,
        (
            ((0, 1), (1.0,) * 4),
            ((0, 1, 2), (1.0,) * 8),
            ((1,), (1.0,) * 2),
        ),
    )
    res = brute_force(fm)
    assert math.exp(res.log_z) == pytest.approx(8.0, rel=1e-14)
    assert res.factor_marginals[1].sum() == pytest.approx(1.0, abs=1e-14)


def test_vectorized_matches_reference(rng):
    for _ in range(5):
        g = random_connected_graph(5, 7, rng)
        m = ising_model(g, rng, coupling=1.5, field=1.0)
        fast = brute_force(m)
        slow = brute_force_reference(m)
        assert fast.log_z == pytest.approx(slow.log_z, abs=1e-12)
        assert abs(fast.marginals - slow.marginals).max() < 1e-12


def test_marginal_consistency(rng):
    m = ising_model(two_triangles_graph(), rng, coupling=1.0, field=0.7)
    res = brute_force(m)
    assert abs(res.marginals.sum(axis=1) - 1.0).max() < 1e-12
    for e, (a, b) in enumerate(m.graph.edges):
        tab = res.pair_marginals[e]
        assert tab.sum() == pytest.approx(1.0, abs=1e-12)
        assert abs(tab.sum(axis=1) - res.marginals[a]).max() < 1e-12
        assert abs(tab.sum(axis=0) - res.marginals[b]).max() < 1e-12


def test_size_cap():
    def chain(n):
        g = Multigraph(n, tuple((i, i + 1) for i in range(n - 1)))
        return PairwiseModel(g, (((1.0,) * 2,) * 2,) * (n - 1), uniform_phi(n))

    with pytest.raises(SizeError):
        brute_force(chain(26))
    assert brute_force(chain(18)).log_z == pytest.approx(18 * math.log(2), rel=1e-12)


@pytest.mark.parametrize("n", [17, 19, 20])
def test_chunked_oracle_matches_lbp_on_trees(n):
    # past 16 variables the states come in several chunks, so the running
    # maximum rescales earlier chunks' sums; LBP is exact on a tree
    rng = np.random.default_rng(n)
    m = ising_model(random_tree(n, rng), rng, coupling=1.5, field=1.0)
    for model, run, local in (
        (m, run_lbp, lambda ex, res: (ex.pair_marginals, res.edge_beliefs)),
        (to_factor_model(m), run_lbp_factor,
         lambda ex, res: (ex.factor_marginals, res.factor_beliefs)),
    ):
        exact, res = brute_force(model), run(model)
        assert res.converged
        assert abs(exact.log_z - res.log_z_b) < 1e-10
        assert abs(exact.marginals - res.node_beliefs).max() < 1e-10
        ex_local, lbp_local = local(exact, res)
        assert len(ex_local) == n - 1
        assert max(abs(np.asarray(a) - b).max() for a, b in zip(ex_local, lbp_local)) < 1e-10


def test_belief_ratio_tree_fixed_point(rng):
    m = ising_model(random_tree(6, rng), rng)
    res = run_lbp(m)
    assert res.converged
    assert belief_ratio_state_sum(res.model, res) == pytest.approx(1.0, abs=1e-9)


def test_belief_ratio_equals_z_ratio(rng):
    models = [
        (ising_model(random_connected_graph(6, 9, rng), rng, coupling=0.8, field=0.5), run_lbp)
        for _ in range(4)
    ] + [(random_factor_model(rng, max_vars=6, max_incidences=12), run_lbp_factor)
         for _ in range(4)]
    factor_runs = 0
    for m, run in models:
        res = run(m)
        if not res.converged:
            continue
        z = math.exp(brute_force(m).log_z)
        zb = math.exp(res.log_z_b)
        assert belief_ratio_state_sum(res.model, res) == pytest.approx(z / zb, rel=1e-8)
        factor_runs += isinstance(m, FactorModel)
    assert factor_runs > 0


def test_belief_ratio_independent_model():
    # psi identically 1: edge beliefs factorize, so the sum is exactly 1
    g = cycle_graph(3)
    node_b = np.full((3, 2), 0.5)
    edge_b = [np.full((2, 2), 0.25)] * 3
    m = PairwiseModel(g, (((1.0,) * 2,) * 2,) * 3, uniform_phi(3))
    assert belief_ratio_state_sum_from_beliefs(m, node_b, edge_b) == pytest.approx(1.0, abs=1e-12)


def test_belief_ratio_rejects_zero_beliefs():
    g = Multigraph(2, ((0, 1),))
    m = PairwiseModel(g, (((1.0,) * 2,) * 2,), uniform_phi(2))
    with pytest.raises(ValueError):
        belief_ratio_state_sum_from_beliefs(m, np.array([[0.0, 1.0], [0.5, 0.5]]), [np.full((2, 2), 0.25)])


def test_loop_identity_zero_beta():
    g = two_triangles_graph()
    xi = [1.3] * 6
    assert loop_identity_state_sum(g, [0.0] * 7, xi) == pytest.approx(1.0, abs=1e-12)
    assert loop_identity_subset_sum(g, [0.0] * 7, xi) == pytest.approx(1.0, abs=1e-12)


def test_loop_identity_triangle_closed_form():
    b = 0.4
    for xi0 in (0.7, 1.0, 2.1):
        lhs = loop_identity_state_sum(cycle_graph(3), [b] * 3, [xi0] * 3)
        assert lhs == pytest.approx(1 + b**3, rel=1e-12)


def test_loop_identity_random_graphs(rng):
    for _ in range(10):
        n = int(rng.integers(3, 8))
        mmax = min(12, n * (n - 1) // 2)
        g = random_connected_graph(n, int(rng.integers(n - 1, mmax + 1)), rng)
        beta = rng.uniform(-1, 1, size=len(g.edges))
        xi = rng.uniform(0.5, 2.5, size=n)
        lhs = loop_identity_state_sum(g, beta, xi)
        rhs = loop_identity_subset_sum(g, beta, xi)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))
        target = int(rng.integers(0, n))
        lhs_w = loop_identity_state_sum(g, beta, xi, weight_node=target)
        rhs_w = loop_identity_subset_sum(g, beta, xi, weight_node=target)
        assert abs(lhs_w - rhs_w) <= 1e-10 * max(1.0, abs(lhs_w), abs(rhs_w))


def test_loop_identity_rejects_bad_xi():
    with pytest.raises(ValueError):
        loop_identity_state_sum(cycle_graph(3), [0.1] * 3, [1.0, -2.0, 1.0])
