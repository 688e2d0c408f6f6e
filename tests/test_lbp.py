"""Message passing: fixed points, Bethe values, fallbacks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcorrect.exact import brute_force, belief_ratio_state_sum
from loopcorrect.generate import (
    ising_model,
    random_connected_graph,
    random_factor_model,
    random_tree,
)
from loopcorrect.graph import cycle_graph, path_graph, two_triangles_graph
from loopcorrect.lbp import (
    LbpOptions,
    _FactorGraph,
    bethe_log_z,
    bethe_log_z_factor,
    run_lbp,
    run_lbp_factor,
)
from loopcorrect.model import (
    FactorModel,
    PairwiseModel,
    absorb_node_potentials,
    edge_tables,
    to_factor_model,
    uniform_phi,
)
from oracles import lbp_reference


def graph_diameter(g):
    dist = np.full((g.node_count, g.node_count), np.inf)
    for i in range(g.node_count):
        dist[i, i] = 0
    for a, b in g.edges:
        dist[a, b] = dist[b, a] = 1
    for k in range(g.node_count):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return int(dist.max())


def test_tree_is_exact(rng):
    for n in (2, 5, 9):
        g = random_tree(n, rng)
        m = ising_model(g, rng, coupling=1.0, field=0.8)
        res = run_lbp(m, LbpOptions(damping=0.0))
        exact = brute_force(m)
        assert res.converged
        assert res.iterations <= graph_diameter(g) + 1
        assert abs(np.asarray(res.node_beliefs) - exact.marginals).max() < 1e-9
        assert res.log_z_b == pytest.approx(exact.log_z, abs=1e-9)


def test_uniform_model_fixed_point():
    g = cycle_graph(4)
    m = PairwiseModel(g, (((1.0,) * 2,) * 2,) * 4, uniform_phi(4))
    res = run_lbp(m, LbpOptions(damping=0.0))
    assert res.converged and res.iterations == 1
    assert abs(np.asarray(res.node_beliefs) - 0.5).max() == 0.0
    assert res.log_z_b == pytest.approx(4 * math.log(2), abs=1e-12)


def test_weak_coupling_gap_is_closed_by_series(rng):
    j = 0.1
    e, ei = math.exp(j), math.exp(-j)
    psi = tuple((((e, ei), (ei, e)),) * 7)
    m = PairwiseModel(two_triangles_graph(), psi, uniform_phi(6))
    res = run_lbp(m)
    exact = brute_force(m)
    assert res.converged
    gap = abs(res.log_z_b - exact.log_z)
    assert gap > 1e-8  # Bethe alone is off on a loopy graph
    from loopcorrect.loopseries import loop_series_z

    rep = loop_series_z(m, res)
    assert rep.log_z_b + math.log(rep.total) == pytest.approx(exact.log_z, abs=1e-10)


def test_margin_consistency_at_fixed_point(rng):
    opts = LbpOptions(tol=1e-12)
    for _ in range(3):
        g = random_connected_graph(6, 9, rng)
        m = ising_model(g, rng, coupling=0.9, field=0.6)
        res = run_lbp(m, opts)
        if not res.converged:
            continue
        for e, (a, b) in enumerate(g.edges):
            tab = res.edge_beliefs[e]
            assert abs(tab.sum(axis=1) - res.node_beliefs[a]).max() < 10 * opts.tol
            assert abs(tab.sum(axis=0) - res.node_beliefs[b]).max() < 10 * opts.tol


def test_damping_does_not_move_fixed_points(rng):
    # one undamped sweep evaluated at a damped fixed point barely moves it
    opts = LbpOptions(damping=0.5, tol=1e-12)
    m = ising_model(two_triangles_graph(), rng, coupling=1.0, field=0.5)
    res = run_lbp(m, opts)
    assert res.converged
    graph = _FactorGraph(m.node_count, edge_tables(res.model))
    msgs = np.vstack((res.messages, np.ones((1, 2))))  # the sweep's padded buffer
    worst = graph.sweep(msgs, 0.0, "linear")
    assert worst < 10 * opts.tol


def test_non_convergence_is_reported_not_raised(rng):
    m = ising_model(two_triangles_graph(), rng, coupling=2.0, field=0.3)
    res = run_lbp(m, LbpOptions(max_iters=3))
    assert not res.converged
    assert res.iterations == 3
    assert res.residual > 1e-12


def test_log_domain_fallback_matches_rescaled_model(rng):
    g = cycle_graph(3)
    base = ising_model(g, rng, coupling=0.8, field=0.4)
    scale = 1e-290  # forces unnormalized messages under the linear floor
    tiny = PairwiseModel(
        g,
        tuple(
            tuple(tuple(v * scale for v in row) for row in tab)
            for tab in base.edge_potentials
        ),
        base.node_potentials,
    )
    res_base = run_lbp(base)
    res_tiny = run_lbp(tiny)
    assert res_base.domain == "linear" and res_tiny.domain == "log"
    assert res_tiny.converged
    assert abs(np.asarray(res_tiny.node_beliefs) - res_base.node_beliefs).max() < 1e-9
    # scaling every edge table by c shifts log Z_B by E log c
    shift = len(g.edges) * math.log(scale)
    assert res_tiny.log_z_b == pytest.approx(res_base.log_z_b + shift, abs=1e-6)


def test_bethe_log_z_values(rng):
    # single edge: the Bethe value is exact
    m = ising_model(path_graph(2), rng, coupling=1.0, field=0.7)
    res = run_lbp(m)
    assert res.log_z_b == pytest.approx(brute_force(m).log_z, abs=1e-10)

    # uniform beliefs with psi = 1 on any graph give N log 2
    g = two_triangles_graph()
    m1 = PairwiseModel(g, (((1.0,) * 2,) * 2,) * 7, uniform_phi(6))
    val = bethe_log_z(
        m1, np.full((6, 2), 0.5), np.full((7, 2, 2), 0.25)
    )
    assert val == pytest.approx(6 * math.log(2), abs=1e-12)

    # Z_B equals Z divided by the belief-ratio state sum, rearranged
    g = random_connected_graph(8, 11, rng)
    m2 = ising_model(g, rng, coupling=0.6, field=0.4)
    res = run_lbp(m2)
    assert res.converged
    z = math.exp(brute_force(m2).log_z)
    assert res.log_z_b == pytest.approx(
        math.log(z / belief_ratio_state_sum(res.model, res)), abs=1e-8
    )


def test_bethe_rejects_zero_beliefs():
    m = PairwiseModel(path_graph(2), (((1.0,) * 2,) * 2,), uniform_phi(2))
    with pytest.raises(ValueError):
        bethe_log_z(m, np.array([[1.0, 0.0], [0.5, 0.5]]), np.full((1, 2, 2), 0.25))


HYPERTREE = FactorModel(
    5,
    (
        ((0, 1), (1.3, 0.7, 0.9, 1.1)),
        ((1, 2, 3), tuple(float(v) for v in (1.2, 0.8, 1.1, 0.9, 0.7, 1.4, 1.0, 1.3))),
        ((3,), (0.6, 1.9)),
        ((2, 4), (1.1, 0.9, 0.8, 1.25)),
    ),
)


def test_factor_lbp_exact_on_hypertree():
    res = run_lbp_factor(HYPERTREE, LbpOptions(damping=0.0))
    exact = brute_force(HYPERTREE)
    assert res.converged
    assert abs(np.asarray(res.node_beliefs) - exact.marginals).max() < 1e-9
    assert res.log_z_b == pytest.approx(exact.log_z, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    extra=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    coupling=st.floats(0.1, 1.5),
    field=st.floats(0.0, 1.0),
)
def test_factor_lbp_matches_pairwise(n, extra, seed, coupling, field):
    # the factor form of a pairwise model takes the same sweeps, converged or not
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, min(n - 1 + extra, n * (n - 1) // 2), rng)
    m = ising_model(g, rng, coupling=coupling, field=field)
    opts = LbpOptions(max_iters=500)
    res_p = run_lbp(m, opts)
    res_f = run_lbp_factor(to_factor_model(m), opts)
    assert res_f.iterations == res_p.iterations
    assert res_f.converged == res_p.converged
    assert abs(res_f.messages - res_p.messages).max() < 1e-12
    assert abs(res_f.node_beliefs - res_p.node_beliefs).max() < 1e-12
    if res_p.converged:
        assert res_f.log_z_b == pytest.approx(res_p.log_z_b, abs=1e-9)


def test_factor_log_domain_fallback(rng):
    scale = 1e-290
    scopes_tables = []
    for scope, table in HYPERTREE.factors:
        scopes_tables.append((scope, tuple(v * scale for v in table)))
    tiny = FactorModel(HYPERTREE.variable_count, tuple(scopes_tables))
    res_base = run_lbp_factor(HYPERTREE)
    res_tiny = run_lbp_factor(tiny)
    assert res_tiny.domain == "log"
    assert res_tiny.converged
    assert abs(np.asarray(res_tiny.node_beliefs) - res_base.node_beliefs).max() < 1e-9
    shift = len(HYPERTREE.factors) * math.log(scale)
    assert res_tiny.log_z_b == pytest.approx(res_base.log_z_b + shift, abs=1e-6)


def test_factor_lbp_uniform_tables():
    fm = FactorModel(
        3,
        (((0, 1), (1.0,) * 4), ((0, 1, 2), (1.0,) * 8), ((1,), (1.0,) * 2)),
    )
    res = run_lbp_factor(fm, LbpOptions(damping=0.0))
    assert res.converged
    assert abs(np.asarray(res.node_beliefs) - 0.5).max() == 0.0
    assert bethe_log_z_factor(fm, res.node_beliefs, res.factor_beliefs) == pytest.approx(
        res.log_z_b
    )


@settings(max_examples=80, deadline=None)
@given(
    pairwise=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    damping=st.sampled_from([0.0, 0.5]),
    scale=st.sampled_from([1.0, 1e-290]),
    max_iters=st.sampled_from([3, 300]),
)
def test_lbp_matches_reference_sweep_bit_for_bit(pairwise, seed, damping, scale, max_iters):
    # the in-place padded buffer changes no bit of the unpadded reference
    # sweep's run; scale 1e-290 forces the log-domain fallback
    rng = np.random.default_rng(seed)
    opts = LbpOptions(max_iters=max_iters, damping=damping)
    if pairwise:
        n = int(rng.integers(2, 9))
        g = random_connected_graph(n, int(rng.integers(n - 1, min(14, n * (n - 1) // 2) + 1)), rng)
        m = ising_model(g, rng, coupling=1.0, field=0.5)
        m = PairwiseModel(g, tuple(
            tuple(tuple(v * scale for v in row) for row in tab) for tab in m.edge_potentials
        ), m.node_potentials)
        res = run_lbp(m, opts)
        ref = lbp_reference(m.node_count, edge_tables(absorb_node_potentials(m)), opts)
    else:
        fm = random_factor_model(rng, max_vars=8, max_arity=3, max_incidences=14)
        fm = FactorModel(fm.variable_count, tuple(
            (scope, tuple(v * scale for v in table)) for scope, table in fm.factors
        ))
        res = run_lbp_factor(fm, opts)
        ref = lbp_reference(fm.variable_count, fm.factors, opts)
    messages, node_beliefs, factor_beliefs, iterations, residual, domain = ref
    assert domain == ("log" if scale < 1.0 else "linear")
    assert np.array_equal(res.messages, messages)
    assert np.array_equal(res.node_beliefs, node_beliefs)
    assert all(map(np.array_equal, res.factor_beliefs, factor_beliefs))
    assert (res.iterations, res.residual, res.domain) == (iterations, residual, domain)
