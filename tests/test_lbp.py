"""Message passing: fixed points, Bethe values, scaled tables."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopcorrect.exact import brute_force
from loopcorrect.exceptions import LoopcorrectError, NumericError
from loopcorrect.generate import (
    ising_model,
    random_connected_graph,
    random_factor_model,
    random_tree,
)
from loopcorrect.graph import (
    cycle_graph,
    grid_graph,
    two_triangles_graph,
)
from loopcorrect.lbp import (
    LbpOptions,
    _FactorGraph,
    bethe_log_z,
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
from oracles import belief_ratio_state_sum, lbp_reference
from tests.conftest import path_graph, star_graph


def graph_diameter(g):
    dist = np.full((g.node_count, g.node_count), np.inf)
    for i in range(g.node_count):
        dist[i, i] = 0
    for a, b in g.edges:
        dist[a, b] = dist[b, a] = 1
    for k in range(g.node_count):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return int(dist.max())


def _scaled(model, scale):
    """model with every edge or factor table multiplied by scale."""
    if isinstance(model, PairwiseModel):
        return PairwiseModel(model.graph, tuple(
            tuple(tuple(v * scale for v in row) for row in tab) for tab in model.edge_potentials
        ), model.node_potentials)
    return FactorModel(model.variable_count, tuple(
        (scope, tuple(v * scale for v in table)) for scope, table in model.factors
    ))


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

    rep = loop_series_z(res)
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
            tab = np.reshape(res.factor_beliefs[e], (2, 2))
            assert abs(tab.sum(axis=1) - res.node_beliefs[a]).max() < 10 * opts.tol
            assert abs(tab.sum(axis=0) - res.node_beliefs[b]).max() < 10 * opts.tol


def test_damping_does_not_move_fixed_points(rng):
    # one undamped sweep evaluated at a damped fixed point barely moves it
    opts = LbpOptions(damping=0.5, tol=1e-12)
    m = ising_model(two_triangles_graph(), rng, coupling=1.0, field=0.5)
    res = run_lbp(m, opts)
    assert res.converged
    graph = _FactorGraph(m.node_count, edge_tables(res.model))
    _, _, worst = graph.iterate(graph.buffer(res.messages), LbpOptions(max_iters=1, damping=0.0))
    assert worst < 10 * opts.tol


def test_non_convergence_is_reported_not_raised(rng):
    m = ising_model(two_triangles_graph(), rng, coupling=2.0, field=0.3)
    res = run_lbp(m, LbpOptions(max_iters=3))
    assert not res.converged
    assert res.iterations == 3
    assert res.residual > 1e-12


def test_log_domain_fallback_matches_rescaled_model(rng):
    # scaling every edge table by 1e-290 moves no fixed point: the engine's
    # power-of-two table scaling cancels it up to the rounding of the entries
    g = cycle_graph(3)
    base = ising_model(g, rng, coupling=0.8, field=0.4)
    scale = 1e-290
    tiny = _scaled(base, scale)
    res_base = run_lbp(base)
    res_tiny = run_lbp(tiny)
    assert res_tiny.converged and res_tiny.iterations == res_base.iterations
    assert abs(np.asarray(res_tiny.node_beliefs) - res_base.node_beliefs).max() < 1e-12
    # scaling every edge table by c shifts log Z_B by E log c
    shift = len(g.edges) * math.log(scale)
    assert res_tiny.log_z_b == pytest.approx(res_base.log_z_b + shift, rel=1e-12)


def test_power_of_two_table_scale_changes_no_message_bit():
    # A hub between 12 leaves, pulled alternately up and down by strong
    # fields, and one free node: both entries of the hub's message towards
    # the free node are about e^-60.  With the tables scaled by 2^-960 the
    # products of that edge's update are subnormal, but for the engine's
    # own table scaling, which leaves every message bit unchanged.
    leaves, e, ei = 12, math.exp(5.0), math.exp(-5.0)
    phi = ((1.0, 1.0),) + ((e, ei), (ei, e)) * (leaves // 2) + ((1.0, 1.0),)
    base = PairwiseModel(star_graph(leaves + 2), (((e, ei), (ei, e)),) * (leaves + 1), phi)

    def sweeps(model, damping):
        graph = _FactorGraph(model.node_count, edge_tables(absorb_node_potentials(model)))
        buf, changes, opts = graph.buffer(), [], LbpOptions(max_iters=1, damping=damping)
        for _ in range(30):
            buf, _, change = graph.iterate(buf, opts)
            changes.append(change)
        return changes, graph.messages(buf)

    for damping in (0.0, 0.5):
        changes, msgs = sweeps(base, damping)
        for exponent in (-960, 960):
            changes_scaled, msgs_scaled = sweeps(_scaled(base, 2.0**exponent), damping)
            assert changes_scaled == changes
            assert np.array_equal(msgs_scaled, msgs)


def test_message_update_summing_to_zero_is_refused():
    model = random_factor_model(
        np.random.default_rng(11), max_vars=8, max_arity=5, max_incidences=18, strength=300.0
    )
    with pytest.raises(NumericError, match="^a message update summed to zero or a non-finite value$"):
        run_lbp_factor(model, LbpOptions(damping=0.0))


def test_bethe_log_z_values(rng):
    # single edge: the Bethe value is exact
    m = ising_model(path_graph(2), rng, coupling=1.0, field=0.7)
    res = run_lbp(m)
    assert res.log_z_b == pytest.approx(brute_force(m).log_z, abs=1e-10)

    # uniform beliefs with psi = 1 on any graph give N log 2
    g = two_triangles_graph()
    m1 = PairwiseModel(g, (((1.0,) * 2,) * 2,) * 7, uniform_phi(6))
    val = bethe_log_z(
        m1, np.full((6, 2), 0.5), np.full((7, 4), 0.25)
    )
    assert val == pytest.approx(6 * math.log(2), abs=1e-12)

    # Z_B equals Z divided by the belief-ratio state sum, rearranged
    g = random_connected_graph(8, 11, rng)
    m2 = ising_model(g, rng, coupling=0.6, field=0.4)
    res = run_lbp(m2)
    assert res.converged
    z = math.exp(brute_force(m2).log_z)
    assert res.log_z_b == pytest.approx(
        math.log(z / belief_ratio_state_sum(res.model, res.node_beliefs, res.factor_beliefs)),
        abs=1e-8,
    )


def test_bethe_rejects_zero_beliefs():
    m = PairwiseModel(path_graph(2), (((1.0,) * 2,) * 2,), uniform_phi(2))
    with pytest.raises(ValueError):
        bethe_log_z(m, np.array([[1.0, 0.0], [0.5, 0.5]]), np.full((1, 4), 0.25))


def test_pairwise_node_potentials_are_never_dropped():
    # the edge tables alone lose node potentials: at run_lbp's beliefs the
    # Bethe value would read 3.908 for 5.233, and the factor engine would
    # give node 0 the belief [0.5, 0.5] for [0.352, 0.648]
    m = ising_model(grid_graph(2, 3), np.random.default_rng(0), coupling=0.5, field=0.8)
    res = run_lbp(m)
    assert bethe_log_z(res.model, res.node_beliefs, res.factor_beliefs) == res.log_z_b
    with pytest.raises(ValueError, match="run_lbp absorbs node potentials"):
        bethe_log_z(m, res.node_beliefs, res.factor_beliefs)
    with pytest.raises(ValueError, match="run_lbp absorbs node potentials"):
        run_lbp_factor(m)


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
    assert np.array_equal(res_f.messages, res_p.messages)
    assert np.array_equal(res_f.node_beliefs, res_p.node_beliefs)
    assert all(map(np.array_equal, res_f.factor_beliefs, res_p.factor_beliefs))
    assert res_f.log_z_b == res_p.log_z_b


def test_factor_log_domain_fallback(rng):
    # scaling every factor table by 1e-290 moves no fixed point
    scale = 1e-290
    res_base = run_lbp_factor(HYPERTREE)
    res_tiny = run_lbp_factor(_scaled(HYPERTREE, scale))
    assert res_tiny.converged and res_tiny.iterations == res_base.iterations
    assert abs(np.asarray(res_tiny.node_beliefs) - res_base.node_beliefs).max() < 1e-12
    shift = len(HYPERTREE.factors) * math.log(scale)
    assert res_tiny.log_z_b == pytest.approx(res_base.log_z_b + shift, rel=1e-12)


def test_factor_lbp_uniform_tables():
    fm = FactorModel(
        3,
        (((0, 1), (1.0,) * 4), ((0, 1, 2), (1.0,) * 8), ((1,), (1.0,) * 2)),
    )
    res = run_lbp_factor(fm, LbpOptions(damping=0.0))
    assert res.converged
    assert abs(np.asarray(res.node_beliefs) - 0.5).max() == 0.0
    assert bethe_log_z(fm, res.node_beliefs, res.factor_beliefs) == pytest.approx(
        res.log_z_b
    )


def _reference(model, opts):
    """(lbp_reference's tuple, the Bethe value at its beliefs), or the type
    of the LoopcorrectError or ValueError that computing them raised."""
    try:
        if isinstance(model, PairwiseModel):
            absorbed = absorb_node_potentials(model)
            ref = lbp_reference(model.node_count, edge_tables(absorbed), opts)
            return ref, bethe_log_z(absorbed, ref[1], ref[2])
        ref = lbp_reference(model.variable_count, model.factors, opts)
        return ref, bethe_log_z(model, ref[1], ref[2])
    except (LoopcorrectError, ValueError) as exc:
        return type(exc)


def _belief_gap(res, node_beliefs, factor_beliefs):
    """The largest difference of a node or factor belief entry."""
    return max(
        abs(res.node_beliefs - node_beliefs).max(),
        *(abs(a - b).max() for a, b in zip(res.factor_beliefs, factor_beliefs)),
    )


@settings(max_examples=120, deadline=None)
@given(
    pairwise=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    # arity 4 and 5 sum 8 and 16 table entries per message, where numpy's
    # reduction adds pairwise rather than in a chain
    max_arity=st.sampled_from([3, 5]),
    damping=st.sampled_from([0.0, 0.3, 0.5]),
    # the table scale and the coupling (or factor strength); every table
    # entry must stay within [1e-300, 1.8e308]
    scale_coupling=st.sampled_from([
        (1.0, 1.0), (1.0, 20.0), (1.0, 300.0),
        (1e-290, 1.0), (1e-290, 20.0), (1e290, 1.0), (1e290, 20.0),
    ]),
    # 1, and either side of the first block's 16 sweeps and of twice that:
    # budgets that end inside a block
    max_iters=st.sampled_from([1, 3, 15, 16, 17, 31, 32, 33, 300]),
)
# tables spanning e^600 and a factor belief entry of about 5e-287
@example(
    pairwise=False, seed=3367, max_arity=3, damping=0.0, scale_coupling=(1.0, 300.0), max_iters=300
)
def test_lbp_matches_reference_sweep_bit_for_bit(
    pairwise, seed, max_arity, damping, scale_coupling, max_iters
):
    # Against the two-domain reference engine on unscaled tables (oracles).
    # Where the reference ran linear, the runs agree bit for bit: a
    # power-of-two table scaling changes no bit of a normalized message,
    # and beliefs are formed from the tables as given.  Where a table scale
    # or a strong coupling sent it to the log domain, the runs converge
    # alike and agree to rounding.
    rng = np.random.default_rng(seed)
    scale, coupling = scale_coupling
    opts = LbpOptions(max_iters=max_iters, damping=damping)
    if pairwise:
        n = int(rng.integers(2, 9))
        g = random_connected_graph(n, int(rng.integers(n - 1, min(14, n * (n - 1) // 2) + 1)), rng)
        base, run = ising_model(g, rng, coupling=coupling, field=0.5), run_lbp
    else:
        base = random_factor_model(rng, max_vars=8, max_arity=max_arity, max_incidences=14,
                                   strength=coupling)
        run = run_lbp_factor
    model = _scaled(base, scale)
    try:
        with warnings.catch_warnings():
            # no overflow or invalid value inside the engine either
            warnings.simplefilter("error", RuntimeWarning)
            res = run(model, opts)
    except (LoopcorrectError, ValueError) as exc:
        res = type(exc)
    ref = _reference(model, opts)
    if isinstance(ref, type):
        # the reference refused (a zero belief or message); an engine run
        # that does not refuse must still report a finite Bethe value
        assert isinstance(res, type) or math.isfinite(res.log_z_b)
        return
    (messages, node_beliefs, factor_beliefs, iterations, residual, domain), log_z_b = ref
    if domain == "linear":
        assert not isinstance(res, type), f"the engine raised {res.__name__}"
        assert np.array_equal(res.messages, messages)
        assert np.array_equal(res.node_beliefs, node_beliefs)
        assert all(map(np.array_equal, res.factor_beliefs, factor_beliefs))
        assert (res.iterations, res.residual, res.log_z_b) == (iterations, residual, log_z_b)
        return
    converged = residual < opts.tol
    if not isinstance(res, type) and res.converged != converged:
        # a strongly coupled transient can amplify rounding until the runs
        # converge sweeps apart, on either side of max_iters; with the
        # default budget both converge
        opts = replace(opts, max_iters=LbpOptions().max_iters)
        res = run(model, opts)
        (_, node_beliefs, factor_beliefs, iterations, residual, _), log_z_b = _reference(
            model, opts
        )
        converged = residual < opts.tol
        assert res.converged and converged
    if not converged:
        # unconverged sweeps of a strong coupling amplify rounding to any
        # size, so their beliefs, or a refusal, are not compared
        return
    assert not isinstance(res, type), f"the engine raised {res.__name__}"
    if res.iterations == iterations:
        bound, rel = 1e-12, 1e-12
    else:
        # a sweep below tol can still move a belief by far more than tol
        # (by up to 1.8e-9, and log Z_B by 4e-12 relative, in 19868
        # converged log-domain draws)
        bound, rel = 1e-6, 1e-9
    assert _belief_gap(res, node_beliefs, factor_beliefs) < bound
    assert res.log_z_b == pytest.approx(log_z_b, rel=rel)
