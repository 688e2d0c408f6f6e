"""The exact oracle (variable elimination) against the 2^N reference, and
the two-sided subset-sum identities."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopcorrect.cli import main
from loopcorrect.exact import _eliminate, brute_force
from loopcorrect.exceptions import SizeError
from loopcorrect.generate import (
    ising_model,
    random_connected_graph,
    random_factor_model,
    random_tree,
)
from loopcorrect.graph import Multigraph, cycle_graph, grid_graph, two_triangles_graph
from loopcorrect.lbp import run_lbp, run_lbp_factor
from loopcorrect.model import (
    FactorModel,
    PairwiseModel,
    pairwise_to_json,
    to_factor_model,
    uniform_phi,
)
from oracles import (
    belief_ratio_state_sum,
    brute_force_reference,
    exact_state_sum,
    loop_identity_subset_sum,
    loop_identity_tables,
    model_tables,
)


def test_single_edge_uniform():
    m = PairwiseModel(Multigraph(2, ((0, 1),)), (((1.0,) * 2,) * 2,), uniform_phi(2))
    res = brute_force(m)
    assert math.exp(res.log_z) == pytest.approx(4.0, rel=1e-14)
    assert abs(res.marginals - 0.5).max() < 1e-14


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
    assert abs(res.marginals - 0.5).max() < 1e-14


def _assert_matches_reference(model):
    """brute_force agrees with the 2^N reference to 1e-12 in log Z and in
    every node marginal."""
    ref = brute_force_reference(*model_tables(model))
    res = brute_force(model)
    assert abs(res.log_z - ref.log_z) < 1e-12
    assert abs(res.marginals - ref.marginals).max(initial=0.0) < 1e-12


def test_vectorized_matches_reference(rng):
    for _ in range(5):
        g = random_connected_graph(5, 7, rng)
        _assert_matches_reference(ising_model(g, rng, coupling=1.5, field=1.0))
    # 17 variables: the reference sums two chunks of 2^16 states
    tree = random_tree(17, rng)
    _assert_matches_reference(ising_model(tree, rng, coupling=1.5, field=1.0))


def _weights(draw, count, signed):
    """count table entries: exp of a draw from [-3, 3], or with signed a
    draw from [-2, 2], zero included."""
    if signed:
        return tuple(draw(st.floats(-2.0, 2.0)) for _ in range(count))
    return tuple(math.exp(draw(st.floats(-3.0, 3.0))) for _ in range(count))


@st.composite
def scoped_tables(draw, signed=False):
    """(n, tables): up to 8 tables on at most 6 variables, scopes of arity
    0 to 3 in any order, and a unary table on each variable no scope
    names."""
    n = draw(st.integers(1, 6))
    scopes = draw(st.lists(
        st.lists(st.integers(0, n - 1), unique=True, max_size=3).map(tuple), max_size=8
    ))
    named = {v for scope in scopes for v in scope}
    scopes += [(v,) for v in range(n) if v not in named]
    return n, [(scope, _weights(draw, 1 << len(scope), signed)) for scope in scopes]


@st.composite
def pairwise_models(draw):
    """A connected pairwise model on 1 to 6 nodes: a random tree plus
    random extra edges, each edge's endpoints in either order."""
    n = draw(st.integers(1, 6))
    edges = {frozenset((v, draw(st.integers(0, v - 1)))) for v in range(1, n)}
    if n > 1:
        node = st.integers(0, n - 1)
        pairs = st.tuples(node, node).filter(lambda p: p[0] != p[1])
        edges |= {frozenset(p) for p in draw(st.lists(pairs, max_size=6))}
    oriented = tuple(tuple(draw(st.permutations(sorted(e)))) for e in sorted(edges, key=sorted))
    psi = tuple((_weights(draw, 2, False), _weights(draw, 2, False)) for _ in oriented)
    phi = tuple(_weights(draw, 2, False) for _ in range(n))
    return PairwiseModel(Multigraph(n, oriented), psi, phi)


@given(st.one_of(pairwise_models(), scoped_tables().map(lambda nt: FactorModel(*nt))))
@settings(max_examples=150, deadline=None)
def test_engine_matches_reference(model):
    _assert_matches_reference(model)


@given(scoped_tables(signed=True))
@settings(max_examples=150, deadline=None)
# a sum of 2e-313: in float range one subnormal step is wider than the bound
@example((3, [((0, 1), (0.0, 0.0, 0.0, 1.0)), ((), (1e-13,)), ((), (1e-300,)), ((2,), (1.0, 1.0))]))
# a sum of 1.5e-337, below the float range: each table must be scaled by
# its largest |entry|, not by the exponent 0 of its zero entry
@example((1, [((0,), (1.2141415681834188e-79, 0.0)), ((0,), (1.2134150319117627e-258, 0.0))]))
# a sum of 1.6e-452: the product of the first two tables underflows at
# x0 = -1, the only state that the third table leaves
@example((2, [((0,), (1.3994230226264554e-144, 1.0)), ((0,), (1.1125369292536007e-308, 1.0)),
              ((0,), (1.0, 0.0)), ((1,), (0.0, 1.0))]))
def test_engine_matches_reference_on_signed_tables(n_tables):
    # Compared at the engine's scale, where rows[0] is a normal float: the
    # exact state sum times 2^-exponent, and the sum of |weight| over all
    # states, which bounds the rounding, on the same scale.
    n, tables = n_tables
    rows, exponent = _eliminate(n, tables)
    scale = Fraction(2) ** -exponent
    want = exact_state_sum(n, tables) * scale
    bound = exact_state_sum(n, [(s, np.abs(t)) for s, t in tables]) * scale
    assert abs(Fraction(float(rows[0])) - want) <= Fraction(1e-12) * bound


def test_signed_sum_below_float_range():
    # a chain whose every state but one weighs zero: the frontier table
    # holds a zero and a shrinking negative entry, and the rescaling must
    # follow the negative one to reach the sum -2^-1200
    n = 1200
    tables = [((0,), (0.0, -0.5))] + [((v,), (0.0, 0.5)) for v in range(1, n)]
    tables += [((v, v + 1), (1.0,) * 4) for v in range(n - 1)]
    rows, exponent = _eliminate(n, tables)
    mantissa, power = math.frexp(rows[0])
    assert (mantissa, power + exponent) == (-0.5, -1199)



def test_sum_that_underflows_a_shared_exponent():
    # Once x1 is summed out, x0 = -1 weighs 1e-400 against 1 for x0 = +1,
    # past the float range under one shared exponent; the (0, 2) tables then
    # leave x0 = +1 only 1e-900, so x0 = -1 holds nearly all of Z.
    tables = [((0, 1), (1e-200, 1e-200, 1.0, 1.0))] * 2 + [((0, 2), (1.0, 1.0, 1e-300, 1e-300))] * 3
    res = brute_force(FactorModel(3, tuple(tables)))
    assert res.log_z == pytest.approx(math.log(4.0) - 400 * math.log(10.0), rel=1e-12)
    np.testing.assert_allclose(res.marginals, [[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]], atol=1e-12)


@st.composite
def loop_identity_inputs(draw):
    """A multigraph on 1 to 6 nodes (self-loops and parallel edges
    included), beta from [-3, 3], xi from [0.2, 4], and a weight node or
    None."""
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    edges = tuple(draw(st.lists(st.tuples(node, node), max_size=9)))
    beta = [draw(st.floats(-3.0, 3.0)) for _ in edges]
    xi = [draw(st.floats(0.2, 4.0)) for _ in range(n)]
    return Multigraph(n, edges), beta, xi, draw(st.none() | st.integers(0, n - 1))


@given(loop_identity_inputs())
@settings(max_examples=150, deadline=None)
def test_loop_identity_state_sum_matches_reference(inputs):
    # the identity's signed tables, self-loops as unary tables, through the
    # elimination engine
    g, beta, xi, weight_node = inputs
    tables = loop_identity_tables(g, beta, xi, weight_node)
    scale = brute_force_reference(g.node_count, [(s, np.abs(t)) for s, t in tables]).value
    want = brute_force_reference(g.node_count, tables).value
    rows, exponent = _eliminate(g.node_count, tables)
    assert abs(math.ldexp(float(rows[0]), exponent) - want) <= 1e-12 * scale


def test_marginal_consistency(rng):
    # node marginals are the sums of the reference's edge marginals
    m = ising_model(two_triangles_graph(), rng, coupling=1.0, field=0.7)
    res = brute_force(m)
    assert abs(res.marginals.sum(axis=1) - 1.0).max() < 1e-12
    ref = brute_force_reference(*model_tables(m))
    for e, (a, b) in enumerate(m.graph.edges):
        tab = np.reshape(ref.local[m.node_count + e] / ref.total, (2, 2))
        assert tab.sum() == pytest.approx(1.0, abs=1e-12)
        assert abs(tab.sum(axis=1) - res.marginals[a]).max() < 1e-12
        assert abs(tab.sum(axis=0) - res.marginals[b]).max() < 1e-12


def test_size_cap(tmp_path, capsys):
    def chain(n):
        g = Multigraph(n, tuple((i, i + 1) for i in range(n - 1)))
        return PairwiseModel(g, (((1.0,) * 2,) * 2,) * (n - 1), uniform_phi(n))

    # a chain's frontier holds two variables at most, whatever its length
    assert brute_force(chain(200)).log_z == pytest.approx(200 * math.log(2), rel=1e-12)
    # the 2x17 grid's frontier holds 18 variables: 2^18 states pass
    # STATE_CAP, and the plan refuses before any frontier table is built
    model = ising_model(grid_graph(2, 17), np.random.default_rng(0))
    tracemalloc.start()
    try:
        with pytest.raises(SizeError) as info:
            brute_force(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "\n" not in str(info.value)
    assert peak < 1 << 20
    path = tmp_path / "wide.json"
    path.write_text(pairwise_to_json(model))
    for command in ("oracle", "compare"):
        assert main([command, "--model", str(path)]) == 1
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith("error: ") and cap.err.count("\n") == 1


@pytest.mark.parametrize("n", [17, 19, 20])
def test_chunked_oracle_matches_lbp_on_trees(n):
    # a tree's frontier stays narrow at any size, and LBP is exact on a tree
    rng = np.random.default_rng(n)
    m = ising_model(random_tree(n, rng), rng, coupling=1.5, field=1.0)
    if n == 17:  # the 2^N reference takes about 0.2 s here and 1.5 s at 20
        ref = brute_force_reference(*model_tables(m))
        edge_marginals = [t / ref.total for t in ref.local[n:]]
    for model, run in ((m, run_lbp), (to_factor_model(m), run_lbp_factor)):
        exact, res = brute_force(model), run(model)
        assert res.converged
        assert abs(exact.log_z - res.log_z_b) < 1e-10
        assert abs(exact.marginals - res.node_beliefs).max() < 1e-10
        if n == 17:
            assert max(
                abs(a - b).max() for a, b in zip(edge_marginals, res.factor_beliefs, strict=True)
            ) < 1e-10


def test_belief_ratio_tree_fixed_point(rng):
    m = ising_model(random_tree(6, rng), rng)
    res = run_lbp(m)
    assert res.converged
    assert belief_ratio_state_sum(
        res.model, res.node_beliefs, res.factor_beliefs
    ) == pytest.approx(1.0, abs=1e-9)


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
        ratio = belief_ratio_state_sum(res.model, res.node_beliefs, res.factor_beliefs)
        assert ratio == pytest.approx(z / zb, rel=1e-8)
        factor_runs += isinstance(m, FactorModel)
    assert factor_runs > 0


def test_belief_ratio_independent_model():
    # psi identically 1: edge beliefs factorize, so the sum is exactly 1
    g = cycle_graph(3)
    node_b = np.full((3, 2), 0.5)
    edge_b = [np.full(4, 0.25)] * 3
    m = PairwiseModel(g, (((1.0,) * 2,) * 2,) * 3, uniform_phi(3))
    assert belief_ratio_state_sum(m, node_b, edge_b) == pytest.approx(1.0, abs=1e-12)


def _state_side(g, beta, xi, weight_node=None):
    return brute_force_reference(g.node_count, loop_identity_tables(g, beta, xi, weight_node)).value


def test_loop_identity_zero_beta():
    g = two_triangles_graph()
    xi = [1.3] * 6
    assert _state_side(g, [0.0] * 7, xi) == pytest.approx(1.0, abs=1e-12)
    assert loop_identity_subset_sum(g, [0.0] * 7, xi) == pytest.approx(1.0, abs=1e-12)


def test_loop_identity_triangle_closed_form():
    b = 0.4
    for xi0 in (0.7, 1.0, 2.1):
        lhs = _state_side(cycle_graph(3), [b] * 3, [xi0] * 3)
        assert lhs == pytest.approx(1 + b**3, rel=1e-12)


def test_loop_identity_random_graphs(rng):
    for _ in range(10):
        n = int(rng.integers(3, 8))
        mmax = min(12, n * (n - 1) // 2)
        g = random_connected_graph(n, int(rng.integers(n - 1, mmax + 1)), rng)
        beta = rng.uniform(-1, 1, size=len(g.edges))
        xi = rng.uniform(0.5, 2.5, size=n)
        lhs = _state_side(g, beta, xi)
        rhs = loop_identity_subset_sum(g, beta, xi)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))
        target = int(rng.integers(0, n))
        lhs_w = _state_side(g, beta, xi, weight_node=target)
        rhs_w = loop_identity_subset_sum(g, beta, xi, weight_node=target)
        assert abs(lhs_w - rhs_w) <= 1e-10 * max(1.0, abs(lhs_w), abs(rhs_w))
