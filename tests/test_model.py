"""Model validation, absorption, conversion and serialization."""

import math

import pytest

from loopcorrect.exact import brute_force
from loopcorrect.generate import ising_model, random_connected_graph
from loopcorrect.graph import Multigraph, cycle_graph, two_triangles_graph
from loopcorrect.model import (
    FactorModel,
    PairwiseModel,
    absorb_node_potentials,
    edge_tables,
    factor_incidence_graph,
    factor_to_json,
    model_from_json,
    pairwise_to_json,
    to_factor_model,
    uniform_phi,
)

EDGE = Multigraph(2, ((0, 1),))
PSI_1 = (((1.0, 1.0), (1.0, 1.0)),)


def simple_model(psi=PSI_1, phi=None):
    return PairwiseModel(EDGE, psi, phi or uniform_phi(2))


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        simple_model(psi=(((1.0, 0.0), (1.0, 1.0)),))
    with pytest.raises(ValueError):
        simple_model(psi=(((1.0, -2.0), (1.0, 1.0)),))
    with pytest.raises(ValueError):
        simple_model(phi=((1.0, 1e-310), (1.0, 1.0)))
    with pytest.raises(ValueError):  # self-loop
        PairwiseModel(Multigraph(1, ((0, 0),)), PSI_1, uniform_phi(1))
    with pytest.raises(ValueError):  # parallel edges
        PairwiseModel(Multigraph(2, ((0, 1), (0, 1))), PSI_1 * 2, uniform_phi(2))
    with pytest.raises(ValueError):  # disconnected
        PairwiseModel(Multigraph(3, ((0, 1),)), PSI_1, uniform_phi(3))


def test_absorb_identity_when_phi_uniform():
    m = simple_model(psi=(((2.0, 0.5), (0.5, 2.0)),))
    assert absorb_node_potentials(m).edge_potentials == m.edge_potentials


def test_absorb_single_edge_by_hand():
    psi = ((1.5, 2.5), (0.5, 3.0))
    m = simple_model(psi=(psi,), phi=((2.0, 3.0), (1.0, 1.0)))
    out = absorb_node_potentials(m)
    assert out.node_potentials == uniform_phi(2)
    for xa in (0, 1):
        for xb in (0, 1):
            phi0 = (2.0, 3.0)[xa]
            assert out.edge_potentials[0][xa][xb] == pytest.approx(
                phi0 * psi[xa][xb], rel=1e-15
            )


def test_absorb_checks_the_multiplied_tables():
    # each table passed PairwiseModel's checks, but a product can leave the
    # float range: below POSITIVITY_FLOOR, to zero or to infinity
    for scale in (1e-160, 1e-200, 1e200):
        m = simple_model(psi=(((scale, 1.0), (1.0, 1.0)),), phi=((scale, 1.0), (1.0, 1.0)))
        with pytest.raises(ValueError, match="edge potential must be strictly positive"):
            absorb_node_potentials(m)
    out = absorb_node_potentials(simple_model(phi=((1e-150, 1.0), (1.0, 1.0))))
    assert out.edge_potentials == (((1e-150, 1e-150), (1.0, 1.0)),)
    assert isinstance(out, PairwiseModel) and out.graph is EDGE


def test_absorb_preserves_partition_function(rng):
    m = ising_model(two_triangles_graph(), rng, coupling=1.2, field=0.8)
    before = brute_force(m)
    after = brute_force(absorb_node_potentials(m))
    assert after.log_z == pytest.approx(before.log_z, rel=1e-12)
    assert abs(after.marginals - before.marginals).max() < 1e-12


def test_to_factor_model_single_edge():
    fm = to_factor_model(simple_model())
    assert fm.variable_count == 2
    assert len(fm.factors) == 1
    assert fm.factors[0][0] == (0, 1)
    assert len(fm.factors[0][1]) == 4


def test_to_factor_model_preserves_z(rng):
    m = ising_model(cycle_graph(3), rng, coupling=0.9, field=0.6)
    fm = to_factor_model(m)
    assert len(fm.factors) == 3
    assert brute_force(fm).log_z == pytest.approx(brute_force(m).log_z, rel=1e-12)


def test_edge_tables_are_the_factor_form(rng):
    m = ising_model(two_triangles_graph(), rng, coupling=0.9, field=0.6)
    tables = edge_tables(m)
    assert [scope for scope, _ in tables] == list(m.graph.edges)
    for (_, flat), psi in zip(tables, m.edge_potentials):
        assert flat == (psi[0][0], psi[0][1], psi[1][0], psi[1][1])
    assert tuple(edge_tables(absorb_node_potentials(m))) == to_factor_model(m).factors


def test_factor_incidence_graph_shapes():
    # scopes {0,1}, {0,1,2}, {1}: 6 nodes and 6 incidences
    fm = FactorModel(
        3,
        (
            ((0, 1), (1.0,) * 4),
            ((0, 1, 2), (1.0,) * 8),
            ((1,), (1.0,) * 2),
        ),
    )
    gh = factor_incidence_graph(fm)
    assert gh.node_count == 6
    assert len(gh.edges) == 6
    assert gh.edges == ((0, 3), (1, 3), (0, 4), (1, 4), (2, 4), (1, 5))

    pair = to_factor_model(
        PairwiseModel(cycle_graph(3), PSI_1 * 3, uniform_phi(3))
    )
    gh = factor_incidence_graph(pair)
    assert gh.node_count == 6 and len(gh.edges) == 6

    unary = FactorModel(1, (((0,), (1.0, 2.0)),))
    gh = factor_incidence_graph(unary)
    assert gh.node_count == 2 and len(gh.edges) == 1


def test_factor_model_validation():
    with pytest.raises(ValueError):  # variable 1 uncovered
        FactorModel(2, (((0,), (1.0, 1.0)),))
    with pytest.raises(ValueError):  # duplicate scope entry
        FactorModel(2, (((0, 0), (1.0,) * 4), ((1,), (1.0, 1.0))))
    with pytest.raises(ValueError):  # wrong table size
        FactorModel(2, (((0, 1), (1.0,) * 3),))
    with pytest.raises(ValueError):  # nonpositive entry
        FactorModel(1, (((0,), (1.0, 0.0)),))
    # uncovered variables are counted and the first few named, never all
    message = r"^8 of 10 variables appear in no factor, the first \[2, 3, 4\]$"
    with pytest.raises(ValueError, match=message):
        FactorModel(10, (((0, 1), (1.0,) * 4),))


def test_pairwise_json_round_trip(rng):
    m = ising_model(two_triangles_graph(), rng, coupling=1.0, field=0.5)
    back = model_from_json(pairwise_to_json(m))
    assert back.graph == m.graph
    assert back.edge_potentials == m.edge_potentials
    assert back.node_potentials == m.node_potentials


def test_factor_json_round_trip(rng):
    fm = to_factor_model(ising_model(cycle_graph(4), rng))
    back = model_from_json(factor_to_json(fm))
    assert back.variable_count == fm.variable_count
    assert back.factors == fm.factors


def test_json_rejects_unknown_shape():
    with pytest.raises(ValueError):
        model_from_json('{"something": 1}')


def test_exact_example_values():
    # smallest valid model: a single edge, everything uniform
    res = brute_force(simple_model())
    assert math.exp(res.log_z) == pytest.approx(4.0, rel=1e-12)
    assert abs(res.marginals - 0.5).max() < 1e-12


def test_absorb_uses_lowest_id_incident_edge(rng):
    # reference: each unary table goes to the lowest-id incident edge
    m = ising_model(random_connected_graph(9, 16, rng), rng, coupling=1.0, field=0.7)
    psi = [[list(row) for row in tab] for tab in m.edge_potentials]
    for i, phi in enumerate(m.node_potentials):
        e = next(e for e, ends in enumerate(m.graph.edges) if i in ends)
        a, b = m.graph.edges[e]
        for xa in (0, 1):
            for xb in (0, 1):
                psi[e][xa][xb] *= phi[xa if i == a else xb]
    out = absorb_node_potentials(m)
    assert out.edge_potentials == tuple(tuple(tuple(row) for row in tab) for tab in psi)
    assert out.node_potentials == uniform_phi(9)
