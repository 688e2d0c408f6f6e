"""Multigraph enumeration, the frontier subset-sum engine, and the test
oracles' contraction and deletion."""

import math
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcorrect import graph
from loopcorrect.exceptions import SizeError
from loopcorrect.graph import (
    Multigraph,
    SubsetWeights,
    cycle_graph,
    cycle_rank,
    enumerate_disjoint_cycles,
    enumerate_generalized_loops,
    enumerate_matchings,
    is_connected,
    parse_edge_list,
    render_edge_list,
    complete_graph,
    count_generalized_loops,
    grid_graph,
    two_triangles_graph,
    _Subsets,
)
from loopcorrect.graphpoly import theta_contraction_deletion, theta_direct
from oracles import (
    contract,
    delete,
    enumerate_generalized_loops_naive,
    frontier_sum_reference,
)
from tests.conftest import bouquet_graph, parallel_edges_graph, path_graph

TRIANGLE = cycle_graph(3)


def test_cycle_rank():
    assert cycle_rank(path_graph(6)) == 0
    assert cycle_rank(two_triangles_graph()) == 2
    for L in (1, 2, 5):
        assert cycle_rank(bouquet_graph(L)) == L
    with pytest.raises(ValueError):
        cycle_rank(Multigraph(2, ()))


def test_generalized_loops_tree():
    assert enumerate_generalized_loops(path_graph(5)) == [frozenset()]


def test_generalized_loops_triangle():
    assert enumerate_generalized_loops(TRIANGLE) == [
        frozenset(),
        frozenset({0, 1, 2}),
    ]


def test_generalized_loops_two_triangles():
    g = two_triangles_graph()
    loops = enumerate_generalized_loops(g)
    expected = {
        frozenset(),
        frozenset({0, 1, 2}),          # left triangle
        frozenset({4, 5, 6}),          # right triangle
        frozenset({0, 1, 2, 4, 5, 6}),  # both
        frozenset(range(7)),           # everything, bridge included
    }
    assert set(loops) == expected
    assert len(loops) == 5


def test_generalized_loops_lexicographic_order():
    g = two_triangles_graph()
    loops = enumerate_generalized_loops(g)
    keys = [tuple(e in s for e in range(7)) for s in loops]
    assert keys == sorted(keys)


@st.composite
def multigraphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=0, max_value=8))
    edges = tuple(
        (
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.integers(min_value=0, max_value=n - 1)),
        )
        for _ in range(m)
    )
    return Multigraph(n, edges)


@given(multigraphs())
@settings(max_examples=80, deadline=None)
def test_loops_match_naive_filter(g):
    assert enumerate_generalized_loops(g) == enumerate_generalized_loops_naive(g)


@given(multigraphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_loops_with_free_node_match_naive(g, data):
    free = data.draw(st.integers(min_value=0, max_value=g.node_count - 1))
    assert enumerate_generalized_loops(
        g, free_node=free
    ) == enumerate_generalized_loops_naive(g, free_node=free)


@st.composite
def weighted_multigraphs(draw):
    """A multigraph with self-loops and parallel edges (at most 12 edges),
    random edge weights, a set of self-loop-free mask nodes, and a random
    weight table per node."""
    n = draw(st.integers(min_value=1, max_value=6))
    ends = st.integers(min_value=0, max_value=n - 1)
    g = Multigraph(n, tuple(draw(st.lists(st.tuples(ends, ends), max_size=12))))
    looped = {a for a, b in g.edges if a == b}
    mask = draw(st.sets(st.sampled_from(range(n)))) - looped
    weight = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    incident = [sum((a == v) + (b == v) for a, b in g.edges) for v in range(n)]
    tables = [
        draw(st.lists(weight, min_size=size, max_size=size))
        for size in ((1 << d) if v in mask else d + 1 for v, d in enumerate(incident))
    ]
    edge_weights = draw(st.lists(weight, min_size=len(g.edges), max_size=len(g.edges)))
    return SubsetWeights(g, tables, edge_weights, frozenset(mask))


def naive_subset_sum(w: SubsetWeights, by_size: bool):
    """The same sum over all 2^|E| subsets, one product per subset:
    {size or 0: (fsum of the products, fsum of their absolute values)}."""
    g = w.graph
    sums = {}
    for bits in range(1 << len(g.edges)):
        s = [e for e in range(len(g.edges)) if bits >> e & 1]
        entry = [0] * g.node_count
        seen = [0] * g.node_count
        for e, (a, b) in enumerate(g.edges):
            for v in (a, b):
                if e in s:
                    entry[v] += 1 << seen[v] if v in w.mask_nodes else 1
                seen[v] += a != b or v in w.mask_nodes
        r = math.prod(w.edge_weights[e] for e in s)
        for v in range(g.node_count):
            r *= w.node_tables[v][entry[v]]
        sums.setdefault(len(s) if by_size else 0, []).append(r)
    return {k: (math.fsum(v), math.fsum(map(abs, v))) for k, v in sums.items()}


def close(value, expect, scale):
    """Equal up to rounding: the frontier multiplies and adds in its own
    order, so the error is bounded by a few ulps of the sum of |terms|
    (plus underflow, where a product of tiny weights may round to zero)."""
    return abs(value - expect) <= 1e-12 * scale + 1e-300


@given(weighted_multigraphs())
@settings(max_examples=80, deadline=None)
def test_frontier_sum_matches_all_subsets(w):
    assert close(w.frontier_sum()[0], *naive_subset_sum(w, by_size=False)[0])
    per_size, _ = w.frontier_sum(by_size=True)
    naive = naive_subset_sum(w, by_size=True)
    for size in set(per_size) | set(naive):
        assert close(per_size.get(size, 0.0), *naive.get(size, (0.0, 0.0)))


@given(multigraphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_frontier_sum_matches_loop_enumeration(g, data):
    """With f_1 = 0 at every node but an optional free node, the engine's
    totals, per-size sums and free-node sums equal the sums over the
    enumerated generalized loops."""
    free = data.draw(st.none() | st.integers(min_value=0, max_value=g.node_count - 1))
    weight = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    tables = []
    for v, d in enumerate(g.degrees()):
        t = data.draw(st.lists(weight, min_size=d + 1, max_size=d + 1))
        if v != free and d >= 1:
            t[1] = 0.0
        tables.append(t)
    beta = data.draw(st.lists(weight, min_size=len(g.edges), max_size=len(g.edges)))
    w = SubsetWeights(g, tables, beta)
    terms = w.terms(free_node=free)
    assert [s for s, _ in terms] == enumerate_generalized_loops(g, free_node=free)
    scale = math.fsum(abs(r) for _, r in terms)
    assert close(w.frontier_sum()[0], math.fsum(r for _, r in terms), scale)
    per_size, _ = w.frontier_sum(by_size=True)
    for size in range(len(g.edges) + 1):
        expect = math.fsum(r for s, r in terms if len(s) == size)
        assert close(per_size.get(size, 0.0), expect, scale)
    if free is None:
        assert count_generalized_loops(g) == len(terms)


def test_swapped_sums_keep_a_state_live_for_one_swap():
    """A state that node 0's table drops (its entry 1 weighs zero) but its
    alternative keeps must reach the steps after node 0 retires, whether
    node 0 retires with the other end (one edge) or alone (a path)."""
    for g, want in ((Multigraph(2, ((0, 1),)), 4.0), (Multigraph(3, ((0, 1), (1, 2))), 13.0)):
        tables = [[1.0, 0.0]] + [[1.0] + [3.0] * d for d in g.degrees()[1:]]
        w = SubsetWeights(g, tables, [0.5] * len(g.edges))
        total, sums, _ = w.swapped_sums({0: [1.0, 2.0]})
        assert total == w.frontier_sum()[0]
        assert sums == {0: want}
        assert replace(w, node_tables=[[1.0, 2.0]] + tables[1:]).frontier_sum()[0] == want


def test_swapped_sums_on_keys_wider_than_63_bits():
    """A mask hub of degree 10 makes every field 10 bits wide, and the hub
    and its 10 leaves hold fields at once, so the stored keys are lists of
    ints.  Leaf tables are zero at degree one, their swaps are not."""
    star = tuple((0, v) for v in range(1, 11))
    g = Multigraph(11, star + tuple((v, v + 1) for v in range(1, 10)))
    rng = random.Random(1)
    hub = [0.0 if rng.random() < 0.2 else rng.uniform(-1, 1) for _ in range(1 << 10)]
    leaves = [[1.0, 0.0] + [rng.uniform(-1, 1) for _ in range(d - 1)] for d in g.degrees()[1:]]
    w = SubsetWeights(g, [hub] + leaves, [rng.uniform(-1, 1) for _ in g.edges], frozenset({0}))
    assert w._plan()[3] > 63
    alt = {v: [rng.uniform(-1, 1) for _ in w.node_tables[v]] for v in (0, 1, 5, 10)}
    total, sums, _ = w.swapped_sums(alt)
    assert same(total, w.frontier_sum()[0])
    for v, table in alt.items():
        tables = [table if u == v else t for u, t in enumerate(w.node_tables)]
        expect = replace(w, node_tables=tables).frontier_sum()[0]
        scale = SubsetWeights(
            g, [[abs(x) for x in t] for t in tables], [abs(x) for x in w.edge_weights], w.mask_nodes
        ).frontier_sum()[0]
        assert close(sums[v], expect, scale)


@st.composite
def swap_inputs(draw):
    """(SubsetWeights, alternative tables): weighted_multigraphs with table
    entries and edge weights often zero, and for a drawn set of nodes an
    alternative table, also often zero, of the same length."""
    w = draw(weighted_multigraphs())
    weight = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    entry = st.just(0.0) | weight
    tables = [[draw(entry) if draw(st.booleans()) else x for x in t] for t in w.node_tables]
    m = len(w.graph.edges)
    edge_weights = draw(st.none() | st.lists(entry, min_size=m, max_size=m))
    nodes = sorted(draw(st.sets(st.sampled_from(range(w.graph.node_count)))))
    alt = {}
    for v in nodes:
        alt[v] = draw(st.lists(entry, min_size=len(tables[v]), max_size=len(tables[v])))
    return replace(w, node_tables=tables, edge_weights=edge_weights), alt


@given(swap_inputs())
@settings(max_examples=200, deadline=None)
def test_swapped_sums_are_per_node_sums(drawn):
    """Each swapped sum is the plain sum with that node's table replaced, to
    rounding; the total is frontier_sum's bit for bit; the peak covers every
    swapped sum's own."""
    w, alt = drawn
    total, sums, peak = w.swapped_sums(alt)
    expect, expect_peak = w.frontier_sum()
    assert same(total, expect) and peak >= expect_peak
    assert set(sums) == set(alt)
    for v, table in alt.items():
        tables = [table if u == v else t for u, t in enumerate(w.node_tables)]
        alone = replace(w, node_tables=tables)
        expect, alone_peak = alone.frontier_sum()
        ones = [1.0] * len(w.graph.edges)
        scale = naive_subset_sum(replace(alone, edge_weights=w.edge_weights or ones), False)[0][1]
        assert close(sums[v], expect, scale)
        assert peak >= alone_peak


@st.composite
def fold_inputs(draw):
    """(SubsetWeights, one) of one value kind: floats, small ints, packed
    big ints or _Subsets listings.  Multigraphs with
    self-loops, parallel edges and isolated nodes; mask nodes of degree at
    most 5; zero table entries; edge weights None or given."""
    n = draw(st.integers(min_value=1, max_value=7))
    ends = st.integers(min_value=0, max_value=n - 1)
    g = Multigraph(n, tuple(draw(st.lists(st.tuples(ends, ends), max_size=12))))
    deg = g.degrees()
    small = [v for v in range(n) if deg[v] <= 5]
    mask = frozenset(draw(st.sets(st.sampled_from(small)))) if small else frozenset()
    kind = draw(st.sampled_from(["float", "int", "packed", "subsets"]))
    zeros = st.sampled_from([0, 0.0, -0.0])
    # full 53-bit mantissas, so that products round and their order shows
    rough = st.integers(-(1 << 53), 1 << 53).map(lambda k: k * 2.0**-52)
    floats = zeros | st.sampled_from([1.0, -1.0]) | st.floats(-2.0, 2.0, allow_nan=False) | rough
    scalar = {
        "float": floats,
        "int": st.integers(-3, 3),
        "packed": st.just(0) | st.integers(-(1 << 200), 1 << 200),
        "subsets": st.integers(0, 1),
    }[kind]
    tables = [
        draw(st.lists(scalar, min_size=size, max_size=size))
        for v, size in enumerate((1 << d) if v in mask else d + 1 for v, d in enumerate(deg))
    ]
    m = len(g.edges)
    edge_weights = None
    if kind == "subsets":
        one = _Subsets([0])
        if draw(st.booleans()):
            edge_weights = [_Subsets([1 << (m - 1 - e)]) for e in range(m)]
    else:
        one = 1.0 if kind == "float" else 1
        if draw(st.booleans()):
            edge_weights = draw(st.lists(scalar, min_size=m, max_size=m))
    return SubsetWeights(g, tables, edge_weights, mask), one


def same(a, b) -> bool:
    """Bit for bit: equal types, float signs included, dict keys in order,
    _Subsets lists in order."""
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, float):
        return type(b) is float and a == b and math.copysign(1, a) == math.copysign(1, b)
    return type(a) is type(b) and a == b


@given(fold_inputs(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_frontier_sum_equals_reference_fold(drawn, by_size):
    """The unrolled fold returns the reference fold's value and peak bit for
    bit, on every value kind, with and without the size split."""
    w, one = drawn
    value, peak = w.frontier_sum(by_size, one)
    expect, expect_peak = frontier_sum_reference(w, by_size, one)
    assert same(value, expect)
    assert peak == expect_peak


@given(fold_inputs(), st.booleans(), st.integers(min_value=1, max_value=6))
@settings(max_examples=150, deadline=None)
def test_frontier_sum_hits_the_state_cap_like_the_reference(drawn, by_size, cap):
    """With a small STATE_CAP both folds raise SizeError on the same inputs
    and agree on the rest."""
    w, one = drawn

    def outcome(fold):
        try:
            return fold(w, by_size, one)
        except SizeError as exc:
            return str(exc)

    with mock.patch.object(graph, "STATE_CAP", cap):
        got = outcome(SubsetWeights.frontier_sum)
        expect = outcome(frontier_sum_reference)
    assert type(got) is type(expect)
    if isinstance(got, str):
        assert got == expect
    else:
        assert same(got[0], expect[0]) and got[1] == expect[1]


@given(weighted_multigraphs())
@settings(max_examples=40, deadline=None)
def test_theta_from_engine_equals_contraction_deletion(w):
    assert theta_direct(w.graph).poly == theta_contraction_deletion(w.graph).poly


def test_frontier_counts_and_state_cap():
    """Unit weights count every subset; generalized loops are counted far
    past where listing them is practical; a frontier too wide for the state
    cap raises SizeError."""
    tables = [[1] * (d + 1) for d in grid_graph(3, 4).degrees()]
    assert SubsetWeights(grid_graph(3, 4), tables).frontier_sum(one=1)[0] == 1 << 17
    assert count_generalized_loops(grid_graph(4, 5)) == 583199
    with pytest.raises(SizeError):
        count_generalized_loops(complete_graph(12))


def test_loop_listing_cap():
    """terms() counts the loops first and refuses to list past TERMS_CAP."""
    g = grid_graph(6, 6)
    with pytest.raises(SizeError, match="exceed the listing cap"):
        SubsetWeights(g, [[1.0] * (d + 1) for d in g.degrees()]).terms()


@given(multigraphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_degree_sum_is_twice_subset_size(g, data):
    if g.edges:
        ids = data.draw(
            st.sets(st.integers(min_value=0, max_value=len(g.edges) - 1))
        )
    else:
        ids = set()
    sub = Multigraph(g.node_count, tuple(g.edges[e] for e in ids))
    assert sum(sub.degrees()) == 2 * len(ids)


def test_contract_triangle_edge():
    g = contract(TRIANGLE, 0)
    assert g.node_count == 2
    assert len(g.edges) == 2
    assert sorted(tuple(sorted(e)) for e in g.edges) == [(0, 1), (0, 1)]


def test_contract_single_edge_path():
    g = contract(path_graph(2), 0)
    assert g.node_count == 1 and g.edges == ()


def test_contract_parallel_pair_gives_bouquet():
    g = contract(parallel_edges_graph(2), 0)
    assert g.node_count == 1
    assert g.edges == ((0, 0),)


def test_contract_self_loop_rejected():
    with pytest.raises(ValueError):
        contract(bouquet_graph(1), 0)


def test_contract_counts_and_rank():
    g = two_triangles_graph()
    for e, (a, b) in enumerate(g.edges):
        ge = contract(g, e)
        assert ge.node_count == g.node_count - 1
        assert len(ge.edges) == len(g.edges) - 1
        assert cycle_rank(ge) == cycle_rank(g)


def test_delete_drops_rank_on_cycle_edge():
    g = two_triangles_graph()
    assert cycle_rank(delete(g, 0)) == cycle_rank(g) - 1  # triangle edge


def test_delete_examples():
    g = delete(TRIANGLE, 0)
    assert g.node_count == 3 and len(g.edges) == 2
    isolated = delete(bouquet_graph(1), 0)
    assert isolated.node_count == 1 and isolated.edges == ()
    ok, comps = is_connected(delete(two_triangles_graph(), 3))  # the bridge
    assert not ok and comps == 2


def test_disjoint_cycles_triangle():
    got = enumerate_disjoint_cycles(TRIANGLE)
    assert (frozenset(), 0) in got
    assert (frozenset({0, 1, 2}), 1) in got
    assert len(got) == 2


def test_disjoint_cycles_two_triangles():
    g = two_triangles_graph()
    got = dict(enumerate_disjoint_cycles(g))
    assert got == {
        frozenset(): 0,
        frozenset({0, 1, 2}): 1,
        frozenset({4, 5, 6}): 1,
        frozenset({0, 1, 2, 4, 5, 6}): 2,
    }


def test_disjoint_cycles_tree():
    assert enumerate_disjoint_cycles(path_graph(4)) == [(frozenset(), 0)]


@given(multigraphs())
@settings(max_examples=80, deadline=None)
def test_disjoint_cycles_match_naive_filter(g):
    """All subsets in which every touched node has degree exactly 2, in
    bitmask-lex order; k(C) is counted by spreading the least node id along
    C's edges until every node of a component holds its component's."""
    m, n = len(g.edges), g.node_count
    want = []
    for mask in range(1 << m):
        c = [e for e in range(m) if (mask >> e) & 1]
        deg = Multigraph(n, tuple(g.edges[e] for e in c)).degrees()
        if set(deg) <= {0, 2}:
            label = list(range(n))
            for _ in range(n):
                for e in c:
                    a, b = g.edges[e]
                    label[a] = label[b] = min(label[a], label[b])
            want.append((frozenset(c), len({label[v] for v in range(n) if deg[v]})))
    want.sort(key=lambda p: tuple(e in p[0] for e in range(m)))
    assert enumerate_disjoint_cycles(g) == want


def test_disjoint_cycles_listing_cap():
    """The sets are counted first: K10 has 819134 of them, past TERMS_CAP,
    so none is listed."""
    with pytest.raises(SizeError, match="^819134 disjoint cycle sets exceed the listing cap"):
        enumerate_disjoint_cycles(complete_graph(10))


def test_matchings():
    assert enumerate_matchings(path_graph(3)) == [1, 2]
    assert enumerate_matchings(TRIANGLE) == [1, 3]
    assert enumerate_matchings(complete_graph(4)) == [1, 6, 3]
    with pytest.raises(ValueError):
        enumerate_matchings(bouquet_graph(1))


@st.composite
def loop_free_multigraphs(draw):
    """Multigraphs with parallel edges but no self-loops, up to 12 edges."""
    n = draw(st.integers(min_value=1, max_value=7))
    ends = st.integers(min_value=0, max_value=n - 1)
    pairs = st.tuples(ends, ends).filter(lambda p: p[0] != p[1])
    return Multigraph(n, tuple(draw(st.lists(pairs, max_size=12 if n > 1 else 0))))


@given(loop_free_multigraphs())
@settings(max_examples=80, deadline=None)
def test_matchings_match_all_subsets(g):
    counts = [0] * (g.node_count // 2 + 1)
    m = len(g.edges)
    for mask in range(1 << m):
        s = [g.edges[e] for e in range(m) if (mask >> e) & 1]
        ends = [v for pair in s for v in pair]
        if len(set(ends)) == len(ends):
            counts[len(s)] += 1
    assert enumerate_matchings(g) == counts


def test_is_connected():
    assert is_connected(Multigraph(1, ())) == (True, 1)
    assert is_connected(Multigraph(2, ())) == (False, 2)
    assert is_connected(two_triangles_graph()) == (True, 1)


def test_edge_list_round_trip():
    g = two_triangles_graph()
    assert parse_edge_list(render_edge_list(g)) == g
    loopy = Multigraph(2, ((0, 0), (0, 1)))
    assert parse_edge_list(render_edge_list(loopy)) == loopy
    with pytest.raises(ValueError):
        parse_edge_list("not a graph")
    # the header's node count is bounded before anything of its size is built
    assert parse_edge_list(f"{graph.NODE_CAP} 0").node_count == graph.NODE_CAP
    with pytest.raises(ValueError, match="exceed the edge-list cap"):
        parse_edge_list(f"{graph.NODE_CAP + 1} 0")


def test_edge_ids_out_of_range_rejected():
    with pytest.raises(ValueError):
        Multigraph(2, ((0, 2),))
    with pytest.raises(ValueError):
        delete(TRIANGLE, 9)
