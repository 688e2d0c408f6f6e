"""theta, omega, matching polynomial, bound and determinant identities."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcorrect import graphpoly
from loopcorrect.exceptions import IdentityError, SizeError
from loopcorrect.graph import (
    Multigraph,
    complete_graph,
    cycle_graph,
    grid_graph,
    two_triangles_graph,
)
from loopcorrect.graphpoly import (
    CD_EDGE_CAP,
    OmegaPoly,
    _omega_by_theta,
    golden_ratio_value,
    loop_count_bound,
    matching_polynomial,
    omega,
    omega_determinant_form,
    theta_at_beta1,
    theta_contraction_deletion,
    theta_direct,
)
from loopcorrect.poly import BiPoly, UniPoly, unpack
from tests.conftest import (
    bouquet_graph,
    circular_ladder,
    corpus_graphs,
    corpus_loop_free,
    corpus_simple_connected,
    corpus_trees,
    parallel_edges_graph,
    path_graph,
    subdivided,
)
from tests.oracles import (
    bareiss_det,
    determinant_sum_reference,
    omega_at_1_count,
    regular_graph_matching_check,
)


def test_theta_direct_examples():
    assert theta_direct(path_graph(5)).poly == BiPoly({(0, 0): 1})
    assert theta_direct(cycle_graph(3)).poly == BiPoly({(0, 0): 1, (3, 0): 1})
    assert theta_direct(two_triangles_graph()).poly == BiPoly(
        {(0, 0): 1, (3, 0): 2, (6, 0): 1, (7, 2): 1}
    )


def test_theta_direct_5x5_grid():
    # 40 edges and about 6.5e7 generalized loops: summed, never listed
    # golden_ratio_value checks theta_at_beta1 itself and raises on a mismatch
    assert golden_ratio_value(grid_graph(5, 5)) > 0


def test_theta_direct_cap():
    # K12's frontier outgrows the state cap
    with pytest.raises(SizeError):
        theta_direct(complete_graph(12))


def _cd_memo(g, monkeypatch):
    # theta_contraction_deletion(g) and the memo its recursion filled
    memos = []
    real = graphpoly._theta_cd_rec

    def spy(n, edges, memo, *rest):
        memos.append(memo)
        return real(n, edges, memo, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(graphpoly, "_theta_cd_rec", spy)
        theta = theta_contraction_deletion(g)
    assert all(memo is memos[0] for memo in memos)
    return theta, memos[0]


def test_theta_contraction_deletion_matches_direct():
    # past the corpus: grids whose deletions leave long pendant paths, and a
    # triangle with a doubled edge and a self-loop, a pendant tree on node
    # 2, a pendant self-loop node, a separate bouquet node and two isolated
    # nodes; the whole ThetaPoly describes the input graph, not its core
    trees = Multigraph(11, ((0, 1), (2, 3), (1, 2), (3, 4), (0, 2), (3, 5), (1, 1),
                            (0, 1), (5, 6), (6, 6), (7, 7), (7, 7), (2, 9)))
    # pendant trees hung on long chains: K4, and two nodes joined by a
    # doubled edge with a self-loop, each edge made a chain of four; then a
    # path and a star hung on inner chain nodes and a path to a pendant
    # triangle, and every edge subdivided once more
    chains = []
    for g in (complete_graph(4), Multigraph(2, ((0, 1), (0, 1), (1, 1)))):
        h = subdivided(g, 4)
        n = h.node_count
        hung = [(n - 1, n), (n, n + 1), (n + 1, n + 2),  # path on an inner node
                (n - 2, n + 3), (n + 3, n + 4), (n + 3, n + 5), (n + 3, n + 6),  # star
                (0, n + 7), (n + 7, n + 8), (n + 8, n + 9), (n + 9, n + 10),
                (n + 10, n + 8)]  # path to a triangle
        chains.append(subdivided(Multigraph(n + 11, h.edges + tuple(hung)), 2))
    for g in corpus_graphs() + [grid_graph(3, 5), grid_graph(4, 4), trees] + chains:
        assert theta_contraction_deletion(g) == theta_direct(g)


def test_contraction_deletion_memo_holds_reduced_cores(monkeypatch):
    # keyed on the series-reduced 2-core, the 3x4 grid needs 104 memo
    # entries; on the 2-core alone it needed 171, and keyed on the labelled
    # graph with its pendant paths 4542
    for g, entries in ((grid_graph(3, 4), 104), (complete_graph(6), 88),
                       (complete_graph(7), 248), (grid_graph(4, 4), 631)):
        _, memo = _cd_memo(g, monkeypatch)
        assert len(memo) == entries
    # a cycle of any length reduces to one self-loop in one pass
    theta, memo = _cd_memo(cycle_graph(1500), monkeypatch)
    assert theta.poly == BiPoly({(0, 0): 1, (1500, 0): 1})
    assert len(memo) == 1


def test_contraction_deletion_reduces_its_input_once(monkeypatch):
    # the children of a core are cores, so only the entry calls _series_core
    calls = []
    real = graphpoly._series_core

    def spy(n, edges):
        calls.append(n)
        return real(n, edges)

    monkeypatch.setattr(graphpoly, "_series_core", spy)
    for g in [grid_graph(3, 4), complete_graph(5)] + corpus_graphs():
        calls.clear()
        assert theta_contraction_deletion(g) == theta_direct(g)
        assert calls == [g.node_count]


def test_contraction_deletion_width_ignores_chain_length():
    # three 2000-edge chains joining two nodes: a core of two nodes and
    # three edges of power 2000.  Packed by the input's 5999 nodes and 6000
    # edges, each value would take megabytes; by the core's, a few kB
    g = subdivided(parallel_edges_graph(3), 2000)
    tracemalloc.start()
    try:
        theta = theta_contraction_deletion(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert theta.poly == BiPoly({(0, 0): 1, (4000, 0): 3, (6000, 2): 1})
    assert peak < 3 << 20


def test_contraction_deletion_edge_cap():
    # a path strips to nothing and a cycle to one self-loop, however long;
    # a circular ladder has every node of degree three, so its core keeps
    # every edge, and 167 rungs make 501
    assert theta_contraction_deletion(path_graph(1500)).poly == BiPoly({(0, 0): 1})
    assert theta_contraction_deletion(cycle_graph(1500)).poly == BiPoly(
        {(0, 0): 1, (1500, 0): 1}
    )
    assert len(circular_ladder(167).edges) == CD_EDGE_CAP + 1
    with pytest.raises(SizeError, match="^501 edges in the 2-core exceed the "
                                        "contraction-deletion cap 500$"):
        theta_contraction_deletion(circular_ladder(167))


def test_contraction_deletion_memo_cap(monkeypatch):
    # circular_ladder(8) has nothing to series-reduce and memoizes 3397 cores
    monkeypatch.setattr(graphpoly, "STATE_CAP", 3397)
    assert theta_contraction_deletion(circular_ladder(8)) == theta_direct(circular_ladder(8))
    monkeypatch.setattr(graphpoly, "STATE_CAP", 3396)
    with pytest.raises(SizeError, match="^contraction-deletion needs more than 3396 "
                                        "memo entries$"):
        theta_contraction_deletion(circular_ladder(8))


def test_theta_at_beta1():
    sub, binom = theta_at_beta1(cycle_graph(3))
    assert sub == UniPoly({0: 2}) and binom == sub
    sub, _ = theta_at_beta1(two_triangles_graph())
    assert sub == UniPoly({0: 4, 2: 1})
    sub, _ = theta_at_beta1(path_graph(4))
    assert sub == UniPoly({0: 1})
    for g in corpus_graphs():
        theta_at_beta1(g)  # raises on any mismatch


def test_theta_at_beta1_closed_form_numeric(rng):
    # theta(1, xi) = (1+xi^-2)^E (xi/(xi+1/xi))^V + (1+xi^2)^E (xi^-1/(xi+1/xi))^V
    for g in corpus_graphs():
        sub, _ = theta_at_beta1(g)
        E, V = len(g.edges), g.node_count
        for _ in range(5):
            xi = float(rng.uniform(0.3, 3.0))
            lhs = float(sub.eval(xi - 1 / xi))
            rhs = (1 + xi**-2) ** E * (xi / (xi + 1 / xi)) ** V + (
                1 + xi**2
            ) ** E * (xi**-1 / (xi + 1 / xi)) ** V
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_golden_ratio_values():
    assert golden_ratio_value(cycle_graph(3)) == pytest.approx(2.0, abs=1e-9)
    assert golden_ratio_value(two_triangles_graph()) == pytest.approx(5.0, abs=1e-9)
    assert golden_ratio_value(path_graph(3)) == pytest.approx(1.0, abs=1e-9)


def test_loop_count_bound_examples():
    b = loop_count_bound(two_triangles_graph())
    assert (b.count, b.attained) == (5, True)
    assert b.bound == pytest.approx(5.0, abs=1e-9)
    b = loop_count_bound(cycle_graph(3))
    assert (b.count, b.attained) == (2, True)
    # K4: every loop has degree <= 3, so the bound is met exactly
    b = loop_count_bound(complete_graph(4))
    assert (b.count, b.attained) == (15, True)
    assert b.bound == pytest.approx(15.0, abs=1e-9)
    # bouquets with two or more loops exceed degree 3 and fall short
    b = loop_count_bound(bouquet_graph(2))
    assert (b.count, b.attained) == (4, False)
    assert b.bound == pytest.approx(5.0, abs=1e-9)


def test_bound_equality_iff_degree_condition():
    for g in corpus_graphs():
        b = loop_count_bound(g)
        assert b.count <= b.bound + 1e-9
        assert (abs(b.count - b.bound) < 1e-9) == b.attained


def test_omega_bouquets():
    for L in (1, 2, 3):
        assert omega(bouquet_graph(L)).poly == UniPoly({0: 1, 1: 2 * L - 1}, "b")


def test_omega_cycles():
    for n in (3, 4, 5, 6):
        assert omega(cycle_graph(n)).poly == UniPoly({0: 1, n: 1}, "b")


def test_omega_b2_intermediate():
    # theta(b, sqrt(-1)) for the 2-loop bouquet is 1 + 2b - 3b^2: theta is
    # 1 + 2b + b^2 (1 + g^2), and g^2 = -4 at g = 2i; dividing by
    # (1-b)^(|E|-|V|) = 1 - b leaves omega = 1 + 3b
    theta = theta_direct(bouquet_graph(2)).poly
    at_imag = UniPoly({}, "b")
    for (be, ge), c in theta.coeffs.items():
        at_imag = at_imag + UniPoly({be: c * (-4) ** (ge // 2)}, "b")
    assert at_imag == UniPoly({0: 1, 1: 2, 2: -3})
    assert omega(bouquet_graph(2)).poly == UniPoly({0: 1, 1: 3}, "b")
    assert at_imag == omega(bouquet_graph(2)).poly * UniPoly({0: 1, 1: -1})


def test_omega_tree():
    assert omega(path_graph(4)).poly == UniPoly({0: 1, 1: -1}, "b")


def test_omega_integer_real_on_corpus():
    for g in corpus_graphs():
        w = omega(g).poly
        assert all(isinstance(c, int) for c in w.coeffs.values())


def test_omega_recurrence():
    one_b = UniPoly({1: 1}, "b")
    from loopcorrect.graph import is_connected
    from tests.oracles import contract, delete

    for g in corpus_graphs():
        for e, (a, b) in enumerate(g.edges):
            if a == b:
                continue
            gd = delete(g, e)
            if not is_connected(gd)[0]:
                continue  # omega needs connectivity on both branches
            lhs = omega(g).poly
            rhs = omega(gd).poly + one_b * omega(contract(g, e)).poly
            assert lhs == rhs


def test_omega_at_1_counts():
    assert omega_at_1_count(cycle_graph(3)) == (2, 2)
    assert omega_at_1_count(cycle_graph(4)) == (2, 2)
    for t in corpus_trees():
        assert omega_at_1_count(t) == (0, 0)
    for g in corpus_loop_free():
        value, count = omega_at_1_count(g)
        assert value == count
    # one frontier count, no recursion per node: a 1500-node path, and the
    # 6x6 grid, which backtracking over the nodes cannot finish
    assert omega_at_1_count(path_graph(1500)) == (0, 0)
    value, count = omega_at_1_count(grid_graph(6, 6))
    assert value == count > 0


def test_matching_polynomials():
    assert matching_polynomial(path_graph(3)).poly == UniPoly({3: 1, 1: -2}, "x")
    assert matching_polynomial(cycle_graph(3)).poly == UniPoly({3: 1, 1: -3}, "x")
    assert matching_polynomial(complete_graph(4)).poly == UniPoly(
        {4: 1, 2: -6, 0: 3}, "x"
    )
    with pytest.raises(ValueError):
        matching_polynomial(bouquet_graph(2))


def test_bareiss_determinant_triangle_block():
    # the cycle-free term of the triangle, det[(1+u^2)I - uA] = (1-u^3)^2,
    # packed at u = 2^8: every coefficient of every minor is below
    # 4^3 = 64 (the rows' L1 norms), so the determinant unpacks exactly
    bits = 8
    u = 1 << bits
    diag, off = 1 + u * u, -u
    mat = [
        [diag, off, off],
        [off, diag, off],
        [off, off, diag],
    ]
    expected = (UniPoly({0: 1}, "u") - UniPoly({3: 1}, "u")) ** 2
    assert unpack(bareiss_det(mat), bits) == expected.coeffs
    assert bareiss_det([[0]]) == 0
    assert bareiss_det([]) == 1


def test_omega_determinant_form():
    assert omega_determinant_form(cycle_graph(3)) == UniPoly({0: 1, 6: 1}, "u")
    assert omega_determinant_form(cycle_graph(4)) == UniPoly({0: 1, 8: 1}, "u")
    # trees reduce to the single empty-cycle determinant
    assert omega_determinant_form(path_graph(4)) == UniPoly({0: 1, 2: -1}, "u")
    for g in corpus_simple_connected():
        omega_determinant_form(g)  # raises on mismatch
    with pytest.raises(ValueError):
        omega_determinant_form(parallel_edges_graph(2))
    # K10's theta outgrows the frontier's STATE_CAP, but not theta at g = 2i;
    # K12's does, although omega solves it by the matching form
    omega_determinant_form(complete_graph(10))
    omega(complete_graph(12))
    with pytest.raises(SizeError, match="frontier sum needs more than"):
        omega_determinant_form(complete_graph(12))
    # the 4x4 grid has 16 nodes, past the cap the determinants once had
    assert omega_determinant_form(grid_graph(4, 4)) == omega(
        grid_graph(4, 4)).poly.map_exponents(2).with_var("u")


@st.composite
def connected_graphs(draw, max_nodes, max_edges, simple):
    """A connected graph: a random spanning tree plus extra edges, in a
    random edge order; simple draws extra edges among the absent pairs,
    otherwise they may be self-loops and parallel edges."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    room = max_edges - len(edges)
    if simple:
        absent = sorted({(a, b) for a in range(n) for b in range(a + 1, n)} - set(edges))
        if absent:
            edges += draw(st.lists(st.sampled_from(absent), max_size=room, unique=True))
    else:
        ends = st.integers(min_value=0, max_value=n - 1)
        edges += draw(st.lists(st.tuples(ends, ends), max_size=room))
    return Multigraph(n, tuple(draw(st.permutations(edges))))


@given(connected_graphs(max_nodes=8, max_edges=14, simple=True))
@settings(max_examples=60, deadline=None)
def test_determinant_sum_is_the_matching_form(g):
    # the lemma in omega_determinant_form's docstring: the literal
    # determinant sum equals omega(u^2) computed as a matching sum, and that
    # equals omega by its definition through theta
    w = omega(g).poly
    assert determinant_sum_reference(g) == w.map_exponents(2).with_var("u")
    assert w == _omega_by_theta(g).poly


@given(connected_graphs(max_nodes=7, max_edges=11, simple=False))
@settings(max_examples=80, deadline=None)
def test_matching_form_equals_theta_route_on_multigraphs(g):
    # exact_omega_by_division goes through the printed theta, so both
    # routes stay tied to it and theta's even-in-g claim stays checked
    w = omega(g).poly
    assert w == _omega_by_theta(g).poly
    assert w == exact_omega_by_division(g)


@st.composite
def multigraphs(draw, max_nodes, max_edges):
    """Any multigraph: it may be disconnected and have self-loops and
    parallel edges."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    ends = st.integers(min_value=0, max_value=n - 1)
    return Multigraph(n, tuple(draw(st.lists(st.tuples(ends, ends), max_size=max_edges))))


@st.composite
def series_cores(draw):
    """The series-reduced 2-core of a multigraph of 1-8 nodes and 0-14
    edges of powers 1-3, which may be disconnected and have self-loops and
    parallel edges."""
    g = draw(multigraphs(max_nodes=8, max_edges=14))
    powers = draw(st.lists(st.integers(min_value=1, max_value=3),
                           min_size=len(g.edges), max_size=len(g.edges)))
    return graphpoly._series_core(
        g.node_count, [(min(a, b), max(a, b), k) for (a, b), k in zip(g.edges, powers)]
    )


@given(series_cores())
@settings(max_examples=300, deadline=None)
def test_contraction_deletion_children_are_series_cores(core):
    # the recursion builds each child as the core _series_core would make
    # of it, the same edges in the same order, so pivots and memo keys are
    # those of reducing every child from scratch; checked at every pivot
    # the recursion could take, not only the lowest-id non-loop edge
    n, edges = core
    for pivot, (a, b, _) in enumerate(edges):
        if a == b:
            continue
        rest = edges[:pivot] + edges[pivot + 1:]
        relabel = [*range(b), a, *range(b, n - 1)]
        merged = [(*sorted((relabel[x], relabel[y])), k) for x, y, k in rest]
        deleted, contracted = graphpoly._cd_children(n, edges, pivot)
        assert deleted == graphpoly._series_core(n, rest)
        assert (n - 1, contracted) == graphpoly._series_core(n - 1, merged)


@given(multigraphs(max_nodes=7, max_edges=10), st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_subdivision_raises_b_to_the_chain_length(g, k):
    # a chain of k edges acts as one edge of weight b^k: subdividing every
    # edge maps theta(b, g) to theta(b^k, g), by both routes.  A chain is
    # one core edge of power k, so contraction-deletion's packing, bounded
    # on the core, must hold b powers up to 50 times its edge count
    expected = BiPoly({(be * k, ge): c for (be, ge), c in theta_direct(g).poly.coeffs.items()})
    h = subdivided(g, k)
    assert theta_direct(h).poly == expected
    assert theta_contraction_deletion(h).poly == expected


@pytest.mark.parametrize("g", [
    complete_graph(4), grid_graph(3, 4), two_triangles_graph(), grid_graph(2, 3),
], ids=["K4", "grid3x4", "two_triangles", "grid2x3"])
def test_determinant_form_rejects_every_off_by_one_omega(g):
    # a wrong omega must fail the comparison with the theta route whichever
    # coefficient is off: the lowest, a middle one or the highest
    coeffs = omega(g).poly.coeffs
    exps = sorted(coeffs)
    for e in (exps[0], exps[len(exps) // 2], exps[-1]):
        for delta in (-1, 1):
            wrong = OmegaPoly(UniPoly({**coeffs, e: coeffs[e] + delta}, "b"))
            with pytest.raises(IdentityError, match="determinant sum"):
                omega_determinant_form(g, wrong)


def test_large_coefficients():
    # K7's theta has coefficients past 2^21 and K8's past 2^32; the packed
    # sum must still unpack to the contraction-deletion coefficients
    assert theta_direct(complete_graph(7)) == theta_contraction_deletion(complete_graph(7))
    theta_at_beta1(complete_graph(8))  # raises on a mismatch


def test_regular_graph_identity():
    for g in (cycle_graph(3), cycle_graph(4), cycle_graph(6), complete_graph(4)):
        assert regular_graph_matching_check(g)


def test_regular_graph_check_reads_the_theta_route(monkeypatch):
    # omega's matching form is alpha(1/u + qu) u^n expanded, so the left side
    # must come from the theta route or the check could never fail
    real = graphpoly._omega_by_theta

    def off_by_one(g):
        return OmegaPoly(real(g).poly + UniPoly({1: 1}, "b"))

    monkeypatch.setattr(graphpoly, "_omega_by_theta", off_by_one)
    assert not regular_graph_matching_check(complete_graph(4))


def test_theta_disconnect_and_multigraph_consistency():
    # contraction-deletion handles graphs whose reductions disconnect or
    # produce multi-edges; spot-check a doubled triangle edge
    g = Multigraph(3, ((0, 1), (0, 1), (1, 2), (0, 2)))
    assert theta_contraction_deletion(g).poly == theta_direct(g).poly
    assert omega(g).poly == exact_omega_by_division(g)


def exact_omega_by_division(g):
    # independent route: theta at g = 2i with each coefficient split into
    # real and imaginary parts through i^ge, the imaginary part checked to
    # vanish, then division by (1-b) one factor at a time
    from loopcorrect.poly import exact_divide

    parts = ({}, {})  # real, imaginary: b power -> coefficient
    for (be, ge), c in theta_direct(g).poly.coeffs.items():
        # (2i)^ge = 2^ge * (-1)^(ge // 2), times i when ge is odd
        part = parts[ge % 2]
        part[be] = part.get(be, 0) + c * 2**ge * (-1) ** (ge // 2)
    assert not any(parts[1].values())
    theta = UniPoly(parts[0], "b")
    power = len(g.edges) - g.node_count
    den = UniPoly({0: 1, 1: -1})
    for _ in range(power):
        theta = exact_divide(theta, den)
    if power < 0:
        theta = theta * den
    return theta
