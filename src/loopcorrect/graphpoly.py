"""Graph polynomials attached to the loop series: the bivariate theta
polynomial with its contraction-deletion recurrence, the omega polynomial
obtained at the imaginary unit with its divisibility interpretation,
the matching polynomial, and the determinant-sum identity.

omega is computed by its matching form and checked against its
definition, theta at xi = sqrt(-1) divided by (1-b)^(|E|-|V|).  Both are
one integer edge-subset sum of the same shape, sum_s (-b)^|s| prod_v
t_v[d_v(s)], with two table families: matchings, and generalized loops at
g = 2i, where f_d(2i) = i^d (1 - d) (see _omega_by_theta).  The
determinant-sum identity is the equality of the two.

theta is stored in (b, g) coordinates, where g stands for xi - 1/xi: every
term is a product of f polynomials in that variable, so the coefficients
are plain integers and identity checks are exact equalities.

Both theta routes and both omega routes run on packed ints: a polynomial
is its value at 2^B (poly.unpack), with B above the bit length of a
coefficient bound each function proves for its own values, so every sum
and product is one big-int operation and equal packed values are equal
polynomials.  The two theta routes still check each other: they build
different integers, each under its own bound, per-size values packed in
g alone from the frontier sum and one value packed in b and g from the
recurrence, and only their coefficients, read by one unpack, meet.

Contraction-deletion runs on plain (node count, edges) tuples whose edges
(a, b, k) carry a power k of b.  Every step reduces its graph to the
series-reduced 2-core: pendant edges and isolated nodes leave theta
unchanged, and a degree-two node has degree 0 or 2 in every generalized
loop (f_1 = 0, f_2 = 1), so a chain of k edges acts as one edge of weight
b^k.  The recurrence is then theta = (1 - b^k) theta(G\\e) + b^k theta(G/e)
on the core's lowest-id non-loop edge, memoized on the core's sorted edge
tuple, so copies of one core that deletion and contraction leave padded,
shifted or subdivided share one entry.  Its depth is the core's edge
count, capped at CD_EDGE_CAP; a cycle of any length is one self-loop.  Its
time grows with the memo, which grows exponentially in the core's width,
so the memo is capped at STATE_CAP cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import DivisibilityError, IdentityError, SizeError
from .graph import (
    STATE_CAP,
    Multigraph,
    SubsetWeights,
    count_generalized_loops,
    cycle_rank,
    enumerate_matchings,
    is_connected,
)
from .poly import BiPoly, UniPoly, exact_divide, f_poly, unpack

# Contraction-deletion recurses one level per edge of the series-reduced
# 2-core, where a chain of any length is one edge.  Capping the core's edges
# at half the interpreter's default recursion limit of 1000 leaves the other
# half to the callers (the CLI needs about ten frames, a pytest test about
# 35), so a core with too many edges raises SizeError instead of
# RecursionError.
CD_EDGE_CAP = 500


@dataclass(frozen=True)
class ThetaPoly:
    poly: BiPoly  # theta in (b, g) coordinates


@dataclass(frozen=True)
class OmegaPoly:
    poly: UniPoly  # integer coefficients, variable b


@dataclass(frozen=True)
class MatchingPoly:
    poly: UniPoly  # alpha(x) = sum_k (-1)^k p(k) x^(n-2k)


def theta_direct(g: Multigraph) -> ThetaPoly:
    """Subset-sum construction: each generalized loop s contributes
    b^|s| * prod_i f_{d_i(s)}(g), summed by the frontier engine split by
    |s|.  Non-loops vanish through f_1 = 0.

    The g polynomials are packed at g = 2^B (poly.unpack), so the sum runs
    on ints.  The f ladder has nonnegative coefficients, so each
    coefficient of a loop's product is at most the product at g = 1, and
    every coefficient of theta is below 2^|E| * prod_v max_{d <= deg v}
    f_d(1); B = _theta_bits exceeds that bound's bit length, which makes
    the unpacking exact."""
    deg = g.degrees()
    bits = _theta_bits(len(g.edges), deg)
    packed = [f_poly(d).eval(1 << bits) for d in range(max(deg) + 1)]
    per_size, _ = SubsetWeights(g, [packed[: top + 1] for top in deg]).frontier_sum(
        by_size=True, one=1
    )
    return ThetaPoly(BiPoly({
        (size, ge): c
        for size, value in per_size.items()
        for ge, c in unpack(value, bits).items()
    }))


def _theta_bits(edge_count: int, degrees) -> int:
    """One more than the bit length of 2^edge_count prod_v max_{d <= d_v}
    f_d(1) over the node degrees d_v, the bound on theta's coefficients
    that theta_direct proves."""
    at_one = [1, 0]  # f_d(1): f_{d+1}(1) = f_d(1) + f_{d-1}(1)
    while len(at_one) <= max(degrees, default=0):
        at_one.append(at_one[-1] + at_one[-2])
    bound = 1 << edge_count
    for top in degrees:
        bound *= max(at_one[: top + 1])
    return bound.bit_length() + 1


def _series_core(n: int, edges) -> tuple[int, list]:
    """(node count, edges in id order) of the series-reduced 2-core of the
    weighted multigraph on n nodes whose edge e is edges[e] = (a, b, k),
    a <= b, k its power of b.

    One pass to a fixed point: a node of degree one loses its edge, and a
    node of degree two whose incidences are two distinct non-loop edges
    (powers k1, k2) is suppressed, its edges merged into one of power
    k1 + k2 at the lower of their ids, a self-loop when their other ends
    meet.  Nodes left without an edge are dropped and the survivors
    renumbered in id order, so a forest reduces to (0, []).
    """
    deg = [0] * n
    for a, b, _ in edges:
        deg[a] += 1
        deg[b] += 1
    if min(deg, default=3) >= 3:
        return n, edges
    ends = [[a, b] for a, b, _ in edges]
    power = [k for _, _, k in edges]
    alive = [True] * len(edges)
    inc: list[list[int]] = [[] for _ in range(n)]  # a self-loop is listed twice
    for e, (a, b, _) in enumerate(edges):
        inc[a].append(e)
        inc[b].append(e)
    todo = [v for v in range(n) if deg[v] < 3]
    while todo:
        v = todo.pop()
        if deg[v] == 1:
            e = next(e for e in inc[v] if alive[e])
            alive[e] = False
            w = sum(ends[e]) - v
            deg[v] = 0
            deg[w] -= 1
            if deg[w] < 3:
                todo.append(w)
        elif deg[v] == 2:
            e, f = sorted(e for e in inc[v] if alive[e])
            if e == f:  # v's one edge is a self-loop
                continue
            x, y = sum(ends[e]) - v, sum(ends[f]) - v
            ends[e] = [x, y] if x <= y else [y, x]
            power[e] += power[f]
            alive[f] = False
            inc[y].append(e)
            deg[v] = 0
    new_id = [0] * n
    kept = 0
    for v in range(n):
        if deg[v]:
            new_id[v] = kept
            kept += 1
    return kept, [
        (new_id[a], new_id[b], k) for (a, b), k, ok in zip(ends, power, alive) if ok
    ]


def _theta_cd_rec(n: int, edges: list, memo: dict, at: list, shift: int) -> int:
    """theta of the weighted multigraph (n, edges) (see _series_core) at
    b = 2^shift and a value of g, computed on its series-reduced 2-core.
    at is the f ladder there, [f_0(g), f_1(g), ...], at least up to
    f_3(g) = g, and is extended here as needed.  memo is keyed by the
    core's sorted edge tuple (the core has no isolated node, so its edges
    fix it); past STATE_CAP entries SizeError is raised."""
    n, edges = _series_core(n, edges)
    key = tuple(sorted(edges))
    hit = memo.get(key)
    if hit is not None:
        return hit
    pivot = next((e for e, (a, b, _) in enumerate(edges) if a != b), None)
    if pivot is None:
        # Every edge is a self-loop: theta factorizes over nodes, a node
        # with loops of powers k_1..k_L contributing the sum over subsets T
        # of its loops of b^(sum_T k) f_{2|T|}(g).
        loops: list[list[int]] = [[] for _ in range(n)]
        for a, _, k in edges:
            loops[a].append(k)
        out = 1
        for powers in loops:
            by_count = [1]  # loops taken -> sum of b^(sum_T k)
            for k in powers:
                by_count = [
                    x + (y << k * shift)
                    for x, y in zip(by_count + [0], [0] + by_count)
                ]
            while len(at) <= 2 * len(powers):
                at.append(at[3] * at[-1] + at[-2])
            out *= sum(s * at[2 * t] for t, s in enumerate(by_count))
    else:
        # (1 - b^k) theta(G\e) + b^k theta(G/e).  Contraction merges end b
        # into end a < b, and the ids above b shift down by one.
        a, b, k = edges[pivot]
        rest = edges[:pivot] + edges[pivot + 1:]
        relabel = [*range(b), a, *range(b, n - 1)]
        merged = []
        for x, y, kk in rest:
            x, y = relabel[x], relabel[y]
            merged.append((x, y, kk) if x <= y else (y, x, kk))
        deleted = _theta_cd_rec(n, rest, memo, at, shift)
        contracted = _theta_cd_rec(n - 1, merged, memo, at, shift)
        out = deleted + ((contracted - deleted) << k * shift)
    if len(memo) >= STATE_CAP:
        raise SizeError(f"contraction-deletion needs more than {STATE_CAP} memo entries")
    memo[key] = out
    return out


def theta_contraction_deletion(g: Multigraph) -> ThetaPoly:
    """theta by contraction-deletion on weighted, series-reduced cores.

    An edge of power k weighs b^k, so theta(G) = sum over generalized
    loops s of b^(sum_{e in s} k_e) prod_v f_{d_v(s)}(g), and g is the
    weighted graph whose edges all have power 1.  Every step reduces its
    graph to the series-reduced 2-core (_series_core), which leaves theta
    unchanged:

    - a pendant edge lies in no generalized loop (its end would have
      degree one, and f_1 = 0), and an isolated node weighs f_0 = 1;
    - a suppressed degree-two node has degree 0 or 2 in every generalized
      loop, weighing f_0 = f_2 = 1, so its two edges are taken together or
      not at all, and together they weigh b^(k1 + k2) and add one to the
      degree of each other end, as the merged edge does (two, as a
      self-loop, when the ends meet).  A chain of k edges acts as one edge
      of weight b^k.

    It then recurses on the core's lowest-id non-loop edge e, joining nodes
    u and w with power k, with all-self-loop cores as the base case:

        theta = (1 - b^k) theta(G\\e) + b^k theta(G/e).

    The loops without e are theta(G\\e).  Those with e weigh b^k times
    their weight in G\\e with f_{d_u + 1} f_{d_w + 1} in place of
    f_{d_u} f_{d_w}; in G/e the merged node weighs f_{d_u + d_w}, and
    f_{n+m-2} = f_n f_m + f_{n-1} f_{m-1} (an identity of the f ladder for
    n, m >= 1) at n = d_u + 1, m = d_w + 1 gives f_{d_u + 1} f_{d_w + 1} =
    f_{d_u + d_w} - f_{d_u} f_{d_w}, so they sum to
    b^k (theta(G/e) - theta(G\\e)).

    The recurrence runs on ints: theta at g = 2^B and b = 2^(B W), with B
    and W taken from the input's core, which has the input's theta.
    Evaluation is a ring homomorphism, so every step is one big-int
    expression and the result is theta's value there, whatever the size
    of the values in between.  That value reads back exactly.  A
    generalized loop of the core gives a node of core degree d a factor
    f_d' with d' <= d, of degree at most max(0, d - 2) in g, so every g
    power is below W = 1 + sum_v max(0, d_v - 2).  The f ladder has
    nonnegative coefficients, so each coefficient is at most the sum of
    the loops' products at g = 1, below 2^|E| prod_v max_{d <= d_v} f_d(1)
    over the core's edges E and degrees d_v, as in theta_direct, and B =
    _theta_bits exceeds that bound's bit length.  So the coefficient of
    b^i, a polynomial in g packed at 2^B, lies in [0, 2^(B W - 1)): it is
    the value's digit i in base 2^(B W), and its own base-2^B digits are
    its coefficients; poly.unpack reads both.  B and W come from the core,
    not from g: a chain of k edges is one core edge of power k, shifting
    by k B W bits, so a B or W that grew with the chain would make the
    values' size quadratic in its length.

    Each level of the recursion removes an edge, so a core above
    CD_EDGE_CAP edges raises SizeError, as does a run whose memo would
    hold more than STATE_CAP cores.  Agrees with theta_direct exactly;
    that equality is an acceptance check.
    """
    n, edges = _series_core(
        g.node_count, [(min(a, b), max(a, b), 1) for a, b in g.edges]
    )
    if len(edges) > CD_EDGE_CAP:
        raise SizeError(
            f"{len(edges)} edges in the 2-core exceed the contraction-deletion "
            f"cap {CD_EDGE_CAP}"
        )
    deg = [0] * n
    for a, b, _ in edges:
        deg[a] += 1
        deg[b] += 1
    bits = _theta_bits(len(edges), deg)
    width = 1 + sum(max(0, d - 2) for d in deg)
    value = _theta_cd_rec(n, edges, {}, [1, 0, 1, 1 << bits], bits * width)
    return ThetaPoly(BiPoly({
        (be, ge): c
        for be, packed in unpack(value, bits * width).items()
        for ge, c in unpack(packed, bits).items()
    }))


def theta_at_beta1(g: Multigraph, theta: ThetaPoly | None = None) -> tuple[UniPoly, UniPoly]:
    """theta at b = 1, both as the substituted polynomial and as the
    binomial form sum_k C(n,k) f_{2k}; raises if they disagree.  theta, when
    given, must be g's theta; it is computed otherwise."""
    n = cycle_rank(g)  # requires connectivity
    substituted = (theta or theta_direct(g)).poly.eval_first(1).with_var("g")
    binomial = UniPoly({}, "g")
    for k in range(n + 1):
        binomial = binomial + math.comb(n, k) * f_poly(2 * k)
    binomial = binomial.with_var("g")
    if substituted != binomial:
        raise IdentityError(
            f"theta(1,.) mismatch: {substituted} vs binomial form {binomial}"
        )
    return substituted, binomial


def golden_ratio_value(g: Multigraph, theta: ThetaPoly | None = None) -> int:
    """theta at b = 1 and g = 1 (i.e. xi at the golden ratio), checked
    exactly against its closed form for cycle rank n,
    ((5-sqrt5)/2)^(n-1) + ((5+sqrt5)/2)^(n-1).  That is the power sum
    s_{n-1} of two roots whose sum and product are both 5, so it is the
    integer s_{n-1} with s_{-1} = 1, s_0 = 2 and s_k = 5 s_{k-1} - 5 s_{k-2}.
    theta is passed to theta_at_beta1."""
    n = cycle_rank(g)
    closed, after = 1, 2  # s_{-1}, s_0
    for _ in range(n):
        closed, after = after, 5 * after - 5 * closed
    substituted, _ = theta_at_beta1(g, theta)
    value = substituted.eval(1)
    if value != closed:
        raise IdentityError(
            f"theta(1, golden) = {value} but closed form gives {closed}"
        )
    return closed


@dataclass(frozen=True)
class LoopCountBound:
    bound: int
    count: int
    attained: bool


def loop_count_bound(g: Multigraph, theta: ThetaPoly | None = None) -> LoopCountBound:
    """Count generalized loops against the golden-ratio bound theta(1, 1).

    theta(1, 1) sums prod_v f_{d_v(s)}(1) over the generalized loops s, and
    f_d(1) is the Fibonacci ladder: 1 at d = 0, 2 and 3, and at least 2 for
    d >= 4 (no loop has a node of degree one).  So every loop adds at least
    one, theta(1, 1) >= count, and equality holds exactly when no node of
    any generalized loop has degree above three; attained is that equality.
    theta is passed to golden_ratio_value.
    """
    count = count_generalized_loops(g)
    bound = golden_ratio_value(g, theta)
    if count > bound:
        raise IdentityError(f"loop count {count} exceeds bound {bound}")
    return LoopCountBound(bound=bound, count=count, attained=count == bound)


def _signed_edge_sum(g: Multigraph, bound: int, table) -> UniPoly:
    """sum over edge subsets s of (-b)^|s| prod_v table(d_v, b)[d_v(s)],
    with d_v node v's degree in g and d_v(s) its degree in s: one frontier
    sum packed at b = 2^B (poly.unpack), each edge weighing -2^B.  The
    caller proves bound above the sum of the coefficients' absolute values;
    B exceeds its bit length, which makes the unpacking exact.
    """
    ok, _ = is_connected(g)
    if not ok:
        raise ValueError("omega needs a connected graph")
    bits = bound.bit_length() + 1
    b = 1 << bits
    tables = [table(d, b) for d in g.degrees()]
    value, _ = SubsetWeights(g, tables, [-b] * len(g.edges)).frontier_sum(one=1)
    return UniPoly(unpack(value, bits), "b")


def omega(g: Multigraph) -> OmegaPoly:
    """omega by its matching form,

        omega(b) = sum over matchings N of (-b)^|N| prod_{v not in N} (1 + (d_v - 1) b),

    as a signed edge sum: node v's table weighs 1 + (d_v - 1) b at entry 0
    (unmatched), 1 at entry 1 and 0 above, so a self-loop (entry 2) is
    never taken.

    A matching maps one-to-one to a choice, at each node, of "unmatched"
    or one incident edge, so the coefficients' absolute values sum to at
    most sum_N prod_{v not in N} (1 + |d_v - 1|) <= prod_v (1 + |d_v - 1| + d_v),
    the bound the sum is packed under.

    omega_determinant_form proves the form on simple graphs.  It holds on
    multigraphs too, where the Ihara-Bass matrix has A_vv = 2 per self-loop
    and A_vw the edge multiplicity m: a self-loop as a member of the cycle
    set weighs +2u, cancelling the -2u it puts on the diagonal, and the
    C(m, 2) parallel pairs as 2-cycles weigh m(m-1) u^2, cancelling that
    part of the transposition's -m^2 u^2 and leaving -u^2 for each of the
    m edges.  The tests check it against _omega_by_theta on random
    multigraphs.
    """
    bound = math.prod(1 + abs(d - 1) + d for d in g.degrees())
    return OmegaPoly(_signed_edge_sum(
        g, bound, lambda d, b: ([1 + (d - 1) * b, 1] + [0] * d)[: d + 1]
    ))


def _omega_by_theta(g: Multigraph) -> OmegaPoly:
    """omega by its definition: theta at xi = sqrt(-1), divided exactly by
    (1-b)^(|E|-|V|); the independent route omega is checked against.

    There g = xi - 1/xi = 2i, and f_d(2i) = i^d (1 - d): both sides are 1
    and 0 at d = 0 and 1, and i^n (1 - n) satisfies the ladder's
    recurrence, since 2i i^n (1 - n) + i^(n-1) (2 - n) = i^(n-1) n
    = i^(n+1) (-n).  The degrees of an edge subset s sum to 2|s|, so
    prod_v i^(d_v(s)) = (-1)^|s| and

        theta(b, 2i) = sum_s (-b)^|s| prod_v (1 - d_v(s)),

    a signed edge sum with node tables 1 - x; subsets with a degree-one
    node vanish at entry 1, as f_1 = 0 makes them vanish in theta.  Each
    |1 - d_v(s)| is at most max(1, d_v - 1), so the coefficients' absolute
    values sum to at most 2^|E| prod_v max(1, d_v - 1), the bound the sum
    is packed under.

    A nonzero remainder of the division falsifies the divisibility
    statement and raises.  For trees the exponent is -1, so we multiply by
    (1-b) instead.
    """
    bound = (1 << len(g.edges)) * math.prod(max(1, d - 1) for d in g.degrees())
    at_imag = _signed_edge_sum(g, bound, lambda d, b: [1 - x for x in range(d + 1)])
    power = len(g.edges) - g.node_count
    one_minus_b = UniPoly({0: 1, 1: -1}, "b")
    if power < 0:
        return OmegaPoly(at_imag * one_minus_b)
    try:
        return OmegaPoly(exact_divide(at_imag, one_minus_b**power))
    except DivisibilityError as exc:
        raise IdentityError(
            f"theta(b, sqrt(-1)) not divisible by (1-b)^{power}: {exc}"
        ) from exc


def matching_polynomial(g: Multigraph) -> MatchingPoly:
    """alpha(x) = sum_k (-1)^k p(k) x^(n-2k) from the k-matching counts."""
    counts = enumerate_matchings(g)
    n = g.node_count
    coeffs = {}
    for k, p in enumerate(counts):
        if p:
            coeffs[n - 2 * k] = (-1) ** k * p
    return MatchingPoly(UniPoly(coeffs, "x"))


# ---------------------------------------------------------------------------
# Determinant-sum identity
# ---------------------------------------------------------------------------

def omega_determinant_form(g: Multigraph, w: OmegaPoly | None = None) -> UniPoly:
    """omega(u^2) in u, checked as the determinant sum over node-disjoint
    cycle sets C,

        sum_C 2^k(C) u^|C| det M[V minus the nodes of C],  M = I + u^2 (D - I) - u A,

    with D and A the degree and adjacency matrices of the full graph and
    k(C) the number of cycles in C.  w, when given, must be g's omega; it
    is computed otherwise.

    The sum is the matching form omega computes.  Expand each determinant
    over permutations of the kept nodes.  A permutation cycle of length
    L >= 3 runs along a graph cycle and weighs sign (-1)^(L-1) times
    (-u)^L, that is -u^L per orientation and -2u^L for both.  The same
    graph cycle as a member of C weighs 2u^L.  Group the terms by the
    cycles C and the long permutation cycles cover together and by the
    rest of the permutation: each of those cycles sits either in C or in
    the permutation, so the group sums to the product of 2u^L - 2u^L over
    them, zero unless there are none.  What survives is C empty with
    permutations of fixed points, weighing 1 + (d_v - 1) u^2, and
    transpositions along edges, weighing -(-u)^2 = -u^2: the matching sum
    at b = u^2.

    So the identity holds exactly when the matching form equals omega's
    definition, and the check compares w with _omega_by_theta, which
    also checks divisibility by (1-b)^(|E|-|V|).  Both are exact integer
    polynomials, so equal means equal coefficients.
    """
    if not g.is_simple():
        raise ValueError("determinant form needs a simple graph")
    ok, _ = is_connected(g)
    if not ok:
        raise ValueError("determinant form needs a connected graph")
    found = (w or omega(g)).poly.map_exponents(2).with_var("u")
    expected = _omega_by_theta(g).poly.map_exponents(2).with_var("u")
    if found != expected:
        raise IdentityError(
            f"determinant sum {found} differs from omega(u^2) = {expected}"
        )
    return found
