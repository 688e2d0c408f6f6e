"""Multigraphs and the combinatorial enumeration the series and the graph
polynomials are built on: generalized loops, node-disjoint cycle sets,
matchings, contraction and deletion.

Self-loops and parallel edges are first-class here because contraction
produces them; the inference modules reject them at model validation.
Everything is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SizeError

# An edge subset is a frozenset of edge ids of its host multigraph.
EdgeSubset = frozenset


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph: edges are an ordered list of endpoint pairs.

    Edge ids are list indices and survive deletion/contraction in relative
    order, so derived polynomials are reproducible.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.node_count <= 0:
            raise ValueError("node_count must be positive")
        object.__setattr__(
            self, "edges", tuple((int(a), int(b)) for a, b in self.edges)
        )
        for a, b in self.edges:
            if not (0 <= a < self.node_count and 0 <= b < self.node_count):
                raise ValueError(f"edge ({a},{b}) out of range")

    def degree(self, i: int) -> int:
        """Degree in the full graph; a self-loop counts twice."""
        return degree_in_subset(self, range(len(self.edges)), i)

    def degrees(self) -> list[int]:
        """Every node's degree, in one pass over the edges."""
        deg = [0] * self.node_count
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def incident_edges(self, i: int) -> list[int]:
        out = []
        for e, (a, b) in enumerate(self.edges):
            if a == i or b == i:
                out.append(e)
        return out

    def has_self_loop(self) -> bool:
        return any(a == b for a, b in self.edges)

    def is_simple(self) -> bool:
        seen = set()
        for a, b in self.edges:
            if a == b:
                return False
            key = (min(a, b), max(a, b))
            if key in seen:
                return False
            seen.add(key)
        return True


def degree_in_subset(g: Multigraph, s, i: int) -> int:
    """Number of endpoint incidences of node i among edges in s."""
    if not (0 <= i < g.node_count):
        raise ValueError(f"node id {i} out of range")
    d = 0
    for e in s:
        a, b = g.edges[e]
        if a == i:
            d += 1
        if b == i:
            d += 1
    return d


def is_connected(g: Multigraph) -> tuple[bool, int]:
    """(connected?, number of connected components); isolated nodes count."""
    adj = [[] for _ in range(g.node_count)]
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * g.node_count
    comps = 0
    for start in range(g.node_count):
        if seen[start]:
            continue
        comps += 1
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return comps == 1, comps


def cycle_rank(g: Multigraph) -> int:
    """|E| - |V| + 1 for a connected multigraph."""
    ok, comps = is_connected(g)
    if not ok:
        raise ValueError(f"cycle rank needs a connected graph (got {comps} components)")
    return len(g.edges) - g.node_count + 1


def contract(g: Multigraph, e: int) -> Multigraph:
    """Merge the endpoints of a non-loop edge e; the merged node takes the
    smaller id and higher ids shift down by one."""
    a, b = g.edges[e]
    if a == b:
        raise ValueError("cannot contract a self-loop")
    lo, hi = min(a, b), max(a, b)

    def remap(v: int) -> int:
        if v == hi:
            return lo
        return v - 1 if v > hi else v

    edges = tuple(
        (remap(x), remap(y)) for i, (x, y) in enumerate(g.edges) if i != e
    )
    return Multigraph(g.node_count - 1, edges)


def delete(g: Multigraph, e: int) -> Multigraph:
    """Remove edge e, keeping all nodes."""
    if not (0 <= e < len(g.edges)):
        raise ValueError(f"edge id {e} out of range")
    return Multigraph(g.node_count, tuple(p for i, p in enumerate(g.edges) if i != e))


def two_core(g: Multigraph) -> tuple[Multigraph | None, list[int]]:
    """(reduced 2-core, original ids of its nodes in id order).

    Non-loop edges with an endpoint of degree one are deleted until none is
    left; a self-loop counts two, so a node whose only edge is a self-loop
    stays.  Nodes left with no edge are dropped, the survivors renumbered in
    id order, and the kept edges keep their relative order.  No generalized
    loop holds a pendant edge, so the core has the same generalized loops.
    The core is None when nothing survives (g is a forest).
    """
    deg = g.degrees()
    incident: list[list[int]] = [[] for _ in range(g.node_count)]
    for e, (a, b) in enumerate(g.edges):
        if a != b:
            incident[a].append(e)
            incident[b].append(e)
    alive = [True] * len(g.edges)
    leaves = [v for v, d in enumerate(deg) if d == 1]
    while leaves:
        v = leaves.pop()
        if deg[v] != 1:  # its edge went when its neighbour was stripped
            continue
        e = next(e for e in incident[v] if alive[e])
        alive[e] = False
        a, b = g.edges[e]
        deg[a] -= 1
        deg[b] -= 1
        w = a + b - v
        if deg[w] == 1:
            leaves.append(w)
    kept = [v for v, d in enumerate(deg) if d]
    if not kept:
        return None, kept
    if len(kept) == g.node_count and all(alive):
        return g, kept
    new_id = {v: i for i, v in enumerate(kept)}
    edges = tuple((new_id[a], new_id[b]) for (a, b), ok in zip(g.edges, alive) if ok)
    return Multigraph(len(kept), edges), kept


def enumerate_generalized_loops(g: Multigraph, free_node: int | None = None):
    """All edge subsets (including the empty one) in which no node has
    degree exactly one, in lexicographic order on the edge-id bitmask (empty
    set first).

    free_node, when given, is exempt from the degree-one constraint; the
    marginal series needs that variant because the target node's weight is
    a g value and g_1 != 0.
    """
    return _branch_and_prune(g, free_node)


def _branch_and_prune(g: Multigraph, free_node=None, max_degree=None) -> list:
    """Edge subsets in which no node but free_node has degree one and no
    node exceeds max_degree: branch on each edge in id order, pruning as soon
    as a node breaks the degree bound or retires with degree one."""
    m = len(g.edges)
    last_touch = [-1] * g.node_count
    for e, (a, b) in enumerate(g.edges):
        last_touch[a] = e
        last_touch[b] = e
    top = 2 * m if max_degree is None else max_degree
    deg = [0] * g.node_count
    chosen: list[int] = []
    out: list[EdgeSubset] = []

    def ok_after(e: int) -> bool:
        a, b = g.edges[e]
        for v in (a, b) if a != b else (a,):
            if deg[v] > top:
                return False
            if v != free_node and last_touch[v] == e and deg[v] == 1:
                return False
        return True

    def rec(e: int) -> None:
        if e == m:
            out.append(frozenset(chosen))
            return
        a, b = g.edges[e]
        # exclude e
        if ok_after(e):
            rec(e + 1)
        # include e
        deg[a] += 1
        deg[b] += 1
        if ok_after(e):
            chosen.append(e)
            rec(e + 1)
            chosen.pop()
        deg[a] -= 1
        deg[b] -= 1

    rec(0)
    return out


def enumerate_generalized_loops_naive(g: Multigraph, free_node: int | None = None):
    """Test oracle: filter all 2^|E| subsets directly (|E| <= 16 enforced)."""
    m = len(g.edges)
    if m > 16:
        raise SizeError("naive loop enumeration capped at 16 edges")
    out = []
    for mask in range(1 << m):
        s = [e for e in range(m) if (mask >> e) & 1]
        deg = [0] * g.node_count
        for e in s:
            a, b = g.edges[e]
            deg[a] += 1
            deg[b] += 1
        if all(d != 1 for i, d in enumerate(deg) if i != free_node):
            out.append(frozenset(s))
    # bitmask-lex order: membership string with edge 0 most significant
    out.sort(key=lambda s: tuple(e in s for e in range(m)))
    return out


# Most frontier states held at once (with theta's polynomial values, about
# 50 MB); past it frontier_sum raises SizeError rather than grow unbounded.
# It bounds states, not values: with n-world vector values memory grows as
# states times n floats.
STATE_CAP = 1 << 17
# Most generalized loops SubsetWeights.terms lists (the 4x4 grid has 16372).
TERMS_CAP = 1 << 17


@dataclass(frozen=True)
class SubsetWeights:
    """The edge-subset sum  sum_s prod_{e in s} w_e * prod_v t_v[x_v(s)].

    x_v(s), node v's entry, is its degree in s (a self-loop counts twice)
    or, for a mask node, the bitmask of its incident edges in s, bit q for
    its q-th incident edge in id order.  Values need only + and *: floats
    for the series, ints for counts, exact polynomials for theta, and numpy
    vectors with one value per "world" for several sums at once.
    """

    graph: Multigraph
    node_tables: list  # per node: its weight indexed by its entry
    edge_weights: list | None = None  # None: every edge weighs one
    mask_nodes: frozenset = frozenset()

    def _steps(self) -> list:
        """Per edge, the (node, entry increment) pair of each endpoint."""
        seen = [0] * self.graph.node_count
        out = []
        for a, b in self.graph.edges:
            ends = [(a, 2)] if a == b else [(a, 1), (b, 1)]
            out.append([(v, 1 << seen[v] if v in self.mask_nodes else d) for v, d in ends])
            for v, _ in ends:
                seen[v] += 1
        return out

    def frontier_sum(self, by_size: bool = False, one=1.0):
        """(sum, peak state count), folding the edges in id order.

        A state's key packs the entries of the frontier nodes (touched, last
        edge still to come) into fixed-width bit fields of one int; its
        value sums the weights of the partial subsets that reach it.  When a
        node's last edge is done its table weight is applied, states it
        weighs zero are dropped, and its field is freed for a later node.
        With by_size the key also counts |s|, and the sum comes back as
        {|s|: sum} in size order.  A vector table entry drops a state only
        when it is zero in every world; a state kept for one world carries
        zeros in the others.
        """
        g = self.graph
        tables = [[None if _is_zero(w) else w for w in t] for t in self.node_tables]
        last = [-1] * g.node_count
        for e, (a, b) in enumerate(g.edges):
            last[a] = last[b] = e
        width = max(len(t) - 1 for t in tables).bit_length() or 1
        fmask = (1 << width) - 1
        slot, free, top, plan = [-1] * g.node_count, [], 0, []
        for e, steps in enumerate(self._steps()):
            for v, _ in steps:
                if slot[v] < 0:
                    slot[v], top = (free.pop(), top) if free else (top, top + 1)
            done = [v for v, _ in steps if last[v] == e]
            plan.append((
                sum(d << slot[v] * width for v, d in steps),
                [(slot[v] * width, tables[v]) for v in done],
            ))
            free += [slot[v] for v in done]
        size_shift = top * width
        inc_size = 1 << size_shift if by_size else 0
        states = {0: one}
        for v in range(g.node_count):
            if last[v] < 0:  # untouched: entry 0 throughout
                w = tables[v][0]
                states = {k: x * w for k, x in states.items() if w is not None}
        peak = len(states)
        for (inc, retire), w in zip(plan, self.edge_weights or [None] * len(plan)):
            inc += inc_size
            new: dict = {}
            for key, val in states.items():
                for k, x in ((key, val), (key + inc, val if w is None else val * w)):
                    for shift, tab in retire:
                        d = (k >> shift) & fmask
                        t = tab[d]
                        if t is None:
                            break
                        x = x * t
                        k -= d << shift
                    else:
                        old = new.get(k)
                        new[k] = x if old is None else old + x
            states = new
            peak = max(peak, len(states))
            if peak > STATE_CAP:
                raise SizeError(f"the frontier sum needs more than {STATE_CAP} states")
        if by_size:
            return {k >> size_shift: x for k, x in sorted(states.items())}, peak
        return states.get(0, one - one), peak

    def terms(self, free_node: int | None = None) -> list:
        """[(s, weight of s)] over enumerate_generalized_loops(graph,
        free_node); each weight multiplies the edge weights, then the mask
        nodes' and then the other nodes' table entries in id order.  The
        loops are counted first, and past TERMS_CAP SizeError is raised
        before any is listed."""
        count = count_generalized_loops(self.graph, free_node)
        if count > TERMS_CAP:
            raise SizeError(f"{count} generalized loops exceed the listing cap {TERMS_CAP}")
        n, steps = self.graph.node_count, self._steps()
        order = sorted(self.mask_nodes) + [v for v in range(n) if v not in self.mask_nodes]
        out = []
        for s in enumerate_generalized_loops(self.graph, free_node):
            x = [0] * n
            for e in s:
                for v, d in steps[e]:
                    x[v] += d
            r = math.prod(self.edge_weights[e] for e in s) if self.edge_weights else 1.0
            for v in order:
                r *= self.node_tables[v][x[v]]
            out.append((s, r))
        return out


def _is_zero(w) -> bool:
    """Whether a table entry weighs zero (a vector: in every world)."""
    return not w.any() if isinstance(w, np.ndarray) else w == 0


def count_generalized_loops(
    g: Multigraph,
    free_node: int | None = None,
    max_degree: int | None = None,
    by_size: bool = False,
):
    """Number of generalized loops (free_node exempt from the degree-one
    rule), by a frontier sum; with max_degree, only those in which no node
    exceeds it; with by_size, as {|s|: count} in size order."""
    top = max(g.degrees()) if max_degree is None else max_degree
    tables = [
        [int((x != 1 or v == free_node) and x <= top) for x in range(d + 1)]
        for v, d in enumerate(g.degrees())
    ]
    return SubsetWeights(g, tables).frontier_sum(by_size, one=1)[0]


def enumerate_disjoint_cycles(g: Multigraph):
    """All edge subsets C in which every touched node has degree exactly 2,
    paired with k(C), the number of connected components of C.

    The empty set is included with k = 0.  The sets are counted first (the
    generalized loops with no node above degree two), and past TERMS_CAP
    SizeError is raised before any is listed.
    """
    count = count_generalized_loops(g, max_degree=2)
    if count > TERMS_CAP:
        raise SizeError(f"{count} disjoint cycle sets exceed the listing cap {TERMS_CAP}")
    return [(c, _component_count(g, c)) for c in _branch_and_prune(g, max_degree=2)]


def _component_count(g: Multigraph, edge_ids) -> int:
    """Connected components of the subgraph induced by edge_ids."""
    parent: dict[int, int] = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edge_ids:
        a, b = g.edges[e]
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in parent})


def enumerate_matchings(g: Multigraph) -> list[int]:
    """k-matching counts p(k) for k = 0..floor(n/2); p(0) = 1.  A matching
    is an edge subset in which every node has degree 0 or 1, so the counts
    are one by-size frontier sum."""
    if g.has_self_loop():
        raise ValueError("matchings are undefined on graphs with self-loops")
    tables = [[int(x <= 1) for x in range(d + 1)] for d in g.degrees()]
    by_size = SubsetWeights(g, tables).frontier_sum(by_size=True, one=1)[0]
    return [by_size.get(k, 0) for k in range(g.node_count // 2 + 1)]


# ---------------------------------------------------------------------------
# Edge-list text format: first line "N M", then M lines "a b".
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Multigraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'N M'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        a, b = ln.split()
        edges.append((int(a), int(b)))
    return Multigraph(n, tuple(edges))


def render_edge_list(g: Multigraph) -> str:
    out = [f"{g.node_count} {len(g.edges)}"]
    out.extend(f"{a} {b}" for a, b in g.edges)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Stock constructions used by tests and the CLI generator.
# ---------------------------------------------------------------------------

def path_graph(n: int) -> Multigraph:
    return Multigraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Multigraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Multigraph:
    return Multigraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def star_graph(n: int) -> Multigraph:
    """Node 0 joined to each of the other n-1 nodes."""
    return Multigraph(n, tuple((0, i) for i in range(1, n)))


def grid_graph(rows: int, cols: int) -> Multigraph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Multigraph(rows * cols, tuple(edges))


def bouquet_graph(loops: int) -> Multigraph:
    """A single node with the given number of self-loops."""
    return Multigraph(1, tuple((0, 0) for _ in range(loops)))


def parallel_edges_graph(count: int = 2) -> Multigraph:
    """Two nodes joined by `count` parallel edges."""
    return Multigraph(2, tuple((0, 1) for _ in range(count)))


def two_triangles_graph() -> Multigraph:
    """Two triangles joined by a bridge: 6 nodes, 7 edges.

    The canonical small graph with cycle rank 2 and exactly five
    generalized loops.
    """
    return Multigraph(6, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)))
