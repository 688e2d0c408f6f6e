"""Multigraphs and the combinatorial enumeration the series and the graph
polynomials are built on: generalized loops, node-disjoint cycle sets and
matchings.

Counting and listing are one frontier sum whose node tables alone decide
which edge subsets count; listing takes lists of edge bitmasks as values,
and its layered states are the ZDD of Knuth, TAOCP 4A 7.1.4.

Self-loops and parallel edges are first-class here because contraction
produces them; the inference modules reject them at model validation.
Everything is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SizeError

@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph: edges are an ordered list of endpoint pairs.

    Edge ids are list indices, so derived polynomials are reproducible.
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

    def degrees(self) -> list[int]:
        """Every node's degree, in one pass over the edges; a self-loop
        counts twice."""
        deg = [0] * self.node_count
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

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


def enumerate_generalized_loops(g: Multigraph, free_node: int | None = None):
    """All edge subsets (including the empty one) in which no node has
    degree exactly one, in lexicographic order on the edge-id bitmask (empty
    set first).

    free_node, when given, is exempt from the degree-one constraint; the
    marginal series needs that variant because the target node's weight is
    a g value and g_1 != 0.  Past TERMS_CAP loops SizeError is raised.
    """
    return _listed(g, _loop_tables(g, free_node), "generalized loops")


# Most frontier states held at once; past it frontier_sum raises SizeError
# rather than grow unbounded.  It bounds states, not values: theta's packed
# ints grow with the graph (tracemalloc peaks of theta_direct: K9, 80491
# states, 14 MB; the 8x8 grid, 57529 states of about 4 KB ints, 73 MB).
# Their width grows with the edge count, so on long, thin graphs they take
# more memory than coefficient dicts would (the 80x2 ladder: 6.2 MB against
# 5.4 MB).  With n-world vector values memory grows as states times n floats.
# The exact oracle's variable elimination (exact.py) holds 2^w states for a
# frontier of w variables, so STATE_CAP bounds 2^w there, checked from its
# plan; its table holds N + 1 values per state.
STATE_CAP = 1 << 17
# Most generalized loops SubsetWeights.terms lists (the 4x4 grid has 16372).
TERMS_CAP = 1 << 17


@dataclass(frozen=True)
class SubsetWeights:
    """The edge-subset sum  sum_s prod_{e in s} w_e * prod_v t_v[x_v(s)].

    x_v(s), node v's entry, is its degree in s (a self-loop counts twice)
    or, for a mask node, the bitmask of its incident edges in s, bit q for
    its q-th incident edge in id order.  Values need only + and *: floats
    for the series, ints for counts and for theta's polynomials packed at a
    power of two (graphpoly.theta_direct), numpy vectors with one value per
    "world" for several sums at once, and lists of edge bitmasks (_Subsets)
    to list the subsets themselves.
    """

    graph: Multigraph
    node_tables: list  # per node: its weight indexed by its entry
    edge_weights: list | None = None  # None: every edge weighs one
    mask_nodes: frozenset = frozenset()

    def _steps(self) -> list:
        """Per edge, the (node, entry increment) pair of each endpoint: the
        one entry rule, which frontier_sum's plan and terms both read."""
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

        The plan is compiled once per call: one pass over the edges assigns
        the fields and gives each step its packed increment and its retiring
        nodes, and every table entry is tested for zero once (None marks a
        zero).  Steps where no node or one node retires run unrolled loops;
        a step where two retire runs the general one.  Each loop visits the
        states in order and adds each state's skip branch, then its take
        branch, so every shape accumulates in the same order.
        """
        g = self.graph
        tables = [
            [None if (not w.any() if isinstance(w, np.ndarray) else w == 0) else w for w in t]
            for t in self.node_tables
        ]
        last = [-1] * g.node_count
        for e, (a, b) in enumerate(g.edges):
            last[a] = last[b] = e
        width = max(len(t) - 1 for t in tables).bit_length() or 1
        fmask = (1 << width) - 1
        slot, free, top, plan = [-1] * g.node_count, [], 0, []
        for e, steps in enumerate(self._steps()):
            inc = 0
            for v, d in steps:
                if slot[v] < 0:
                    slot[v], top = (free.pop(), top) if free else (top, top + 1)
                inc += d << slot[v] * width
            retire = [(slot[v] * width, tables[v], d) for v, d in steps if last[v] == e]
            free += [shift // width for shift, _, _ in retire]
            plan.append((inc, retire))
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
            get = new.get
            if not retire:
                for key, x in states.items():
                    old = get(key)
                    new[key] = x if old is None else old + x
                    key += inc
                    if w is not None:
                        x = x * w
                    old = get(key)
                    new[key] = x if old is None else old + x
            elif len(retire) == 1:
                # the retiring node's entry is d when skipped and d + dv when
                # taken (its table covers every entry it reaches, so the
                # field cannot carry), so both branches read one field of key
                ((shift, tab, dv),) = retire
                take, rest = tab[dv:], inc - (dv << shift)
                for key, x in states.items():
                    d = key >> shift & fmask
                    key -= d << shift
                    t = tab[d]
                    if t is not None:
                        y = x * t
                        old = get(key)
                        new[key] = y if old is None else old + y
                    t = take[d]
                    if t is not None:
                        if w is not None:
                            x = x * w
                        x = x * t
                        key += rest
                        old = get(key)
                        new[key] = x if old is None else old + x
            else:
                for key, val in states.items():
                    for k, x in ((key, val), (key + inc, val if w is None else val * w)):
                        for shift, tab, _ in retire:
                            d = (k >> shift) & fmask
                            t = tab[d]
                            if t is None:
                                break
                            x = x * t
                            k -= d << shift
                        else:
                            old = get(k)
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
        free_node), under the same cap; each weight multiplies the edge
        weights, then the mask nodes' and then the other nodes' table
        entries in id order."""
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


def _loop_tables(g: Multigraph, free_node=None) -> list:
    """0/1 node tables of the generalized loops, for counting and listing: a
    degree weighs one unless it is 1 (free_node exempt)."""
    return [[int(x != 1 or v == free_node) for x in range(d + 1)] for v, d in enumerate(g.degrees())]


def count_generalized_loops(g: Multigraph, by_size: bool = False):
    """Number of generalized loops, by a frontier sum; with by_size, as
    {|s|: count} in size order."""
    tables = _loop_tables(g)
    return SubsetWeights(g, tables).frontier_sum(by_size, one=1)[0]


class _Subsets(list):
    """A frontier-sum value listing edge subsets as int bitmasks: + joins the
    lists, * by a _Subsets ORs every pair of masks, * by a nonzero 0/1 table
    entry keeps the list, and one - one is empty."""

    def __add__(self, other):
        return _Subsets([*self, *other])

    def __mul__(self, other):
        return _Subsets([a | b for a in self for b in other]) if type(other) is _Subsets else self

    def __sub__(self, other):
        return _Subsets([a for a in self if a not in other])


def _listed(g: Multigraph, tables, what: str) -> list:
    """The edge subsets whose node degrees the 0/1 node tables all accept,
    as frozensets in lexicographic order on the edge-id bitmask (empty set
    first).  They are counted first, and past TERMS_CAP SizeError (naming
    them as `what`) is raised before any is listed; then a frontier sum in
    which edge e weighs its bit m-1-e lists them, and a sort orders them.
    """
    count = SubsetWeights(g, tables).frontier_sum(one=1)[0]
    if count > TERMS_CAP:
        raise SizeError(f"{count} {what} exceed the listing cap {TERMS_CAP}")
    m = len(g.edges)
    bits = [_Subsets([1 << (m - 1 - e)]) for e in range(m)]
    masks = SubsetWeights(g, tables, bits).frontier_sum(one=_Subsets([0]))[0]
    return [frozenset(e for e in range(m) if x >> (m - 1 - e) & 1) for x in sorted(masks)]


def enumerate_disjoint_cycles(g: Multigraph):
    """All edge subsets C in which every touched node has degree exactly 2
    (the generalized loops with no degree above two), paired with k(C), the
    number of connected components of C; the empty set has k = 0.  Past
    TERMS_CAP sets SizeError is raised."""
    n = g.node_count
    tables = [[int(x in (0, 2)) for x in range(d + 1)] for d in g.degrees()]
    # C touches |C| nodes, so the graph C spans has k(C) + n - |C| components
    return [
        (c, is_connected(Multigraph(n, tuple(g.edges[e] for e in c)))[1] - n + len(c))
        for c in _listed(g, tables, "disjoint cycle sets")
    ]


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

NODE_CAP = 1 << 16  # the most nodes an edge-list header may declare


def parse_edge_list(text: str) -> Multigraph:
    """The graph of an edge list.  A line that is not two integers, a
    negative M, an M other than the number of edge lines, or an N above
    NODE_CAP raises ValueError, before anything of size N is built."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    n, m = _int_pair(lines[0], "first line must be 'N M'")
    if m < 0:
        raise ValueError(f"the edge count M must be non-negative, got {m}")
    if n > NODE_CAP:
        raise ValueError(f"{n} nodes exceed the edge-list cap of {NODE_CAP}")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(lines) - 1}")
    return Multigraph(n, tuple(
        _int_pair(ln, f"edge line {k} must be 'a b'") for k, ln in enumerate(lines[1:], 1)
    ))


def _int_pair(line: str, what: str) -> tuple[int, int]:
    try:
        a, b = map(int, line.split())
    except ValueError:
        raise ValueError(f"{what}, got {line!r}") from None
    return a, b


def render_edge_list(g: Multigraph) -> str:
    out = [f"{g.node_count} {len(g.edges)}"]
    out.extend(f"{a} {b}" for a, b in g.edges)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Stock graph families.
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


def two_triangles_graph() -> Multigraph:
    """Two triangles joined by a bridge: 6 nodes, 7 edges.

    The canonical small graph with cycle rank 2 and exactly five
    generalized loops.
    """
    return Multigraph(6, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)))
