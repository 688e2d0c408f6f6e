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
from array import array
from dataclasses import dataclass

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


# Most frontier states held at once; past it frontier_sum and swapped_sums
# raise SizeError rather than grow unbounded.  It bounds states, not values:
# theta's packed ints grow with the graph (tracemalloc peaks of theta_direct:
# K9, 80491 states, 14 MB; the 8x8 grid, 57529 states of about 4 KB ints,
# 73 MB).  Their width grows with the edge count, so on long, thin graphs
# they take more memory than coefficient dicts would (the 80x2 ladder: 6.2 MB
# against 5.4 MB).  swapped_sums stores every step's states at about 16 bytes
# each, so its stored layers grow as the edge count times the average state
# count (the 12x12 grid's marginal series: 10240 peak states, a tracemalloc
# peak of 31 MB).  The exact oracle's variable elimination (exact.py) holds
# 2^w states for a frontier of w variables, so STATE_CAP bounds 2^w there,
# checked from its plan; its table holds N + 1 values per state.
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
    power of two (graphpoly.theta_direct), and lists of edge bitmasks
    (_Subsets) to list the subsets themselves.  swapped_sums gives, for
    float values, the sum with each of several node tables swapped, all
    from one forward and one backward pass.
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

    def _plan(self):
        """The fold that frontier_sum and swapped_sums run, compiled once per
        call: (tables, untouched nodes, plan, key bits, field mask).

        One pass over the edges assigns each touched node a fixed-width bit
        field of the state key and gives each step its packed increment and
        its retiring nodes as (shift, table, entry increment, node).  Every
        table entry is tested for zero once (None marks a zero).  A field
        is freed when its node retires, and key bits is the width of the
        fields that are ever in use at once."""
        g = self.graph
        tables = [[None if w == 0 else w for w in t] for t in self.node_tables]
        last = [-1] * g.node_count
        for e, (a, b) in enumerate(g.edges):
            last[a] = last[b] = e
        width = max(len(t) - 1 for t in tables).bit_length() or 1
        slot, free, top, plan = [-1] * g.node_count, [], 0, []
        for e, steps in enumerate(self._steps()):
            inc = 0
            for v, d in steps:
                if slot[v] < 0:
                    slot[v], top = (free.pop(), top) if free else (top, top + 1)
                inc += d << slot[v] * width
            retire = [(slot[v] * width, tables[v], d, v) for v, d in steps if last[v] == e]
            free += [shift // width for shift, *_ in retire]
            plan.append((inc, retire))
        untouched = [v for v in range(g.node_count) if last[v] < 0]
        return tables, untouched, plan, top * width, (1 << width) - 1

    def frontier_sum(self, by_size: bool = False, one=1.0):
        """(sum, peak state count), folding the edges in id order.

        A state's key packs the entries of the frontier nodes (touched, last
        edge still to come) into fixed-width bit fields of one int; its
        value sums the weights of the partial subsets that reach it.  When a
        node's last edge is done its table weight is applied, states it
        weighs zero are dropped, and its field is freed for a later node.
        With by_size the key also counts |s|, and the sum comes back as
        {|s|: sum} in size order.

        The plan is _plan's.  Steps where no node or one node retires run
        unrolled loops; a step where two retire runs the general one.  Each
        loop visits the states in order and adds each state's skip branch,
        then its take branch, so every shape accumulates in the same order.
        """
        tables, untouched, plan, size_shift, fmask = self._plan()
        inc_size = 1 << size_shift if by_size else 0
        states = {0: one}
        for v in untouched:  # entry 0 throughout
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
                ((shift, tab, dv, _),) = retire
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
                        for shift, tab, _, _ in retire:
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

    def swapped_sums(self, alt_tables: dict):
        """(sum, {v: the sum with node v's table replaced by alt_tables[v]},
        peak state count) for float values, by one forward and one backward
        pass over frontier_sum's plan.  Each alternative table has its
        node's table's length.

        The sum is multilinear in each node's table, so v's swapped sum is
        sum_d alt_v[d] * dZ/dt_v[d] (Darwiche 2003, "A differential
        approach to inference in Bayesian networks").  Node v's table is
        applied only where v retires, so it is read there: the forward
        weight of each state before the step, times alt_v at each branch's
        entry and the other retiring nodes' entries, times the backward
        weight (the sum over completions) of the state the branch reaches.

        The forward pass folds the states in frontier_sum's order, so the
        sum is frontier_sum()'s bit for bit.  The backward weights must also
        cover states that the sum prunes but a swap reaches (f_1 = 0 where
        g_1 = -2 in the marginal series), so the forward pass also keeps the
        keys reached through exactly one retiring entry that is zero in its
        table and nonzero in its alternative, and drops such a key at its
        next zero entry.  The peak and STATE_CAP count both kinds of state.
        Each step's states are stored compactly (keys in an array of
        int64, or a list past 63 key bits; forward weights in an array of
        doubles), so the stored layers take about 16 bytes times the edge
        count times the average state count.
        """
        tables, untouched, plan, key_bits, fmask = self._plan()
        # per swapped node: where its entry is zero and its alternative is not
        hits = {
            v: [t is None and a != 0 for t, a in zip(tables[v], alt)]
            for v, alt in alt_tables.items()
        }
        edge_weights = self.edge_weights or [None] * len(plan)

        def layer(states, extra):
            keys = list(states) if key_bits > 63 else array("q", states)
            keys.extend(extra)
            return keys, array("d", states.values())

        states, extra = {0: 1.0}, set()
        for v in untouched:  # entry 0 throughout
            w = tables[v][0]
            if w is not None:
                states = {k: x * w for k, x in states.items()}
            else:
                extra = set(states) if v in hits and hits[v][0] else set()
                states = {}
        layers = [layer(states, extra)]
        peak = len(states) + len(extra)
        for (inc, retire), w in zip(plan, edge_weights):
            new: dict = {}
            get = new.get
            reached = set()
            add = reached.add
            if not retire:
                for key, x in states.items():
                    old = get(key)
                    new[key] = x if old is None else old + x
                    key += inc
                    if w is not None:
                        x = x * w
                    old = get(key)
                    new[key] = x if old is None else old + x
                for key in extra:
                    add(key)
                    add(key + inc)
            elif len(retire) == 1:
                ((shift, tab, dv, v),) = retire
                take, rest = tab[dv:], inc - (dv << shift)
                hit = hits.get(v) or [False] * len(tab)
                hit_take = hit[dv:]
                for key, x in states.items():
                    d = key >> shift & fmask
                    key -= d << shift
                    t = tab[d]
                    if t is not None:
                        y = x * t
                        old = get(key)
                        new[key] = y if old is None else old + y
                    elif hit[d]:
                        add(key)
                    t = take[d]
                    key += rest
                    if t is not None:
                        if w is not None:
                            x = x * w
                        x = x * t
                        old = get(key)
                        new[key] = x if old is None else old + x
                    elif hit_take[d]:
                        add(key)
                for key in extra:
                    d = key >> shift & fmask
                    key -= d << shift
                    if tab[d] is not None:
                        add(key)
                    if take[d] is not None:
                        add(key + rest)
            else:
                for key, val in states.items():
                    for k, x in ((key, val), (key + inc, val if w is None else val * w)):
                        swapped = False
                        for shift, tab, _, v in retire:
                            d = (k >> shift) & fmask
                            k -= d << shift
                            t = tab[d]
                            if t is not None:
                                x = x * t
                            elif swapped or not (v in hits and hits[v][d]):
                                break
                            else:
                                swapped = True
                        else:
                            if swapped:
                                add(k)
                            else:
                                old = get(k)
                                new[k] = x if old is None else old + x
                for key in extra:
                    for k in (key, key + inc):
                        for shift, tab, _, _ in retire:
                            d = (k >> shift) & fmask
                            if tab[d] is None:
                                break
                            k -= d << shift
                        else:
                            add(k)
            states = new
            extra = {k for k in reached if k not in new}
            peak = max(peak, len(states) + len(extra))
            if peak > STATE_CAP:
                raise SizeError(f"the frontier sum needs more than {STATE_CAP} states")
            layers.append(layer(states, extra))
        total = states.get(0, 0.0)

        # Backward: beta maps each stored key of a layer to the sum over its
        # completions; every final key is 0.  A successor that is not stored
        # is reached only through a zero entry, so it reads as 0.0, and the
        # tables are read as given, zeros included.
        node_tables = self.node_tables
        sums = dict.fromkeys(alt_tables, 0.0)
        beta = {0: 1.0}
        layers.pop()
        for (inc, retire), w in zip(reversed(plan), reversed(edge_weights)):
            keys, vals = layers.pop()
            w = 1.0 if w is None else w
            get = beta.get
            out = []
            append = out.append
            if not retire:
                for key in keys:
                    append(get(key, 0.0) + w * get(key + inc, 0.0))
            elif len(retire) == 1:
                ((shift, _, dv, v),) = retire
                rest = inc - (dv << shift)
                f = node_tables[v]
                wf = [w * t for t in f[dv:]]
                it = iter(keys)
                if v in alt_tables:
                    a = alt_tables[v]
                    wa = [w * t for t in a[dv:]]
                    acc = 0.0
                    for x, key in zip(vals, it):
                        d = key >> shift & fmask
                        key -= d << shift
                        bs = get(key, 0.0)
                        bt = get(key + rest, 0.0)
                        append(f[d] * bs + wf[d] * bt)
                        acc += x * (a[d] * bs + wa[d] * bt)
                    sums[v] += acc
                for key in it:
                    d = key >> shift & fmask
                    key -= d << shift
                    append(f[d] * get(key, 0.0) + wf[d] * get(key + rest, 0.0))
            else:
                # a non-loop edge whose ends both retire: inc is their two
                # increments, so both branches reach the same key
                (s1, _, dv1, v1), (s2, _, dv2, v2) = retire
                f1, f2 = node_tables[v1], node_tables[v2]
                a1, a2 = alt_tables.get(v1), alt_tables.get(v2)
                acc1 = acc2 = 0.0
                it = iter(keys)
                if a1 is not None or a2 is not None:
                    for x, key in zip(vals, it):
                        d1 = key >> s1 & fmask
                        d2 = key >> s2 & fmask
                        b = get(key - (d1 << s1) - (d2 << s2), 0.0)
                        bt = w * b
                        append(f1[d1] * f2[d2] * b + f1[d1 + dv1] * f2[d2 + dv2] * bt)
                        if a1 is not None:
                            acc1 += x * (a1[d1] * f2[d2] * b + a1[d1 + dv1] * f2[d2 + dv2] * bt)
                        if a2 is not None:
                            acc2 += x * (f1[d1] * a2[d2] * b + f1[d1 + dv1] * a2[d2 + dv2] * bt)
                    if a1 is not None:
                        sums[v1] += acc1
                    if a2 is not None:
                        sums[v2] += acc2
                for key in it:
                    d1 = key >> s1 & fmask
                    d2 = key >> s2 & fmask
                    b = get(key - (d1 << s1) - (d2 << s2), 0.0)
                    append((f1[d1] * f2[d2] + w * f1[d1 + dv1] * f2[d2 + dv2]) * b)
            beta = dict(zip(keys, out))
        # an untouched node's entry 0 multiplies the whole sum
        beta0 = beta.get(0, 0.0)
        for v in untouched:
            if v in alt_tables:
                others = math.prod(node_tables[u][0] for u in untouched if u != v)
                sums[v] = alt_tables[v][0] * others * beta0
        return total, sums, peak

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

def cycle_graph(n: int) -> Multigraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Multigraph:
    return Multigraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


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
