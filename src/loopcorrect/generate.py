"""Seeded random topologies and exponential-family test models.

Pairwise tables are exp(J_ij x_i x_j) and unary tables exp(h_i x_i) with
parameters drawn uniformly from [-J, J] and [-h, h]; this spans the weak
and strong coupling regimes the series is meant to probe.  Identical seeds
give identical models.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import GenerationError
from .graph import (
    NODE_CAP,
    Multigraph,
    cycle_graph,
    grid_graph,
    is_connected,
    two_triangles_graph,
)
from .model import FactorModel, PairwiseModel

# Uniform draws random_connected_graph makes before it builds a connected
# graph directly.
CONNECTED_DRAWS = 200
# random_connected_graph makes no uniform draw when a draw's expected count
# of isolated nodes, n e^(-2m/n), is above this.  Nodes are isolated nearly
# independently, so a draw has none with probability about e^-8 = 3e-4
# there, and all CONNECTED_DRAWS draws fail with probability above 0.9.
ISOLATED_LIMIT = 8
# The most edges random_connected_graph draws: four per node at NODE_CAP
# nodes, about twice a grid's.  Its draws hold memory in proportion to the
# edge count, so without a cap gen random 65536 2000000000 asks for 16 GiB.
EDGE_CAP = 4 * NODE_CAP


def random_tree(n: int, rng: np.random.Generator) -> Multigraph:
    """Uniform attachment tree: node i joins a random earlier node."""
    edges = tuple(
        (int(rng.integers(0, i)), i) for i in range(1, n)
    )
    return Multigraph(n, edges)


def _edges(n: int, positions: list) -> tuple:
    """The pairs i < j < n at the given positions of the lexicographic list
    of all such pairs, in ascending position order, without building that
    list.  The sort is Python's: the first np.sort call in a process maps
    about 0.3 MB of sorting code."""
    positions = np.array(sorted(positions), dtype=np.int64)
    rows = np.arange(n)
    starts = rows * (2 * n - rows - 1) // 2  # the position of (i, i + 1)
    i = np.searchsorted(starts, positions, side="right") - 1
    return tuple(zip(i.tolist(), (i + 1 + positions - starts[i]).tolist()))


def random_connected_graph(n: int, m: int, rng: np.random.Generator) -> Multigraph:
    """Random simple connected graph with exactly m edges, in lexicographic
    edge order.

    Up to CONNECTED_DRAWS times it draws m of the n(n-1)/2 pairs uniformly
    and keeps the first connected draw.  If none is connected (likely when
    m is near n - 1), it builds one directly: a random spanning tree plus
    m - n + 1 distinct pairs drawn from the rest.  It goes straight to that
    construction when a uniform draw is hopeless, expecting more than
    ISOLATED_LIMIT isolated nodes.  No list of all pairs is built, and an m
    above EDGE_CAP is a GenerationError before any draw."""
    if m > EDGE_CAP:
        raise GenerationError(f"{m} edges exceed the generator cap of {EDGE_CAP}")
    pair_count = n * (n - 1) // 2
    if m < n - 1 or m > pair_count:
        raise GenerationError(f"no simple connected graph with n={n}, m={m}")
    hopeless = n * math.exp(-2 * m / n) > ISOLATED_LIMIT
    for _ in range(0 if hopeless else CONNECTED_DRAWS):
        pick = rng.choice(pair_count, size=m, replace=False)
        g = Multigraph(n, _edges(n, pick.tolist()))
        if is_connected(g)[0]:
            return g
    order = rng.permutation(n)
    a, b = order[1:], order[rng.integers(0, np.arange(1, n))]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    tree = sorted((lo * (2 * n - lo - 1) // 2 + hi - lo - 1).tolist())
    # the r-th smallest position off the tree is r plus the number of tree
    # positions t_k with t_k - k <= r
    ranks = sorted(rng.choice(pair_count - (n - 1), size=m - n + 1, replace=False).tolist())
    extra = ranks + np.searchsorted(np.array(tree) - np.arange(n - 1), ranks, side="right")
    return Multigraph(n, _edges(n, tree + extra.tolist()))


def single_cycle_graph(
    cycle_len: int, extra_nodes: int, rng: np.random.Generator
) -> Multigraph:
    """A cycle through nodes 0..cycle_len-1 with a random pendant tree."""
    g = cycle_graph(cycle_len)
    n = cycle_len
    edges = list(g.edges)
    for _ in range(extra_nodes):
        edges.append((int(rng.integers(0, n)), n))
        n += 1
    return Multigraph(n, tuple(edges))


def ising_model(
    g: Multigraph,
    rng: np.random.Generator,
    coupling: float = 1.0,
    field: float = 0.5,
) -> PairwiseModel:
    """Pairwise model with psi = exp(J x y), phi = exp(h x) on graph g."""
    psi = []
    for _ in g.edges:
        j = float(rng.uniform(-coupling, coupling))
        e, einv = math.exp(j), math.exp(-j)
        psi.append(((e, einv), (einv, e)))
    phi = []
    for _ in range(g.node_count):
        h = float(rng.uniform(-field, field))
        phi.append((math.exp(-h), math.exp(h)))
    return PairwiseModel(g, tuple(psi), tuple(phi))


def random_factor_model(
    rng: np.random.Generator,
    max_vars: int = 8,
    max_arity: int = 3,
    max_incidences: int = 14,
    strength: float = 1.0,
) -> FactorModel:
    """Random connected factor model within an incidence-count budget.

    Builds a spanning chain of pairwise factors first (so every variable is
    covered and the incidence graph is connected), then spends the remaining
    budget on random factors of arity up to max_arity.
    """
    n = int(rng.integers(3, max_vars + 1))
    factors = []
    budget = max_incidences
    order = list(rng.permutation(n))
    for a, b in zip(order, order[1:]):
        factors.append(_random_factor((int(a), int(b)), rng, strength))
        budget -= 2
    while budget >= 2:
        arity = int(rng.integers(2, min(max_arity, budget, n) + 1))
        scope = tuple(int(v) for v in rng.choice(n, size=arity, replace=False))
        factors.append(_random_factor(scope, rng, strength))
        budget -= arity
        if rng.uniform() < 0.35:
            break
    return FactorModel(n, tuple(factors))


def _random_factor(scope, rng, strength):
    table = tuple(
        math.exp(float(rng.uniform(-strength, strength)))
        for _ in range(1 << len(scope))
    )
    return (scope, table)


def make_topology(kind: str, args, rng: np.random.Generator) -> Multigraph:
    """Topology dispatch for the CLI: tree N | cycle N | grid R C |
    example1 | random N M.  Too few, too many or non-integer arguments are
    a GenerationError naming the expected form, and so is a node count (R C
    for a grid) above graph.NODE_CAP, before anything is built; an M above
    EDGE_CAP is refused before random_connected_graph draws."""
    forms = {
        "tree": ("N", lambda n: random_tree(n, rng)),
        "cycle": ("N", cycle_graph),
        "grid": ("R C", grid_graph),
        "example1": ("", two_triangles_graph),
        "random": ("N M", lambda n, m: random_connected_graph(n, m, rng)),
    }
    if kind not in forms:
        raise GenerationError(f"unknown topology {kind!r}")
    form, build = forms[kind]
    need = len(form.split())
    try:
        nums = [int(a) for a in args]
    except ValueError:
        nums = None
    if nums is None or len(nums) != need:
        raise GenerationError(f"{kind} needs {form}" if form else f"{kind} takes no arguments")
    nodes = math.prod(nums) if kind == "grid" else nums[0] if nums else 0
    if nodes > NODE_CAP:
        raise GenerationError(f"{nodes} nodes exceed the generator cap of {NODE_CAP}")
    return build(*nums)
