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
    Multigraph,
    cycle_graph,
    grid_graph,
    is_connected,
    two_triangles_graph,
)
from .model import FactorModel, PairwiseModel

# Draws random_connected_graph makes before it gives up.
CONNECTED_DRAWS = 200


def random_tree(n: int, rng: np.random.Generator) -> Multigraph:
    """Uniform attachment tree: node i joins a random earlier node."""
    edges = tuple(
        (int(rng.integers(0, i)), i) for i in range(1, n)
    )
    return Multigraph(n, edges)


def random_connected_graph(n: int, m: int, rng: np.random.Generator) -> Multigraph:
    """Random simple connected graph with exactly m edges."""
    if m < n - 1 or m > n * (n - 1) // 2:
        raise GenerationError(f"no simple connected graph with n={n}, m={m}")
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(CONNECTED_DRAWS):
        pick = rng.choice(len(all_pairs), size=m, replace=False)
        edges = tuple(all_pairs[k] for k in sorted(pick))
        g = Multigraph(n, edges)
        if is_connected(g)[0]:
            return g
    raise GenerationError(f"could not sample a connected graph (n={n}, m={m})")


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
    a GenerationError naming the expected form."""
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
    return build(*nums)
