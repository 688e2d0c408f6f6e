"""Slow reference oracles that only the tests call: a per-state Python
loop for the exact partition function and marginals, and a filter of all
2^|E| edge subsets for the generalized loops."""

import math

import numpy as np

from loopcorrect.exact import ExactResult
from loopcorrect.exceptions import SizeError
from loopcorrect.graph import Multigraph
from loopcorrect.model import PairwiseModel


def brute_force_reference(model) -> ExactResult:
    """Plain per-state Python loop; the slow reference the vectorized
    enumeration is tested against.  Practical only for small N."""
    if isinstance(model, PairwiseModel):
        n = model.node_count
    else:
        n = model.variable_count
    if n > 16:
        raise SizeError("reference oracle capped at 16 variables")
    logs = []
    for state in range(1 << n):
        bits = [(state >> i) & 1 for i in range(n)]
        lw = 0.0
        if isinstance(model, PairwiseModel):
            for i in range(n):
                lw += math.log(model.node_potentials[i][bits[i]])
            for e, (a, b) in enumerate(model.graph.edges):
                lw += math.log(model.edge_potentials[e][bits[a]][bits[b]])
        else:
            for scope, table in model.factors:
                idx = 0
                for i in scope:
                    idx = (idx << 1) | bits[i]
                lw += math.log(table[idx])
        logs.append(lw)
    best = max(logs)
    weights = [math.exp(lw - best) for lw in logs]
    z = math.fsum(weights)
    marg = np.zeros((n, 2))
    for state, w in enumerate(weights):
        for i in range(n):
            marg[i][(state >> i) & 1] += w
    return ExactResult(best + math.log(z), marg / z)


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
