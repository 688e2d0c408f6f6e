"""Brute-force oracles: exact partition function and marginals by state
enumeration, plus direct two-sided evaluation of the subset-sum identities.

Everything here is the ground truth the fast paths are tested against, so
the code favours numerical care over speed: log-domain weights, chunked
vectorized enumeration, and compensated cross-chunk accumulation.

Both model kinds are enumerated as one list of flat tables over scopes: a
pairwise model is its node potentials as unary tables and its edge tables
as arity-2 factors, a factor model its factors.  _scoped_tables is the only
place that tells the kinds apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import SizeError
from .graph import Multigraph, SubsetWeights
from .model import FactorModel, PairwiseModel, edge_tables
from .poly import f_values, g_values

_CHUNK_BITS = 16
# Most variables any state sum here enumerates (2^25 states).
BRUTE_FORCE_CAP = 25


@dataclass
class ExactResult:
    """Exact log partition function and marginals.

    marginals[i] = [p_i(-1), p_i(+1)].  pair_marginals is per edge for
    pairwise models; factor_marginals is per factor (flat tables) for
    factor models.
    """

    log_z: float
    marginals: np.ndarray
    pair_marginals: np.ndarray | None = None
    factor_marginals: list = field(default_factory=list)


def _state_chunks(n: int):
    """Yield bit matrices of shape (chunk, n); bit i of the state index is
    variable i."""
    total = 1 << n
    chunk = min(total, 1 << _CHUNK_BITS)
    shifts = np.arange(n, dtype=np.uint32)
    for off in range(0, total, chunk):
        idx = np.arange(off, min(off + chunk, total), dtype=np.uint32)
        yield (idx[:, None] >> shifts[None, :]) & 1


def _scoped_tables(model):
    """(variable count, node tables, factors) of either model kind, each
    table a (scope, flat table) pair: a pairwise model gives its node
    potentials as unary tables and its edge tables as factors; a factor model
    gives no node tables and its factors."""
    if isinstance(model, PairwiseModel):
        nodes = [((i,), tab) for i, tab in enumerate(model.node_potentials)]
        return model.node_count, nodes, edge_tables(model)
    if isinstance(model, FactorModel):
        return model.variable_count, [], list(model.factors)
    raise TypeError(f"unsupported model type {type(model)!r}")


def _state_index(bits: np.ndarray, scope) -> np.ndarray:
    """Each state's entry in a flat table over scope, first variable most
    significant."""
    if not scope:
        return np.zeros(bits.shape[0], dtype=np.intp)
    idx = bits[:, scope[0]]
    for i in scope[1:]:
        idx = (idx << 1) | bits[:, i]
    return idx


def brute_force(model) -> ExactResult:
    """Exact enumeration over all 2^N states.

    Weights are handled in the log domain; partial sums are taken per chunk
    relative to a running maximum and combined with compensated summation,
    so the result is trustworthy at the 1e-12 level the tests demand.
    """
    n, node_tables, factors = _scoped_tables(model)
    if n > BRUTE_FORCE_CAP:
        raise SizeError(f"{n} variables exceed the enumeration cap {BRUTE_FORCE_CAP}")
    tables = node_tables + factors  # node terms are added first
    logs = [np.log(np.asarray(table)) for _, table in tables]
    k = len(node_tables)

    best = -math.inf  # running maximum of log weights
    z_parts: list[float] = []
    node_parts: list[np.ndarray] = []
    local_parts: list[list[np.ndarray]] = []  # per chunk, per factor

    for bits in _state_chunks(n):
        index = [_state_index(bits, scope) for scope, _ in tables]
        logw = np.zeros(bits.shape[0])
        for idx, lt in zip(index, logs):
            logw += lt[idx]
        chunk_max = float(logw.max())
        if chunk_max > best:
            scale = math.exp(best - chunk_max) if best > -math.inf else 0.0
            z_parts = [p * scale for p in z_parts]
            node_parts = [p * scale for p in node_parts]
            local_parts = [[t * scale for t in p] for p in local_parts]
            best = chunk_max
        w = np.exp(logw - best)
        wsum = float(w.sum())
        z_parts.append(wsum)
        node = np.empty((n, 2))
        for i in range(n):
            on = float(w[bits[:, i] == 1].sum())
            node[i] = (wsum - on, on)
        node_parts.append(node)
        local_parts.append([
            np.bincount(idx, weights=w, minlength=len(lt)) for idx, lt in zip(index[k:], logs[k:])
        ])

    z = math.fsum(z_parts)
    log_z = best + math.log(z)
    marginals = sum(node_parts) / z
    local = [sum(parts) / z for parts in zip(*local_parts)]
    if node_tables:  # only a pairwise model has node tables; its factors are its edges
        return ExactResult(log_z, marginals, pair_marginals=np.reshape(local, (-1, 2, 2)))
    return ExactResult(log_z, marginals, factor_marginals=local)


def belief_ratio_state_sum(model, res) -> float:
    """State sum of prod_local [b_local / prod b_i] * prod_i b_i over beliefs.

    res is an LBP result (or anything with node_beliefs and factor_beliefs,
    which pairwise runs fill with the flat edge beliefs).  At a fixed point
    this equals Z / Z_B; away from one it is just the quantity itself.
    """
    return belief_ratio_state_sum_from_beliefs(model, res.node_beliefs, res.factor_beliefs)


def belief_ratio_state_sum_from_beliefs(model, node_beliefs, local_beliefs) -> float:
    """belief_ratio_state_sum on raw belief tables: local_beliefs holds one
    table per edge of a pairwise model (2x2 or flat) or per factor (flat).

    The sum is the partition function of a factor model, so brute_force
    evaluates it: each local belief table over its scope, and b_i^(1 - d_i)
    on each variable i of degree d_i.
    """
    n, _, factors = _scoped_tables(model)
    nb = np.asarray(node_beliefs, dtype=float)
    if nb.min() <= 0.0:
        raise ValueError("beliefs must be strictly positive")
    deg = np.bincount([i for scope, _ in factors for i in scope], minlength=n)
    tables = [(scope, np.ravel(local_beliefs[f])) for f, (scope, _) in enumerate(factors)]
    tables += [((i,), nb[i] ** (1 - deg[i])) for i in range(n)]
    return math.exp(brute_force(FactorModel(n, tuple(tables))).log_z)


def loop_identity_state_sum(
    g: Multigraph,
    beta,
    xi,
    weight_node: int | None = None,
) -> float:
    """Direct 2^N evaluation of the edge-product state sum.

    Per state: prod_{ij in E} (1 + x_i x_j beta_ij xi_i^{-x_i} xi_j^{-x_j})
    times prod_i xi_i^{x_i} / (xi_i + 1/xi_i), optionally weighted by the
    spin of weight_node.  Terms may be negative, so accumulation uses fsum.
    """
    n = g.node_count
    if n > BRUTE_FORCE_CAP:
        raise SizeError(f"{n} nodes exceed the enumeration cap {BRUTE_FORCE_CAP}")
    xi = np.array([float(x) for x in xi])
    if (xi <= 0).any():
        raise ValueError("xi values must be positive")
    parts = []
    for bits in _state_chunks(n):
        spin = 2.0 * bits - 1.0
        v = (xi**spin / (xi + 1 / xi)).prod(axis=1)
        for e, (a, b) in enumerate(g.edges):
            sa, sb = spin[:, a], spin[:, b]
            v *= 1.0 + sa * sb * float(beta[e]) * xi[a] ** -sa * xi[b] ** -sb
        if weight_node is not None:
            v *= spin[:, weight_node]
        parts.append(math.fsum(v))
    return math.fsum(parts)


def loop_identity_subset_sum(
    g: Multigraph,
    beta,
    xi,
    weight_node: int | None = None,
) -> float:
    """Subset-sum side of the same identity.

    Unweighted: sum over edge subsets of prod beta * prod_i f_{d_i}(gamma_i);
    weighted: the weight node contributes g_{d}(gamma)/(xi + 1/xi) instead
    of f_{d}(gamma).  Summed by the frontier engine, where subsets whose
    other nodes retire at degree 1 vanish.
    """
    xi = [float(x) for x in xi]
    gamma = [x - 1 / x for x in xi]
    tables = [f_values(gamma[i], d) for i, d in enumerate(g.degrees())]
    if weight_node is not None:
        w = weight_node
        scale = xi[w] + 1 / xi[w]
        tables[w] = [v / scale for v in g_values(gamma[w], len(tables[w]) - 1)]
    total, _ = SubsetWeights(g, tables, [float(b) for b in beta]).frontier_sum()
    return total
