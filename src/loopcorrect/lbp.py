"""Loopy belief propagation for pairwise and factor models.

One message-passing engine serves both kinds of model.  A pairwise model
runs as one arity-2 factor per edge, so message slot 2e + pos belongs to the
endpoint at position pos of edge e; a factor model's slots are its (factor,
scope position) incidences in factor-major order.

A synchronous (Jacobi) sweep recomputes every variable-to-factor message as
the product of the variable's other incoming factor-to-variable messages,
then every factor-to-variable message from those.  Only the
factor-to-variable messages are stored: each is normalized to sum to one and
damped as (1 - damping) * update + damping * old.

Messages live in the linear domain.  If any unnormalized message leaves
[1e-280, 1e280], the run restarts in the log domain, where the same sweep
adds instead of multiplying, takes log-sum-exp marginals, and normalizes and
damps with logaddexp.  LbpResult.domain records which domain ran.

A run keeps every message in one (slot_count + 1) x 2 buffer that the sweeps
update in place.  Its last row is the pad slot, a unit message (ones, or
zeros in the log domain) that the gathers of variables with fewer than the
most slots point at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NumericError
from .model import (
    FactorModel,
    PairwiseModel,
    absorb_node_potentials,
    edge_tables,
)

_LINEAR_LO = 1e-280
_LINEAR_HI = 1e280
# The sweep calls the reductions as ufunc methods: the ndarray methods
# (min, max, sum) add a Python-level call per use, which tells on the small
# arrays of a sweep, and compute the same values.
_min, _max, _sum = np.minimum.reduce, np.maximum.reduce, np.add.reduce


@dataclass
class LbpOptions:
    max_iters: int = 10_000
    tol: float = 1e-12
    damping: float = 0.5

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not (0.0 <= self.damping < 1.0):
            raise ValueError("damping must be in [0, 1)")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")


@dataclass
class LbpResult:
    """Converged (or not) messages, beliefs and the Bethe log partition value.

    messages[k] is the normalized factor-to-variable message of slot k, a
    2-vector over the recipient's spin; for pairwise runs messages[2e + 0]
    goes to endpoint a of edge e (sent by b) and messages[2e + 1] to b.
    node_beliefs[i], factor_beliefs[f] (flat, first scope variable most
    significant) and, for pairwise runs, edge_beliefs[e] (2x2, endpoint
    order) are normalized.  domain is "linear" or "log", whichever the
    messages were iterated in; model is the model the run iterated on, with
    node potentials absorbed for pairwise runs.
    """

    node_beliefs: np.ndarray
    log_z_b: float
    iterations: int
    converged: bool
    residual: float
    messages: np.ndarray | None = None
    edge_beliefs: np.ndarray | None = None
    factor_beliefs: list = field(default_factory=list)
    model: object = None
    domain: str = "linear"


class _RangeSignal(Exception):
    """Internal: a linear-domain message left the safe range."""


@dataclass
class _Group:
    """Gathers for the factors `ids`, which share arity k.

    Entries index the block's (_FactorGraph.block) variable-to-factor
    messages flattened to 2 * (block slot) + spin.  Factor f's belief entry
    e is tables[f, e] times v2f[index[f, e]] for each index in
    belief_index.  The message to scope position pos of f is row f * k +
    pos of message_tables and message_index, with the entries for spin 0
    in column 0 and those for spin 1 in column 1, each in ascending table
    order.
    """

    ids: list
    tables: np.ndarray  # (F, 2^k)
    belief_index: list  # k arrays (F, 2^k)
    message_tables: np.ndarray  # (F * k, 2, 2^(k-1))
    message_index: list  # k - 1 arrays (F * k, 2, 2^(k-1))


class _FactorGraph:
    """Slot arrays of a binary factor graph and the sweep over them."""

    def __init__(self, variable_count: int, factors):
        self.scopes = [tuple(scope) for scope, _ in factors]
        self.tables = [np.asarray(table, dtype=float) for _, table in factors]
        self.offsets = np.cumsum([0] + [len(s) for s in self.scopes])
        var = np.array([i for scope in self.scopes for i in scope], dtype=np.intp)
        self.slot_count = pad = len(var)
        slots_of = [[] for _ in range(variable_count)]
        for k, i in enumerate(var):
            slots_of[i].append(k)
        width = max(map(len, slots_of), default=0)
        # Index rows padded with slot `pad`, which sweep() and beliefs()
        # point at a unit message: var_slots[i] lists variable i's slots,
        # others[k] the slots of k's variable other than k.
        self.var_slots = np.array(
            [s + [pad] * (width - len(s)) for s in slots_of], dtype=np.intp
        ).reshape(variable_count, width)
        rows = self.var_slots[var]
        self.others = rows[rows != np.arange(pad)[:, None]].reshape(pad, max(width - 1, 0))
        self._blocks = {}  # domain -> block

    def block(self, domain: str):
        """(slots, gather, groups) for updating every factor at once, built
        once per domain: slots index the message slots grouped by factor
        arity (a slice when they are one ascending run), gather[b] lists
        the slots whose product is the variable-to-factor message of the
        block's b-th slot."""
        if domain in self._blocks:
            return self._blocks[domain]
        by_arity: dict[int, list[int]] = {}
        for f, scope in enumerate(self.scopes):
            by_arity.setdefault(len(scope), []).append(f)
        groups, slots, start = [], [], 0
        for k, ids in sorted(by_arity.items()):
            n = len(ids)
            slots.append((self.offsets[ids][:, None] + np.arange(k)).ravel())
            local = 2 * (start + np.arange(n * k).reshape(n, k))
            start += n * k
            tables = np.array([self.tables[f] for f in ids]).reshape(n, 1 << k)
            if domain == "log":
                tables = np.log(tables)
            bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
            order = np.argsort(bits, axis=0, kind="stable").T  # (k, 2^k)
            rest = np.array(
                [[q for q in range(k) if q != pos] for pos in range(k)], dtype=np.intp
            ).reshape(k, max(k - 1, 0))
            shape = (n * k, 2, (1 << k) // 2)
            groups.append(_Group(
                ids=ids,
                tables=tables,
                belief_index=[local[:, q, None] + bits[:, q] for q in range(k)],
                message_tables=tables[:, order].reshape(shape),
                message_index=[
                    (local[:, rest[:, j], None] + bits[order, rest[:, j, None]]).reshape(shape)
                    for j in range(k - 1)
                ],
            ))
        slots = np.concatenate([np.zeros(0, dtype=np.intp), *slots])
        gather = self.others[slots]
        if slots.size and (np.diff(slots) == 1).all():
            slots = slice(int(slots[0]), int(slots[-1]) + 1)
        self._blocks[domain] = slots, gather, groups
        return self._blocks[domain]

    def sweep(self, ext, damping: float, domain: str) -> float:
        """Update the message buffer ext ((slot_count + 1) x 2 in the given
        domain, its last row the unit pad message) in place; returns the
        largest change of a linear message entry, 0 when there is no slot."""
        if not self.slot_count:
            return 0.0
        log = domain == "log"
        combine = np.add if log else np.multiply
        slots, gather, groups = self.block(domain)
        v2f = combine.reduce(ext.take(gather, axis=0), axis=1).ravel()
        parts = []
        for group in groups:
            terms = group.message_tables
            for index in group.message_index:
                terms = combine(terms, v2f.take(index))
            if log:
                top = _max(terms, axis=2)
                parts.append(top + np.log(_sum(np.exp(terms - top[:, :, None]), axis=2)))
            else:
                parts.append(_sum(terms, axis=2))
        u = parts[0] if len(parts) == 1 else np.concatenate(parts)
        old = ext[slots]
        if log:
            s = np.logaddexp(u[:, :1], u[:, 1:])
            if not np.isfinite(s).all():
                raise NumericError("log-domain message update produced a non-finite value")
            new = u - s
            if damping > 0:
                new = np.logaddexp(math.log(1 - damping) + new, math.log(damping) + old)
            change = _max(np.abs(np.exp(new) - np.exp(old)), axis=None)
        else:
            if not (_min(u, axis=None) >= _LINEAR_LO and _max(u, axis=None) < _LINEAR_HI):
                raise _RangeSignal
            new = (1 - damping) * (u / _sum(u, axis=1, keepdims=True)) + damping * old
            change = _max(np.abs(new - old), axis=None)
        ext[slots] = new
        return float(change)

    def beliefs(self, ext):
        """Normalized node beliefs (n x 2) and flat factor beliefs from a
        linear-domain message buffer laid out as sweep() takes it."""
        node = ext[self.var_slots].prod(axis=1)
        total = node.sum(axis=1, keepdims=True)
        if not ((total > 0.0).all() and np.isfinite(total).all()):
            raise NumericError("belief normalization failed")
        _, gather, groups = self.block("linear")
        v2f = ext[gather].prod(axis=1).ravel()
        factor = [None] * len(self.scopes)
        for group in groups:
            joint = group.tables
            for index in group.belief_index:
                joint = joint * v2f[index]
            norm = joint.sum(axis=1, keepdims=True)
            if not ((norm > 0.0).all() and np.isfinite(norm).all()):
                raise NumericError("factor belief normalization failed")
            for f, row in zip(group.ids, joint / norm):
                factor[f] = row
        return node / total, factor


def _iterate(graph: _FactorGraph, opts: LbpOptions, domain: str):
    """Sweep from uniform messages until the residual drops below tol;
    returns the linear-domain message buffer, iterations, converged,
    residual."""
    log = domain == "log"
    ext = np.full((graph.slot_count + 1, 2), math.log(0.5) if log else 0.5)
    ext[-1] = 0.0 if log else 1.0
    residual = math.inf
    iterations = 0
    for iterations in range(1, opts.max_iters + 1):
        residual = graph.sweep(ext, opts.damping, domain)
        if residual < opts.tol:
            break
    return (np.exp(ext) if log else ext), iterations, residual < opts.tol, residual


def _run(variable_count: int, factors, opts: LbpOptions | None) -> LbpResult:
    """LBP to a fixed point, restarting in the log domain when a linear
    message leaves the safe range; the caller fills in log_z_b and model."""
    opts = opts or LbpOptions()
    graph = _FactorGraph(variable_count, factors)
    domain = "linear"
    try:
        ext, iterations, converged, residual = _iterate(graph, opts, domain)
    except _RangeSignal:
        domain = "log"
        ext, iterations, converged, residual = _iterate(graph, opts, domain)
    node_beliefs, factor_beliefs = graph.beliefs(ext)
    return LbpResult(
        node_beliefs=node_beliefs,
        log_z_b=math.nan,
        iterations=iterations,
        converged=converged,
        residual=residual,
        messages=ext[:-1],
        factor_beliefs=factor_beliefs,
        domain=domain,
    )


def _bethe(scopes, tables, local_beliefs, node_beliefs) -> float:
    """sum_f <log psi_f - log b_f>_{b_f} + sum_i (d_i - 1) <log b_i>_{b_i};
    tables and local_beliefs hold every factor's entries in the same order,
    and d_i counts the scopes containing i."""
    nb = np.asarray(node_beliefs, dtype=float)
    tables = np.ravel(np.asarray(tables, dtype=float))
    local = np.ravel(np.asarray(local_beliefs, dtype=float))
    if (nb <= 0.0).any() or (local <= 0.0).any():
        raise ValueError("Bethe expression needs strictly positive beliefs")
    degrees = np.bincount([i for scope in scopes for i in scope], minlength=len(nb))
    total = float((local * np.log(tables)).sum()) - float((local * np.log(local)).sum())
    return total + float(((degrees - 1) * (nb * np.log(nb)).sum(axis=1)).sum())


def bethe_log_z(m: PairwiseModel, node_beliefs, edge_beliefs) -> float:
    """The three-term Bethe expression at arbitrary normalized beliefs.

    Expects a model whose node potentials are uniform (run_lbp absorbs them
    before iterating).  Exposed separately so it can be evaluated away from
    fixed points in tests.
    """
    return _bethe(m.graph.edges, m.edge_potentials, edge_beliefs, node_beliefs)


def bethe_log_z_factor(fm: FactorModel, node_beliefs, factor_beliefs) -> float:
    """Factor-graph Bethe expression; d_i is the number of factors
    containing variable i."""
    scopes = [scope for scope, _ in fm.factors]
    tables = np.concatenate([table for _, table in fm.factors])
    local = np.concatenate([np.ravel(b) for b in factor_beliefs])
    return _bethe(scopes, tables, local, node_beliefs)


def run_lbp(m: PairwiseModel, opts: LbpOptions | None = None) -> LbpResult:
    """Run pairwise LBP to a message fixed point.

    Node potentials are absorbed into edge tables first (the joint is
    unchanged), so beliefs and the Bethe value refer to the absorbed model,
    which is also what the loop-series operations expect.  Non-convergence
    is reported via the converged flag, not raised.
    """
    absorbed = absorb_node_potentials(m)
    res = _run(absorbed.node_count, edge_tables(absorbed), opts)
    res.edge_beliefs = np.reshape(res.factor_beliefs, (-1, 2, 2))
    res.log_z_b = bethe_log_z(absorbed, res.node_beliefs, res.edge_beliefs)
    res.model = absorbed
    return res


def run_lbp_factor(fm: FactorModel, opts: LbpOptions | None = None) -> LbpResult:
    """Factor-graph LBP; beliefs per variable and per factor (flat tables)."""
    res = _run(fm.variable_count, fm.factors, opts)
    res.log_z_b = bethe_log_z_factor(fm, res.node_beliefs, res.factor_beliefs)
    res.model = fm
    return res
