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

Messages live in the linear domain; there is no log-domain path.  Each
factor table enters the sweep multiplied by the power of two that centres
its exponent range on 2^0.  While no product leaves the normal float range
that scaling changes no bit of a normalized message, and a table's overall
scale can no longer carry an unnormalized message out of float range.
Beliefs are formed from the tables as given.  A message or belief whose
entries sum to zero or to a non-finite value raises NumericError.

A run keeps every message in one (slot_count + 1) x 2 buffer that the sweeps
update in place.  Its last row is the pad slot, a unit message that the
gathers of variables with fewer than the most slots point at.
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
    order) are normalized.  model is the model the run iterated on, with
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


@dataclass
class _Group:
    """Gathers for the factors `ids`, which share arity k.

    Entries index the block's variable-to-factor messages flattened to
    2 * (block slot) + spin.  Factor f's belief entry e is tables[f, e]
    times v2f[index[f, e]] for each index in belief_index.  The message to
    scope position pos of f is row f * k + pos of message_tables and
    message_index, with the entries for spin 0 in column 0 and those for
    spin 1 in column 1, each in ascending table order.  Beliefs take the
    tables as given, messages each row scaled by a power of two.
    """

    ids: list
    tables: np.ndarray  # (F, 2^k)
    belief_index: list  # k arrays (F, 2^k)
    message_tables: np.ndarray  # (F * k, 2, 2^(k-1))
    message_index: list  # k - 1 arrays (F * k, 2, 2^(k-1))


class _FactorGraph:
    """Slot arrays of a binary factor graph and the sweep over them.

    The block updates every factor at once: slots index the message slots
    grouped by factor arity (a slice when they are one ascending run),
    gather[b] lists the slots whose product is the variable-to-factor
    message of the block's b-th slot, and groups hold one _Group per arity.
    """

    def __init__(self, variable_count: int, factors):
        self.scopes = [tuple(scope) for scope, _ in factors]
        offsets = np.cumsum([0] + [len(s) for s in self.scopes])
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
        others = rows[rows != np.arange(pad)[:, None]].reshape(pad, max(width - 1, 0))
        by_arity: dict[int, list[int]] = {}
        for f, scope in enumerate(self.scopes):
            by_arity.setdefault(len(scope), []).append(f)
        self.groups, slots, start = [], [], 0
        for k, ids in sorted(by_arity.items()):
            n = len(ids)
            slots.append((offsets[ids][:, None] + np.arange(k)).ravel())
            local = 2 * (start + np.arange(n * k).reshape(n, k))
            start += n * k
            tables = np.array([factors[f][1] for f in ids], dtype=float).reshape(n, 1 << k)
            _, hi = np.frexp(_max(tables, axis=1, keepdims=True))
            _, lo = np.frexp(_min(tables, axis=1, keepdims=True))
            centred = np.ldexp(tables, -((hi + lo) >> 1))
            bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
            order = np.argsort(bits, axis=0, kind="stable").T  # (k, 2^k)
            rest = np.array(
                [[q for q in range(k) if q != pos] for pos in range(k)], dtype=np.intp
            ).reshape(k, max(k - 1, 0))
            shape = (n * k, 2, (1 << k) // 2)
            self.groups.append(_Group(
                ids=ids,
                tables=tables,
                belief_index=[local[:, q, None] + bits[:, q] for q in range(k)],
                message_tables=centred[:, order].reshape(shape),
                message_index=[
                    (local[:, rest[:, j], None] + bits[order, rest[:, j, None]]).reshape(shape)
                    for j in range(k - 1)
                ],
            ))
        slots = np.concatenate([np.zeros(0, dtype=np.intp), *slots])
        self.gather = others[slots]
        if slots.size and (np.diff(slots) == 1).all():
            slots = slice(int(slots[0]), int(slots[-1]) + 1)
        self.slots = slots

    def sweep(self, ext, damping: float) -> float:
        """Update the message buffer ext ((slot_count + 1) x 2, its last row
        the unit pad message) in place; returns the largest change of a
        message entry, 0 when there is no slot."""
        if not self.slot_count:
            return 0.0
        v2f = np.multiply.reduce(ext.take(self.gather, axis=0), axis=1).ravel()
        parts = []
        for group in self.groups:
            terms = group.message_tables
            for index in group.message_index:
                terms = terms * v2f.take(index)
            parts.append(_sum(terms, axis=2))
        u = parts[0] if len(parts) == 1 else np.concatenate(parts)
        total = _sum(u, axis=1, keepdims=True)
        if not (_min(total, axis=None) > 0.0 and _max(total, axis=None) < math.inf):
            raise NumericError("a message update summed to zero or a non-finite value")
        old = ext[self.slots]  # a view when slots is a slice
        new = (1 - damping) * (u / total) + damping * old
        change = _max(np.abs(new - old), axis=None)
        ext[self.slots] = new
        return float(change)

    def beliefs(self, ext):
        """Normalized node beliefs (n x 2) and flat factor beliefs from a
        message buffer laid out as sweep() takes it."""
        node = ext[self.var_slots].prod(axis=1)
        total = node.sum(axis=1, keepdims=True)
        if not ((total > 0.0).all() and np.isfinite(total).all()):
            raise NumericError("belief normalization failed")
        v2f = ext[self.gather].prod(axis=1).ravel()
        factor = [None] * len(self.scopes)
        for group in self.groups:
            joint = group.tables
            for index in group.belief_index:
                joint = joint * v2f[index]
            norm = joint.sum(axis=1, keepdims=True)
            if not ((norm > 0.0).all() and np.isfinite(norm).all()):
                raise NumericError("factor belief normalization failed")
            for f, row in zip(group.ids, joint / norm):
                factor[f] = row
        return node / total, factor


def _run(variable_count: int, factors, opts: LbpOptions | None) -> LbpResult:
    """Sweep from uniform messages until the residual drops below tol; the
    caller fills in log_z_b and model."""
    opts = opts or LbpOptions()
    graph = _FactorGraph(variable_count, factors)
    ext = np.full((graph.slot_count + 1, 2), 0.5)
    ext[-1] = 1.0
    residual = math.inf
    iterations = 0
    for iterations in range(1, opts.max_iters + 1):
        residual = graph.sweep(ext, opts.damping)
        if residual < opts.tol:
            break
    node_beliefs, factor_beliefs = graph.beliefs(ext)
    return LbpResult(
        node_beliefs=node_beliefs,
        log_z_b=math.nan,
        iterations=iterations,
        converged=residual < opts.tol,
        residual=residual,
        messages=ext[:-1],
        factor_beliefs=factor_beliefs,
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
