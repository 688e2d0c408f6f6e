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

A run sweeps in blocks with no test for a stop between two sweeps (see
_FactorGraph.iterate).  Each sweep reads one row of a small history array
of message buffers and writes the next row and its message totals; after
the block, one pass over the rows applies to each sweep, in order, the test
a sweep-by-sweep run makes after it: its totals must be positive and
finite, and its residual, the largest change of a message entry from the
row before, must be below tol for the run to stop.  The run ends at the first
sweep that fails or stops, so its messages, sweep count and residual are
those of testing after every sweep, bit for bit; the block's later sweeps
are dropped.  A block runs the sweeps that the last two residuals, falling
geometrically, predict before a stop, at most _BLOCK_SWEEPS.

A sweep's cost is its count of numpy calls, on arrays of tens of entries:
one gather and one product form every variable-to-factor message, then
each group of factors of one arity takes its terms' messages with one more
gather and sums each message's table entries along a contiguous axis, up
to four entries as a chain of adds and eight or more by numpy's pairwise
reduction.  Those are the orders in which a reduction over each message's
own row adds them, so no message bit depends on the layout.
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
_min, _max, _sum, _prod = (
    np.minimum.reduce, np.maximum.reduce, np.add.reduce, np.multiply.reduce
)
_BLOCK_SWEEPS = 16  # the most sweeps between two tests for a stop


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
    node_beliefs[i] and factor_beliefs[f] (flat, first scope variable most
    significant; per edge of a pairwise model, in endpoint order) are
    normalized.  model is the model the run iterated on, with node
    potentials absorbed for pairwise runs.
    """

    node_beliefs: np.ndarray
    log_z_b: float
    iterations: int
    converged: bool
    residual: float
    messages: np.ndarray | None = None
    factor_beliefs: list = field(default_factory=list)
    model: object = None


@dataclass
class _Group:
    """The factors `ids`, which share arity k, and their gathers.

    A message row is a (factor, scope position) pair, R = F * k rows in
    factor order, each with E = 2^(k-1) table entries per spin.
    message_tables holds the tables, each scaled by a power of two, laid
    out entry-major (E, 2, R) when E <= 4 and spin-major (2, R, E) when
    E >= 8; entry_axis is the entry axis.  Indices point into v2f, the
    block's variable-to-factor messages flattened to 2 * (block slot) +
    spin.  message_index (k - 1,) + that shape holds, for each of the k - 1
    other scope positions in order, the message each term multiplies.
    Beliefs take the tables as given: factor f's entry e is tables[f, e]
    times v2f[i[f, e]] for each i in belief_index.
    """

    ids: list
    tables: np.ndarray  # (F, 2^k)
    belief_index: np.ndarray  # (k, F, 2^k)
    message_tables: np.ndarray
    message_index: np.ndarray
    entry_axis: int


class _FactorGraph:
    """Slot arrays of a binary factor graph and the sweeps over them.

    Slots are (factor, scope position) incidences in factor-major order;
    the block lists them grouped by factor arity, factors in id order
    within a group, and slots[b] is the slot of block slot b.  A message
    buffer holds every message, spin-major in block order: entry
    s * slot_count + b is block slot b's message at spin s, so each group's
    messages are two contiguous runs.  The last entry is the pad, a unit
    message that the gathers of variables with fewer than the most slots,
    w, point at.  node_index (w, n, 2) and v2f_index (w - 1, slot_count, 2)
    hold the buffer positions of each variable's messages and of the other
    messages of each block slot's variable, both in ascending slot order:
    the products over their first axis are the node beliefs and v2f.
    """

    def __init__(self, variable_count: int, factors):
        self.scopes = [tuple(scope) for scope, _ in factors]
        by_arity: dict[int, list[int]] = {}
        for f, scope in enumerate(self.scopes):
            by_arity.setdefault(len(scope), []).append(f)
        sizes = np.array([len(scope) for scope in self.scopes], dtype=np.intp)
        self.slots = np.argsort(sizes.repeat(sizes), kind="stable")
        self.slot_count = pad = len(self.slots)
        var = np.array([i for scope in self.scopes for i in scope], dtype=np.intp)
        # var_slots[i]: variable i's slots, padded with the pad slot
        counts = np.bincount(var, minlength=variable_count)
        width = int(_max(counts, initial=0))
        by_var = np.argsort(var, kind="stable")
        sorted_var = var[by_var]
        var_slots = np.full((variable_count, width), pad)
        var_slots[sorted_var, np.arange(pad) - (np.cumsum(counts) - counts)[sorted_var]] = by_var
        rows = var_slots[var]
        others = rows[rows != np.arange(pad)[:, None]].reshape(pad, max(width - 1, 0))
        # where[slot]: the buffer positions of its two spins
        where = np.full((pad + 1, 2), 2 * pad)
        where[self.slots] = np.arange(2 * pad).reshape(2, pad).T
        self.node_index = where[var_slots.T]
        self.v2f_index = where[others[self.slots].T]
        self.groups, start = [], 0
        for k, ids in sorted(by_arity.items()):
            n, entries = len(ids), 1 << k >> 1
            block = start + np.arange(n * k).reshape(n, k)
            start += n * k
            tables = np.array([factors[f][1] for f in ids], dtype=float).reshape(n, 1 << k)
            _, hi = np.frexp(_max(tables, axis=1, keepdims=True))
            _, lo = np.frexp(_min(tables, axis=1, keepdims=True))
            centred = np.ldexp(tables, -((hi + lo) >> 1))
            bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
            # order[pos]: the entries at pos's spin 0, then at its spin 1, in
            # table order; rest[j, pos]: the j-th scope position other than pos
            order = np.argsort(bits.T, axis=1, kind="stable")
            rest = np.arange(k - 1)[:, None] + (np.arange(k - 1)[:, None] >= np.arange(k))
            # each term's j-th other message: its block slot and spin, as
            # its v2f entry, (k - 1, F, k, 2, E)
            other = block[:, rest].swapaxes(0, 1)[..., None]
            spin = bits[order, rest[..., None]][:, None]
            index = (2 * other + spin).reshape(max(k - 1, 0), n, k, 2, entries)
            # (F, k, 2, E) to the layout, message row f * k + pos
            if entries <= 4:
                axes, shape, entry_axis = (3, 2, 0, 1), (entries, 2, n * k), 0
            else:
                axes, shape, entry_axis = (2, 0, 1, 3), (2, n * k, entries), 2
            self.groups.append(_Group(
                ids=ids,
                tables=tables,
                belief_index=2 * block.T[:, :, None] + bits.T[:, None, :],
                message_tables=centred[:, order].reshape(n, k, 2, entries)
                .transpose(axes).reshape(shape),
                message_index=index.transpose(0, *(1 + q for q in axes))
                .reshape((max(k - 1, 0),) + shape),
                entry_axis=entry_axis,
            ))

    def buffer(self, messages=None) -> np.ndarray:
        """A message buffer laid out as iterate() takes it: every message
        uniform, or `messages` (slot_count x 2, in slot order)."""
        buf = np.ones(2 * self.slot_count + 1)
        buf[:-1] = 0.5 if messages is None else np.transpose(messages)[:, self.slots].ravel()
        return buf

    def messages(self, buf) -> np.ndarray:
        """The messages of a buffer as a slot_count x 2 array in slot order."""
        out = np.empty((self.slot_count, 2))
        out[self.slots] = buf[:-1].reshape(2, -1).T
        return out

    def iterate(self, buf, opts: LbpOptions):
        """Sweep from the message buffer buf until a sweep changes no
        message entry by opts.tol or more, or opts.max_iters times; returns
        the last sweep's buffer, the sweep count and the sweep's largest
        change of a message entry, 0 when there is no slot.

        A block of sweeps runs in hist, whose row t + 1 holds the buffer
        after the block's sweep t and row 0 the one before the block, each
        ending in the pad; totals[t] holds that sweep's message totals.
        Each sweep computes (1 - damping) * (u / total) + damping * old
        with out arguments, the same operations on the same values as one
        sweep at a time.  Division by a zero or non-finite total is
        silenced in the block: the sweep's test refuses it, and no later
        sweep of the block is returned."""
        if not self.slot_count:
            return buf, 1, 0.0
        fresh, keep = 1 - opts.damping, opts.damping
        hist = np.empty((_BLOCK_SWEEPS + 1, len(buf)))
        hist[0] = buf
        hist[1:, -1] = 1.0
        msgs = hist[:, :-1].reshape(_BLOCK_SWEEPS + 1, 2, -1)
        totals = np.empty((_BLOCK_SWEEPS, self.slot_count))
        done, planned, last = 0, _BLOCK_SWEEPS, math.inf
        with np.errstate(invalid="ignore", divide="ignore"):
            while True:
                sweeps = min(planned, opts.max_iters - done)
                for row, old, new, total in zip(hist[:sweeps], msgs, msgs[1:], totals):
                    v2f = _prod(row.take(self.v2f_index), axis=0).ravel()
                    parts = []
                    for group in self.groups:
                        terms = group.message_tables
                        for incoming in v2f.take(group.message_index):
                            terms = terms * incoming
                        if len(terms) == 2 and not group.entry_axis:  # one add beats a reduction call
                            parts.append(terms[0] + terms[1])
                        else:
                            parts.append(_sum(terms, axis=group.entry_axis))
                    u = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
                    np.add(u[0], u[1], total)
                    np.divide(u, total, u)
                    np.multiply(u, fresh, u)
                    np.multiply(old, keep, new)
                    np.add(u, new, new)
                residuals = _max(np.abs(hist[1:sweeps + 1] - hist[:sweeps]), axis=1)
                failed = ~((_min(totals[:sweeps], axis=1) > 0.0)
                           & (_max(totals[:sweeps], axis=1) < math.inf))
                stop = failed | (residuals < opts.tol)
                t = int(stop.argmax())
                if failed[t]:
                    raise NumericError("a message update summed to zero or a non-finite value")
                if stop[t] or done + sweeps == opts.max_iters:
                    t = t if stop[t] else sweeps - 1
                    return hist[t + 1], done + t + 1, float(residuals[t])
                done += sweeps
                hist[0] = hist[sweeps]
                # the sweeps a residual falling by last / before per sweep
                # takes to drop below tol; a first block of one sweep is the
                # run's last, so before is a residual
                before, last = (residuals[-2] if sweeps > 1 else last), residuals[-1]
                planned = _BLOCK_SWEEPS
                if last < before:
                    left = math.log(opts.tol / last) / math.log(last / before)
                    planned = min(_BLOCK_SWEEPS, 1 + int(left))

    def beliefs(self, buf):
        """Normalized node beliefs (n x 2) and flat factor beliefs from a
        message buffer laid out as iterate() takes it."""
        node = _prod(buf.take(self.node_index), axis=0)
        total = _sum(node, axis=1, keepdims=True)
        if not (_min(total, axis=None) > 0.0 and _max(total, axis=None) < math.inf):
            raise NumericError("belief normalization failed")
        v2f = _prod(buf.take(self.v2f_index), axis=0).ravel()
        factor = [None] * len(self.scopes)
        for group in self.groups:
            joint = group.tables
            for index in group.belief_index:
                joint = joint * v2f[index]
            norm = _sum(joint, axis=1, keepdims=True)
            if not (_min(norm, axis=None) > 0.0 and _max(norm, axis=None) < math.inf):
                raise NumericError("factor belief normalization failed")
            for f, row in zip(group.ids, joint / norm):
                factor[f] = row
        return node / total, factor


def _factors(model):
    """(variable count, factors) of either model kind, a pairwise model's
    edges as arity-2 factors.  A pairwise model's node potentials must be
    uniform, since the edge tables alone would drop them."""
    if isinstance(model, PairwiseModel):
        for i, phi in enumerate(model.node_potentials):
            if phi != (1.0, 1.0):
                raise ValueError(
                    f"node {i}'s potential {phi} is not uniform; "
                    "run_lbp absorbs node potentials into the edge tables"
                )
        return model.node_count, edge_tables(model)
    return model.variable_count, model.factors


def _run(model, opts: LbpOptions | None) -> LbpResult:
    """Sweep model from uniform messages until the residual drops below
    tol, then form its beliefs and Bethe value."""
    opts = opts or LbpOptions()
    graph = _FactorGraph(*_factors(model))
    buf, iterations, residual = graph.iterate(graph.buffer(), opts)
    node_beliefs, factor_beliefs = graph.beliefs(buf)
    return LbpResult(
        node_beliefs=node_beliefs,
        log_z_b=bethe_log_z(model, node_beliefs, factor_beliefs),
        iterations=iterations,
        converged=residual < opts.tol,
        residual=residual,
        messages=graph.messages(buf),
        factor_beliefs=factor_beliefs,
        model=model,
    )


def bethe_log_z(model, node_beliefs, factor_beliefs) -> float:
    """The Bethe expression at arbitrary normalized beliefs,
    sum_f <log psi_f - log b_f>_{b_f} + sum_i (d_i - 1) <log b_i>_{b_i},
    with d_i the number of factors containing variable i.

    factor_beliefs holds one flat table per factor, per edge of a pairwise
    model.  A pairwise model's node potentials must be uniform (run_lbp
    absorbs them before iterating).  Exposed separately so it can be
    evaluated away from fixed points in tests.
    """
    n, factors = _factors(model)
    degrees = np.bincount([i for scope, _ in factors for i in scope], minlength=n)
    tables = np.array([v for _, table in factors for v in table], dtype=float)
    local = np.concatenate([np.empty(0), *map(np.ravel, factor_beliefs)])
    nb = np.asarray(node_beliefs, dtype=float)
    if (nb <= 0.0).any() or (local <= 0.0).any():
        raise ValueError("Bethe expression needs strictly positive beliefs")
    total = float((local * np.log(tables)).sum()) - float((local * np.log(local)).sum())
    return total + float(((degrees - 1) * (nb * np.log(nb)).sum(axis=1)).sum())


# The benchmark tracer (bench/spans.py) looks up the factor-model name.
bethe_log_z_factor = bethe_log_z


def run_lbp(m: PairwiseModel, opts: LbpOptions | None = None) -> LbpResult:
    """Run pairwise LBP to a message fixed point.

    Node potentials are absorbed into edge tables first (the joint is
    unchanged), so beliefs and the Bethe value refer to the absorbed model,
    which is also what the loop-series operations expect.  Non-convergence
    is reported via the converged flag, not raised.
    """
    return _run(absorb_node_potentials(m), opts)


def run_lbp_factor(fm: FactorModel, opts: LbpOptions | None = None) -> LbpResult:
    """Factor-graph LBP; beliefs per variable and per factor (flat tables)."""
    return _run(fm, opts)
