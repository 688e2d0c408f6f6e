"""The exact oracle: the partition function and node marginals of a
model, the ground truth the loop series is checked against.

The state sum runs on one engine, _eliminate: variable (bucket)
elimination in id order.  It keeps a table over the spins of the frontier
variables.  A variable joins the frontier with its first table and is
summed out after its last, and a table is multiplied in when its highest-id
variable arrives.  Each table is first scaled by the exact power of two of
its largest |entry|, and each step reads the frontier table's largest
|entry| and rescales by its exact power of two once that leaves 2^-64 to
2^64.  So signed tables work, and log Z is an integer exponent plus the log
of one float, with no rounding from the scaling.  If a product or rescaling
underflows on that one exponent, the sum is redone with a mantissa and an
exponent per entry, since a later table may leave only the lost entries.
With w the most variables
the frontier holds at once, a sum visits O(N 2^w) frontier states;
graph.STATE_CAP bounds 2^w and is checked from the plan before any frontier
table is allocated.

Node marginals come from the same forward pass, which carries one extra
row per variable: a copy of the weight that loses its -1 half when the
variable is summed out, so that it ends as the weight with the variable at
+1.  The table holds N + 1 values per frontier state.  Rows that join
only as their variables are summed out would about halve the work on large
grids, but joining them costs more than that saves on small models.

Both model kinds are one list of flat tables over scopes: a pairwise model
is its node potentials as unary tables and its edge tables as arity-2
factors, a factor model its factors.  _scoped_tables is the only place that
tells the kinds apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .exceptions import SizeError
from .graph import STATE_CAP
from .model import FactorModel, PairwiseModel, edge_tables

_ALL = slice(None)  # an axis whole


@dataclass
class ExactResult:
    """Exact log partition function and node marginals, marginals[i] =
    [p_i(-1), p_i(+1)]."""

    log_z: float
    marginals: np.ndarray


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


def _layout(table, slots, width: int) -> np.ndarray:
    """A flat table over len(slots) spins laid out to broadcast against a
    frontier of width slots: the spin of its q-th variable on axis slots[q]
    after the rows axis, size-1 axes elsewhere."""
    up = sorted(slots)
    if up != slots:
        table = table.reshape((2,) * len(slots)).transpose([slots.index(s) for s in up])
    shape = [1] * width
    for s in up:
        shape[s] = 2
    return table.reshape(shape)


def _plan(n: int, scopes):
    """The elimination order over scopes on n variables, each of which
    lies in some scope: (first, last), where variable v joins the frontier
    at step first[v] and is summed out at step last[v].  A table arrives at
    its highest variable, so v joins at the lowest and leaves at the highest
    top variable of the scopes that hold it.  Raises SizeError when the
    frontier would hold more than STATE_CAP states, before anything of that
    size is built."""
    first, last = [n] * n, [-1] * n
    for scope in scopes:
        if scope:
            t = max(scope)
            for v in scope:
                if t < first[v]:
                    first[v] = t
                if t > last[v]:
                    last[v] = t
    joins = [0] * (n + 1)  # at step k: arrivals less the departures of step k - 1
    for v in range(n):
        joins[first[v]] += 1
        joins[last[v] + 1] -= 1
    live = 0
    for k in range(n):
        live += joins[k]
        if 1 << live > STATE_CAP:
            raise SizeError(
                f"variable elimination holds {live} variables at once: "
                f"2^{live} states exceed {STATE_CAP}"
            )
    return first, last


def check_oracle_size(model) -> None:
    """Raise the SizeError that brute_force would raise on model, from its
    scopes alone: callers that run something costly before the oracle
    refuse a model too wide for it first."""
    n, node_tables, factors = _scoped_tables(model)
    _plan(n, [scope for scope, _ in node_tables + factors])


def _eliminate(n: int, tables):
    """Sum over all 2^n spin states of the product of tables, each a
    (scope, flat table) pair with entries of any sign, first scope variable
    most significant; every variable must lie in some table's scope.  A
    table is multiplied in when its highest variable arrives, an empty-scope
    table with the first step.

    Returns (rows, exponent), n + 1 rows on one scale: rows[0] * 2^exponent
    is the sum, and rows[1 + v] the sum with variable v at +1.  Row 1 + v
    starts as a copy of row 0 and loses its -1 half when v is summed out.

    The sum runs on one shared exponent, and again with an exponent per
    entry if a product or rescaling underflowed: an entry lost to
    underflow can be all that a later table leaves of the sum.
    """
    steps = _schedule(n, tables)
    try:
        with np.errstate(under="raise"):
            return _sum_scaled(tables, steps, n + 1)
    except FloatingPointError:
        return _sum_split(tables, steps, n + 1)


def _schedule(n: int, tables):
    """The steps of the elimination.  Each step that sums variables out is
    (width, factors, cleared, axes): the frontier's slot count, each table
    multiplied in as (index, slot of each scope variable), each (row, slot)
    whose -1 half is cleared, and the axes summed.

    Each frontier variable holds a slot, freed when it is summed out and
    reused by a later arrival; slot s is axis 1 + s of the frontier table,
    whose axis 0 holds the rows.  Sums keep their axes (size 1 until the
    slot is reused).  Each step that sums variables out first multiplies in
    the tables whose highest variable arrived since the last one; the first
    step takes the empty-scope tables, in index order, before its others.
    """
    first, last = _plan(n, [scope for scope, _ in tables])
    arriving, retiring, by_top = ([[] for _ in range(n)] for _ in range(3))
    factors = []  # the tables still to multiply in
    for f, (scope, _) in enumerate(tables):
        (by_top[max(scope)] if scope else factors).append(f)
    for v in range(n):
        arriving[first[v]].append(v)
        retiring[last[v]].append(v)

    slot, free, width, steps = [0] * n, [], 0, []
    for k in range(n):
        for v in arriving[k]:
            if free:
                slot[v] = free.pop()
            else:
                slot[v] = width
                width += 1
        factors += by_top[k]
        if retiring[k]:
            steps.append((
                width,
                [(f, [slot[v] for v in tables[f][0]]) for f in factors],
                [(1 + v, slot[v]) for v in retiring[k]],
                tuple(1 + slot[v] for v in retiring[k]),
            ))
            free += [slot[v] for v in retiring[k]]
            factors = []
    return steps


def _widen(a, width: int):
    """a with size-1 axes appended up to the rows axis and width slots."""
    return a.reshape(a.shape + (1,) * (1 + width - a.ndim))


def _sum_scaled(tables, steps, rows: int):
    """_eliminate on one shared exponent, exact unless a product or
    rescaling underflows."""
    sizes = [len(t) for _, t in tables]
    starts = list(accumulate(sizes, initial=0))
    flat = np.fromiter(chain.from_iterable(t for _, t in tables), float, starts[-1])
    # each table scaled by the power of two of its largest |entry|, so the
    # product of one step's tables stays within float range (a zero entry's
    # exponent, 0, must not stand in for a table's tiny nonzero ones)
    peaks = np.maximum.reduceat(np.abs(flat), starts[:-1])
    _, shifts = np.frexp(peaks)
    flat = np.ldexp(flat, -np.repeat(shifts, sizes))
    exponent = int(shifts.sum())
    signed = flat.min(initial=0.0) < 0.0

    state = np.ones(rows)
    for width, factors, cleared, axes in steps:
        if state.ndim <= width:
            state = _widen(state, width)
        for f, slots in factors:
            state = state * _layout(flat[starts[f]:starts[f + 1]], slots, width)
        for r, s in cleared:
            state[(r,) + (_ALL,) * s + (0,)] = 0.0
        state = state.sum(axis=axes, keepdims=True)
        peak = max(state.max(), -state.min()) if signed else state.max()
        _, shift = math.frexp(peak)
        if not -64 < shift < 64:
            state = np.ldexp(state, -shift)
            exponent += shift
    return state.reshape(rows), exponent


_DEAD = -(1 << 40)  # the exponent that stands for a zero entry in a maximum
_DEEP = -1100  # a shift past which every float is zero


def _sum_split(tables, steps, rows: int):
    """_eliminate with a mantissa in [0.5, 1) (or 0) and an integer exponent
    per entry, so no product underflows; a sum loses only terms below
    2^-1074 of its largest term."""
    parts = [np.frexp(np.asarray(t, dtype=float)) for _, t in tables]
    mant, expo = np.ones(rows), np.zeros(rows, dtype=np.int64)
    for width, factors, cleared, axes in steps:
        if mant.ndim <= width:
            mant, expo = _widen(mant, width), _widen(expo, width)
        for f, slots in factors:
            tm, te = parts[f]
            mant, shift = np.frexp(mant * _layout(tm, slots, width))
            expo = expo + _layout(te, slots, width) + shift
        for r, s in cleared:
            mant[(r,) + (_ALL,) * s + (0,)] = 0.0
        top = np.where(mant != 0.0, expo, _DEAD).max(axis=axes, keepdims=True)
        terms = np.ldexp(mant, np.clip(expo - top, _DEEP, 0))
        mant, shift = np.frexp(terms.sum(axis=axes, keepdims=True))
        expo = top + shift
    mant, expo = mant.reshape(rows), expo.reshape(rows)
    live = mant != 0.0
    exponent = int(expo[live].max()) if live.any() else 0
    return np.ldexp(mant, np.clip(expo - exponent, _DEEP, 0)), exponent


def brute_force(model) -> ExactResult:
    """Exact log Z and node marginals by variable elimination (see the
    module docstring).  Past STATE_CAP frontier states SizeError is
    raised."""
    n, node_tables, factors = _scoped_tables(model)
    rows, exponent = _eliminate(n, node_tables + factors)
    on = rows[1:] / rows[0]
    marginals = np.column_stack((1.0 - on, on))
    return ExactResult(math.log(rows[0]) + exponent * math.log(2.0), marginals)
