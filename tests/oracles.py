"""Slow reference oracles that only the tests call: the one 2^N state
enumeration, for the exact partition function and marginals and for signed
state sums, a filter of all 2^|E| edge subsets for the generalized loops,
edge contraction and deletion for omega's deletion-contraction recurrence,
the LBP engine as it was when it kept unscaled tables and restarted in the
log domain when a message left float's safe range, the random connected
graph sampler as it was when it listed all n(n-1)/2 pairs, the determinant
sum over disjoint cycle sets as omega --check once computed it, and the
frontier subset sum as it was before its step loop was unrolled, an
exact rational state sum, and the factor betas as they were computed one
factor at a time.

Also the identities the paper's derivation rests on, each evaluated on its
own so the tests can compare two sides: the belief-ratio state sum, the
subset-sum side of the loop identity (its state side is
loop_identity_tables under brute_force_reference), the sign agreement on
one-cycle models, the f product identity, the omega(1) count and the
regular-graph matching identity."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from loopcorrect import graph, graphpoly
from loopcorrect.exact import brute_force
from loopcorrect.exceptions import (
    DivisibilityError,
    GenerationError,
    IdentityError,
    NumericError,
    SizeError,
)
from loopcorrect.generate import CONNECTED_DRAWS
from loopcorrect.graph import Multigraph, SubsetWeights, enumerate_disjoint_cycles, is_connected
from loopcorrect.loopseries import _check_floor, loop_series_marginal, loop_series_z
from loopcorrect.model import FactorModel, PairwiseModel
from loopcorrect.poly import UniPoly, f_poly, f_values, g_values, unpack


def model_tables(model):
    """(variable count, tables) of a model as (scope, flat table) pairs: a
    pairwise model's node potentials as unary tables, then its edge tables;
    a factor model's factors."""
    if isinstance(model, PairwiseModel):
        nodes = [((i,), phi) for i, phi in enumerate(model.node_potentials)]
        edges = [(e, psi[0] + psi[1]) for e, psi in zip(model.graph.edges, model.edge_potentials)]
        return model.node_count, nodes + edges
    return model.variable_count, list(model.factors)


@dataclass
class StateSums:
    """Sums over all 2^n states of the weight prod_t t[x_scope(t)], each
    relative to exp(scale): total, on[i] with variable i at +1, and local[t]
    per entry of tables[t] with its scope at that assignment."""

    scale: float
    total: float
    on: np.ndarray
    local: list

    @property
    def value(self) -> float:
        return math.exp(self.scale) * self.total

    @property
    def log_z(self) -> float:
        return self.scale + math.log(self.total)

    @property
    def marginals(self) -> np.ndarray:
        return np.column_stack((self.total - self.on, self.on)) / self.total


def brute_force_reference(n: int, tables) -> StateSums:
    """The one 2^n reference: enumerate every state of n binary variables,
    2^16 at a time, for the state sum of flat tables whose entries may have
    any sign (first scope variable most significant).

    Each state's weight is a sign times the exponential of a sum of log
    magnitudes.  Each chunk sums its weights relative to the running maximum
    log magnitude, earlier chunks' sums are rescaled when the maximum grows,
    and the chunk sums are combined with fsum."""
    if n > 20:
        raise SizeError("reference oracle capped at 20 variables")
    with np.errstate(divide="ignore"):  # a zero entry has log magnitude -inf
        logs = [np.log(np.abs(np.asarray(t, dtype=float))) for _, t in tables]
    signs = [np.sign(np.asarray(t, dtype=float)) for _, t in tables]
    shifts = np.arange(n, dtype=np.int64)
    best = -math.inf
    totals, ons, locals_ = [], [], []
    for off in range(0, 1 << n, 1 << 16):
        states = np.arange(off, min(off + (1 << 16), 1 << n), dtype=np.int64)
        bits = (states[:, None] >> shifts) & 1  # bit i of the state is variable i
        logw = np.zeros(len(states))
        sign = np.ones(len(states))
        index = []
        for (scope, _), lt, st in zip(tables, logs, signs):
            idx = np.zeros(len(states), dtype=np.int64)
            for i in scope:
                idx = (idx << 1) | bits[:, i]
            index.append(idx)
            logw += lt[idx]
            sign *= st[idx]
        top = logw.max()
        if top == -math.inf:
            continue  # every weight of the chunk is zero
        if top > best:
            scale = math.exp(best - top)
            totals = [s * scale for s in totals]
            ons = [s * scale for s in ons]
            locals_ = [[s * scale for s in part] for part in locals_]
            best = top
        w = sign * np.exp(logw - best)
        totals.append(math.fsum(w))
        ons.append(np.array([math.fsum(w[bits[:, i] == 1]) for i in range(n)]))
        locals_.append([
            np.bincount(idx, weights=w, minlength=len(lt)) for idx, lt in zip(index, logs)
        ])
    if not totals:
        return StateSums(0.0, 0.0, np.zeros(n), [np.zeros(len(lt)) for lt in logs])
    return StateSums(
        best,
        math.fsum(totals),
        np.array([math.fsum(col) for col in zip(*ons)]).reshape(n),
        [np.sum(parts, axis=0) for parts in zip(*locals_)],
    )


def exact_state_sum(n: int, tables) -> Fraction:
    """The sum over all 2^n states of prod_t t[x_scope(t)] in exact
    rational arithmetic, each entry the Fraction of its float; for small n
    only (64 states at n = 6)."""
    exact = [(scope, [Fraction(float(v)) for v in table]) for scope, table in tables]
    total = Fraction(0)
    for state in range(1 << n):
        weight = Fraction(1)
        for scope, table in exact:
            entry = 0
            for v in scope:  # first scope variable most significant
                entry = 2 * entry + (state >> v & 1)
            weight *= table[entry]
        total += weight
    return total


def loop_identity_tables(g: Multigraph, beta, xi, weight_node=None):
    """The edge-product state sum of exact.loop_identity_state_sum as
    tables: per node xi^x / (xi + 1/xi), per edge
    1 + x_i x_j beta xi_i^-x_i xi_j^-x_j (a self-loop on one variable), and
    the spin of weight_node."""
    spins = (-1.0, 1.0)
    tables = [((i,), [x**s / (x + 1 / x) for s in spins]) for i, x in enumerate(xi)]
    for (a, b), w in zip(g.edges, beta):
        if a == b:
            tables.append(((a,), [1 + w * xi[a] ** (-2 * s) for s in spins]))
        else:
            tables.append(((a, b), [
                1 + sa * sb * w * xi[a] ** -sa * xi[b] ** -sb for sa in spins for sb in spins
            ]))
    if weight_node is not None:
        tables.append(((weight_node,), list(spins)))
    return tables


def loop_identity_subset_sum(g: Multigraph, beta, xi, weight_node=None) -> float:
    """Subset-sum side of the loop identity, by the frontier engine.

    Unweighted: sum over edge subsets of prod beta * prod_i f_{d_i}(gamma_i),
    gamma_i = xi_i - 1/xi_i; weighted: the weight node contributes
    g_{d}(gamma)/(xi + 1/xi) instead of f_{d}(gamma).
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


def belief_ratio_state_sum(model, node_beliefs, factor_beliefs) -> float:
    """State sum of prod_f [b_f / prod_{i in f} b_i] * prod_i b_i over
    beliefs, factor_beliefs holding one flat table per factor (per edge of
    a pairwise model); Z / Z_B at an LBP fixed point.  It is the partition
    function of a factor model, each factor belief table over its scope and
    b_i^(1 - d_i) on each variable i of degree d_i."""
    n, tables = model_tables(model)
    if isinstance(model, PairwiseModel):
        tables = tables[n:]  # the edges, after the n node potentials
    scopes = [scope for scope, _ in tables]
    nb = np.asarray(node_beliefs, dtype=float)
    deg = np.bincount([i for scope in scopes for i in scope], minlength=n)
    beliefs = [(scope, np.ravel(b)) for scope, b in zip(scopes, factor_beliefs)]
    beliefs += [((i,), nb[i] ** (1 - deg[i])) for i in range(n)]
    return math.exp(brute_force(FactorModel(n, tuple(beliefs))).log_z)


def single_cycle_sign_check(res, target: int) -> bool:
    """On a converged one-cycle pairwise model with the target on the
    cycle, whether the exact and the belief marginal biases share a sign
    (zero matches either).  Raises IdentityError unless exactly two subsets
    survive pruning, carrying gamma and -(prod beta) gamma."""
    z_report = loop_series_z(res)
    correction = loop_series_marginal(res, target, z_report)
    if len(correction.terms) != 2:
        raise IdentityError(
            f"expected exactly 2 contributing subsets, got {len(correction.terms)}"
        )
    coeff = z_report.coefficients
    gamma_t = coeff.gamma[target]
    (s0, r0), (s1, r1) = sorted(correction.terms, key=lambda t: len(t[0]))
    prod_beta = math.prod(coeff.beta[e] for e in s1)
    if not (
        s0 == frozenset()
        and math.isclose(r0, gamma_t, rel_tol=1e-12, abs_tol=1e-15)
        and math.isclose(r1, -prod_beta * gamma_t, rel_tol=1e-9, abs_tol=1e-13)
    ):
        raise IdentityError("series terms do not match the gamma*(1 - prod beta) form")
    p = brute_force(res.model).marginals[target]
    b = res.node_beliefs[target]
    sp, sb = np.sign(p[1] - p[0]), np.sign(b[1] - b[0])
    return sp == 0 or sb == 0 or sp == sb


def f_product_identity_check(n: int, m: int) -> bool:
    """Whether f_{n+m-2} = f_n f_m + f_{n-1} f_{m-1} holds exactly (n, m >= 1)."""
    lhs = f_poly(n + m - 2)
    rhs = f_poly(n) * f_poly(m) + f_poly(n - 1) * f_poly(m - 1)
    return lhs == rhs


def omega_at_1_count(g: Multigraph) -> tuple[int, int]:
    """(omega(1), count of injective incident-edge assignments) of a
    loop-free graph.

    Counts maps from nodes to edges where each node takes a distinct edge
    incident to it, as one frontier count on g with every edge subdivided:
    edge e = (a, b) becomes a - m_e - b, edges 2e and 2e + 1, and taking a
    half gives e to the original end it touches.  The midpoint's table
    [1, 1, 0] lets at most one end take e, and an original node weighs one
    only at entry 1, taking exactly one edge.
    """
    n, halves = g.node_count, []
    for e, (a, b) in enumerate(g.edges):
        halves += [(a, n + e), (n + e, b)]
    tables = [[int(x == 1) for x in range(d + 1)] for d in g.degrees()]
    tables += [[1, 1, 0]] * len(g.edges)
    subdivided = Multigraph(n + len(g.edges), tuple(halves))
    count, _ = SubsetWeights(subdivided, tables).frontier_sum(one=1)
    return graphpoly.omega(g).poly.eval(1), count


def regular_graph_matching_check(g: Multigraph) -> bool:
    """For a (q+1)-regular simple graph, whether
    omega(u^2) == alpha(1/u + q u) * u^n as polynomials in u.

    The right side expands through (1/u + qu)^m u^m = (1 + q u^2)^m, so no
    negative powers appear.  omega's matching form is that right side
    expanded, so the left side comes from the definition, the theta route.
    """
    q = g.degrees()[0] - 1
    n = g.node_count
    alpha = graphpoly.matching_polynomial(g).poly
    base = UniPoly({0: 1, 2: q}, "u")  # (1 + q u^2)
    rhs = UniPoly({}, "u")
    for e, c in alpha.coeffs.items():
        # c * x^e at x = 1/u + qu, times u^n: c * (1+qu^2)^e * u^(n-e)
        rhs = rhs + base**e * UniPoly({n - e: c}, "u")
    lhs = graphpoly._omega_by_theta(g).poly.map_exponents(2).with_var("u")
    return lhs == rhs


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


def frontier_sum_reference(weights, by_size=False, one=1.0):
    """graph.SubsetWeights.frontier_sum with one general per-state loop for
    every step: each state's skip and take branches are built as a tuple
    and each retiring node's table is applied in a for/else.  The cap is
    read from graph.STATE_CAP at call time, so a test can lower it for both
    folds at once."""
    g = weights.graph
    tables = [[None if w == 0 else w for w in t] for t in weights.node_tables]
    last = [-1] * g.node_count
    for e, (a, b) in enumerate(g.edges):
        last[a] = last[b] = e
    width = max(len(t) - 1 for t in tables).bit_length() or 1
    fmask = (1 << width) - 1
    slot, free, top, plan = [-1] * g.node_count, [], 0, []
    for e, steps in enumerate(weights._steps()):
        for v, _ in steps:
            if slot[v] < 0:
                slot[v], top = (free.pop(), top) if free else (top, top + 1)
        done = [v for v, _ in steps if last[v] == e]
        plan.append((
            sum(d << slot[v] * width for v, d in steps),
            [(slot[v] * width, tables[v]) for v in done],
        ))
        free += [slot[v] for v in done]
    size_shift = top * width
    inc_size = 1 << size_shift if by_size else 0
    states = {0: one}
    for v in range(g.node_count):
        if last[v] < 0:  # untouched: entry 0 throughout
            w = tables[v][0]
            states = {k: x * w for k, x in states.items() if w is not None}
    peak = len(states)
    for (inc, retire), w in zip(plan, weights.edge_weights or [None] * len(plan)):
        inc += inc_size
        new: dict = {}
        for key, val in states.items():
            for k, x in ((key, val), (key + inc, val if w is None else val * w)):
                for shift, tab in retire:
                    d = (k >> shift) & fmask
                    t = tab[d]
                    if t is None:
                        break
                    x = x * t
                    k -= d << shift
                else:
                    old = new.get(k)
                    new[k] = x if old is None else old + x
        states = new
        peak = max(peak, len(states))
        if peak > graph.STATE_CAP:
            raise SizeError(f"the frontier sum needs more than {graph.STATE_CAP} states")
    if by_size:
        return {k >> size_shift: x for k, x in sorted(states.items())}, peak
    return states.get(0, one - one), peak


def contract(g: Multigraph, e: int) -> Multigraph:
    """Merge the endpoints of a non-loop edge e; the merged node takes the
    smaller id and higher ids shift down by one."""
    a, b = g.edges[e]
    if a == b:
        raise ValueError("cannot contract a self-loop")
    lo, hi = min(a, b), max(a, b)

    def remap(v: int) -> int:
        if v == hi:
            return lo
        return v - 1 if v > hi else v

    edges = tuple(
        (remap(x), remap(y)) for i, (x, y) in enumerate(g.edges) if i != e
    )
    return Multigraph(g.node_count - 1, edges)


def delete(g: Multigraph, e: int) -> Multigraph:
    """Remove edge e, keeping all nodes."""
    if not (0 <= e < len(g.edges)):
        raise ValueError(f"edge id {e} out of range")
    return Multigraph(g.node_count, tuple(p for i, p in enumerate(g.edges) if i != e))


def random_connected_graph_reference(n: int, m: int, rng) -> Multigraph:
    """The first connected one of CONNECTED_DRAWS uniform draws of m pairs,
    picked by position in the list of all pairs; raises when none is."""
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


_LINEAR_LO = 1e-280  # the reference's safe range for an unnormalized message
_LINEAR_HI = 1e280
_UNIT = {"linear": np.ones((1, 2)), "log": np.zeros((1, 2))}  # the pad slot's message


class _RangeSignal(Exception):
    """A linear-domain message left [_LINEAR_LO, _LINEAR_HI)."""


class FactorGraphReference:
    """The two-domain LBP engine as it was before each table was rescaled by
    a power of two: the same slot layout as loopcorrect.lbp._FactorGraph,
    with the raw tables (linear) or their logs (log) in its blocks."""

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
        self.var_slots = np.array(
            [s + [pad] * (width - len(s)) for s in slots_of], dtype=np.intp
        ).reshape(variable_count, width)
        rows = self.var_slots[var]
        self.others = rows[rows != np.arange(pad)[:, None]].reshape(pad, max(width - 1, 0))

    def block(self, domain: str):
        """(slots, gather, groups): slots index the message slots grouped by
        factor arity, gather[b] the slots whose product is the
        variable-to-factor message of the block's b-th slot, and each group
        is (ids, tables, belief_index, message_tables, message_index)."""
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
            order = np.argsort(bits, axis=0, kind="stable").T
            rest = np.array(
                [[q for q in range(k) if q != pos] for pos in range(k)], dtype=np.intp
            ).reshape(k, max(k - 1, 0))
            shape = (n * k, 2, (1 << k) // 2)
            groups.append((
                ids,
                tables,
                [local[:, q, None] + bits[:, q] for q in range(k)],
                # contiguous, as the engine's: numpy sums a contiguous axis
                # of 8 or more entries pairwise and a strided one in a chain
                np.ascontiguousarray(tables[:, order]).reshape(shape),
                [
                    (local[:, rest[:, j], None] + bits[order, rest[:, j, None]]).reshape(shape)
                    for j in range(k - 1)
                ],
            ))
        slots = np.concatenate([np.zeros(0, dtype=np.intp), *slots])
        return slots, self.others[slots], groups

    def sweep(self, msgs, block, damping: float, domain: str) -> float:
        """Update msgs (slot_count x 2, in the given domain) in place from
        the block of every factor; returns the largest change of a linear
        message entry, 0 when there is no slot."""
        if not self.slot_count:
            return 0.0
        log = domain == "log"
        combine = np.add if log else np.multiply
        ext = np.concatenate((msgs, _UNIT[domain]))
        slots, gather, groups = block
        v2f = combine.reduce(ext[gather], axis=1).ravel()
        parts = []
        for _, _, _, terms, message_index in groups:
            for index in message_index:
                terms = combine(terms, v2f[index])
            if log:
                top = terms.max(axis=2)
                parts.append(top + np.log(np.exp(terms - top[:, :, None]).sum(axis=2)))
            else:
                parts.append(terms.sum(axis=2))
        u = np.concatenate(parts)
        old = ext[slots]
        if log:
            s = np.logaddexp(u[:, :1], u[:, 1:])
            if not np.isfinite(s).all():
                raise NumericError("log-domain message update produced a non-finite value")
            new = u - s
            if damping > 0:
                new = np.logaddexp(math.log(1 - damping) + new, math.log(damping) + old)
            change = np.abs(np.exp(new) - np.exp(old)).max()
        else:
            if not (u.min() >= _LINEAR_LO and u.max() < _LINEAR_HI):
                raise _RangeSignal
            new = (1 - damping) * (u / u.sum(axis=1, keepdims=True)) + damping * old
            change = np.abs(new - old).max()
        ext[slots] = new
        msgs[:] = ext[:-1]
        return float(change)

    def beliefs(self, msgs):
        """Normalized node beliefs (n x 2) and flat factor beliefs from
        linear-domain messages."""
        ext = np.concatenate((msgs, _UNIT["linear"]))
        node = ext[self.var_slots].prod(axis=1)
        total = node.sum(axis=1, keepdims=True)
        if not ((total > 0.0).all() and np.isfinite(total).all()):
            raise NumericError("belief normalization failed")
        _, gather, groups = self.block("linear")
        v2f = ext[gather].prod(axis=1).ravel()
        factor = [None] * len(self.scopes)
        for ids, joint, belief_index, _, _ in groups:
            for index in belief_index:
                joint = joint * v2f[index]
            norm = joint.sum(axis=1, keepdims=True)
            if not ((norm > 0.0).all() and np.isfinite(norm).all()):
                raise NumericError("factor belief normalization failed")
            for f, row in zip(ids, joint / norm):
                factor[f] = row
        return node / total, factor

    def iterate(self, opts, domain: str):
        """Sweep from uniform messages until the residual drops below tol;
        returns linear-domain messages, iterations, residual."""
        block = self.block(domain)
        msgs = np.full((self.slot_count, 2), math.log(0.5) if domain == "log" else 0.5)
        residual = math.inf
        iterations = 0
        for iterations in range(1, opts.max_iters + 1):
            residual = self.sweep(msgs, block, opts.damping, domain)
            if residual < opts.tol:
                break
        return (np.exp(msgs) if domain == "log" else msgs), iterations, residual


def lbp_reference(variable_count: int, factors, opts):
    """(messages, node_beliefs, factor_beliefs, iterations, residual,
    domain) of the reference engine, which runs in the linear domain and
    restarts in the log domain when a message leaves the safe range."""
    graph = FactorGraphReference(variable_count, factors)
    domain = "linear"
    try:
        msgs, iterations, residual = graph.iterate(opts, domain)
    except _RangeSignal:
        domain = "log"
        msgs, iterations, residual = graph.iterate(opts, domain)
    node_beliefs, factor_beliefs = graph.beliefs(msgs)
    return msgs, node_beliefs, factor_beliefs, iterations, residual, domain


def bareiss_det(matrix: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix.

    Bareiss elimination: every division is exact over Z, so no rational
    arithmetic is needed; a nonzero remainder raises DivisibilityError.
    Row swaps flip the sign.
    """
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                q, r = divmod(row_i[j] * pivot - lead * row_k[j], prev)
                if r:
                    raise DivisibilityError(f"Bareiss step {k} leaves a remainder")
                row_i[j] = q
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def determinant_sum_reference(g: Multigraph) -> UniPoly:
    """The literal sum over node-disjoint cycle sets C of
    2^k(C) u^|C| det[I + u^2 (D - I) - u A] on the nodes C leaves
    untouched, as a polynomial in u (g simple).

    It runs packed at u = 2^B (poly.unpack).  The L1 norm (sum of
    |coefficients|) of a determinant is at most the product of its rows'
    L1 norms, and row r's is at most 1 + |d_r - 1| + d_r, at least 1.
    Every Bareiss intermediate is a minor, so its coefficients stay below
    the product over the kept rows, and a packed pivot is zero exactly
    when the polynomial is.  The sum's coefficients stay below the sum
    over C of 2^k(C) times that product; B exceeds its bit length.
    """
    n = g.node_count
    deg = g.degrees()
    cycle_sets = []
    for cyc, k in enumerate_disjoint_cycles(g):
        touched = {v for e in cyc for v in g.edges[e]}
        cycle_sets.append((len(cyc), k, [v for v in range(n) if v not in touched]))
    row_l1 = [1 + abs(d - 1) + d for d in deg]
    bound = sum((1 << k) * math.prod(row_l1[r] for r in keep) for _, k, keep in cycle_sets)
    bits = bound.bit_length() + 1
    u = 1 << bits
    full = [[0] * n for _ in range(n)]
    for a, b in g.edges:
        full[a][b] -= u
        full[b][a] -= u
    for r in range(n):
        full[r][r] += 1 + (deg[r] - 1) * u * u
    total = 0
    for size, k, keep in cycle_sets:
        total += bareiss_det([[full[r][c] for c in keep] for r in keep]) << (k + size * bits)
    return UniPoly(unpack(total, bits), "u")


def factor_betas_reference(res, xi: np.ndarray, nb: np.ndarray) -> list:
    """loopseries' factor betas as they were computed, one factor at a
    time: a 2^k x 2^k basis per factor, its betas with the empty mask
    pinned to 1 and singletons to 0, and the reconstruction check over all
    factors."""
    factor_beta = []
    worst = 0.0
    for f, (scope, _) in enumerate(res.model.factors):
        bf = np.asarray(res.factor_beliefs[f], dtype=float)
        _check_floor(bf)
        k, at = len(scope), np.array(scope, dtype=int)
        idx = np.arange(1 << k)
        bits = (idx[:, None] >> np.arange(k - 1, -1, -1)) & 1  # (state, q)
        spin = 2.0 * bits - 1.0
        phi = spin * xi[at] ** -spin
        members = ((idx[:, None] >> np.arange(k)) & 1).astype(bool)  # (mask, q)
        # basis[mask, state] = prod over q in mask of x_q xi_q^{-x_q}
        basis = np.where(members[:, None, :], phi[None, :, :], 1.0).prod(axis=2)
        betas = basis @ bf
        betas[members.sum(axis=1) == 1] = 0.0
        betas[0] = 1.0
        recon = (betas @ basis) * nb[at, bits].prod(axis=1)
        worst = max(worst, float(np.abs(recon - bf).max()))
        factor_beta.append(betas.tolist())
    if worst > 1e-10:
        raise IdentityError(
            f"factor belief reconstruction off by {worst:.3e}; "
            "coefficient inversion is invalid"
        )
    return factor_beta
