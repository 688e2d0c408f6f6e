"""The loop series: belief-derived coefficients and the exact finite
expansions of Z and of single-node marginals around the Bethe value, for
pairwise and factor-graph models alike.

Every function reads the model from the LBP result (res.model).  A
pairwise model is the arity-2 case: only the beta weights and the subset
weights are built per kind.

A term's node weights depend only on each node's degree in the subset (or,
for a factor node, on which of its incidences the subset holds), so every
sum is one frontier subset sum (graph.SubsetWeights) folded edge by edge;
f_1 = 0 drops a partial subset as soon as a node retires with degree one.
A node's marginal is the Z sum with that node's f table swapped for its g
table.  Z and all the marginals of a model come from one forward and one
backward pass over the Z sum's plan (graph.SubsetWeights.swapped_sums):
the forward pass is the Z sum, and the backward pass reads each node's
swapped sum where the node retires.  One quantity alone (Z, or one
marginal) is one plain frontier sum.
The per-subset terms are enumerated only when read, under graph.TERMS_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .exceptions import IdentityError, NotConvergedError
from .graph import SubsetWeights, count_generalized_loops
from .lbp import LbpResult
from .model import PairwiseModel, factor_incidence_graph
from .poly import f_values, g_values

BELIEF_FLOOR = 1e-12


@dataclass
class SeriesCoefficients:
    """Per-node bias numbers gamma, per-node xi, and the correlation
    weights: per-edge beta for pairwise models, per-(factor, incidence mask)
    beta for factor models."""

    xi: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray | None = None
    # per factor: its betas indexed by incidence mask, bit q for scope
    # position q, the order of its frontier table
    factor_beta: list = field(default_factory=list)


@dataclass
class SeriesReport:
    """Evaluated series: the total, the coefficients and weights it was
    summed from, and the frontier's peak state count.  per_size (the total
    split by subset size) and terms (the per-subset (frozenset, r) list) are
    computed when first read, and z_estimate = Z_B * total whenever read.
    From loop_series_marginals, peak_states is the one pass's peak, which
    also counts the states that only a swapped g table reaches."""

    total: float
    log_z_b: float
    coefficients: SeriesCoefficients
    peak_states: int
    weights: SubsetWeights = field(repr=False)

    @property
    def z_estimate(self) -> float:
        return math.exp(self.log_z_b) * self.total

    @cached_property
    def per_size(self) -> dict:
        """size -> sum of r(s) over that size, for every size that has a
        generalized loop (0.0 where all of them weigh zero, as the odd sizes
        of a bipartite graph do at gamma = 0).  Two more frontier sums,
        whose states also carry |s|, so it is run only when read."""
        sums = self.weights.frontier_sum(by_size=True)[0]
        sizes = count_generalized_loops(self.weights.graph, by_size=True)
        return {size: sums.get(size, 0.0) for size in sizes}

    @cached_property
    def terms(self) -> list:
        return self.weights.terms()


def _require_converged(res: LbpResult) -> None:
    if not res.converged:
        raise NotConvergedError(
            f"LBP did not converge (residual {res.residual:.3e}); "
            "the series requires a fixed point"
        )


def _check_floor(beliefs: np.ndarray) -> None:
    """Refuse beliefs below BELIEF_FLOOR; an empty array (no edges) passes."""
    if beliefs.size and beliefs.min() < BELIEF_FLOOR:
        raise ValueError(
            f"belief entry below {BELIEF_FLOOR}; refusing to extract coefficients"
        )


def _xi_gamma(nb: np.ndarray):
    _check_floor(nb)
    xi = np.sqrt(nb[:, 1] / nb[:, 0])
    gamma = (nb[:, 1] - nb[:, 0]) / np.sqrt(nb[:, 1] * nb[:, 0])
    drift = np.abs(gamma - (xi - 1.0 / xi)) / np.maximum(1.0, np.abs(gamma))
    if drift.max() > 1e-12:
        raise IdentityError(f"gamma/xi consistency drift {drift.max():.3e}")
    return xi, gamma


def coefficients_from_beliefs(res: LbpResult) -> SeriesCoefficients:
    """Extract xi, gamma and the correlation weights from converged
    beliefs: per-edge beta for a pairwise model, per-(factor, incidence
    mask) beta for a factor model."""
    _require_converged(res)
    nb = np.asarray(res.node_beliefs, dtype=float)
    xi, gamma = _xi_gamma(nb)
    if not isinstance(res.model, PairwiseModel):
        return SeriesCoefficients(xi=xi, gamma=gamma, factor_beta=_factor_betas(res, xi, nb))
    eb = np.reshape(res.factor_beliefs, (-1, 2, 2))
    _check_floor(eb)
    ends = np.array(res.model.graph.edges, dtype=int).reshape(-1, 2)
    root = np.sqrt(nb[:, 1] * nb[:, 0])
    beta = (eb[:, 1, 1] * eb[:, 0, 0] - eb[:, 1, 0] * eb[:, 0, 1]) / (
        root[ends[:, 0]] * root[ends[:, 1]]
    )
    return SeriesCoefficients(xi=xi, gamma=gamma, beta=beta)


def _factor_betas(res: LbpResult, xi: np.ndarray, nb: np.ndarray) -> list:
    """Per factor, beta^f_I for every incidence mask I.

    The basis functions prod_{i in I} x_i xi_i^{-x_i} are orthonormal under
    the product of node beliefs, so beta^f_I is the plain expectation of the
    basis function under b_f.  The empty set is pinned to 1 and singletons
    to 0 (they vanish at a fixed point by margin consistency); the expansion
    is then verified by reconstructing every b_f, and a failure beyond
    tolerance is a hard error because it would invalidate the inversion.
    The factors of one arity share one (F, 2^k, 2^k) basis and one
    batched product.
    """
    by_arity: dict[int, list[int]] = {}
    for f, (scope, _) in enumerate(res.model.factors):
        by_arity.setdefault(len(scope), []).append(f)
    factor_beta = [None] * len(res.model.factors)
    worst = 0.0
    for k, ids in by_arity.items():
        bf = np.array([res.factor_beliefs[f] for f in ids], dtype=float).reshape(len(ids), 1 << k)
        _check_floor(bf)
        at = np.array([res.model.factors[f][0] for f in ids], dtype=int).reshape(len(ids), k)
        idx = np.arange(1 << k)
        bits = (idx[:, None] >> np.arange(k - 1, -1, -1)) & 1  # (state, q)
        spin = 2.0 * bits - 1.0
        phi = spin * xi[at][:, None, :] ** -spin  # (F, state, q)
        members = ((idx[:, None] >> np.arange(k)) & 1).astype(bool)  # (mask, q)
        # basis[f, mask, state] = prod over q in mask of x_q xi_q^{-x_q}
        basis = np.where(members[:, None, :], phi[:, None, :, :], 1.0).prod(axis=3)
        betas = (basis @ bf[:, :, None])[:, :, 0]
        betas[:, members.sum(axis=1) == 1] = 0.0
        betas[:, 0] = 1.0
        # reconstruction check: the expansion must reproduce b_f
        recon = (betas[:, None, :] @ basis)[:, 0, :] * nb[at[:, None, :], bits].prod(axis=2)
        worst = max(worst, float(np.abs(recon - bf).max()))
        for f, row in zip(ids, betas.tolist()):
            factor_beta[f] = row
    if worst > 1e-10:
        raise IdentityError(
            f"factor belief reconstruction off by {worst:.3e}; "
            "coefficient inversion is invalid"
        )
    return factor_beta


def _degree_tables(coeff: SeriesCoefficients, degrees) -> list:
    return [f_values(float(coeff.gamma[i]), d) for i, d in enumerate(degrees)]


def _subset_weights(model, coeff: SeriesCoefficients) -> SubsetWeights:
    """The Z series' weights.  Pairwise: the model's graph, each edge
    weighing its beta.  Factor: the incidence graph, each incidence edge
    weighing -1 and each factor node, a mask node, its betas."""
    if isinstance(model, PairwiseModel):
        g = model.graph
        return SubsetWeights(g, _degree_tables(coeff, g.degrees()), coeff.beta.tolist())
    gh = factor_incidence_graph(model)
    n = model.variable_count
    tables = _degree_tables(coeff, gh.degrees()[:n]) + coeff.factor_beta
    return SubsetWeights(gh, tables, [-1.0] * len(gh.edges), frozenset(range(n, gh.node_count)))


def loop_series_z(res: LbpResult) -> SeriesReport:
    """The exact expansion Z = Z_B * sum_s r(s) over generalized loops of
    res.model: r(s) = prod_{ij in s} beta_ij * prod_i f_{d_i(s)}(gamma_i)
    for a pairwise model, and over subsets of the incidence edges
    r(s) = (-1)^{|s|} prod_f beta^f_{I_f(s)} * prod_i f_{d_i(s)}(gamma_i)
    for a factor model."""
    coeff = coefficients_from_beliefs(res)
    weights = _subset_weights(res.model, coeff)
    total, peak = weights.frontier_sum()
    return SeriesReport(
        total=total,
        log_z_b=res.log_z_b,
        coefficients=coeff,
        peak_states=peak,
        weights=weights,
    )


@dataclass
class MarginalCorrection:
    """Series-corrected single-node marginal.  weights, the Z series'
    weights with the target's table swapped, is built when first read, and
    terms, the per-subset (frozenset, r) list of the bias series, is
    enumerated when first read."""

    target: int
    bias_series: float
    series_total: float
    corrected_marginal: np.ndarray  # [p(-1), p(+1)]
    z_report: SeriesReport = field(repr=False)

    @cached_property
    def weights(self) -> SubsetWeights:
        return _target_weights(self.z_report, self.target)

    @cached_property
    def terms(self) -> list:
        return self.weights.terms(free_node=self.target)


def _g_table(coeff: SeriesCoefficients, weights: SubsetWeights, target: int) -> list:
    """The target's g table, which replaces its f table in the Z series'
    weights (g_1 = -2, so the target escapes degree-one pruning; every other
    node still kills subsets through f_1 = 0)."""
    degree = len(weights.node_tables[target]) - 1
    return g_values(float(coeff.gamma[target]), degree)


def _target_weights(z_report: SeriesReport, target: int) -> SubsetWeights:
    """The Z series' weights with the target's f table swapped for its g
    table."""
    weights = z_report.weights
    tables = list(weights.node_tables)
    tables[target] = _g_table(z_report.coefficients, weights, target)
    return replace(weights, node_tables=tables)


def _correction(res, target, z_report, bias) -> MarginalCorrection:
    b = res.node_beliefs[target]
    diff = math.sqrt(b[1] * b[0]) * bias / z_report.total
    return MarginalCorrection(
        target=target,
        bias_series=bias,
        series_total=z_report.total,
        corrected_marginal=np.array([(1.0 - diff) / 2.0, (1.0 + diff) / 2.0]),
        z_report=z_report,
    )


def loop_series_marginal(res: LbpResult, target: int, z_report: SeriesReport) -> MarginalCorrection:
    """Exact marginal of the target node (variable) via the weighted series.

    z_report must be the loop_series_z output for the same fixed point; its
    coefficients and weights are reused.  On a factor model the factor
    nodes still prune at degree one, because singleton betas vanish.

    A single target is one plain frontier sum over the swapped weights,
    with no stored layers and no backward pass.
    """
    _require_converged(res)
    if not (0 <= target < len(res.node_beliefs)):
        raise ValueError(f"target node {target} out of range")
    bias, _ = _target_weights(z_report, target).frontier_sum()
    return _correction(res, target, z_report, bias)


def loop_series_marginals(res: LbpResult) -> tuple[SeriesReport, list[MarginalCorrection]]:
    """The Z series and every node's (every variable's) marginal
    correction, from one forward and one backward pass over the Z series'
    plan (SubsetWeights.swapped_sums with each variable's g table).  The
    forward pass is the Z sum, so the report's total is loop_series_z's bit
    for bit; its peak_states also counts the states only a swap reaches.
    Mask (factor) nodes keep their tables.  The stored layers hold about
    the edge count times the average state count in keys and floats.
    """
    coeff = coefficients_from_beliefs(res)
    weights = _subset_weights(res.model, coeff)
    n = len(res.node_beliefs)
    total, bias, peak = weights.swapped_sums({v: _g_table(coeff, weights, v) for v in range(n)})
    report = SeriesReport(
        total=total,
        log_z_b=res.log_z_b,
        coefficients=coeff,
        peak_states=peak,
        weights=weights,
    )
    return report, [_correction(res, v, report, bias[v]) for v in range(n)]


# The per-kind names of the unified functions.  The benchmark tracer
# (bench/spans.py) looks each one up, and maps it to the same span as its
# unified twin.
factor_coefficients = coefficients_from_beliefs
loop_series_z_factor = loop_series_z
loop_series_marginal_factor = loop_series_marginal


def truncated_series(report: SeriesReport, max_size: int):
    """Cumulative partial sums of the series by subset size.

    Returns [(size, partial sum over |s| <= size)] for every size present
    up to max_size, starting from the Bethe term alone; max_size < 0 is a
    ValueError.
    """
    if max_size < 0:
        raise ValueError(f"max size must be non-negative, got {max_size}")
    out = []
    acc: list[float] = []
    for size in sorted(report.per_size):
        if size > max_size:
            break
        acc.append(report.per_size[size])
        out.append((size, math.fsum(acc)))
    return out
