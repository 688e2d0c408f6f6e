"""Binary pairwise MRFs and factor-graph models: validation, node-potential
absorption, conversion, and JSON serialization.

State encoding is fixed everywhere: spin -1 <-> index 0, spin +1 <-> index 1.
Factor tables are flat, with the first scope variable as the most
significant bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, islice

from .graph import Multigraph, is_connected

# Entries at or below this are rejected outright; clamping would silently
# corrupt the exactness claims downstream.
POSITIVITY_FLOOR = 1e-300


def _check_positive(values, what: str) -> None:
    """Raise ValueError naming the first of the float values outside
    [POSITIVITY_FLOOR, inf).  min, max and sum run in C: a NaN can slip
    past min and max, but it makes the sum NaN, and only then is each value
    looked at."""
    values = list(values)
    total = sum(values)
    if not values or (
        min(values) >= POSITIVITY_FLOOR and max(values) < math.inf and total == total
    ):
        return
    for v in values:
        if not POSITIVITY_FLOOR <= v < math.inf:
            raise ValueError(f"{what} must be strictly positive and finite, got {v!r}")


@dataclass(frozen=True)
class PairwiseModel:
    """Pairwise binary MRF on a simple connected graph.

    edge_potentials[e][xi][xj] follows the endpoint order of graph.edges[e];
    node_potentials[i][x] is the unary table of node i.
    """

    graph: Multigraph
    edge_potentials: tuple  # tuple of 2x2 nested tuples
    node_potentials: tuple  # tuple of 2-tuples

    def __post_init__(self):
        g = self.graph
        if not g.is_simple():
            raise ValueError("pairwise models need a simple graph")
        ok, comps = is_connected(g)
        if not ok:
            raise ValueError(f"pairwise models must be connected ({comps} components)")
        if len(self.edge_potentials) != len(g.edges):
            raise ValueError("one edge potential table per edge required")
        if len(self.node_potentials) != g.node_count:
            raise ValueError("one node potential table per node required")
        # One pass converts and shape-checks every table; when it fails,
        # the entry-by-entry conversion and the shape checks name the fault.
        try:
            psi = tuple(((float(a), float(b)), (float(c), float(d)))
                        for (a, b), (c, d) in self.edge_potentials)
            phi = tuple((float(a), float(b)) for a, b in self.node_potentials)
        except (TypeError, ValueError):
            psi = tuple(
                tuple(tuple(float(v) for v in row) for row in tab)
                for tab in self.edge_potentials
            )
            phi = tuple(tuple(float(v) for v in tab) for tab in self.node_potentials)
            if any(len(tab) != 2 or any(len(row) != 2 for row in tab) for tab in psi):
                raise ValueError("edge potentials must be 2x2") from None
            if any(len(tab) != 2 for tab in phi):
                raise ValueError("node potentials must have 2 entries") from None
        _check_positive(chain.from_iterable(chain.from_iterable(psi)), "edge potential")
        _check_positive(chain.from_iterable(phi), "node potential")
        object.__setattr__(self, "edge_potentials", psi)
        object.__setattr__(self, "node_potentials", phi)

    @property
    def node_count(self) -> int:
        return self.graph.node_count


def uniform_phi(n: int) -> tuple:
    return tuple((1.0, 1.0) for _ in range(n))


def absorb_node_potentials(m: PairwiseModel) -> PairwiseModel:
    """Fold each unary table into its lowest-id incident edge table.

    The joint distribution is unchanged; the returned model has all node
    potentials identically one, which is the form the series formulas
    assume.  m's graph and float tables passed PairwiseModel's checks, so
    only the multiplied tables, which can leave float range, are checked
    again.
    """
    psi = [
        [[tab[0][0], tab[0][1]], [tab[1][0], tab[1][1]]]
        for tab in m.edge_potentials
    ]
    first = [-1] * m.node_count  # lowest-id incident edge per node
    for e, (a, b) in reversed(list(enumerate(m.graph.edges))):
        first[a] = first[b] = e
    changed = set()
    for i, phi in enumerate(m.node_potentials):
        if phi == (1.0, 1.0):
            continue
        e = first[i]
        if e < 0:
            raise ValueError(f"node {i} is isolated; cannot absorb its potential")
        a, b = m.graph.edges[e]
        for xa in (0, 1):
            for xb in (0, 1):
                psi[e][xa][xb] *= phi[xa if i == a else xb]
        changed.add(e)
    for e in sorted(changed):
        _check_positive(psi[e][0] + psi[e][1], "edge potential")
    out = object.__new__(PairwiseModel)
    object.__setattr__(out, "graph", m.graph)
    object.__setattr__(out, "edge_potentials", tuple(
        tuple(tuple(row) for row in tab) for tab in psi
    ))
    object.__setattr__(out, "node_potentials", uniform_phi(m.node_count))
    return out


@dataclass(frozen=True)
class FactorModel:
    """Factor-graph model: positive tables over subsets of binary variables.

    factors is a tuple of (scope, table) pairs; scope is an ordered tuple of
    distinct variable ids and table a flat tuple of 2^len(scope) positive
    reals, first scope variable most significant.
    """

    variable_count: int
    factors: tuple

    def __post_init__(self):
        if self.variable_count <= 0:
            raise ValueError("variable_count must be positive")
        norm = []
        for scope, table in self.factors:
            scope = tuple(map(int, scope))
            if len(set(scope)) != len(scope):
                raise ValueError(f"factor scope {scope} has duplicates")
            table = tuple(map(float, table))
            if len(table) != 1 << len(scope):
                raise ValueError(
                    f"factor on {scope} needs {1 << len(scope)} entries, got {len(table)}"
                )
            norm.append((scope, table))
        covered = set(chain.from_iterable(scope for scope, _ in norm))
        if covered and (min(covered) < 0 or max(covered) >= self.variable_count):
            bad = next(i for i in chain.from_iterable(scope for scope, _ in norm)
                       if not 0 <= i < self.variable_count)
            raise ValueError(f"variable id {bad} out of range")
        _check_positive(chain.from_iterable(table for _, table in norm), "factor table")
        if len(covered) < self.variable_count:
            # covered holds valid ids only, so the count needs no set of all
            # variable_count ids, and the message names the first few
            first = islice((i for i in range(self.variable_count) if i not in covered), 3)
            raise ValueError(
                f"{self.variable_count - len(covered)} of {self.variable_count} variables "
                f"appear in no factor, the first {list(first)}"
            )
        object.__setattr__(self, "factors", tuple(norm))


def edge_tables(m: PairwiseModel) -> list:
    """The edges of m as arity-2 factors: (scope, flat row-major table)
    pairs in edge order."""
    return [(edge, psi[0] + psi[1]) for edge, psi in zip(m.graph.edges, m.edge_potentials)]


def to_factor_model(m: PairwiseModel) -> FactorModel:
    """One binary factor per edge, node potentials absorbed first."""
    return FactorModel(m.node_count, tuple(edge_tables(absorb_node_potentials(m))))


def factor_incidence_graph(fm: FactorModel) -> Multigraph:
    """Bipartite incidence graph: variable nodes 0..N-1, then one node per
    factor; one edge per (variable, factor) incidence, factor-major order."""
    n = fm.variable_count
    edges = []
    for f, (scope, _) in enumerate(fm.factors):
        for i in scope:
            edges.append((i, n + f))
    return Multigraph(n + len(fm.factors), tuple(edges))


# ---------------------------------------------------------------------------
# JSON model files.
# ---------------------------------------------------------------------------

def pairwise_to_json(m: PairwiseModel) -> str:
    doc = {
        "nodes": m.node_count,
        "edges": [
            {"i": a, "j": b, "psi": [list(row) for row in m.edge_potentials[e]]}
            for e, (a, b) in enumerate(m.graph.edges)
        ],
        "phi": [list(tab) for tab in m.node_potentials],
    }
    return json.dumps(doc, indent=1)


def factor_to_json(fm: FactorModel) -> str:
    doc = {
        "vars": fm.variable_count,
        "factors": [
            {"scope": list(scope), "table": list(table)}
            for scope, table in fm.factors
        ],
    }
    return json.dumps(doc, indent=1)


def _integer(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _field(name: str, build):
    """build(), with a missing key or a value of the wrong shape reported as
    a ValueError that names the model JSON field."""
    try:
        return build()
    except KeyError as exc:
        raise ValueError(f"model JSON lacks the field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model JSON field {name!r} is malformed: {exc}") from None


def model_from_json(text: str):
    """Parse either model flavour; returns PairwiseModel or FactorModel.
    A malformed document raises ValueError naming the field, and so does
    one nested past the parser's recursion limit."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("model JSON nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("model JSON must be an object")
    if "nodes" in doc:
        n = _field("nodes", lambda: _integer(doc["nodes"]))
        edges = _field("edges", lambda: tuple(
            (_integer(e["i"]), _integer(e["j"])) for e in doc["edges"]
        ))
        if n > len(edges) + 1:
            # checked before anything of size n is built
            raise ValueError(
                f"pairwise models must be connected: {n} nodes need at least "
                f"{n - 1} edges, got {len(edges)}"
            )
        psi = _field("psi", lambda: tuple(
            tuple(tuple(float(v) for v in row) for row in e["psi"]) for e in doc["edges"]
        ))
        phi = _field("phi", lambda: tuple(
            tuple(float(v) for v in tab)
            for tab in (uniform_phi(n) if doc.get("phi") is None else doc["phi"])
        ))
        return PairwiseModel(Multigraph(n, edges), psi, phi)
    if "vars" in doc:
        count = _field("vars", lambda: _integer(doc["vars"]))
        factors = _field("factors", lambda: tuple(
            (tuple(_integer(i) for i in f["scope"]), tuple(float(v) for v in f["table"]))
            for f in doc["factors"]
        ))
        return FactorModel(count, factors)
    raise ValueError("model JSON must contain 'nodes' (pairwise) or 'vars' (factor)")
