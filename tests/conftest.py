"""Shared fixtures: the fixed graph corpus and model helpers."""

import numpy as np
import pytest

from loopcorrect.graph import (
    Multigraph,
    complete_graph,
    cycle_graph,
    grid_graph,
    two_triangles_graph,
)


def path_graph(n):
    return Multigraph(n, tuple((i, i + 1) for i in range(n - 1)))


def star_graph(n):
    """Node 0 joined to each of the other n-1 nodes."""
    return Multigraph(n, tuple((0, i) for i in range(1, n)))


def single_cycle_graph(cycle_len, extra_nodes, rng):
    """A cycle through nodes 0..cycle_len-1 with a random pendant tree."""
    n, edges = cycle_len, list(cycle_graph(cycle_len).edges)
    for _ in range(extra_nodes):
        edges.append((int(rng.integers(0, n)), n))
        n += 1
    return Multigraph(n, tuple(edges))


def bouquet_graph(loops):
    """A single node with the given number of self-loops."""
    return Multigraph(1, ((0, 0),) * loops)


def parallel_edges_graph(count=2):
    """Two nodes joined by `count` parallel edges."""
    return Multigraph(2, ((0, 1),) * count)


def corpus_trees():
    """Fixed trees up to 8 nodes."""
    return [
        path_graph(2),
        path_graph(3),
        path_graph(5),
        star_graph(5),
        Multigraph(7, ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6))),
        Multigraph(8, ((0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6), (5, 7))),
    ]


def corpus_graphs():
    """The fixed identity-check corpus: trees, small cycles, K4, a 2x3
    grid, the two-triangles graph, bouquets, and parallel-edge graphs."""
    return (
        corpus_trees()
        + [cycle_graph(n) for n in (3, 4, 5, 6)]
        + [
            complete_graph(4),
            grid_graph(2, 3),
            two_triangles_graph(),
            bouquet_graph(1),
            bouquet_graph(2),
            bouquet_graph(3),
            parallel_edges_graph(2),
            parallel_edges_graph(3),
        ]
    )


def circular_ladder(rungs):
    """Two concentric cycles of `rungs` nodes joined by rungs: 3 * rungs
    edges, every node of degree three, so no edge is pendant or in series."""
    outer = [(i, (i + 1) % rungs) for i in range(rungs)]
    inner = [(rungs + i, rungs + (i + 1) % rungs) for i in range(rungs)]
    spokes = [(i, rungs + i) for i in range(rungs)]
    return Multigraph(2 * rungs, tuple(outer + inner + spokes))


def subdivided(g, k):
    """g with every edge replaced by a chain of k edges through k - 1 new
    nodes; a self-loop becomes a cycle through its node."""
    n, edges = g.node_count, []
    for a, b in g.edges:
        for _ in range(k - 1):
            edges.append((a, n))
            a, n = n, n + 1
        edges.append((a, b))
    return Multigraph(n, tuple(edges))


def corpus_simple_connected():
    """The subset valid for the determinant-sum identity."""
    return [g for g in corpus_graphs() if g.is_simple()]


def corpus_loop_free():
    """The subset valid for the counting interpretation of omega(1)."""
    return [g for g in corpus_graphs() if not g.has_self_loop()]


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
