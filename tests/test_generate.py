"""The random connected graph sampler: the same draws as the pair-list
sampler it replaced, and sparse requests that it used to refuse."""

import time
import tracemalloc

import numpy as np
import pytest

from loopcorrect import generate
from loopcorrect.exceptions import GenerationError
from loopcorrect.generate import EDGE_CAP, random_connected_graph
from loopcorrect.graph import NODE_CAP, is_connected
from tests.oracles import random_connected_graph_reference


def _same_draws(n, m, rng_new, rng_ref):
    """Whether both samplers return one graph and leave the RNGs in one
    state; None when the reference sampler gives up."""
    try:
        ref = random_connected_graph_reference(n, m, rng_ref)
    except GenerationError:
        return None
    assert random_connected_graph(n, m, rng_new) == ref
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return True


def test_same_graphs_as_the_pair_list_sampler():
    compared = 0
    for seed in range(40):
        pick = np.random.default_rng(1000 + seed)
        n = int(pick.integers(1, 16))
        for m in {n - 1, n, (n - 1 + n * (n - 1) // 2) // 2, n * (n - 1) // 2}:
            rngs = np.random.default_rng(seed), np.random.default_rng(seed)
            compared += bool(_same_draws(n, m, *rngs))
    assert compared >= 100


def test_same_graphs_on_the_acceptance_recipe_draws():
    # the 80 pairwise graphs of the acceptance recipe, drawn one after the
    # other from one structure seed, as the corpus benchmark draws them
    rng_new, rng_ref = np.random.default_rng(0), np.random.default_rng(0)
    for i in range(80):
        n = 4 + i % 7
        lo, hi = n - 1, min(14, n * (n - 1) // 2)
        assert _same_draws(n, lo + (i // 7) % (hi - lo + 1), rng_new, rng_ref)


@pytest.mark.parametrize("n, m", [(30, 29), (40, 45), (12, 11)])
def test_sparse_requests_give_connected_graphs(n, m):
    for seed in range(3):
        g = random_connected_graph(n, m, np.random.default_rng(seed))
        assert g.node_count == n and len(g.edges) == m == len(set(g.edges))
        assert list(g.edges) == sorted(g.edges)
        assert all(a < b for a, b in g.edges)
        assert is_connected(g)[0]
        assert g == random_connected_graph(n, m, np.random.default_rng(seed))


def test_direct_construction_at_every_density(monkeypatch):
    # with no uniform draws every request takes the spanning tree plus
    # extra pairs, up to the complete graph
    monkeypatch.setattr(generate, "CONNECTED_DRAWS", 0)
    for n in (2, 3, 6, 9):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            g = random_connected_graph(n, m, np.random.default_rng(n * 100 + m))
            assert len(g.edges) == m == len(set(g.edges))
            assert list(g.edges) == sorted(g.edges)
            assert all(a < b for a, b in g.edges)
            assert is_connected(g)[0]


class Recorder:
    """An rng that lists the name and first argument of every draw."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            self.draws.append((name, args[:1]))
            return getattr(self.rng, name)(*args, **kwargs)
        return draw


@pytest.mark.parametrize("n, m, hopeless", [(2000, 2100, True), (30, 29, False), (200, 600, False)])
def test_hopeless_uniform_draws_are_skipped(n, m, hopeless, monkeypatch):
    # n e^(-2m/n) isolated nodes expected: 245 at (2000, 2100), past
    # ISOLATED_LIMIT, so the direct construction runs at once and gives
    # what it gives without uniform draws; 4.4 at (30, 29) and 0.5 at
    # (200, 600) keep the uniform draws
    rng = Recorder(np.random.default_rng(0))
    g = random_connected_graph(n, m, rng)
    uniform = rng.draws.count(("choice", (n * (n - 1) // 2,)))
    assert is_connected(g)[0]
    if hopeless:
        assert uniform == 0
        monkeypatch.setattr(generate, "CONNECTED_DRAWS", 0)
        assert g == random_connected_graph(n, m, np.random.default_rng(0))
    else:
        assert uniform >= 1


def test_large_sparse_request_is_fast_and_small():
    # timed untraced, as tracemalloc's per-allocation hook would slow it
    start = time.perf_counter()
    g = random_connected_graph(2000, 2100, np.random.default_rng(0))
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        traced = random_connected_graph(2000, 2100, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traced == g
    assert len(g.edges) == 2100 and is_connected(g)[0]
    assert seconds < 2.0
    assert peak < 20 * 2**20


def test_impossible_requests_raise():
    for n, m in ((5, 3), (4, 7)):
        with pytest.raises(GenerationError, match="no simple connected graph"):
            random_connected_graph(n, m, np.random.default_rng(0))


@pytest.mark.parametrize("kind, args", [
    ("cycle", ["10000000000"]),
    ("tree", ["10000000000"]),
    ("grid", ["100000", "100000"]),
    ("random", ["10000000000", "20000000000"]),
])
def test_node_count_is_checked_before_building(kind, args, monkeypatch):
    # each of these ran out of memory or without end when it was built, so
    # a builder that is reached fails at once
    def built(*_):
        raise AssertionError("the topology was built")

    for name in ("random_tree", "cycle_graph", "grid_graph", "random_connected_graph"):
        monkeypatch.setattr(generate, name, built)
    with pytest.raises(GenerationError, match="10000000000 nodes exceed the generator cap"):
        generate.make_topology(kind, args, np.random.default_rng(0))


def test_node_cap_is_inclusive():
    rng = np.random.default_rng(0)
    assert generate.make_topology("cycle", [str(NODE_CAP)], rng).node_count == NODE_CAP
    assert generate.make_topology("grid", ["256", str(NODE_CAP // 256)], rng).node_count == NODE_CAP
    with pytest.raises(GenerationError, match=f"{NODE_CAP + 1} nodes exceed"):
        generate.make_topology("tree", [str(NODE_CAP + 1)], rng)


class NoDraws:
    """An rng that fails on its first draw."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was called")


def test_edge_count_is_checked_before_any_draw():
    # 2e9 of the 2.1e9 pairs on NODE_CAP nodes: the draw would ask for 16 GiB
    with pytest.raises(GenerationError, match="2000000000 edges exceed the generator cap"):
        generate.make_topology("random", [str(NODE_CAP), "2000000000"], NoDraws())


def test_edge_cap_is_inclusive():
    n = str(NODE_CAP)
    # four edges per node leave 22 isolated nodes expected in a uniform
    # draw, so the first draw is the direct construction's
    with pytest.raises(AssertionError, match="rng.permutation was called"):
        generate.make_topology("random", [n, str(EDGE_CAP)], NoDraws())
    with pytest.raises(GenerationError, match=f"{EDGE_CAP + 1} edges exceed"):
        generate.make_topology("random", [n, str(EDGE_CAP + 1)], NoDraws())
