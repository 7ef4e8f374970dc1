"""Exact small-scale solver: optimal spans, bounds, and budgets."""

from __future__ import annotations

import hashlib
import random
import tracemalloc

import networkx as nx
import pytest

from tlabel.exact import (
    BudgetExceeded,
    bounds,
    chromatic_number,
    edge_chromatic_number,
    find_labeling,
    lambda_exact,
    span_lower_bound,
)
from tlabel.families import generate
from tlabel.graphs import Graph
from tlabel.io import serialize_labeling
from tlabel.labeling import ColorInterval, validate

from oracle import naive_lambda


def _make(edges, vertices=()):
    return Graph.from_edges(edges, vertices=vertices)


def test_lambda_frozen_values():
    assert lambda_exact(_make([(0, 1)]), d=2).value == 3
    assert lambda_exact(_make([(0, 1)]), d=1).value == 2
    assert lambda_exact(_make([(0, 1), (1, 2)]), d=2).value == 4
    assert lambda_exact(_make([(0, 1), (0, 2), (0, 3)]), d=2).value == 4
    assert lambda_exact(_make([(0, 1), (1, 2), (0, 2)]), d=2).value == 4
    assert lambda_exact(_make([], vertices=range(3)), d=2).value == 0


def test_lambda_result_carries_a_valid_witness():
    g = generate("wheel", 5)
    res = lambda_exact(g, d=2)
    assert res.solved and res.status == "solved"
    assert res.witness is not None
    assert res.witness.is_total(g)
    assert validate(g, res.witness, ColorInterval(res.value, 2)) == []
    assert res.witness.max_color() == res.value


def test_lambda_merges_components():
    g = _make([(0, 1), (2, 3)], vertices=range(4))
    res = lambda_exact(g, d=2)
    assert res.value == 3
    assert res.witness.is_total(g)


def test_lambda_budget_exhaustion_is_reported():
    g = _make([(u, v) for u in range(6) for v in range(u + 1, 6)])
    res = lambda_exact(g, d=2, budget=10)
    assert res.status == "unknown" and not res.solved
    assert res.value is None


def test_negative_budget_is_rejected():
    g = _make([(0, 1), (1, 2)])
    empty = _make([], vertices=())
    calls = [
        lambda h: find_labeling(h, ColorInterval(4, 2), budget=-1),
        lambda h: lambda_exact(h, d=2, budget=-1),
    ]
    for call in calls:
        for h in (g, empty):
            with pytest.raises(ValueError, match="budget must be non-negative"):
                call(h)
    # zero is a budget, not an error: the search stops at once
    assert lambda_exact(g, d=2, budget=0).status == "unknown"


def test_span_lower_bound_cases():
    assert span_lower_bound(_make([], vertices=range(4)), 2) == 0
    # star: max degree 3 > d, not regular
    assert span_lower_bound(_make([(0, 1), (0, 2), (0, 3)]), 2) == 4
    # triangle: regular, so one more
    assert span_lower_bound(_make([(0, 1), (1, 2), (0, 2)]), 2) == 4
    # path: d >= max degree, so one more
    assert span_lower_bound(_make([(0, 1), (1, 2)]), 2) == 4
    assert span_lower_bound(_make([(0, 1), (1, 2)]), 1) == 2


def test_chromatic_numbers_frozen():
    tri = _make([(0, 1), (1, 2), (0, 2)])
    assert chromatic_number(tri) == 3
    assert edge_chromatic_number(tri) == 3
    c5 = generate("cycle", 5)
    assert chromatic_number(c5) == 3
    assert edge_chromatic_number(c5) == 3
    star = _make([(0, 1), (0, 2), (0, 3)])
    assert chromatic_number(star) == 2
    assert edge_chromatic_number(star) == 3


def test_chromatic_numbers_of_graphs_without_vertices_or_edges():
    assert chromatic_number(_make([])) == 0
    assert edge_chromatic_number(_make([])) == 0
    assert chromatic_number(_make([], vertices=range(3))) == 1
    assert edge_chromatic_number(_make([], vertices=range(3))) == 0


def test_bounds_sandwich_c5():
    c5 = generate("cycle", 5)
    assert bounds(c5, d=2) == (4, 6)
    lam = lambda_exact(c5, d=2).value
    assert 4 <= lam <= 6


def test_find_labeling_none_when_interval_too_small():
    tri = _make([(0, 1), (1, 2), (0, 2)])
    phi, nodes = find_labeling(tri, ColorInterval(3, 2))
    assert phi is None and nodes > 0
    phi2, _ = find_labeling(tri, ColorInterval(4, 2))
    assert phi2 is not None and phi2.is_total(tri)


def test_exact_agrees_with_oracle_on_random_small_graphs():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 5)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pool if rng.random() < 0.5]
        g = _make(edges, vertices=range(n))
        for d in (1, 2):
            assert lambda_exact(g, d=d).value == naive_lambda(g, d)


def test_bounds_hold_on_families():
    rng = random.Random(5)
    for _ in range(8):
        g = generate("random_planar", rng.randint(4, 7), seed=rng.randint(0, 99))
        lo, hi = bounds(g, d=2)
        lam = lambda_exact(g, d=2).value
        assert lo <= lam <= hi


# sha256 over (atlas index, d, value, nodes, serialized witness) for every
# connected atlas graph on at most five vertices; values and witnesses are
# those of the recursive solver that rebuilt availability at every node,
# nodes those of the search that skips colors a symmetry rules out
GOLDEN_ATLAS5 = "d8f6f59c9c8a2edf45db42dd0a404a49489512ee0399681317d3b50b22988a79"


def test_exact_reproduces_golden_atlas_results():
    h = hashlib.sha256()
    solved = 0
    for idx, G in enumerate(nx.graph_atlas_g()[1:53], start=1):
        if not nx.is_connected(G):
            continue
        g = Graph.from_edges(G.edges(), vertices=G.nodes())
        for d in (1, 2):
            res = lambda_exact(g, d=d)
            h.update(repr((idx, d, res.value, res.nodes,
                           serialize_labeling(res.witness))).encode())
            solved += 1
    assert solved == 62
    assert h.hexdigest() == GOLDEN_ATLAS5


# sha256 over (atlas index, d, value, nodes, level_nodes, serialized witness)
# and then (atlas index, chromatic number, chromatic index) for every
# connected atlas graph on six vertices with at most ten edges; they cover
# the small-search benchmark's largest searches, of up to 14 elements;
# nodes are counted by the search that skips colors a symmetry rules out
GOLDEN_ATLAS6 = "3f7bcf89c045632e189c45f9e07870ffd95dd21d0c352501821cd0aab361bf8d"


def test_exact_reproduces_golden_six_vertex_atlas_results():
    h = hashlib.sha256()
    graphs = 0
    for idx, G in enumerate(nx.graph_atlas_g()):
        if G.number_of_nodes() != 6 or G.number_of_edges() > 10:
            continue
        if not nx.is_connected(G):
            continue
        g = Graph.from_edges(G.edges(), vertices=G.nodes())
        for d in (1, 2):
            res = lambda_exact(g, d=d)
            h.update(repr((idx, d, res.value, res.nodes, res.level_nodes,
                           serialize_labeling(res.witness))).encode())
        h.update(repr((idx, chromatic_number(g),
                       edge_chromatic_number(g))).encode())
        graphs += 1
    assert graphs == 94
    assert h.hexdigest() == GOLDEN_ATLAS6


# sha256 over what symmetry breaking must leave alone, on the graphs of
# GOLDEN_ATLAS5 and GOLDEN_ATLAS6: for d = 1, 2, 3 the (atlas index, d,
# value, serialized witness), with the solved level's nodes for d >= 2, and
# then (atlas index, chromatic number, chromatic index, bounds at d = 2);
# recorded with the solver that tried every color of every item
PINNED_ATLAS = "5223449d3857dcc7a97b32e7cff868b3e16d2395d5bf415bdb9c1c6bde48d149"


def test_exact_values_and_witnesses_are_pinned():
    h = hashlib.sha256()
    graphs = 0
    for idx, G in enumerate(nx.graph_atlas_g()):
        small = 1 <= idx < 53
        six = G.number_of_nodes() == 6 and G.number_of_edges() <= 10
        if not (small or six) or not nx.is_connected(G):
            continue
        g = Graph.from_edges(G.edges(), vertices=G.nodes())
        for d in (1, 2, 3):
            res = lambda_exact(g, d=d)
            row = (idx, d, res.value, serialize_labeling(res.witness))
            if d >= 2:
                row += (res.level_nodes[-1],)
            h.update(repr(row).encode())
        h.update(repr((idx, chromatic_number(g), edge_chromatic_number(g),
                       bounds(g, 2))).encode())
        graphs += 1
    assert graphs == 125
    assert h.hexdigest() == PINNED_ATLAS


def test_budget_boundary_is_exact():
    g = generate("wheel", 7)
    k = span_lower_bound(g, 2)
    interval = ColorInterval(k, 2)
    phi, nodes = find_labeling(g, interval)
    # the level prunes: the search backtracks before it ends or refutes
    assert nodes > g.n + g.m
    with pytest.raises(BudgetExceeded) as info:
        find_labeling(g, interval, budget=nodes - 1)
    assert info.value.nodes == nodes
    assert find_labeling(g, interval, budget=nodes) == (phi, nodes)


def test_symmetry_cuts_a_refuted_level_by_hand():
    # one edge uv, ordered uv, u, v.  At d = 2 and k = 2 the reflection
    # c -> 2 - c leaves uv the colors 0 and 1: uv = 0 leaves u and v only
    # color 2, and u = 2 empties v; uv = 1 bars 0..2 from u.  Three nodes,
    # where trying uv = 2 as well took five
    edge = _make([(0, 1)])
    assert find_labeling(edge, ColorInterval(2, 2)) == (None, 3)
    # at d = 1 and k = 1 every color is interchangeable, so uv tries only
    # 0, then u = 1 empties v: two nodes, where trying uv = 1 took four
    assert find_labeling(edge, ColorInterval(1, 1)) == (None, 2)


def test_level_nodes_count_every_span_tried():
    c5 = generate("cycle", 5)
    one = lambda_exact(c5, d=1)
    # span 2 is refuted, span 3 is solved
    assert span_lower_bound(c5, 1) == 2 and one.value == 3
    assert len(one.level_nodes) == 2
    assert sum(one.level_nodes) == one.nodes
    two = lambda_exact(c5, d=2)
    assert two.level_nodes == (two.nodes,)

    k6 = _make([(u, v) for u in range(6) for v in range(u + 1, 6)])
    cut = lambda_exact(k6, d=2, budget=10)
    # the level cut short counts the node that broke the budget
    assert not cut.solved and cut.level_nodes == (11,) and cut.nodes == 11


def test_budget_caps_the_whole_search():
    # K4 at d = 2 refutes span 5 in 1,260 nodes and solves span 6 in 72
    k4 = _make([(u, v) for u in range(4) for v in range(u + 1, 4)])
    full = lambda_exact(k4, d=2)
    assert full.value == 6 and full.level_nodes == (1260, 72)
    assert lambda_exact(k4, d=2, budget=1332).level_nodes == (1260, 72)
    # span 6 gets the 40 nodes span 5 left, and breaks them on its 41st
    cut = lambda_exact(k4, d=2, budget=1300)
    assert not cut.solved and cut.level_nodes == (1260, 41)
    assert cut.nodes == 1301

    # two disjoint K4s: the second gets what the first left
    two = _make([(u + s, v + s) for s in (0, 4)
                 for u in range(4) for v in range(u + 1, 4)])
    assert lambda_exact(two, d=2).nodes == 2664
    assert lambda_exact(two, d=2, budget=2664).solved
    for budget in (1332, 2000, 2663):
        cut = lambda_exact(two, d=2, budget=budget)
        assert not cut.solved and cut.nodes == budget + 1
        assert sum(cut.level_nodes) == cut.nodes


def test_level_nodes_add_components_by_span():
    # K2, a triangle and an isolated vertex: lower bounds 2, 2 and 0 at d=1
    g = _make([(0, 1), (2, 3), (3, 4), (2, 4)], vertices=range(6))
    res = lambda_exact(g, d=1)
    assert res.value == 2
    assert len(res.level_nodes) == 3
    assert res.level_nodes[0] == 1 and res.level_nodes[1] == 0
    assert sum(res.level_nodes) == res.nodes
    cut = lambda_exact(g, d=2, budget=3)
    assert not cut.solved and sum(cut.level_nodes) == cut.nodes


def test_exact_agrees_with_oracle_at_gap_three():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(2, 4)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = _make([e for e in pool if rng.random() < 0.6], vertices=range(n))
        res = lambda_exact(g, d=3)
        assert res.value == naive_lambda(g, 3)
        assert validate(g, res.witness, ColorInterval(res.value, 3)) == []


def test_chromatic_numbers_of_a_long_path():
    path = _make([(i, i + 1) for i in range(1999)])
    assert chromatic_number(path) == 2
    assert edge_chromatic_number(path) == 2


def test_a_long_path_is_solved_in_linear_memory():
    # one dive through all 3,999 elements with no backtracking: the search
    # saves at most one domain per conflict, so its peak stays near 2 MB,
    # where a copy of every domain at every depth would take over 100 MB
    path = _make([(i, i + 1) for i in range(1999)])
    tracemalloc.start()
    try:
        res = lambda_exact(path, d=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.value, res.nodes) == (4, path.n + path.m)
    assert peak < 8 * 2**20
