"""List edge coloring on bipartite graphs."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from tlabel.graphs import Graph, GraphError, edge_key
from tlabel.listcolor import (
    ListColorError,
    ListSizeError,
    bipartition,
    check_list_sizes,
    list_edge_color,
)


def _make_bipartite(rng: random.Random, max_edges: int) -> Graph:
    left = rng.randint(1, 4)
    right = rng.randint(1, 4)
    pool = [(u, 10 + v) for u in range(left) for v in range(right)]
    rng.shuffle(pool)
    edges = pool[: rng.randint(1, min(max_edges, len(pool)))]
    return Graph.from_edges(edges)


def _exact_lists(rng: random.Random, g: Graph, palette: int):
    lists = {}
    for u, v in g.edges():
        need = max(g.degree(u), g.degree(v))
        lists[edge_key(u, v)] = frozenset(
            rng.sample(range(palette), need)
        )
    return lists


def _is_proper(g: Graph, coloring) -> bool:
    for e, c in coloring.items():
        for f, c2 in coloring.items():
            if e < f and set(e) & set(f) and c == c2:
                return False
    return True


def _brute_force_solvable(g: Graph, lists) -> bool:
    edges = [edge_key(u, v) for u, v in g.edges()]
    for combo in itertools.product(*(sorted(lists[e]) for e in edges)):
        coloring = dict(zip(edges, combo))
        if _is_proper(g, coloring):
            return True
    return False


def test_bipartition_splits_even_cycle():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    a, b = bipartition(g)
    assert {frozenset({0, 2}), frozenset({1, 3})} == {a, b}


def test_bipartition_rejects_odd_cycle():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    with pytest.raises(GraphError):
        bipartition(g)


def test_check_list_sizes_raises_on_short_list():
    g = Graph.from_edges([(0, 10), (0, 11)])
    lists = {(0, 10): {1, 2}, (0, 11): {3}}
    with pytest.raises(ListSizeError):
        check_list_sizes(g, lists)


def test_list_edge_color_simple():
    g = Graph.from_edges([(0, 10), (0, 11), (1, 10)])
    lists = {(0, 10): {0, 1}, (0, 11): {0, 1}, (1, 10): {0, 1}}
    out = list_edge_color(g, lists)
    assert _is_proper(g, out)
    assert all(out[e] in lists[e] for e in out)


def test_missing_list_is_an_error():
    g = Graph.from_edges([(0, 10)])
    with pytest.raises(ListSizeError):
        list_edge_color(g, {})


def test_unchecked_mode_reports_exhaustion():
    g = Graph.from_edges([(0, 10), (0, 11)])
    lists = {(0, 10): {1}, (0, 11): {1}}
    with pytest.raises(ListColorError):
        list_edge_color(g, lists, check=False)


def test_exact_size_lists_always_color():
    # threshold-sized lists never fail, per the bipartite list coloring
    # guarantee
    rng = random.Random(91)
    for _ in range(150):
        g = _make_bipartite(rng, max_edges=12)
        lists = _exact_lists(rng, g, palette=rng.randint(6, 15))
        out = list_edge_color(g, lists)
        assert _is_proper(g, out)
        assert all(out[e] in lists[e] for e in out)


def test_search_matches_brute_force_on_small_instances():
    rng = random.Random(92)
    for _ in range(80):
        g = _make_bipartite(rng, max_edges=6)
        lists = _exact_lists(rng, g, palette=8)
        out = list_edge_color(g, lists)
        assert _is_proper(g, out)
        assert _brute_force_solvable(g, lists)


def test_long_path_colors_without_recursion():
    # fail-first takes the path edge by edge, one search level each
    n = 3000
    g = Graph.from_edges((i, i + 1) for i in range(n))
    out = list_edge_color(g, {e: {0, 1} for e in g.edges()})
    assert out == {(i, i + 1): i % 2 for i in range(n)}


# sha256 of the colorings of K8,8 and K12,12 with two list patterns each, and
# of the exhaustion of six free edges beside a star of three edges that all
# have lists {0, 1}; recorded with the search that picked from buckets
LONG_SEARCH_DIGEST = (
    "3fbecb64cb397a72f86a4b2c32ed1d77b095991603e438acf20c25256dc80eb1"
)


def test_long_searches_keep_the_pick_order():
    # these searches push several times more heap entries than they have
    # edges (the six free edges come first and are undone 2**6 times before
    # the star is refuted), so the heap is rebuilt from its live entries
    # midway, and the picks must not change
    h = hashlib.sha256()
    for a in (8, 12):
        g = Graph.from_edges((u, 20 + v) for u in range(a) for v in range(a))
        for shift in (0, 1):
            lists = {e: [(c + shift * e[0]) % (a + 1) for c in range(a)]
                     for e in g.edges()}
            out = list_edge_color(g, lists)
            assert _is_proper(g, out)
            h.update(repr(sorted(out.items())).encode())
    star = Graph.from_edges([(2 * i, 2 * i + 1) for i in range(6)]
                            + [(20, 21), (20, 22), (20, 23)])
    with pytest.raises(ListColorError):
        list_edge_color(star, {e: {0, 1} for e in star.edges()}, check=False)
    h.update(b"exhausted")
    assert h.hexdigest() == LONG_SEARCH_DIGEST


# sha256 of each seeded instance's coloring, or the name of the error it
# raised, with threshold-size lists, larger lists, and undersized lists under
# check=False; recorded with the recursive search that the flat loop replaced
LIST_COLOR_DIGEST = (
    "12f808922ebbc8998308ce5443503e3c94e76ecdd5223b34383c946cd68e6125"
)


def _digest_corpus_text() -> str:
    rng = random.Random(94)
    lines = []
    for i in range(600):
        g = _make_bipartite(rng, max_edges=12)
        mode = i % 3
        lists = {}
        for u, v in g.edges():
            need = max(g.degree(u), g.degree(v))
            size = (need, need + rng.randint(0, 2), rng.randint(1, need))[mode]
            lists[edge_key(u, v)] = rng.sample(range(size + rng.randint(0, 3)),
                                               size)
        try:
            out = list_edge_color(g, lists, check=mode < 2)
            lines.append("%d %r" % (i, sorted(out.items())))
        except (ListSizeError, ListColorError) as exc:
            lines.append("%d %s" % (i, type(exc).__name__))
    return "\n".join(lines)


def test_list_edge_color_reproduces_golden_digest():
    text = _digest_corpus_text()
    assert hashlib.sha256(text.encode()).hexdigest() == LIST_COLOR_DIGEST
