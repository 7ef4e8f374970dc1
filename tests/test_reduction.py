"""Reducible structures: locating them, shrinking across them, extending back."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import hashlib
import heapq
import itertools
import random
import tracemalloc

import pytest

from corpus import acceptance_corpus, digest_graphs, face_sample
from gadgets import c4 as _make_c4
from gadgets import spider as _make_spider
from gadgets import (
    disjoint_union,
    geodesic_sphere,
    leaf_triangle,
    octahedron,
    one_face_k33,
    pinned_twin_instance,
    separated_twin_instance,
    special_face_with_mate,
    toroidal_k7,
    triakis_tetrahedron,
    with_isolated_vertex,
)
from tlabel import discharge, reduction
from tlabel.exact import find_labeling
from tlabel.families import generate
from tlabel.graphs import (
    DisconnectedError,
    EmbeddingError,
    Graph,
    GraphError,
    PlaneGraph,
    edge_key,
    trace_faces,
)
from tlabel.io import serialize_labeling
from tlabel.labeling import (ColorInterval, PartialLabeling, validate,
                             working_interval)
from tlabel.reduction import (
    ALTERNATOR,
    BASE_ELEMENT_LIMIT,
    DEG4_LOW_NEIGHBOR,
    FACE_566,
    FACE_567,
    KIND_ORDER,
    LIGHT_EDGE,
    SPARSE_EDGE,
    TWIN_LOW_NEIGHBOR,
    TWO_DEG2,
    ExtensionError,
    IrreducibleError,
    ReducibleConfig,
    ReductionRecord,
    TraceStep,
    _Extension,
    _WorkGraph,
    _reduce,
    _triangle_faces,
    config_holds,
    find_configuration,
    label_planar,
    reduce_config,
)

ITV = working_interval(12)


def _make_path3() -> Graph:
    return Graph.from_edges([(0, 1), (1, 2)])


def _make_k7() -> Graph:
    return Graph.from_edges(itertools.combinations(range(7), 2))


def _make_star(leaves: int) -> Graph:
    return Graph.from_edges((0, i) for i in range(1, leaves + 1))


def _find(g: Graph, kind: str, M: int = 12):
    """The first occurrence of one kind, as the labeler's scan finds it."""
    return reduction._first_config(g, M, (kind,))


def _alternator(g: Graph) -> ReducibleConfig:
    """The alternator that peeling leaves at bound 12 and budget 3."""
    fields = reduction._peel(g, 12, 3)
    assert fields is not None
    return ReducibleConfig(ALTERNATOR, reduction._alternator_data(*fields))


def _run_extension(g: Graph, cfg: ReducibleConfig, work: dict) -> ReductionRecord:
    rec = ReductionRecord(cfg.kind)
    reduction._CATALOGUE[cfg.kind].extend(
        _Extension(g, work, ITV, rec), cfg)
    lab = PartialLabeling(work)
    assert lab.is_total(g)
    assert validate(g, lab, ITV) == []
    assert all(step.ok for step in rec.steps)
    return rec


def _roundtrip(g: Graph, cfg: ReducibleConfig) -> ReductionRecord:
    child = reduce_config(g, cfg)
    phi, _ = find_labeling(child, ITV)
    assert phi is not None
    return _run_extension(g, cfg, phi.as_dict())


def _check_child(g: Graph, cfg: ReducibleConfig, work: dict) -> None:
    child = reduce_config(g, cfg)
    assert validate(child, PartialLabeling(dict(work)), ITV) == []


# ---------------------------------------------------------------------------
# finders


def test_sparse_edge_finder():
    cfg = _find(_make_path3(), SPARSE_EDGE)
    assert cfg.kind == SPARSE_EDGE
    assert cfg["edge"] == (0, 1)
    assert config_holds(_make_path3(), 12, cfg)
    assert _find(_make_k7(), SPARSE_EDGE) is None


def test_light_edge_finder():
    star = _make_star(10)
    assert _find(star, SPARSE_EDGE) is None
    cfg = _find(star, LIGHT_EDGE)
    assert cfg.kind == LIGHT_EDGE
    assert cfg["low"] == 1
    assert cfg["edge"] == (0, 1)
    assert config_holds(star, 12, cfg)
    # both endpoints too heavy
    assert _find(_make_k7(), LIGHT_EDGE) is None


def test_deg4_finder():
    w4 = generate("wheel", 4)
    cfg = _find(w4, DEG4_LOW_NEIGHBOR)
    assert cfg.kind == DEG4_LOW_NEIGHBOR
    assert cfg["center"] == 0
    assert w4.degree(cfg["center"]) == 4
    u, v = cfg["edge"]
    assert w4.degree(v if u == 0 else u) <= 7
    assert _find(generate("cycle", 5), DEG4_LOW_NEIGHBOR) is None


def test_two_deg2_finder_case1():
    cfg = _find(_make_c4(), TWO_DEG2)
    assert cfg.kind == TWO_DEG2
    assert cfg["case"] == 1
    assert cfg["hub"] == 0
    assert (cfg["x"], cfg["y"]) == (2, 3)
    assert cfg["x_other"] == cfg["y_other"] == 1
    assert config_holds(_make_c4(), 12, cfg)


def test_two_deg2_finder_case3():
    spider = _make_spider()
    cfg = _find(spider, TWO_DEG2)
    assert cfg["case"] == 3
    assert cfg["hub"] == 0
    assert (cfg["x"], cfg["x_other"]) == (1, 2)
    assert (cfg["y"], cfg["y_other"]) == (3, 4)
    assert config_holds(spider, 12, cfg)


def test_two_deg2_skips_far_end_on_hub():
    # every candidate pair has a far end adjacent to the hub, a shape the
    # path rewiring cannot shrink
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)])
    assert _find(g, TWO_DEG2) is None


def test_twin_finder():
    g, _ = pinned_twin_instance()
    cfg = _find(g, TWIN_LOW_NEIGHBOR)
    assert cfg.kind == TWIN_LOW_NEIGHBOR
    assert cfg["hub"] == 0
    assert cfg["twins"] == (2, 3)
    assert cfg["apex"] == 1
    assert config_holds(g, 12, cfg)
    k4 = Graph.from_edges(itertools.combinations(range(4), 2))
    assert _find(k4, TWIN_LOW_NEIGHBOR) is None


def test_face_566_finder():
    g = leaf_triangle(5, 6, 6)
    cfg = _find(g, FACE_566)
    assert cfg.kind == FACE_566
    assert cfg["corners"] == (0, 1, 2)
    assert config_holds(g, 12, cfg)
    assert _find(octahedron(), FACE_566) is None
    assert _find(leaf_triangle(5, 6, 7), FACE_566) is None


def test_face_567_finder():
    g = special_face_with_mate()
    cfg = _find(g, FACE_567)
    assert cfg.kind == FACE_567
    assert cfg["corners"] == (0, 1, 2)
    assert cfg["outside"] == 10
    assert g.degree(cfg["outside"]) == 6
    assert config_holds(g, 12, cfg)
    # without a degree-6 mate outside the face there is no match
    assert _find(leaf_triangle(5, 6, 7), FACE_567) is None


def test_alternator_admission():
    star = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    cfg = _alternator(star)
    assert cfg.kind == ALTERNATOR
    assert cfg["k"] == 3
    assert cfg["low_side"] == (0,)
    assert cfg["high_side"] == (1, 2, 3)
    assert len(cfg["edges"]) == 3
    assert config_holds(star, 12, cfg)


def test_alternator_peels_starved_high_vertex():
    # vertex 0 alone cannot feed the degree-11 hub, so peeling must drop
    # it while keeping the pads' leaves
    edges = [(0, 1)]
    leaves = []
    for pad in range(2, 12):
        edges.append((1, pad))
        for j in range(3):
            leaf = 100 + 10 * pad + j
            edges.append((pad, leaf))
            leaves.append(leaf)
    g = Graph.from_edges(edges)
    cfg = _alternator(g)
    assert cfg is not None
    assert 0 not in cfg["low_side"]
    assert set(cfg["low_side"]) == set(leaves)
    assert set(cfg["high_side"]) == set(range(2, 12))


def test_alternator_none_without_low_vertices():
    assert reduction._peel(_make_k7(), 12, 3) is None


def test_find_configuration_priority():
    assert find_configuration(_make_path3(), 12).kind == SPARSE_EDGE
    assert find_configuration(_make_star(10), 12).kind == LIGHT_EDGE
    # degree-4 center beside degree-7 hubs, with every edge too heavy for
    # the earlier kinds
    edges = [(0, h) for h in (1, 2, 3, 4)]
    edges += list(itertools.combinations((1, 2, 3, 4), 2))
    edges += [(h, p) for h in (1, 2, 3, 4) for p in (5, 6, 7)]
    g = Graph.from_edges(edges)
    assert _find(g, SPARSE_EDGE) is None
    assert _find(g, LIGHT_EDGE) is None
    cfg = find_configuration(g, 12)
    assert cfg.kind == DEG4_LOW_NEIGHBOR
    assert cfg["center"] == 0


def test_irreducible_graph_raises():
    with pytest.raises(IrreducibleError) as info:
        find_configuration(_make_k7(), 12)
    assert info.value.bound == 12
    assert info.value.graph.n == 7


def test_config_holds_rejects_mismatches():
    sparse = ReducibleConfig(SPARSE_EDGE, {"edge": (0, 1)})
    assert not config_holds(_make_k7(), 12, sparse)
    twin = ReducibleConfig(
        TWIN_LOW_NEIGHBOR, {"hub": 0, "twins": (1, 2), "apex": 3}
    )
    assert not config_holds(
        Graph.from_edges(itertools.combinations(range(4), 2)), 12, twin
    )
    star = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    good = _alternator(star)
    bad = ReducibleConfig(
        ALTERNATOR,
        {**dict(good.data), "low_side": (0, 1)},
    )
    assert config_holds(star, 12, good)
    assert not config_holds(star, 12, bad)
    # data naming a vertex g lacks: each is what the finder builds from its
    # fields, so the kind's predicate itself is asked, and must not raise
    gone = 999
    cases = [(_make_path3(), SPARSE_EDGE), (_make_star(3), LIGHT_EDGE),
             (generate("wheel", 4), DEG4_LOW_NEIGHBOR),
             (_make_spider(), TWO_DEG2),
             (separated_twin_instance(), TWIN_LOW_NEIGHBOR),
             (leaf_triangle(5, 6, 6), FACE_566),
             (special_face_with_mate(), FACE_567)]
    for g, kind in cases:
        entry = reduction._CATALOGUE[kind]
        fields = entry.fields(_find(g, kind).data)
        for i in range(len(fields)):
            stale = fields[:i] + (gone,) + fields[i + 1:]
            cfg = ReducibleConfig(kind, entry.data(*stale))
            assert not config_holds(g, 12, cfg), (kind, i)
    k, low, high, cross = reduction._CATALOGUE[ALTERNATOR].fields(good.data)
    for stale in ((k, low[:-1] + (gone,), high, cross),
                  (k, low, high[:-1] + (gone,), cross)):
        cfg = ReducibleConfig(ALTERNATOR, reduction._alternator_data(*stale))
        assert not config_holds(star, 12, cfg), stale


def test_config_holds_requires_the_data_the_finder_builds():
    w4 = generate("wheel", 4)
    cfg = _find(w4, DEG4_LOW_NEIGHBOR)
    center, other = cfg["edge"]
    flipped = {**dict(cfg.data), "edge": (other, center)}
    assert not config_holds(w4, 12, ReducibleConfig(DEG4_LOW_NEIGHBOR, flipped))
    spider = _make_spider()
    cfg = _find(spider, TWO_DEG2)
    wrong_case = {**dict(cfg.data), "case": 1}
    assert not config_holds(spider, 12, ReducibleConfig(TWO_DEG2, wrong_case))
    # the low end of a light edge is its first end light enough
    g = Graph.from_edges([(0, 1), (1, 2)])
    assert not config_holds(
        g, 12, ReducibleConfig(LIGHT_EDGE, {"low": 1, "edge": (0, 1)}))
    assert config_holds(
        g, 12, ReducibleConfig(LIGHT_EDGE, {"low": 0, "edge": (0, 1)}))
    # the alternator's edges are its cross edges, which its extension colors
    claw = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    alt = _alternator(claw)
    short = {**dict(alt.data), "edges": alt["edges"][:-1]}
    assert not config_holds(claw, 12, ReducibleConfig(ALTERNATOR, short))
    # face kinds need rotations; an unknown kind never holds
    tri = leaf_triangle(5, 6, 6)
    face = _find(tri, FACE_566)
    assert not config_holds(Graph.from_edges(tri.edges()), 12, face)
    assert not config_holds(tri, 12, ReducibleConfig("bogus", face.data))


def test_edge_predicates_are_false_on_a_stale_queued_key():
    # deep_check asks config_holds about each key a queue hands out, whose
    # ends a wrong queue may already have detached, so the edge predicates
    # test the edge before they read a degree
    w = _WorkGraph(_make_path3())
    w.drop(2, [])
    for u, v in ((1, 2), (2, 1)):
        assert not reduction._sparse_edge(w, 12, u, v)
        assert reduction._light_end(w, 12, u, v) is None
        assert not reduction._light_edge(w, 12, u, v, 1)


def test_edge_queue_takes_the_least_key_whose_edge_exists():
    # the heap tests nothing but the edge: an entry whose edge is gone is
    # dropped as stale, an entry whose edge is back is taken, and a sparse
    # entry, rank 0, comes before a light one, rank 1, with a smaller edge
    w = _WorkGraph(Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)]))
    heap = [(0, 0, 1), (0, 1, 2), (0, 3, 4), (1, 2, 3)]
    queued = set(heap)
    gone: list = []
    w.cut(0, 1, gone)
    back: list = []
    w.cut(1, 2, back)
    w.undo(back)
    cfg = reduction._next_config(w, 12, heap, queued)
    assert cfg == ReducibleConfig(SPARSE_EDGE, {"edge": (1, 2)})
    assert queued == {(0, 3, 4), (1, 2, 3)}
    cfg = reduction._next_config(w, 12, heap, queued)
    assert cfg == ReducibleConfig(SPARSE_EDGE, {"edge": (3, 4)})
    assert queued == {(1, 2, 3)}
    cfg = reduction._next_config(w, 12, heap, queued)
    assert cfg.kind == LIGHT_EDGE
    assert dict(cfg.data) == {"edge": (2, 3), "low": 2}
    assert heap == [] and not queued
    # a heap of stale entries runs dry, and the rare kinds are scanned for
    heap += [(0, 0, 1), (1, 0, 1)]
    queued.update(heap)
    cfg = reduction._next_config(w, 12, heap, queued)
    assert cfg.kind in reduction._RARE_KINDS
    assert heap == [] and not queued


def test_twins_on_a_separating_triangle_reduce_and_extend():
    g = separated_twin_instance()
    cfg = _find(g, TWIN_LOW_NEIGHBOR)
    assert dict(cfg.data) == {"hub": 0, "twins": (1, 3), "apex": 2}
    rec = _roundtrip(g, cfg)
    assert all(step.ok for step in rec.steps)


# ---------------------------------------------------------------------------
# reductions


def test_reduce_shapes():
    p3 = _make_path3()
    child = reduce_config(p3, _find(p3, SPARSE_EDGE))
    assert (child.n, child.m) == (3, 1)

    c4 = _make_c4()
    child = reduce_config(c4, _find(c4, TWO_DEG2))
    assert (child.n, child.m) == (2, 0)

    spider = _make_spider()
    child = reduce_config(spider, _find(spider, TWO_DEG2))
    assert isinstance(child, PlaneGraph)
    assert sorted(child.vertices) == [0, 2, 4]
    assert child.has_edge(0, 2) and child.has_edge(0, 4)
    assert child.rotation(0) == (2, 4)

    g, _ = pinned_twin_instance()
    child = reduce_config(g, _find(g, TWIN_LOW_NEIGHBOR))
    assert not child.has_edge(0, 2) and not child.has_edge(0, 3)
    assert child.degree(0) == 10

    tri = leaf_triangle(5, 6, 6)
    child = reduce_config(tri, _find(tri, FACE_566))
    assert not child.has_edge(0, 1) and not child.has_edge(0, 2)
    assert child.has_edge(1, 2)

    star = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    child = reduce_config(star, _alternator(star))
    assert (child.n, child.m) == (3, 0)


# ---------------------------------------------------------------------------
# extension roundtrips


def test_extend_sparse_roundtrip():
    p3 = _make_path3()
    rec = _roundtrip(p3, _find(p3, SPARSE_EDGE))
    assert rec.steps[-1].action == "assign"


def test_separate_endpoints_recolors_one_end():
    # both ends of the deleted edge carry color 0; the lower-degree end is
    # recolored against the full graph before the edge itself is colored
    g = Graph.from_edges([(0, 1)])
    cfg = ReducibleConfig(SPARSE_EDGE, {"edge": (0, 1)})
    work = {0: 0, 1: 0}
    _check_child(g, cfg, work)
    rec = _run_extension(g, cfg, work)
    assert work[0] == 1 and work[1] == 0
    assert work[(0, 1)] == 3
    first = rec.steps[0]
    assert first.action == "recolor"
    assert first.measured == 14 and first.required == 14


def test_separate_endpoints_moves_an_edge_when_pinned():
    # bands from four spread-out edge colors plus neighbor colors pin both
    # endpoints completely, so a leaf edge color is moved aside first
    edges = [(0, 1)]
    edges += [(0, w) for w in (2, 3, 4, 5)]
    edges += [(1, z) for z in (6, 7, 8, 9)]
    g = Graph.from_edges(edges)
    cfg = ReducibleConfig(SPARSE_EDGE, {"edge": (0, 1)})
    work = {
        0: 12, 1: 12,
        (0, 2): 1, (0, 3): 4, (0, 4): 7, (0, 5): 10,
        (1, 6): 1, (1, 7): 4, (1, 8): 7, (1, 9): 10,
        2: 13, 3: 14, 4: 13, 5: 14,
        6: 13, 7: 14, 8: 13, 9: 14,
    }
    _check_child(g, cfg, work)
    rec = _run_extension(g, cfg, work)
    assert work[(0, 2)] == 0
    assert work[0] == 2 and work[1] == 12
    assert work[(0, 1)] == 5
    actions = [s.action for s in rec.steps]
    assert actions == ["recolor", "recolor", "assign"]


def test_light_edge_extension_hits_tight_bound():
    star = _make_star(10)
    cfg = _find(star, LIGHT_EDGE)
    work = {0: 0, 1: 0}
    for j, c in zip(range(2, 11), range(2, 11)):
        work[(0, j)] = c
        work[j] = 14
    _check_child(star, cfg, work)
    rec = _run_extension(star, cfg, work)
    assert work[(0, 1)] == 11
    assert work[1] == 1
    last = rec.steps[-1]
    assert last.measured == 11 and last.required == 11


def test_deg4_roundtrip():
    w4 = generate("wheel", 4)
    rec = _roundtrip(w4, _find(w4, DEG4_LOW_NEIGHBOR))
    actions = [s.action for s in rec.steps]
    assert actions[0] == "erase"
    assert "check" in actions


def test_two_deg2_case1_roundtrip():
    c4 = _make_c4()
    rec = _roundtrip(c4, _find(c4, TWO_DEG2))
    assert [s.action for s in rec.steps].count("list") == 4


def test_two_deg2_case3_roundtrip():
    spider = _make_spider()
    rec = _roundtrip(spider, _find(spider, TWO_DEG2))
    assert [s.action for s in rec.steps].count("transfer") == 4


def test_two_deg2_case3_rewires_a_plain_graph():
    # the splice and its extension read no rotation, so a plain graph's
    # case-3 two_deg2 reduces, extends and validates like a plane one's
    spider = Graph.from_edges(_make_spider().edges())
    assert not isinstance(spider, PlaneGraph)
    cfg = _find(spider, TWO_DEG2)
    assert cfg["case"] == 3
    child = reduce_config(spider, cfg)
    assert sorted(child.vertices) == [0, 2, 4]
    assert child.has_edge(0, 2) and child.has_edge(0, 4)
    rec = _roundtrip(spider, cfg)
    assert [s.action for s in rec.steps].count("transfer") == 4


def test_twin_pinned_swap():
    g, work = pinned_twin_instance()
    cfg = _find(g, TWIN_LOW_NEIGHBOR)
    _check_child(g, cfg, work)
    rec = _run_extension(g, cfg, work)
    # the apex edge colors were exchanged to free a second hub color
    assert work[(0, 1)] == 13 and work[(1, 2)] == 2
    assert work[(0, 2)] == 14 and work[(0, 3)] == 2
    assert work[2] == 4 and work[3] == 4
    transfers = [s for s in rec.steps if s.action == "transfer"]
    assert len(transfers) == 2
    tight = [s for s in rec.steps if s.action == "assign" and s.element == 3]
    assert tight[0].measured == 7 and tight[0].required == 7


def test_twin_without_pinning_skips_swap():
    g, work = pinned_twin_instance()
    # freeing color 12 on one hub edge leaves both restored edges a pair
    # of choices, so no exchange is needed
    work[(0, 18)] = 13
    work[18] = 0
    cfg = _find(g, TWIN_LOW_NEIGHBOR)
    _check_child(g, cfg, work)
    rec = _run_extension(g, cfg, work)
    assert work[(0, 2)] == 12 and work[(0, 3)] == 14
    assert not [s for s in rec.steps if s.action == "transfer"]


def _face_child_labeling(with_mate: bool) -> dict:
    work = {
        0: 0, 100: 14, 101: 14, 102: 14,
        1: 0, 2: 2, (1, 2): 7,
        (1, 200): 2, (1, 201): 3, (1, 202): 4, (1, 203): 5,
        200: 14, 201: 14, 202: 14, 203: 14,
        (2, 300): 4, (2, 301): 5, (2, 302): 9, (2, 303): 10,
        300: 14, 301: 14, 302: 14, 303: 14,
    }
    if with_mate:
        del work[100]
        work.update({
            (0, 10): 2, (0, 101): 3, (0, 102): 4,
            10: 14,
            (10, 400): 0, (10, 401): 5, (10, 402): 6,
            (10, 403): 7, (10, 404): 8,
            400: 2, 401: 2, 402: 2, 403: 2, 404: 2,
            (2, 304): 11, 304: 14,
        })
    else:
        work.update({(0, 100): 2, (0, 101): 3, (0, 102): 4})
    return work


def test_face_collision_repair_frozen_triangle():
    # minimal instance: the triangle itself, with the low corner carrying
    # the same color as a mate it is about to rejoin
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    cfg = ReducibleConfig(FACE_566, {"corners": (0, 1, 2)})
    work = {0: 0, 1: 0, 2: 2, (1, 2): 4}
    _check_child(g, cfg, work)
    rec = _run_extension(g, cfg, work)
    assert work[0] == 1
    assert work[(0, 1)] == 3 and work[(0, 2)] == 5
    assert [s.action for s in rec.steps] == [
        "recolor", "check", "check", "assign", "assign"
    ]
    assert [s.measured for s in rec.steps] == [13, 11, 10, 11, 10]
    assert [s.required for s in rec.steps] == [13, 8, 8, 1, 1]


def test_face_566_roundtrip_with_collision():
    g = leaf_triangle(5, 6, 6)
    cfg = _find(g, FACE_566)
    work = _face_child_labeling(with_mate=False)
    _check_child(g, cfg, work)
    rec = _run_extension(g, cfg, work)
    assert work[0] == 6
    assert work[(0, 1)] == 8 and work[(0, 2)] == 0
    repair = rec.steps[0]
    assert repair.action == "recolor" and repair.element == 0
    assert repair.measured == 8


def test_face_566_roundtrip_without_collision():
    g = leaf_triangle(5, 6, 6)
    cfg = _find(g, FACE_566)
    work = _face_child_labeling(with_mate=False)
    work[0] = 6
    _check_child(g, cfg, work)
    rec = _run_extension(g, cfg, work)
    assert "recolor" not in [s.action for s in rec.steps]
    assert work[(0, 1)] == 8 and work[(0, 2)] == 0


def test_face_567_roundtrip():
    g = special_face_with_mate()
    cfg = _find(g, FACE_567)
    work = _face_child_labeling(with_mate=True)
    _check_child(g, cfg, work)
    _run_extension(g, cfg, work)
    assert work[0] == 6
    assert work[(0, 1)] == 8 and work[(0, 2)] == 0


def test_alternator_roundtrip():
    g = Graph.from_edges(
        [(10, 0), (10, 1), (10, 2), (11, 0), (11, 1), (11, 2), (0, 1), (1, 2)]
    )
    cfg = _alternator(g)
    assert set(cfg["low_side"]) == {0, 2}
    rec = _roundtrip(g, cfg)
    actions = [s.action for s in rec.steps]
    assert actions.count("list") == 6
    assert actions.count("assign") == 2


def test_alternator_with_1200_cross_edges_extends():
    # 100 disjoint 12-leaf stars: one list coloring of 1,200 cross edges
    g = Graph.from_edges(
        (13 * s, 13 * s + i) for s in range(100) for i in range(1, 13))
    cfg = _alternator(g)
    assert len(cfg["edges"]) == 1200
    rec = _roundtrip(g, cfg)
    assert [s.action for s in rec.steps].count("list") == 1200


def test_transfer_records_shortfall_before_failing():
    g = Graph.from_edges([(0, 1)])
    work = {0: 0, 1: 5}
    rec = ReductionRecord("sparse_edge")
    with pytest.raises(ExtensionError):
        _Extension(g, work, ITV, rec).assign_fixed((0, 1), 1)
    assert rec.steps[-1].action == "transfer"
    assert not rec.steps[-1].ok


# ---------------------------------------------------------------------------
# extender branches that no generated graph reaches
#
# Each instance is a hand-built graph and child labeling fed straight to
# one extender; none is an occurrence its kind's predicate accepts.  The
# failing ones carry more edges than the kind admits, which is how they
# starve a step that the degree bounds guarantee.


def _hang_leaves(edges: list, work: dict, hub: int, first: int,
                 colors) -> None:
    """A leaf at hub for each edge color, numbered from first; each leaf
    takes the least color its hub and its edge allow."""
    for i, c in enumerate(colors):
        leaf = first + i
        edges.append((hub, leaf))
        work[(hub, leaf)] = c
        work[leaf] = min(x for x in ITV.colors()
                         if x != work[hub] and abs(x - c) >= 2)


def _pinned_face(kind: str, third: int, outside_edges) -> tuple:
    """Triangle 0-1-2 whose two face edges both have color 7 as their one
    free color, plus the outside neighbor 10 of corner 0.

    The third side 1-2 has color third: 10 is a color its recoloring frees
    for the face edges, 1 lies in corner 0's band and frees nothing.  The
    outside edge 0-10 has color 4; the colors of 10's other edges decide
    which colors that edge may move to.
    """
    edges = [(1, 2), (0, 10)]
    work = {0: 0, 1: 13, 2: 12, 10: 14, (1, 2): third, (0, 10): 4}
    _hang_leaves(edges, work, 0, 100, (2, 3))
    _hang_leaves(edges, work, 1, 200, sorted({1, 5, 6, 8, 9, 10, 11} - {third}))
    _hang_leaves(edges, work, 2, 300, sorted({1, 5, 6, 8, 9, 10, 14} - {third}))
    _hang_leaves(edges, work, 10, 400, outside_edges)
    g = Graph.from_edges(edges + [(0, 1), (0, 2)])
    data = {"corners": (0, 1, 2)}
    if kind == FACE_567:
        data["outside"] = 10
    return g, ReducibleConfig(kind, data), work


def _deg4_starved() -> tuple:
    """Center 0 keeps colors 8 and 9, and the edge to 1 can only take one
    of them: vertex 1 has degree 8, one more than the kind admits."""
    edges = [(0, 2), (0, 3), (0, 4)]
    work = {0: 8, 1: 6, 2: 7, 3: 10, 4: 14, (0, 2): 1, (0, 3): 4, (0, 4): 12}
    _hang_leaves(edges, work, 1, 20, (0, 2, 3, 10, 11, 13, 14))
    g = Graph.from_edges(edges + [(0, 1)])
    return g, ReducibleConfig(DEG4_LOW_NEIGHBOR, {"center": 0, "edge": (0, 1)}), work


def _twin_starved() -> tuple:
    """Hub 0 leaves colors 13 and 14 to its restored edges, and twin 2
    blocks both with edges of its own: twins of degree 3 under a hub of
    degree 12."""
    edges = [(0, 3), (1, 3), (1, 30)]
    work = {0: 7, 1: 14, 2: 0, 3: 0, (0, 3): 12, (1, 3): 3, (1, 30): 4, 30: 0}
    _hang_leaves(edges, work, 0, 10, (0, 1, 2, 3, 4, 5, 9, 10, 11))
    _hang_leaves(edges, work, 2, 20, (13, 14))
    g = Graph.from_edges(edges + [(0, 1), (0, 2)])
    cfg = ReducibleConfig(TWIN_LOW_NEIGHBOR, {"hub": 0, "twins": (1, 2), "apex": 3})
    return g, cfg, work


def _low_corner_starved() -> tuple:
    """Corner 0 shares corner 1's color, and the bands of its five leaf
    edges cover every color."""
    edges = [(1, 2)]
    work = {0: 0, 1: 0, 2: 5, (1, 2): 9}
    _hang_leaves(edges, work, 0, 100, (1, 4, 7, 10, 13))
    g = Graph.from_edges(edges + [(0, 1), (0, 2)])
    return g, ReducibleConfig(FACE_566, {"corners": (0, 1, 2)}), work


def _sparse_edge_starved() -> tuple:
    """The restored edge 0-1 sees every color at its ends."""
    edges = []
    work = {0: 0, 1: 14}
    _hang_leaves(edges, work, 0, 100, (2, 3, 4, 5, 6))
    _hang_leaves(edges, work, 1, 200, (7, 8, 9, 10, 11, 12))
    g = Graph.from_edges(edges + [(0, 1)])
    return g, ReducibleConfig(SPARSE_EDGE, {"edge": (0, 1)}), work


def _inseparable_ends() -> tuple:
    """Both ends of the restored edge 0-1 have color 7.  Each has eleven
    leaf edges, and two leaves of colors 6 and 8, which together block
    every other color however one leaf edge moves."""
    edges = []
    work = {0: 7, 1: 7}
    spread = (0, 1, 2, 3, 4, 5, 9, 10, 11, 12, 13)
    _hang_leaves(edges, work, 0, 100, spread)
    _hang_leaves(edges, work, 1, 200, spread)
    work.update({100: 6, 101: 8, 200: 6, 201: 8})
    g = Graph.from_edges(edges + [(0, 1)])
    return g, ReducibleConfig(SPARSE_EDGE, {"edge": (0, 1)}), work


def _branch_cases() -> list:
    """(graph, configuration, child labeling, whether extending fails)."""
    return [
        (*_pinned_face(FACE_566, 10, (5, 6)), False),
        (*_pinned_face(FACE_567, 1, (5, 6)), False),
        (*_pinned_face(FACE_567, 1, (5, 6, 8, 9, 10, 11, 12)), True),
        (*_deg4_starved(), True),
        (*_twin_starved(), True),
        (*_low_corner_starved(), True),
        (*_sparse_edge_starved(), True),
        (*_inseparable_ends(), True),
    ]


def _extend_until_done(g: Graph, cfg: ReducibleConfig, work: dict,
                       fails: bool) -> ReductionRecord:
    rec = ReductionRecord(cfg.kind)
    if fails:
        with pytest.raises(ExtensionError):
            reduction._CATALOGUE[cfg.kind].extend(
                _Extension(g, work, ITV, rec), cfg)
    else:
        reduction._CATALOGUE[cfg.kind].extend(
            _Extension(g, work, ITV, rec), cfg)
    return rec


def _steps_of(rec: ReductionRecord) -> list:
    return [(s.action, s.element, s.color, s.measured, s.required)
            for s in rec.steps]


def test_face_recolors_the_third_side_to_free_the_pair():
    g, cfg, work = _pinned_face(FACE_566, 10, (5, 6))
    _check_child(g, cfg, work)
    rec = _run_extension(g, cfg, work)
    # the recolor step counts the third side's old color among its choices
    assert _steps_of(rec)[2:] == [
        ("recolor", (1, 2), 0, 6, 1),
        ("assign", (0, 1), 7, 2, 1),
        ("assign", (0, 2), 10, 1, 1),
    ]


def test_face_567_moves_the_outside_edge_when_the_third_side_cannot_help():
    g, cfg, work = _pinned_face(FACE_567, 1, (5, 6))
    _check_child(g, cfg, work)
    rec = _run_extension(g, cfg, work)
    # color 7 is tried first and fails; the step for it is taken back
    assert work[(0, 10)] == 8 and work[(1, 2)] == 1
    assert _steps_of(rec) == [
        ("check", (0, 1), None, 1, 0),
        ("check", (0, 2), None, 1, 0),
        ("recolor", (0, 10), 8, 6, 1),
        ("assign", (0, 1), 4, 2, 1),
        ("assign", (0, 2), 7, 1, 1),
    ]


def test_face_fails_when_no_recoloring_frees_the_pair():
    g, cfg, work = _pinned_face(FACE_567, 1, (5, 6, 8, 9, 10, 11, 12))
    child = dict(work)
    rec = _extend_until_done(g, cfg, work, fails=True)
    assert _steps_of(rec)[2:] == [("assign", (0, 1), None, 0, 1)]
    # every trial color was taken back
    assert work == child


def test_deg4_fails_when_every_edge_color_starves_the_center():
    g, cfg, work = _deg4_starved()
    rec = _extend_until_done(g, cfg, work, fails=True)
    assert _steps_of(rec) == [
        ("erase", 0, None, 0, 0),
        ("check", 0, None, 2, 2),
        ("assign", (0, 1), None, 0, 3),
    ]
    assert 0 not in work and (0, 1) not in work


def test_twin_fails_when_the_hub_edges_have_no_pair():
    g, cfg, work = _twin_starved()
    rec = _extend_until_done(g, cfg, work, fails=True)
    assert _steps_of(rec) == [
        ("erase", 1, None, 0, 0),
        ("erase", 2, None, 0, 0),
        ("assign", (0, 1), None, 0, 1),
    ]


def test_face_fails_when_the_low_corner_has_no_color():
    g, cfg, work = _low_corner_starved()
    rec = _extend_until_done(g, cfg, work, fails=True)
    assert rec.steps == []


def test_assign_free_records_the_shortfall_before_failing():
    g, cfg, work = _sparse_edge_starved()
    rec = _extend_until_done(g, cfg, work, fails=True)
    assert _steps_of(rec) == [("assign", (0, 1), None, 0, 1)]


def test_separate_endpoints_fails_when_no_edge_move_frees_an_end():
    g, cfg, work = _inseparable_ends()
    child = dict(work)
    rec = _extend_until_done(g, cfg, work, fails=True)
    assert rec.steps == []
    assert work == child


# ---------------------------------------------------------------------------
# the count behind every extension bound


def _pendant(*degrees: int) -> tuple:
    """A vertex, or an edge (0, 1), whose ends have the given degrees by
    pendant leaves, as (graph, key)."""
    if len(degrees) == 1:
        return Graph.from_edges((0, i) for i in range(1, degrees[0] + 1)), 0
    du, dv = degrees
    edges = [(0, 1)] + [(0, 2 + i) for i in range(du - 1)]
    edges += [(1, 1 + du + i) for i in range(dv - 1)]
    return Graph.from_edges(edges), (0, 1)


# Every site where an extender takes its required from _Extension.need, as
# (floor, same, band, the degrees of the key's ends the site admits at M,
# the inline formula at d = 2 that need replaced).
_NEED_SITES = {
    "vertex with its edges colored": (
        1, 0, 0, lambda M: [(a,) for a in range(1, M + 1)],
        lambda M, a: max(1, M + 3 - 4 * a)),
    "two_deg2 x and y": (
        1, 0, 0, lambda M: [(2,)], lambda M, a: max(1, M - 5)),
    "separated endpoint": (
        0, 0, 1, lambda M: [(a,) for a in range(1, M + 1)],
        lambda M, a: max(0, M + 6 - 4 * a)),
    "deg4 center": (
        2, 0, 1, lambda M: [(4,)], lambda M, a: max(2, M - 10)),
    "face low corner": (
        1, 0, 2, lambda M: [(a,) for a in range(2, M + 1)],
        lambda M, a: max(1, M + 9 - 4 * a)),
    "sparse edge": (
        1, 0, 0, lambda M: itertools.product(range(1, M + 1), repeat=2),
        lambda M, du, dv: max(1, M - 1 - du - dv)),
    "light edge": (
        1, 0, 1, lambda M: itertools.product(range(1, M + 1), repeat=2),
        lambda M, du, dv: max(1, M + 2 - du - dv)),
    "deg4 edge": (
        3, 0, 1, lambda M: [(4, b) for b in range(1, M + 1)],
        lambda M, du, dv: max(3, M - 2 - dv)),
    "face edge": (
        0, 1, 0, lambda M: itertools.product(range(2, M + 1), repeat=2),
        lambda M, du, dv: max(0, M - du - dv)),
    "two_deg2 ring edge": (
        2, 2, 1,
        lambda M: [p for b in range(2, M + 1) for p in ((2, b), (b, 2))],
        lambda M, du, dv: max(2, M + 2 - (dv if du == 2 else du))),
}


@pytest.mark.parametrize("site", sorted(_NEED_SITES))
def test_need_equals_each_sites_inline_formula(site):
    floor, same, band, degrees, formula = _NEED_SITES[site]
    built = {}
    for M in range(12, 21):
        itv = working_interval(M)
        for ds in degrees(M):
            if ds not in built:
                built[ds] = _pendant(*ds)
            g, key = built[ds]
            got = _Extension(g, {}, itv).need(key, floor, same, band)
            assert got == formula(M, *ds), (M, ds)


def _uncolored_around(g: Graph, work: dict, key) -> tuple[int, int]:
    """How many of the elements key must differ from, and how many it must
    keep the gap from, are uncolored."""
    if isinstance(key, tuple):
        u, v = key
        same = sum(edge_key(a, w) not in work
                   for a, b in ((u, v), (v, u))
                   for w in g.neighbors(a) if w != b)
        return same, (u not in work) + (v not in work)
    return (sum(w not in work for w in g.neighbors(key)),
            sum(edge_key(key, w) not in work for w in g.neighbors(key)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_need_is_a_sound_and_tight_count_at_every_gap(d):
    """On witnesses with about 30 % of their elements uncolored, every
    uncolored element has at least need's count free, and for vertices and
    edges alike the count is met exactly somewhere."""
    rng = random.Random(d)
    graphs = [generate("wheel", n) for n in (5, 8)]
    graphs += [generate(family, 9, seed) for seed in range(3)
               for family in ("stacked_triangulation", "random_planar")]
    least = {}
    for g in graphs:
        itv = ColorInterval(g.max_degree + 2 * d, d)
        phi, _ = find_labeling(g, itv)
        witness = phi.as_dict()
        for _ in range(5):
            work = {e: c for e, c in witness.items() if rng.random() >= 0.3}
            ext = _Extension(g, work, itv)
            for key in witness.keys() - work.keys():
                same, band = _uncolored_around(g, work, key)
                # a floor far below any count leaves the count itself
                slack = (ext.available(key).bit_count()
                         - ext.need(key, -10 ** 9, same, band))
                sort = "edge" if isinstance(key, tuple) else "vertex"
                least[sort] = min(least.get(sort, slack), slack)
    assert least == {"vertex": 0, "edge": 0}


# ---------------------------------------------------------------------------
# the driver


def test_label_planar_families():
    cases = [
        ("wheel", 4, 0),
        ("wheel", 9, 0),
        ("wheel", 13, 0),
        ("cycle", 3, 0),
        ("cycle", 11, 0),
        ("star", 13, 0),
        ("stacked_triangulation", 20, 1),
        ("random_planar", 24, 3),
    ]
    for family, n, seed in cases:
        g = generate(family, n, seed)
        lab, trace = label_planar(g, deep_check=True)
        assert trace.ok(), (family, n, trace.shortfalls())
        bound = max(12, g.max_degree) + 2
        assert max(lab.as_dict().values()) <= bound
        assert set(trace.kind_counts()) <= set(KIND_ORDER)


def test_label_planar_gadget_graphs():
    for g in (
        leaf_triangle(5, 6, 6),
        special_face_with_mate(),
        octahedron(),
        pinned_twin_instance()[0],
    ):
        lab, trace = label_planar(g, deep_check=True)
        assert trace.ok()
        assert lab.is_total(g)


def test_engine_reports_the_irreducible_residue_below_12():
    # every 3-vertex of the triakis tetrahedron sits on three 6-vertices, so
    # at bound 9 no edge is sparse or light and no other kind occurs
    t = triakis_tetrahedron()
    with pytest.raises(IrreducibleError) as info:
        reduction._label(t, 9)
    assert (info.value.graph.n, info.value.graph.m) == (8, 18)
    assert discharge.scan_structure(t, 9) == ()
    with pytest.raises(ValueError):
        label_planar(t, 9)
    lab, trace = label_planar(t, 12)
    assert trace.ok()
    assert validate(t, lab, ITV) == []


def test_label_planar_rejects_a_nonplane_rotation_system_before_labeling(
        monkeypatch):
    # K7 on the torus has no reducible structure at 12
    with pytest.raises(EmbeddingError):
        label_planar(toroidal_k7(), 12)
    # every edge of K3,3 is sparse, so the engine would label it; the gate
    # rejects its one-face rotation system before the engine runs
    ran = []
    monkeypatch.setattr(reduction, "_label", lambda *args: ran.append(args))
    with pytest.raises(EmbeddingError, match="not planar"):
        label_planar(one_face_k33(), 12)
    assert ran == []


def test_label_planar_traces_a_graph_once(monkeypatch):
    # the gate reads the trace that PlaneGraph.faces() keeps, so labeling
    # one graph object twice, or auditing it after labeling, traces it once;
    # a plane graph that is not connected keeps that outcome too
    traced = []

    def counting(g):
        traced.append(g)
        return trace_faces(g)

    monkeypatch.setattr("tlabel.graphs.trace_faces", counting)
    g = generate("stacked_triangulation", 60, 1, 12)
    first, _ = label_planar(g, 12)
    second, _ = label_planar(g, 12)
    discharge.audit(g, 12)
    assert traced == [g] and first == second
    # a plane graph that is not connected passes the gate and labels as it
    # did before the gate
    wheels = disjoint_union(generate("wheel", 13), generate("wheel", 9))
    assert _digest(wheels, 13) == WHEELS_13_9_DIGEST
    assert _digest(wheels, 13) == WHEELS_13_9_DIGEST
    for _ in range(2):
        with pytest.raises(DisconnectedError) as info:
            wheels.faces()
        assert info.value.components == tuple(wheels.components())
    assert traced == [g, wheels]


def test_label_planar_searches_for_components_once(monkeypatch):
    # the gate's face trace finds the components and the graph keeps them,
    # so the labeler, a second labeling and an audit search no more
    searched = []
    components = Graph.components

    def counting(self):
        searched.append(self)
        return components(self)

    g = generate("stacked_triangulation", 200, 1, 12)
    wheels = with_isolated_vertex(generate("wheel", 13))
    monkeypatch.setattr(Graph, "components", counting)
    label_planar(g, 12)
    assert searched == [g]
    label_planar(g, 12)
    discharge.audit(g, 12)
    lab, trace = label_planar(wheels, 13)
    assert searched == [g, wheels]
    assert validate(wheels, lab, working_interval(13)) == []
    assert trace.base_cases == trace.splits + 1


def test_label_planar_blames_a_nonplane_component_beside_others():
    # tracing the faces of the whole graph blames the rotation system, not
    # the lone vertex
    with pytest.raises(EmbeddingError, match="not planar"):
        label_planar(with_isolated_vertex(toroidal_k7()), 12)


@pytest.mark.parametrize("error", [
    ExtensionError("no legal color"),
    IrreducibleError(octahedron(), 12),
], ids=["extension", "irreducible"])
def test_label_planar_reraises_the_engine_error_on_plane_input(
        monkeypatch, error):
    def fail(g, M, deep_check=False):
        raise error

    monkeypatch.setattr(reduction, "_label", fail)
    # each component is traced on its own, so a disconnected graph passes
    with pytest.raises(type(error)) as info:
        label_planar(disjoint_union(octahedron(), octahedron()), 12)
    assert info.value is error


def test_driver_scans_for_rare_kinds_when_the_queues_are_empty():
    # no edge of the geodesic sphere is sparse or light at bound 12, so the
    # driver itself must find a rare kind before any queued edge
    geo = geodesic_sphere()
    lab, trace = label_planar(geo, 12, deep_check=True)
    assert validate(geo, lab, ITV) == []
    assert trace.ok()
    assert FACE_566 in trace.kind_counts()


def test_deep_check_catches_a_broken_intermediate_labeling(monkeypatch):
    entry = reduction._CATALOGUE[SPARSE_EDGE]

    def clash(ext, cfg):
        entry.extend(ext, cfg)
        u, v = cfg["edge"]
        ext.work[u] = ext.work[v]

    monkeypatch.setitem(reduction._CATALOGUE, SPARSE_EDGE,
                        dataclasses.replace(entry, extend=clash))
    with pytest.raises(ExtensionError, match="intermediate"):
        label_planar(generate("wheel", 9), deep_check=True)


def test_deep_check_catches_a_kept_mask_out_of_step(monkeypatch):
    # a write that bypasses the extension's writer leaves the kept
    # edge-color masks behind the labeling, which deep_check must notice
    entry = reduction._CATALOGUE[SPARSE_EDGE]

    def stray(ext, cfg):
        entry.extend(ext, cfg)
        e = edge_key(*cfg["edge"])
        ext.work[e] = ext.lift(e)

    monkeypatch.setitem(reduction._CATALOGUE, SPARSE_EDGE,
                        dataclasses.replace(entry, extend=stray))
    with pytest.raises(ExtensionError, match="intermediate kept edge colors"):
        label_planar(generate("wheel", 9), deep_check=True)


def test_deep_check_catches_a_wrongly_queued_key(monkeypatch):
    # the heap hands out what it was given without a predicate, so
    # deep_check must judge each pick: with the spoke (0, 1) pushed as a
    # sparse entry, the first pick is that spoke, whose degree sum 9 + 3
    # exceeds 10
    g = generate("wheel", 9)
    queued_config = reduction._next_config

    def spoke_first(w, M, heap, queued):
        if (0, 0, 1) not in queued:
            queued.add((0, 0, 1))
            heapq.heappush(heap, (0, 0, 1))
        return queued_config(w, M, heap, queued)

    monkeypatch.setattr(reduction, "_next_config", spoke_first)
    with pytest.raises(ExtensionError, match="sparse_edge that does not hold"):
        label_planar(g, deep_check=True)


def _kept_masks(ext: _Extension) -> dict:
    return {v: m for v, m in ext.masks.items() if m}


def _rebuilt_masks(work: dict) -> dict:
    """Each vertex's mask of its edge colors, from the labeling alone."""
    out: dict = {}
    for key, c in work.items():
        if isinstance(key, tuple):
            for v in key:
                out[v] = out.get(v, 0) | 1 << c
    return out


def test_kept_masks_follow_every_write_of_the_extenders(monkeypatch):
    # the branch instances and the pinned twin are the only inputs that
    # reach assign_fixed, list_color and _refit_face_edges, and the undo
    # cases run every kind once.  After every write the kept masks must
    # equal masks rebuilt from the working labeling, and after each
    # extension, failed or not, the fast availability must equal the
    # public mask functions on every element
    writes = 0

    def checked(write):
        def wrapper(ext, *args):
            nonlocal writes
            out = write(ext, *args)
            writes += 1
            assert _kept_masks(ext) == _rebuilt_masks(ext.work)
            return out
        return wrapper

    monkeypatch.setattr(_Extension, "put", checked(_Extension.put))
    monkeypatch.setattr(_Extension, "lift", checked(_Extension.lift))
    twin, twin_child = pinned_twin_instance()
    cases = [*_branch_cases(),
             (twin, _find(twin, TWIN_LOW_NEIGHBOR), twin_child, False)]
    for g, cfg in _undo_cases():
        phi, _ = find_labeling(reduce_config(g, cfg), ITV)
        cases.append((g, cfg, phi.as_dict(), False))
    actions = set()
    for g, cfg, work, fails in cases:
        ext = _Extension(g, work, ITV, ReductionRecord(cfg.kind))
        with pytest.raises(ExtensionError) if fails else contextlib.nullcontext():
            reduction._CATALOGUE[cfg.kind].extend(ext, cfg)
        reduction._require_kept_availability(ext, g.vertices)
        actions |= {(cfg.kind, s.action) for s in ext.rec.steps}
    assert writes > 100
    assert {(TWO_DEG2, "transfer"), (TWIN_LOW_NEIGHBOR, "transfer"),
            (TWO_DEG2, "list"), (ALTERNATOR, "list"),
            (FACE_566, "recolor"), (FACE_567, "recolor")} <= actions


def test_deep_check_cross_checks_kept_availability_on_the_corpus(monkeypatch):
    # after every event deep_check compares the kept masks at the touched
    # vertices and their neighbors, and the fast availability there, with
    # what the labeling and the public functions give.  Its other half,
    # validating the whole working graph after every event, is run by the
    # family and gadget tests; over this corpus it would take about 25 s
    # more under CPython 3.11, so this test runs only the final validation
    valid = reduction._require_valid
    kept = reduction._require_kept_availability
    checked = []

    def final_only(g, work, itv, stage):
        if stage == "final":
            valid(g, work, itv, stage)

    def counted(ext, touched):
        kept(ext, touched)
        checked.append(len(touched))

    monkeypatch.setattr(reduction, "_require_valid", final_only)
    monkeypatch.setattr(reduction, "_require_kept_availability", counted)
    events = 0
    for _, g, bound in acceptance_corpus():
        _, trace = label_planar(g, bound, deep_check=True)
        events += trace.base_cases + len(trace.records)
    # one check per event, each of at least one touched vertex
    assert len(checked) == events > 10000 and min(checked) >= 1


def test_label_planar_input_errors():
    w4 = generate("wheel", 4)
    with pytest.raises(ValueError):
        label_planar(w4, M=11)
    with pytest.raises(ValueError):
        label_planar(generate("wheel", 14), M=12)
    with pytest.raises(GraphError):
        label_planar(Graph.from_edges([(0, 1)]))


def test_trace_bookkeeping():
    g = generate("random_planar", 30, 7)
    lab, trace = label_planar(g)
    assert trace.shortfalls() == []
    assert trace.base_cases >= 1
    assert len(list(trace.steps())) == sum(
        len(r.steps) for r in trace.records
    )


# ---------------------------------------------------------------------------
# the working graph and the incremental driver


def _undo_cases():
    """(graph, configuration) for every kind, on the hand-built graphs."""
    p3, star, c4, spider = (
        _make_path3(), _make_star(10), _make_c4(), _make_spider()
    )
    w4 = generate("wheel", 4)
    twin = pinned_twin_instance()[0]
    tri = leaf_triangle(5, 6, 6)
    mate = special_face_with_mate()
    claw = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    plane_claw = generate("star", 3)
    return [
        (p3, _find(p3, SPARSE_EDGE)),
        (spider, _find(spider, SPARSE_EDGE)),
        (octahedron(), _find(octahedron(), SPARSE_EDGE)),
        (star, _find(star, LIGHT_EDGE)),
        (w4, _find(w4, DEG4_LOW_NEIGHBOR)),
        (c4, _find(c4, TWO_DEG2)),
        (spider, _find(spider, TWO_DEG2)),
        (twin, _find(twin, TWIN_LOW_NEIGHBOR)),
        (tri, _find(tri, FACE_566)),
        (mate, _find(mate, FACE_567)),
        (claw, _alternator(claw)),
        (plane_claw, _alternator(plane_claw)),
    ]


def test_undo_restores_adjacency_and_rotation_slots():
    cases = _undo_cases()
    assert {cfg.kind for _, cfg in cases} == set(KIND_ORDER)
    for g, cfg in cases:
        w = _WorkGraph(g)
        log = _reduce(w, cfg)
        assert w.freeze() == reduce_config(g, cfg)
        assert w.freeze() != g
        w.undo(log)
        # the lists themselves, in order: rotation slots on a plane graph
        assert w._adj == _WorkGraph(g)._adj
        if isinstance(g, PlaneGraph):
            assert w._rot is w._adj
            assert w._adj == {v: list(g.rotation(v)) for v in g.vertices}
        else:
            assert w._rot is None
            assert {v: set(ns) for v, ns in w._adj.items()} == {
                v: g.neighbors(v) for v in g.vertices}


def _state(w: _WorkGraph) -> tuple:
    rot = None if w._rot is None else {v: list(r) for v, r in w._rot.items()}
    return {v: set(ns) for v, ns in w._adj.items()}, rot


@functools.lru_cache(maxsize=None)
def _chain_corpus() -> tuple:
    return ((generate("stacked_triangulation", 200, 0, 12), 12),
            (generate("stacked_triangulation", 300, 0, 10), 10),
            (generate("random_planar", 200, 0, 14), 14),
            (generate("random_planar", 300, 0, 9), 9),
            (geodesic_sphere(), 12))


def _chain_of_events(g: Graph, M: int, visit=None) -> tuple:
    """Reduce a working copy of g to empty, rare kinds first, detaching a
    small component when nothing is found; visit(w) sees every working
    graph before its event.  Returns (w, events)."""
    order = reduction._RARE_KINDS + (SPARSE_EDGE, LIGHT_EDGE)
    w = _WorkGraph(g)
    events: list = []
    while w._adj:
        if visit is not None:
            visit(w)
        cfg = reduction._first_config(w, M, order)
        if cfg is not None:
            events.append((cfg, _reduce(w, cfg)))
        else:
            assert any(reduction._detach_small(w, v, events)
                       for v in sorted(w._adj)), (g, M)
    return w, events


def test_undo_restores_every_state_of_a_chain_of_events():
    # undoing in reverse must pass back through every state the forward
    # pass saw, rotation slots included
    fired = set()
    splices = bases = 0
    for g, M in _chain_corpus():
        states: list = []
        w, events = _chain_of_events(g, M, lambda w: states.append(_state(w)))
        for cfg, _ in events:
            if cfg is None:
                bases += 1
            else:
                fired.add(cfg.kind)
                splices += cfg.kind == TWO_DEG2 and cfg["case"] == 3
        for before, (_, log) in zip(reversed(states), reversed(events)):
            w.undo(log)
            assert _state(w) == before
        assert _state(w) == _state(_WorkGraph(g))
    assert fired == set(KIND_ORDER)
    assert splices >= 5 and bases >= 1


def _random_edit_script(w: _WorkGraph, rng: random.Random, log: list) -> None:
    """Edit w with a few random cuts, drops and two_deg2-style path
    splices, all into one log.  A splice picks a vertex x and two of its
    neighbors a and b that are not adjacent, cuts x's other edges, puts b
    in x's slot at a and a in x's slot at b, and detaches x."""
    adj = w._adj
    for _ in range(rng.randint(1, 8)):
        if not adj:
            return
        op = rng.random()
        x = rng.choice(sorted(adj))
        if op < 0.5 and adj[x]:
            w.cut(x, rng.choice(adj[x]), log)
        elif op < 0.7:
            w.drop(x, log)
        else:
            pairs = [(a, b) for a, b in itertools.combinations(adj[x], 2)
                     if not w.has_edge(a, b)]
            if pairs:
                a, b = rng.choice(pairs)
                for y in [y for y in adj[x] if y not in (a, b)]:
                    w.cut(x, y, log)
                w.splice(a, x, b, log)
                w.splice(b, x, a, log)
                w.detach(x, log)


def _interleaved(log: list) -> bool:
    """Whether some vertex's edits in log have another vertex's between."""
    owners = log[::4]
    return any(owners[i] != v and v in owners[:i] and v in owners[i + 1:]
               for v in set(owners) for i in range(len(owners)))


def test_undo_restores_interleaved_random_edit_scripts():
    # no reducer edits a vertex, then others, then it again in one log, so
    # undo's one backward replay is checked on random scripts that do:
    # chains of logs over plane and plain graphs, undone in reverse, must
    # pass back through every list in order
    rng = random.Random(2029)
    plane = [generate("stacked_triangulation", 30, 1, 12),
             generate("random_planar", 40, 2, 14), generate("wheel", 9)]
    graphs = plane + [Graph.from_edges(g.edges()) for g in plane]
    interleaved = splices = 0
    for trial in range(120):
        g = graphs[trial % len(graphs)]
        w = _WorkGraph(g)
        states, logs = [], []
        for _ in range(3):
            states.append({v: list(ns) for v, ns in w._adj.items()})
            log: list = []
            _random_edit_script(w, rng, log)
            logs.append(log)
            interleaved += _interleaved(log)
            splices += any(log[k + 3] is not None
                           for k in range(0, len(log), 4))
        for before, log in zip(reversed(states), reversed(logs)):
            w.undo(log)
            assert w._adj == before
        if isinstance(g, PlaneGraph):
            assert w._rot is w._adj
            assert w._adj == {v: list(g.rotation(v)) for v in g.vertices}
        else:
            assert w._rot is None
            assert {v: set(ns) for v, ns in w._adj.items()} == {
                v: g.neighbors(v) for v in g.vertices}
    assert interleaved >= 200 and splices >= 100


def _answers_as_frozen(w: _WorkGraph, M: int) -> int:
    """Assert that w answers every query, and every kind's scan, as its
    frozen copy does; the catalogue reads neighbors() as an iterable, a
    list on w and a frozenset on the copy.  Returns the non-edges asked."""
    f = w.freeze()
    verts = f.vertices
    assert w.vertices == verts
    non_edges = 0
    for i, v in enumerate(verts):
        ns = w.neighbors(v)
        assert set(ns) == f.neighbors(v)
        assert w.degree(v) == f.degree(v) == len(ns)
        for x in (*ns, verts[i - 1], verts[(i + 1) % len(verts)]):
            assert w.has_edge(v, x) == f.has_edge(v, x) == (x in f.neighbors(v))
            non_edges += x not in f.neighbors(v)
        if isinstance(f, PlaneGraph):
            assert list(w.rotation(v)) == list(f.rotation(v))
    for comp in (*f.components(), verts[::2]):
        assert w.induced(comp) == f.induced(comp)
    for kind, entry in reduction._CATALOGUE.items():
        assert list(entry.occurrences(w, M)) == list(entry.occurrences(f, M)), kind
    return non_edges


def test_work_graph_answers_as_its_frozen_copy():
    # every 4th state of each chain, and each hand-built case after its
    # reduction and after its undo, plane and plain
    asked = 0
    for g, M in _chain_corpus():
        states = itertools.count()

        def check(w):
            nonlocal asked
            if next(states) % 4 == 0:
                asked += _answers_as_frozen(w, M)

        _chain_of_events(g, M, check)
    plain = 0
    for g, cfg in _undo_cases():
        w = _WorkGraph(g)
        log = _reduce(w, cfg)
        if w._adj:
            asked += _answers_as_frozen(w, 12)
        w.undo(log)
        asked += _answers_as_frozen(w, 12)
        plain += w._rot is None
    assert asked > 0 and plain >= 3


def _plainly_small(w: _WorkGraph) -> dict:
    """Each vertex's component if it has at most BASE_ELEMENT_LIMIT
    vertices and edges, else None, by a search that counts them all."""
    out: dict = {}
    for start in w._adj:
        if start in out:
            continue
        comp, stack = {start}, [start]
        while stack:
            for x in w._adj[stack.pop()]:
                if x not in comp:
                    comp.add(x)
                    stack.append(x)
        edges = sum(len(w._adj[v]) for v in comp) // 2
        small = comp if len(comp) + edges <= BASE_ELEMENT_LIMIT else None
        out.update(dict.fromkeys(comp, small))
    return out


def test_small_component_degree_test_is_exact():
    # the search gives up at a vertex of degree 6 or more, which no base
    # case can hold; it must still find every small component there is
    small = 0

    def check(w):
        nonlocal small
        for v, comp in _plainly_small(w).items():
            assert reduction._small_component(w, v) == comp, v
            small += comp is not None

    for g, M in _chain_corpus():
        _chain_of_events(g, M, check)
    assert small > 0
    assert reduction._BASE_MAX_DEGREE == 5


def test_induced_reads_the_current_working_graph():
    g = generate("stacked_triangulation", 30, seed=3, max_degree=12)
    w = _WorkGraph(g)
    log: list = []
    for u, v in g.edges()[::3]:
        w.cut(u, v, log)
    keep = set(g.vertices[::2])
    assert w.induced(keep) == w.freeze().induced(keep)
    assert w.induced(keep) != g.induced(keep)


def test_validate_reads_the_current_working_graph():
    g = generate("stacked_triangulation", 30, seed=3, max_degree=12)
    w = _WorkGraph(g)
    log: list = []
    for u, v in g.edges()[::3]:
        w.cut(u, v, log)
    rng = random.Random(0)
    work = {el: rng.randrange(ITV.size) for el in w.vertices + w.edges()}
    assert validate(w, work, ITV) == validate(w.freeze(), work, ITV) != []
    work[g.edges()[0]] = 0
    with pytest.raises(GraphError):
        validate(w, work, ITV)


def test_local_triangle_faces_match_face_tracing():
    for g in face_sample():
        traced = [
            f for f in trace_faces(g)
            if len(f) == 3 and len(set(f)) == 3
        ]
        assert _triangle_faces(g, g.vertices) == traced
        assert _triangle_faces(_WorkGraph(g), g.vertices) == traced
        fives = [v for v in g.vertices if g.degree(v) == 5]
        assert _triangle_faces(g, fives) == [
            f for f in traced if any(c in fives for c in f)]


def test_trace_step_is_an_immutable_record():
    step = TraceStep("assign", (0, 1), 3, 5, 2)
    assert TraceStep._fields == (
        "action", "element", "color", "measured", "required")
    assert repr(step) == ("TraceStep(action='assign', element=(0, 1), "
                          "color=3, measured=5, required=2)")
    with pytest.raises(AttributeError):
        step.color = 4
    assert step.ok and not TraceStep("check", 0, None, 1, 2).ok


def _four_successor_triangle_faces(g, corners) -> list:
    """_triangle_faces as it was written before it read rotation pairs:
    c = s_b(a) for each b at a, then all three successor conditions."""
    def succ(v, u):
        order = g.rotation(v)
        return order[(order.index(u) + 1) % len(order)]

    found = set()
    for a in corners:
        for b in g.rotation(a):
            c = succ(b, a)
            if succ(b, a) == c and succ(c, b) == a and succ(a, c) == b:
                found.add(min((a, b, c), (b, c, a), (c, a, b)))
    return sorted(found)


def test_rotation_pair_triangle_faces_match_the_four_successor_form():
    # working graphs partway through reduction have corners of degree 1
    # and 2, where a rotation pair repeats a vertex or wraps around
    low = set()

    def check(w):
        verts = w.vertices
        low.update(w.degree(v) for v in verts if w.degree(v) <= 2)
        assert _triangle_faces(w, verts) == _four_successor_triangle_faces(w, verts)
        fives = [v for v in verts if w.degree(v) == 5]
        assert _triangle_faces(w, fives) == _four_successor_triangle_faces(w, fives)

    for g, M in _chain_corpus():
        _chain_of_events(g, M, check)
    assert {1, 2} <= low


def _unpruned_light_candidates(g, M: int):
    """_light_candidates as it was before it started from the low ends."""
    cap = reduction._light_cap(M)
    for u, v in reduction._edges_summing_at_most(g, reduction._light_sum(M)):
        for low in (u, v):
            if g.degree(low) <= cap:
                yield u, v, low


def _unpruned_five_corner_faces(g) -> list:
    """_five_corner_faces as it was before it tested pairs by degree."""
    return _triangle_faces(g, [v for v in g.vertices if g.degree(v) == 5])


def _unpruned_face_566_candidates(g, M: int):
    for face in _unpruned_five_corner_faces(g):
        for v1 in face:
            if g.degree(v1) == 5:
                v2, v3 = sorted(c for c in face if c != v1)
                yield v1, v2, v3


def _unpruned_face_567_candidates(g, M: int):
    for face in _unpruned_five_corner_faces(g):
        v1, v2, v3 = sorted(face, key=g.degree)
        if (g.degree(v1), g.degree(v2), g.degree(v3)) == (5, 6, 7):
            for w in sorted(g.neighbors(v1)):
                if g.degree(w) == 6:
                    yield v1, v2, v3, w


UNPRUNED = {LIGHT_EDGE: _unpruned_light_candidates,
            FACE_566: _unpruned_face_566_candidates,
            FACE_567: _unpruned_face_567_candidates}


def test_degree_pruned_enumerators_keep_the_unpruned_occurrences():
    # light edges start from their low ends and the face kinds test a
    # rotation pair only when its degrees can pass; what the predicate
    # keeps must not change, nor its order, on working graphs partway
    # through reduction and on the gadgets that hold a face kind
    hits = dict.fromkeys(UNPRUNED, 0)

    def check(w):
        for M in (9, 12, 16):
            for kind, unpruned in UNPRUNED.items():
                entry = reduction._CATALOGUE[kind]
                kept = [f for f in unpruned(w, M) if entry.holds(w, M, *f)]
                assert list(entry.occurrences(w, M)) == kept, (kind, M)
                hits[kind] += len(kept)

    for g, M in _chain_corpus():
        _chain_of_events(g, M, check)
    check(geodesic_sphere())
    check(special_face_with_mate())
    assert all(hits.values()), hits


def _scan_checked_choices(monkeypatch) -> list:
    """Make the labeler check each choice of its queues against a scan of
    the whole working graph in kind and edge order, an irreducible graph
    included; return the list the kinds chosen are appended to."""
    queued = reduction._next_config
    chosen = []

    def checked(w, M, heap, in_heap):
        scanned = reduction._first_config(w, M, KIND_ORDER)
        try:
            cfg = queued(w, M, heap, in_heap)
        except IrreducibleError:
            assert scanned is None
            raise
        assert cfg == scanned
        chosen.append(cfg.kind)
        return cfg

    monkeypatch.setattr(reduction, "_next_config", checked)
    return chosen


def test_queued_choice_matches_a_full_scan(monkeypatch):
    # at every step the queues must pick what a scan of the whole working
    # graph in kind and edge order would pick
    chosen = _scan_checked_choices(monkeypatch)
    for g, M in ((generate("stacked_triangulation", 80, 4, 12), 12),
                 (generate("random_planar", 60, 5, 14), 14),
                 (disjoint_union(generate("wheel", 13), generate("wheel", 9)),
                  13)):
        label_planar(g, M)
    assert {SPARSE_EDGE, LIGHT_EDGE} <= set(chosen)


def test_queues_miss_no_edge_on_the_acceptance_corpus(monkeypatch):
    # an edge is queued only when the driver's walk finds it within the
    # queue's terms, so a queue that missed an edge would pick later than
    # the scan on some event
    chosen = _scan_checked_choices(monkeypatch)
    bounds = set()
    for _, g, bound in acceptance_corpus():
        label_planar(g, bound)
        bounds.add(bound)
    assert {12, 14, 16} <= bounds
    assert {SPARSE_EDGE, LIGHT_EDGE} <= set(chosen)


@pytest.mark.parametrize("M", (9, 10, 11))
def test_queues_miss_no_edge_below_12(monkeypatch, M):
    # at 9 a graph may have no reducible structure or fail to extend; the
    # scan check has compared every choice made before either, and on an
    # irreducible graph found nothing either
    chosen = _scan_checked_choices(monkeypatch)
    below = (IrreducibleError, ExtensionError) if M == 9 else ()
    for family in ("stacked_triangulation", "random_planar"):
        for n, seed in ((40, 0), (120, 1), (300, 2)):
            with contextlib.suppress(*below):
                reduction._label(generate(family, n, seed, M), M)
    for family in ("wheel", "star"):
        with contextlib.suppress(*below):
            reduction._label(generate(family, M), M)
    assert {SPARSE_EDGE, LIGHT_EDGE} <= set(chosen)
    if M == 9:
        # the queues run dry here, so the scan's rare kinds are reached
        assert {DEG4_LOW_NEIGHBOR, TWIN_LOW_NEIGHBOR, FACE_566} <= set(chosen)


def test_light_queue_gets_only_keys_above_the_sparse_sum(monkeypatch):
    # rank 0 is read first and holds every live edge within the sparse sum,
    # so rank 1 must never be given one: each rank-1 entry the heap starts
    # with or is pushed later must have end degrees summing to more than
    # the sparse sum when it is queued
    works, starts, heaps = [], [], []
    checked = [0, 0]  # rank-1 entries the heap started with, pushed later

    class SpyWorkGraph(_WorkGraph):
        def __init__(self, g):
            super().__init__(g)
            works.append(self)
            # the degrees the heap is built from, before any detach
            starts.append({v: len(ns) for v, ns in self._adj.items()})

    def above(degree, entry):
        _, u, v = entry
        return degree[u] + degree[v] > reduction._sparse_sum(M)

    queued_config, push = reduction._next_config, heapq.heappush

    def spy_next(w, M, heap, queued):
        if len(heaps) < len(works):  # the first call of a run
            heaps.append(heap)
            for entry in heap:
                if entry[0] == 1:
                    assert above(starts[-1], entry), ("start", entry, M)
                    checked[0] += 1
        return queued_config(w, M, heap, queued)

    def spy_push(heap, entry):
        if heaps and heap is heaps[-1] and entry[0] == 1:
            degree = {v: len(works[-1]._adj[v]) for v in entry[1:]}
            assert above(degree, entry), ("push", entry, M)
            checked[1] += 1
        push(heap, entry)

    monkeypatch.setattr(reduction, "_WorkGraph", SpyWorkGraph)
    monkeypatch.setattr(reduction, "_next_config", spy_next)
    monkeypatch.setattr(heapq, "heappush", spy_push)
    runs = list(_chain_corpus())
    for family in ("stacked_triangulation", "random_planar"):
        runs += [(generate(family, n, seed, 9), 9)
                 for n, seed in ((40, 0), (120, 1), (300, 2))]
    runs += [(generate(family, 9), 9) for family in ("wheel", "star")]
    for g, M in runs:
        # at 9 a graph may have no reducible structure or fail to extend
        below = (IrreducibleError, ExtensionError) if M < 12 else ()
        with contextlib.suppress(*below):
            reduction._label(g, M)
    assert len(heaps) == len(works) == len(runs)
    assert all(checked), checked


def _prefer_rare_kinds(monkeypatch) -> None:
    """Make label_planar take any rare kind before a queued edge."""
    queued = reduction._next_config

    def rare_first(w, M, heap, in_heap):
        cfg = reduction._first_config(w, M, reduction._RARE_KINDS)
        return cfg if cfg is not None else queued(w, M, heap, in_heap)

    monkeypatch.setattr(reduction, "_next_config", rare_first)


def _rare_first_graphs() -> tuple:
    return (generate("stacked_triangulation", 40, 0, 12),
            generate("random_planar", 80, 1, 14),
            leaf_triangle(5, 6, 6), special_face_with_mate(),
            pinned_twin_instance()[0])


def test_driver_reduces_and_extends_every_kind_in_place(monkeypatch):
    # generated graphs only ever need sparse and light edges, so prefer the
    # other kinds to run each one through the working graph and its undo
    _prefer_rare_kinds(monkeypatch)
    fired = set()
    for g in _rare_first_graphs():
        M = max(12, g.max_degree)
        lab, trace = label_planar(g, M, deep_check=True)
        assert trace.ok()
        assert validate(g, lab, working_interval(M)) == []
        fired |= set(trace.kind_counts())
    assert set(reduction._RARE_KINDS) <= fired


# sha256 of every step (kind, action, element, color, measured, required)
# of the extender branch instances, the undo cases' roundtrips, the golden
# labelings and the rare-first labeling run; recorded with the per-extender
# recolor and pair-fit loops that the shared extension steps replaced
EXTENSION_STEPS_DIGEST = (
    "850b16b6003d2694c3d698551dc793d1255e6aa1a7113728de049e907996dcd8"
)


def test_extension_steps_reproduce_golden_digest(monkeypatch):
    records = [_extend_until_done(*case) for case in _branch_cases()]
    records += [_roundtrip(g, cfg) for g, cfg in _undo_cases()]
    for family, n, seed, cap, _ in GOLDEN:
        records += label_planar(generate(family, n, seed, cap), cap)[1].records
    _prefer_rare_kinds(monkeypatch)
    for g in _rare_first_graphs():
        records += label_planar(g, max(12, g.max_degree))[1].records
    text = "\n".join(
        "%s %s %r %r %d %d" % (rec.kind, s.action, s.element, s.color,
                               s.measured, s.required)
        for rec in records for s in rec.steps)
    assert hashlib.sha256(text.encode()).hexdigest() == EXTENSION_STEPS_DIGEST


# sha256 of serialize_labeling(label_planar(g, M)[0]), recorded with the
# copy-per-reduction driver that the working-graph engine replaced
GOLDEN = [
    ("stacked_triangulation", 300, 1, 12,
     "efbf43248afa15eafa0202c294070243052d704f8a5d23e3c7396f1b01d2ca95"),
    ("random_planar", 150, 2, 14,
     "56239dc190a957d953eff0a6aac5bf3c3bcd49b66dee8e6559e700bad3a12046"),
    ("random_planar", 150, 3, 16,
     "38450483b08ed7aac23c7d60db85d3f85177ba9e76e57d525d8cd1f97b31445e"),
]
WHEELS_13_9_DIGEST = (
    "354055273e6c6cc8a4c051bf3f4ce303e0e40b4a5a242567bf041206528c3b7c"
)


def _digest(g: PlaneGraph, M: int) -> str:
    phi, trace = label_planar(g, M)
    assert trace.ok()
    return hashlib.sha256(serialize_labeling(phi).encode()).hexdigest()


def test_label_planar_reproduces_golden_labelings():
    for family, n, seed, cap, digest in GOLDEN:
        assert _digest(generate(family, n, seed, cap), cap) == digest, family
    wheels = disjoint_union(generate("wheel", 13), generate("wheel", 9))
    assert _digest(wheels, 13) == WHEELS_13_9_DIGEST


def test_label_planar_counts_detached_components():
    wheels = disjoint_union(generate("wheel", 13), generate("wheel", 9),
                            generate("cycle", 3))
    lab, trace = label_planar(wheels, 13, deep_check=True)
    assert lab.is_total(wheels)
    # the triangle is small from the start; every other base case was cut
    # loose by a reduction
    assert trace.base_cases == trace.splits + 1


# label_planar's base cases and splits over the acceptance corpus at bounds
# 12 and 16, recorded with find_labeling run on every base case
CORPUS_BASES_AND_SPLITS = {12: (5455, 5455), 16: (11834, 11834)}


def test_base_cases_take_find_labelings_witness(monkeypatch):
    # the memo hands out, mapped back to the component's ids and in the
    # same order, exactly the witness the exact search gives the component
    base_labeling = reduction._base_labeling
    searched = []
    memos: list = []

    def checked(w, comp, itv, memo):
        shapes, searches = len(memo), len(searched)
        got = base_labeling(w, comp, itv, memo)
        # a search only for a shape new to the memo, which then keeps it
        assert len(searched) - searches == len(memo) - shapes
        phi, _ = find_labeling(w.induced(comp), itv)
        assert list(got.items()) == list(phi.as_dict().items())
        if len(comp) == 1:
            assert got == dict.fromkeys(comp, 0)
        if not any(m is memo for m in memos):
            memos.append(memo)
        return got

    def counting(g, itv):
        searched.append(g.n)
        return find_labeling(g, itv)

    monkeypatch.setattr(reduction, "_base_labeling", checked)
    monkeypatch.setattr(reduction, "find_labeling", counting)
    runs = 0
    for M, (bases, splits) in CORPUS_BASES_AND_SPLITS.items():
        totals = [0, 0]
        for _, g, _ in acceptance_corpus():
            if g.max_degree <= M:
                _, trace = label_planar(g, M)
                totals[0] += trace.base_cases
                totals[1] += trace.splits
                runs += trace.base_cases > 0
        assert totals == [bases, splits], M
    # a fresh memo per call; an isolated vertex is never searched
    assert len(memos) == runs
    assert 1 not in searched
    assert 0 < len(searched) < sum(b for b, _ in
                                   CORPUS_BASES_AND_SPLITS.values()) // 5


def test_label_planar_peak_memory_is_linear_and_small():
    # the events are dropped as the backward loop undoes them, and the
    # working dict becomes the result without a copy
    g = generate("random_planar", 3200, 1, 14)
    tracemalloc.start()
    try:
        label_planar(g, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.n < 3200, "%.0f bytes per vertex" % (peak / g.n)


@pytest.mark.parametrize("family, per_vertex", (("star", 2000),
                                                 ("wheel", 3200)))
def test_label_planar_peak_memory_at_a_hub_is_linear(family, per_vertex):
    # an event at the hub logs four entries per edit in one flat list and
    # walks only the hub's edges not yet waiting in the edge heap as
    # sparse, so the peak grows with n, not n^2; under CPython 3.11
    # star(2000) reads 997 and wheel(2000) 1,584 bytes per vertex, against
    # 9,370 and 10,151 with whole-list undo logs
    g = generate(family, 2000)
    tracemalloc.start()
    try:
        label_planar(g, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.n < per_vertex, "%.0f bytes per vertex" % (peak / g.n)


def test_nothing_of_the_labeler_outlives_label_planar():
    # the working graph is freed before the final validation, the run's
    # peak, so neither it nor an extension, which holds it, may stay
    # reachable from the result or the trace
    def alive():
        return [o for o in gc.get_objects()
                if isinstance(o, (_WorkGraph, _Extension))]

    gc.collect()
    before = alive()
    # the labeling and the trace are held while the objects are counted
    lab, trace = label_planar(generate("stacked_triangulation", 200, 1, 12),
                              12)
    gc.collect()
    assert trace.records
    assert [o for o in alive() if not any(o is b for b in before)] == []


def test_label_planar_scales_to_1600_vertices():
    g = generate("stacked_triangulation", 1600, 1, 12)
    lab, trace = label_planar(g, 12)
    assert trace.ok()
    assert validate(g, lab, working_interval(12)) == []


# sha256 of the first occurrence of each kind, in kind and scan order, on
# the face sample and the acceptance corpus at three bounds; recorded with
# the per-kind finder functions that the configuration catalogue replaced
FIRST_OCCURRENCES_DIGEST = (
    "1ce87e979d46094516e016b1468179f2df20fd90b3286916b56b8184004ee5ff"
)


def test_first_occurrence_of_each_kind_reproduces_golden_digest():
    lines = []
    for i, g in enumerate(digest_graphs()):
        for M in (12, 14, 16):
            for kind in KIND_ORDER:
                cfg = reduction._first_config(g, M, (kind,))
                found = None if cfg is None else sorted(cfg.data.items())
                lines.append("%d %d %s %r" % (i, M, kind, found))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == FIRST_OCCURRENCES_DIGEST


ARITY = {SPARSE_EDGE: 2, LIGHT_EDGE: 3, DEG4_LOW_NEIGHBOR: 2, TWO_DEG2: 5,
         TWIN_LOW_NEIGHBOR: 4, FACE_566: 3, FACE_567: 4}


def _brute_force_cases():
    """(graph, bound): the gadgets at 12, small generated graphs at 12, 13."""
    gadgets = [_make_c4(), _make_spider(), octahedron(), leaf_triangle(5, 6, 6),
               leaf_triangle(5, 6, 7), special_face_with_mate(),
               pinned_twin_instance()[0], separated_twin_instance()]
    small = [generate("wheel", n) for n in (3, 4, 5, 11, 12)]
    small += [generate("stacked_triangulation", n, s) for n, s in ((8, 0), (12, 1))]
    small += [generate("random_planar", n, s) for n, s in ((10, 2), (12, 3))]
    return [(g, 12) for g in gadgets] + [(g, M) for g in small for M in (12, 13)]


def test_enumerators_find_every_occurrence_exactly_once():
    # an enumerator may prune only what its predicate would reject: the
    # occurrences it yields are all vertex tuples the predicate accepts
    hit = set()
    for g, M in _brute_force_cases():
        for kind, arity in ARITY.items():
            entry = reduction._CATALOGUE[kind]
            found = list(entry.occurrences(g, M))
            brute = {t for t in itertools.product(g.vertices, repeat=arity)
                     if entry.holds(g, M, *t)}
            assert len(found) == len(set(found)), (kind, g)
            assert set(found) == brute, (kind, g, M)
            if found:
                hit.add(kind)
                cfg = ReducibleConfig(kind, entry.data(*found[0]))
                assert config_holds(g, M, cfg)
    assert hit == set(ARITY)


def _brute_force(kind: str, g: Graph, M: int) -> list:
    """The field tuples the kind's predicate accepts among all edges, or
    among all hubs with a pair of neighbors and a far end of each, in the
    enumerators' scan order."""
    holds = reduction._CATALOGUE[kind].holds
    if kind == SPARSE_EDGE:
        tuples = g.edges()
    elif kind == LIGHT_EDGE:
        tuples = [(u, v, low) for u, v in g.edges() for low in (u, v)]
    else:
        tuples = [
            (v, x, y, xp, yp)
            for v in g.vertices
            for x, y in itertools.combinations(sorted(g.neighbors(v)), 2)
            for xp in sorted(g.neighbors(x)) for yp in sorted(g.neighbors(y))
        ]
    return [t for t in tuples if holds(g, M, *t)]


@pytest.mark.parametrize("kind", [SPARSE_EDGE, LIGHT_EDGE, TWO_DEG2])
def test_pruned_enumerators_yield_what_brute_force_accepts_in_order(kind):
    # these enumerators skip candidates by degree sums or by 2-vertices;
    # on graphs with 2-vertices they must still yield every occurrence,
    # and in the order of offering every tuple to the predicate
    graphs = [g for name, g, _ in acceptance_corpus()
              if name.startswith(("random", "cycle", "star"))]
    graphs += [_make_spider(), _make_c4()]
    bounds = (12,) if kind == TWO_DEG2 else (12, 14, 16)  # C6c reads no M
    hits = 0
    for g in graphs:
        for M in bounds:
            found = list(reduction._CATALOGUE[kind].occurrences(g, M))
            assert found == _brute_force(kind, g, M), (kind, g, M)
            hits += len(found)
    assert hits
