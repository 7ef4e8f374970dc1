"""Graph containers, rotation systems, and face tracing."""

from __future__ import annotations

import random
from itertools import repeat

import pytest

from corpus import digest_graphs
from gadgets import (
    disjoint_union,
    octahedron,
    one_face_k33,
    toroidal_k7,
    with_isolated_vertex,
)
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
from tlabel.reduction import _WorkGraph


def _make_k4() -> PlaneGraph:
    rot = {0: (1, 2, 3), 1: (2, 0, 3), 2: (0, 1, 3), 3: (0, 2, 1)}
    return PlaneGraph({v: set(r) for v, r in rot.items()}, rot)


def _make_path3() -> PlaneGraph:
    rot = {0: (1,), 1: (0, 2), 2: (1,)}
    return PlaneGraph({0: {1}, 1: {0, 2}, 2: {1}}, rot)


def test_graph_basics():
    g = Graph.from_edges([(0, 1), (1, 2)], vertices=range(4))
    assert g.n == 4 and g.m == 2
    assert g.degree(1) == 2 and g.degree(3) == 0
    assert g.neighbors(0) == frozenset({1})
    assert g.has_edge(2, 1) and not g.has_edge(0, 2)
    assert g.edges() == ((0, 1), (1, 2))
    assert 3 in g and 9 not in g
    with pytest.raises(GraphError):
        g.neighbors(9)


def test_edge_key_normalizes():
    assert edge_key(5, 2) == (2, 5)
    assert edge_key(2, 5) == (2, 5)


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        Graph.from_edges([(1, 1)])


def test_k4_has_four_triangular_faces():
    g = _make_k4()
    faces = g.faces()
    assert len(faces) == 4
    assert sorted(map(len, faces)) == [3, 3, 3, 3]
    assert sum(map(len, faces)) == 2 * g.m


def test_path_has_one_face_of_degree_four():
    g = _make_path3()
    faces = g.faces()
    assert len(faces) == 1
    assert len(faces[0]) == 4


def test_wheel_faces():
    g = generate("wheel", 12)
    faces = g.faces()
    assert len(faces) == 13
    assert sorted(map(len, faces)) == [3] * 12 + [12]


def test_single_vertex_face():
    g = PlaneGraph({0: set()}, {0: ()})
    faces = g.faces()
    assert len(faces) == 1 and len(faces[0]) == 0


def test_trace_faces_rejects_disconnected():
    g = PlaneGraph({0: {1}, 1: {0}, 2: {3}, 3: {2}},
                   {0: (1,), 1: (0,), 2: (3,), 3: (2,)})
    with pytest.raises(DisconnectedError):
        trace_faces(g)


@pytest.mark.parametrize("make", [
    toroidal_k7, one_face_k33,
    # Euler's formula is checked per component before connectivity, so a
    # non-plane component is never reported as merely disconnected
    pytest.param(lambda: with_isolated_vertex(toroidal_k7()), id="k7+k1"),
    pytest.param(lambda: with_isolated_vertex(one_face_k33()), id="k33+k1"),
])
def test_trace_faces_rejects_a_nonplane_rotation_system(make):
    with pytest.raises(EmbeddingError, match="not planar"):
        trace_faces(make())


def test_trace_faces_on_isolated_vertices_and_plane_components():
    two_points = PlaneGraph({0: set(), 1: set()}, {0: (), 1: ()})
    for g in (two_points, disjoint_union(octahedron(), octahedron())):
        with pytest.raises(DisconnectedError):
            trace_faces(g)
    assert trace_faces(PlaneGraph({0: set()}, {0: ()})) == ((),)
    with pytest.raises(EmbeddingError, match="not planar"):
        trace_faces(PlaneGraph({}, {}))


def test_faces_come_in_least_dart_order_whatever_the_vertex_order():
    # face indices key the charge ledger, so they may not depend on the
    # order in which the rotation system lists its vertices
    g = generate("random_planar", 40, seed=3)
    backwards = g.vertices[::-1]
    h = PlaneGraph({v: g.neighbors(v) for v in backwards},
                   {v: g.rotation(v) for v in backwards})
    assert h.faces() == g.faces()
    firsts = []
    for f in g.faces():
        darts = list(zip(f, f[1:] + f[:1]))
        assert darts[0] == min(darts)
        firsts.append(darts[0])
    assert firsts == sorted(firsts)


def _dart_map_trace_faces(g: PlaneGraph) -> tuple:
    """trace_faces as it was written before each vertex kept one successor
    map: one map from each dart (u, v) to w, popped by tuple key."""
    comps = g.components()

    nxt: dict[tuple[int, int], int] = {}  # dart (u, v) -> w
    for v, order in g._rot.items():
        nxt.update(zip(zip(order, repeat(v)), order[1:] + order[:1]))

    faces: list[tuple[int, ...]] = [() for c in comps if len(c) == 1]
    for u in sorted(g._rot):  # walks start in sorted dart order
        for v in sorted(g._rot[u]):
            w = nxt.pop((u, v), None)
            if w is None:  # the dart lies on a face already traced
                continue
            walk = [u]
            a, b = v, w
            while a != u or b != v:  # until back at the dart (u, v)
                walk.append(a)
                a, b = b, nxt.pop((a, b))
            faces.append(tuple(walk))

    euler = g.n - g.m + len(faces)
    plane = 2 * max(len(comps), 1)  # the empty graph is not plane
    if euler != plane:
        raise EmbeddingError(
            "rotation system is not planar: V-E+F = %d-%d+%d = %d on %d "
            "component(s), where a plane embedding has %d"
            % (g.n, g.m, len(faces), euler, len(comps), plane)
        )
    if len(comps) > 1:
        raise DisconnectedError(comps)
    return tuple(faces)


def _traced(trace, g: PlaneGraph):
    """trace(g)'s faces, or for a graph it rejects, the error's type and
    message and the faces it had traced when it raised."""
    try:
        return trace(g)
    except GraphError as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        return type(exc), str(exc), tb.tb_frame.f_locals["faces"]


def test_successor_maps_trace_the_faces_of_the_dart_map():
    disconnected = disjoint_union(octahedron(), generate("wheel", 5),
                                  PlaneGraph({0: set()}, {0: ()}))
    graphs = list(digest_graphs())
    graphs += [generate("cycle", 5), generate("star", 5), disconnected]
    for bad in (toroidal_k7(), one_face_k33()):
        graphs += [bad, with_isolated_vertex(bad)]
    outcomes = []
    for g in graphs:
        outcome = _traced(trace_faces, g)
        assert outcome == _traced(_dart_map_trace_faces, g), g
        outcomes.append(outcome[0] if isinstance(outcome[0], type) else None)
    # every rejection is compared, faces traced before it included
    assert outcomes[-5:] == [DisconnectedError] + [EmbeddingError] * 4
    assert _traced(trace_faces, disconnected)[2]


def test_rotation_must_match_adjacency():
    with pytest.raises((GraphError, EmbeddingError)):
        PlaneGraph({0: {1}, 1: {0}}, {0: (1,), 1: ()})


def test_euler_formula_across_families():
    rng = random.Random(11)
    for _ in range(25):
        fam = rng.choice(["wheel", "cycle", "star", "stacked_triangulation",
                          "random_planar"])
        n = rng.randint(4, 60)
        g = generate(fam, n, seed=rng.randint(0, 999))
        f = len(g.faces())
        assert g.n - g.m + f == 2
        assert sum(map(len, g.faces())) == 2 * g.m


def test_induced():
    g = generate("wheel", 6)
    sub = g.induced(frozenset({0, 1, 2}))
    assert sorted(sub.vertices) == [0, 1, 2]
    assert sub.has_edge(0, 1) and sub.has_edge(1, 2)
    # the subgraph of a plane graph carries no embedding
    assert type(sub) is Graph
    with pytest.raises(GraphError, match="unknown vertex 99"):
        g.induced({0, 1, 99})


def _dropped_vertex_work_graph():
    w = _WorkGraph(generate("wheel", 6))
    w.drop(3, [])  # cuts the edges at 3, then detaches it
    return w


@pytest.mark.parametrize("make, gone", [
    (lambda: Graph.from_edges([(0, 1), (1, 2)]), 99),
    (lambda: generate("wheel", 6), 99),
    (_dropped_vertex_work_graph, 3),
], ids=["graph", "plane", "work-after-detach"])
def test_degree_of_an_unknown_vertex_raises(make, gone):
    g = make()
    with pytest.raises(GraphError, match="unknown vertex %d" % gone):
        g.degree(gone)
    assert g.degree(1) == len(g.neighbors(1))


def test_components_and_connectivity():
    g = Graph.from_edges([(0, 1), (2, 3)], vertices=range(5))
    assert not g.is_connected()
    sizes = sorted(len(c) for c in g.components())
    assert sizes == [1, 2, 2]
    assert generate("cycle", 9).is_connected()


def test_generate_respects_max_degree():
    for seed in range(6):
        g = generate("random_planar", 50, seed=seed, max_degree=9)
        assert g.max_degree <= 9
        g2 = generate("stacked_triangulation", 40, seed=seed, max_degree=12)
        assert g2.max_degree <= 12


def test_generate_is_deterministic():
    a = generate("random_planar", 30, seed=4)
    b = generate("random_planar", 30, seed=4)
    assert a.edges() == b.edges()
    assert all(a.rotation(v) == b.rotation(v) for v in a.vertices)


def test_generate_unknown_family():
    with pytest.raises(GraphError):
        generate("moebius", 10)
