"""Hand-built plane graphs used across the test modules.

Each constructor documents the degrees it produces; rotations are chosen
so the central triangle is a face of the embedding (the two corners that
precede everything else in each corner's rotation close the cycle).
The triangulations are read off their faces by ``_from_faces``.
"""

from __future__ import annotations

from tlabel.graphs import PlaneGraph


def leaf_triangle(d0: int, d1: int, d2: int) -> PlaneGraph:
    """Triangle 0-1-2 padded with leaves so the corners reach d0, d1, d2.

    Leaves of corner i are numbered (i+1)*100, (i+1)*100+1, ...  The
    embedding has exactly two faces: the triangle and the outside.
    """
    adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
    rot = {0: [2, 1], 1: [0, 2], 2: [1, 0]}
    for corner, want in ((0, d0), (1, d1), (2, d2)):
        for j in range(want - 2):
            leaf = (corner + 1) * 100 + j
            adj[corner].add(leaf)
            rot[corner].append(leaf)
            adj[leaf] = {corner}
            rot[leaf] = [corner]
    return PlaneGraph(adj, rot)


def special_face_with_mate() -> PlaneGraph:
    """Triangle face with corner degrees (5, 6, 7) and an outside
    degree-6 neighbor of the 5-corner (vertex 10)."""
    g = leaf_triangle(5, 6, 7)
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    rot = {v: list(g.rotation(v)) for v in g.vertices}
    # swap leaf 100 for a degree-6 mate, keeping the corner degree at 5
    adj[0].remove(100)
    adj[0].add(10)
    rot[0][rot[0].index(100)] = 10
    del adj[100], rot[100]
    adj[10] = {0}
    rot[10] = [0]
    for j in range(5):
        leaf = 400 + j
        adj[10].add(leaf)
        rot[10].append(leaf)
        adj[leaf] = {10}
        rot[leaf] = [10]
    return PlaneGraph(adj, rot)


def c4() -> PlaneGraph:
    """The 4-cycle 0-2-1-3: hub 0 has two 2-neighbors sharing far end 1."""
    rot = {0: (2, 3), 1: (2, 3), 2: (0, 1), 3: (0, 1)}
    return PlaneGraph({v: set(r) for v, r in rot.items()}, rot)


def spider() -> PlaneGraph:
    """Paths 0-1-2 and 0-3-4: hub 0 has two 2-neighbors with distinct,
    non-adjacent far ends."""
    rot = {0: (1, 3), 1: (0, 2), 2: (1,), 3: (0, 4), 4: (3,)}
    return PlaneGraph({v: set(r) for v, r in rot.items()}, rot)


def octahedron() -> PlaneGraph:
    """The 4-regular triangulation on six vertices; eight 3-faces."""
    rot = {
        0: (1, 2, 3, 4),
        1: (0, 4, 5, 2),
        2: (0, 1, 5, 3),
        3: (0, 2, 5, 4),
        4: (0, 3, 5, 1),
        5: (1, 4, 3, 2),
    }
    return PlaneGraph({v: set(r) for v, r in rot.items()}, rot)


def pinned_twin_instance():
    """A graph, config, and child labeling that force the color trade.

    Hub 0 has degree 12, twins 2 and 3 have degree 2, and the child
    labeling pins both restored hub edges to the single color 14 until
    the apex edge colors are exchanged.
    """
    adj = {
        0: {1, 2, 3} | set(range(10, 19)),
        1: {0, 2, 10},
        2: {0, 1},
        3: {0, 4},
        4: {3},
        10: {0, 1},
    }
    # rotations close (0, 1, 2) into a triangle face of the embedding
    rot = {
        0: [1, 2, 3] + list(range(10, 19)),
        1: [2, 0, 10],
        2: [0, 1],
        3: [0, 4],
        4: [3],
        10: [0, 1],
    }
    for leaf in range(11, 19):
        adj[leaf] = {0}
        rot[leaf] = [0]
    g = PlaneGraph(adj, rot)

    pad_colors = [0, 1, 3, 4, 5, 9, 10, 11, 12]
    work = {0: 7, 1: 0, 2: 2, 3: 2, 4: 0, (0, 1): 2, (1, 2): 13, (3, 4): 13,
            (1, 10): 9}
    for leaf, c in zip(range(10, 19), pad_colors):
        work[(0, leaf)] = c
        work[leaf] = 14
    return g, work


def disjoint_union(*parts: PlaneGraph, stride: int = 100) -> PlaneGraph:
    """The parts side by side; vertex v of part i becomes i * stride + v."""
    adj: dict[int, set[int]] = {}
    rot: dict[int, list[int]] = {}
    for i, part in enumerate(parts):
        shift = i * stride
        for v in part.vertices:
            adj[v + shift] = {w + shift for w in part.neighbors(v)}
            rot[v + shift] = [w + shift for w in part.rotation(v)]
    return PlaneGraph(adj, rot)


def with_isolated_vertex(g: PlaneGraph) -> PlaneGraph:
    """g beside one isolated vertex, numbered 100: a disconnected graph
    whose rotation system is plane exactly when g's is."""
    return disjoint_union(g, PlaneGraph({0: set()}, {0: ()}))


def separated_twin_instance() -> PlaneGraph:
    """Twins on a triangle that is not a face.

    Hub 0 has degree 11, so at bound 12 its neighbors of degree 3 are
    twins: 1 and 3.  Apex 2 closes the triangle 0-1-2, but the leaf 5 of
    twin 1 sits inside that triangle and the hub's leaves 10..17 outside,
    so neither orientation of the triangle bounds a face.
    """
    rot = {
        0: [1, 2, 3] + list(range(10, 18)),
        1: [2, 5, 0],
        2: [0, 1],
        3: [30, 31, 0],
        5: [1],
        30: [3],
        31: [3],
    }
    for leaf in range(10, 18):
        rot[leaf] = [0]
    return PlaneGraph({v: set(r) for v, r in rot.items()}, rot)


def master_ladder(length: int) -> PlaneGraph:
    """Masters 0..length on a cycle, client length+1+i on the outside of
    the cycle edge (i, i+1), and a pendant vertex 2*length+1 inside at
    master 0: 2*length+2 vertices of degree at most 4.

    At budget 2 the clients take masters 0..length-1 in turn, so the
    pendant's only master is free only at the end of an augmenting path
    through every client.
    """
    masters = length + 1
    pendant = 2 * length + 1
    rot = {pendant: [0]}
    for i in range(masters):
        inside = [pendant] if i == 0 else []
        outside = [length + j for j in (i, i + 1) if 1 <= j <= length]
        rot[i] = [(i + 1) % masters, *inside, (i - 1) % masters, *outside]
    for i in range(length):
        rot[length + 1 + i] = [i, i + 1]
    return PlaneGraph({v: set(r) for v, r in rot.items()}, rot)


def _from_faces(faces) -> PlaneGraph:
    """The triangulation whose faces are the given triangles, each listed
    a -> b -> c in one common orientation, so that every dart lies on
    exactly one of them.

    Face tracing follows the dart (a, b) with (b, s_b(a)), so the face
    a -> b -> c sets s_b(a) = c, s_c(b) = a and s_a(c) = b; each rotation
    is read off by following these successors around its vertex.
    """
    succ: dict[int, dict[int, int]] = {}
    for a, b, c in faces:
        for at, prev, nxt in ((b, a, c), (c, b, a), (a, c, b)):
            assert prev not in succ.setdefault(at, {}), "dart on two faces"
            succ[at][prev] = nxt
    rot = {}
    for v, s in succ.items():
        order = [min(s)]
        while s[order[-1]] != order[0]:
            order.append(s[order[-1]])
        assert len(order) == len(s), "rotation is not one cycle"
        rot[v] = order
    return PlaneGraph({v: set(r) for v, r in rot.items()}, rot)


def triakis_tetrahedron() -> PlaneGraph:
    """The tetrahedron 0..3 with a vertex 4..7 inside each face, joined to
    its three corners: 8 vertices and 18 edges, four 3-vertices each on
    three 6-vertices.  At bound 9 it has no reducible structure."""
    faces = ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))
    return _from_faces(
        t for x, (a, b, c) in enumerate(faces, start=4)
        for t in ((a, b, x), (b, c, x), (c, a, x)))


def geodesic_sphere() -> PlaneGraph:
    """The frequency-2 subdivision of the icosahedron: its 12 vertices
    keep degree 5, and a vertex in the middle of each of its 30 edges has
    degree 6, so 42 vertices, 120 edges and 80 triangle faces.

    The icosahedron has apex 0, upper ring 1..5, lower ring 6..10 and
    nadir 11; lower vertex 6 + i sits below the gap between upper
    vertices 1 + i and 1 + (i + 1) % 5.  Each face a -> b -> c splits into
    four faces on the midpoints of its sides, numbered 12 and up in the
    order the sides first appear.
    """
    ico = []
    for i in range(5):
        u, u1 = 1 + i, 1 + (i + 1) % 5
        lo, lo1 = 6 + i, 6 + (i + 1) % 5
        ico += [(0, u, u1), (u1, u, lo), (u1, lo, lo1), (11, lo1, lo)]
    mid: dict[tuple[int, int], int] = {}

    def m(a: int, b: int) -> int:
        return mid.setdefault((min(a, b), max(a, b)), 12 + len(mid))

    faces = []
    for a, b, c in ico:
        ab, bc, ca = m(a, b), m(b, c), m(c, a)
        faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    return _from_faces(faces)


def toroidal_k7() -> PlaneGraph:
    """K7 embedded on the torus: the rotation at vertex i is i+1, i+3,
    i+2, i+6, i+4, i+5 (mod 7), which traces 14 triangles, so
    V - E + F = 7 - 21 + 14 = 0.  Every vertex has degree 6, so at bound
    12 no structure is reducible."""
    rot = {i: [(i + d) % 7 for d in (1, 3, 2, 6, 4, 5)] for i in range(7)}
    return PlaneGraph({v: set(r) for v, r in rot.items()}, rot)


def one_face_k33() -> PlaneGraph:
    """K3,3 on sides 0..2 and 3..5 with a rotation system tracing a single
    face of degree 18, so V - E + F = 6 - 9 + 1 = -2.  Its 3-vertices make
    every edge sparse at bound 12."""
    rot = {v: [3, 4, 5] for v in (0, 1, 2)}
    rot.update({3: [0, 1, 2], 4: [0, 1, 2], 5: [2, 1, 0]})
    return PlaneGraph({v: set(r) for v, r in rot.items()}, rot)
