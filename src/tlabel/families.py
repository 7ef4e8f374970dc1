"""Deterministic generators for plane graph families.

Every generator returns a connected :class:`PlaneGraph`, built from its
rotations alone, whose rotation system is planar by construction.
Randomized families are driven entirely by an explicit seed, so the same
call always produces the same graph.

The random families are near-linear: ``stacked_triangulation`` picks each
admissible face through a Fenwick tree in O(log n), and ``random_planar``
tests each candidate deletion for a bridge with a union-find over the
faces.  Both return exactly the graphs that rescanning every face per
vertex, and copying the graph per deletion, gave for the same seed.
"""

from __future__ import annotations

import random
from typing import Optional

from .graphs import GraphError, PlaneGraph, edge_key


def cycle(n: int) -> PlaneGraph:
    """Cycle on vertices 0..n-1; two faces of degree n."""
    if n < 3:
        raise GraphError("cycle needs n >= 3, got %d" % n)
    rot = {i: ((i - 1) % n, (i + 1) % n) for i in range(n)}
    return PlaneGraph(rot, rot)


def star(n: int) -> PlaneGraph:
    """Star with center 0 and n leaves; a tree with a single face."""
    if n < 1:
        raise GraphError("star needs n >= 1, got %d" % n)
    rot = {0: tuple(range(1, n + 1))}
    for i in range(1, n + 1):
        rot[i] = (0,)
    return PlaneGraph(rot, rot)


def wheel(n: int) -> PlaneGraph:
    """Wheel with hub 0 and rim 1..n: n triangular faces plus the outer n-gon."""
    if n < 3:
        raise GraphError("wheel needs rim size n >= 3, got %d" % n)
    rot: dict[int, tuple[int, ...]] = {0: tuple(range(n, 0, -1))}
    for i in range(1, n + 1):
        nxt = i % n + 1
        prv = (i - 2) % n + 1
        rot[i] = (0, nxt, prv)
    return PlaneGraph(rot, rot)


class _Fenwick:
    """0/1 marks over slots 0..size-1: set or clear a mark, and find the
    k-th marked slot, each in O(log size) (Fenwick, 1994)."""

    __slots__ = ("_tree", "_top", "count")

    def __init__(self, size: int):
        self._tree = [0] * (size + 1)
        self._top = 1 << (size.bit_length() - 1) if size else 0
        self.count = 0

    def add(self, slot: int, delta: int) -> None:
        self.count += delta
        tree = self._tree
        i = slot + 1
        while i < len(tree):
            tree[i] += delta
            i += i & -i

    def kth(self, k: int) -> int:
        """The slot of the k-th mark, counting from 0 in slot order."""
        tree = self._tree
        pos, step = 0, self._top
        while step:
            nxt = pos + step
            if nxt < len(tree) and tree[nxt] <= k:
                pos = nxt
                k -= tree[nxt]
            step >>= 1
        return pos


def _stack(rot: dict[int, list[int]], face: tuple[int, int, int],
           w: int) -> tuple[tuple[int, int, int], ...]:
    # Subdivide the triangular face by a new vertex w joined to all three
    # corners; rotations are spliced so the three new triangles returned
    # are faces of the refined embedding.
    x, y, z = face
    for corner, before, after in ((x, z, y), (y, x, z), (z, y, x)):
        order = rot[corner]
        i = order.index(before)
        # the face successor sits right after its predecessor in the rotation
        assert order[(i + 1) % len(order)] == after
        order.insert(i + 1, w)
    rot[w] = [x, z, y]
    return (x, y, w), (y, z, w), (z, x, w)


def stacked_triangulation(n: int, seed: int = 0,
                          max_degree: Optional[int] = None) -> PlaneGraph:
    """Random stacked triangulation on n vertices, in O(n log n).

    Starts from a triangle and repeatedly places a new vertex inside a
    uniformly chosen triangular face.  When ``max_degree`` is given, faces
    with a saturated corner are never chosen, so the bound holds in the
    output by rejection.

    Faces get slots in creation order, and a Fenwick tree marks the slots
    of the faces that are still faces and have no saturated corner; the
    k-th marked slot is the k-th admissible face in the order a list with
    pop-and-append would keep them, so the same seed draws the same faces
    and gives the same graph as a rescan of every face per vertex would.
    """
    if n < 3:
        raise GraphError("stacked triangulation needs n >= 3, got %d" % n)
    if max_degree is not None and max_degree < (2 if n == 3 else 3):
        raise GraphError("max_degree %d is unreachably small" % max_degree)
    # no degree reaches n, so an absent cap never saturates a corner
    cap = n if max_degree is None else max_degree
    rng = random.Random(seed)
    rot: dict[int, list[int]] = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
    faces: list[tuple[int, int, int]] = []    # by slot
    slots: list[list[int]] = [[] for _ in range(n)]  # a vertex's faces
    marked = bytearray(2 + 3 * (n - 3))
    tree = _Fenwick(len(marked))

    def add_face(face: tuple[int, int, int]) -> None:
        slot = len(faces)
        faces.append(face)
        for c in face:
            slots[c].append(slot)
        if all(len(rot[c]) < cap for c in face):
            marked[slot] = 1
            tree.add(slot, 1)

    def unmark(slot: int) -> None:
        if marked[slot]:
            marked[slot] = 0
            tree.add(slot, -1)

    add_face((0, 1, 2))
    add_face((1, 0, 2))
    for w in range(3, n):
        if not tree.count:
            raise GraphError(
                "no face respects max_degree=%d after %d vertices"
                % (max_degree, w))
        slot = tree.kth(rng.randrange(tree.count))
        unmark(slot)
        new = _stack(rot, faces[slot], w)
        for c in faces[slot]:
            if len(rot[c]) == cap:
                for s in slots[c]:
                    unmark(s)
        for face in new:
            add_face(face)
    return PlaneGraph(rot, rot)


def random_planar(n: int, seed: int = 0, max_degree: Optional[int] = None,
                  drop: float = 0.25) -> PlaneGraph:
    """Random connected plane graph: a stacked triangulation thinned out.

    Builds ``stacked_triangulation(n, seed, max_degree)`` and then walks the
    edge list in random order, deleting each edge with probability ``drop``
    unless the deletion would disconnect the graph.

    An edge is a bridge exactly when both of its darts bound the same
    face.  The triangulation's faces are traced once and kept in a
    union-find: deleting an edge that is not a bridge merges its two faces,
    and a bridge is never deleted, so faces never split.  That makes the
    thinning near-linear, with the same output as deleting each edge from
    a copy of the graph and testing connectivity.
    """
    if not 0.0 <= drop < 1.0:
        raise GraphError("drop probability must be in [0, 1), got %r" % (drop,))
    g = stacked_triangulation(n, seed, max_degree)
    rng = random.Random("%d-thin" % seed)
    order = list(g.edges())
    rng.shuffle(order)
    face_of: dict[tuple[int, int], int] = {}
    for i, walk in enumerate(g.faces()):
        for j in range(len(walk)):
            face_of[walk[j - 1], walk[j]] = i
    parent = list(range(len(g.faces())))

    def find(f: int) -> int:
        while parent[f] != f:
            parent[f] = f = parent[parent[f]]
        return f

    gone: set[tuple[int, int]] = set()
    for u, v in order:
        if rng.random() >= drop:
            continue
        a, b = find(face_of[u, v]), find(face_of[v, u])
        if a != b:
            parent[a] = b
            gone.add((u, v))
    rot = {x: tuple(w for w in g.rotation(x) if edge_key(x, w) not in gone)
           for x in g.vertices}
    return PlaneGraph(rot, rot)


FAMILIES = {
    "cycle": cycle,
    "star": star,
    "wheel": wheel,
    "stacked_triangulation": stacked_triangulation,
    "random_planar": random_planar,
}


def generate(family: str, n: int, seed: int = 0,
             max_degree: Optional[int] = None) -> PlaneGraph:
    """Dispatch to a named family generator.

    The fixed families (cycle, star, wheel) ignore ``seed``; when
    ``max_degree`` is given and the graph they build exceeds it, the call
    raises :class:`GraphError` instead of returning it.
    """
    try:
        fn = FAMILIES[family]
    except KeyError:
        raise GraphError(
            "unknown family %r (choose from %s)" % (family, ", ".join(sorted(FAMILIES)))
        ) from None
    if family not in ("cycle", "star", "wheel"):
        return fn(n, seed, max_degree)
    g = fn(n)
    if max_degree is not None and g.max_degree > max_degree:
        raise GraphError("%s with n=%d has maximum degree %d > max_degree %d"
                         % (family, n, g.max_degree, max_degree))
    return g
