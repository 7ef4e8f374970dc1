"""Simple undirected graphs with optional combinatorial plane embeddings.

A plane embedding is carried as a rotation system: the cyclic order of the
neighbors around each vertex.  Faces are not input; they are derived by
tracing dart orbits and validated against Euler's formula, component by
component, so a rotation system that does not describe a plane embedding
is always caught at trace time rather than silently accepted.  A face is
its boundary walk, a plain tuple of vertices.  A plane graph keeps its
trace, or that the trace found it disconnected, and the components the
trace searched for, so the labeler's planarity gate, the labeler and the
auditor share one trace and one component search of a graph object.

The read queries live once, in :class:`BaseGraph`; the immutable graphs
here and the labeler's mutable working graph all answer through it.  The
constructors check what they are given; neighbor sets that are sound by
construction, such as the loader's, are adopted without a second check.
"""

from __future__ import annotations

from typing import Collection, Iterable, Mapping, Sequence


class GraphError(ValueError):
    """A construction or query violated a graph invariant."""


class DisconnectedError(GraphError):
    def __init__(self, components: Sequence[frozenset[int]]):
        self.components = tuple(components)
        sizes = sorted((len(c) for c in self.components), reverse=True)
        super().__init__(
            "graph is disconnected: %d components with sizes %s"
            % (len(self.components), sizes)
        )


class EmbeddingError(GraphError):
    """The rotation system does not describe a plane embedding."""


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Normalize an undirected edge to (min, max) form."""
    return (u, v) if u < v else (v, u)


def _edge_adjacency(edges: Iterable[tuple[int, int]],
                    vertices: Iterable[int]) -> dict[int, set[int]]:
    """The neighbor sets of an edge list of int pairs, which may not
    repeat an edge or hold a self-loop; the sets are symmetric, so
    :meth:`Graph._adopt` may take them unchecked."""
    adj: dict[int, set[int]] = {v: set() for v in map(int, vertices)}
    for u, v in edges:
        try:
            nu, nv = adj[u], adj[v]
        except KeyError:
            nu, nv = adj.setdefault(u, set()), adj.setdefault(v, set())
        if u == v:
            raise GraphError("self-loop (%d, %d)" % (u, v))
        if v in nu:
            raise GraphError("duplicate edge (%d, %d)" % edge_key(u, v))
        nu.add(v)
        nv.add(u)
    return adj


class BaseGraph:
    """The read queries over ``_adj``, each vertex's neighbors, and
    ``_rot``, each vertex's rotation or None without an embedding.

    On :class:`Graph` a vertex's neighbors are a frozenset and its
    rotation a tuple; the labeler's working graph keeps one list per
    vertex, its rotation when it has one, so there ``_rot`` is ``_adj``
    itself or None.  The queries never copy the maps, so a mutable
    subclass answers for its current state, and code that must serve
    both reads :meth:`neighbors` as an iterable."""

    __slots__ = ("_adj", "_rot")

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._adj))

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> Collection[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError("unknown vertex %r" % (v,)) from None

    def degree(self, v: int) -> int:
        try:
            return len(self._adj[v])
        except KeyError:
            raise GraphError("unknown vertex %r" % (v,)) from None

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(
            [(u, v) for u, ns in self._adj.items() for v in ns if u < v]))

    def rotation(self, v: int) -> Sequence[int]:
        """The cyclic order of v's neighbors in the embedding."""
        try:
            return self._rot[v]
        except KeyError:
            raise GraphError("unknown vertex %r" % (v,)) from None
        except TypeError:
            raise GraphError("the graph has no rotation system") from None

    def induced(self, keep: Iterable[int]) -> "Graph":
        """The subgraph on the vertices in keep, without an embedding;
        built from keep alone, so it costs O(|keep|) and not O(n)."""
        keep = set(keep)
        return Graph._adopt({v: keep.intersection(self.neighbors(v))
                             for v in keep})


class Graph(BaseGraph):
    """Immutable simple undirected graph on integer vertex ids.

    Vertex ids need not be contiguous: subgraph operations preserve the ids
    of the vertices they keep, which lets partial labelings transfer between
    a graph and its reductions without any translation step.
    """

    __slots__ = ()

    def __init__(self, adjacency: Mapping[int, Iterable[int]]):
        """Check adjacency: int ids, no self-loop, symmetric."""
        adj: dict[int, frozenset[int]] = {}
        for v, nbrs in adjacency.items():
            ns = frozenset(map(int, nbrs))
            v = int(v)
            if v in ns:
                raise GraphError("self-loop at vertex %d" % v)
            adj[v] = ns
        for v, ns in adj.items():
            for w in ns:
                if v not in adj.get(w, ()):
                    raise GraphError("asymmetric adjacency on edge (%d, %d)" % (v, w))
        self._adj = adj
        self._rot = None

    @classmethod
    def _adopt(cls, adjacency: Mapping[int, Iterable[int]]) -> "Graph":
        """A graph over adjacency as it is, trusted to hold what the
        constructor checks (int ids, no self-loop, symmetric) and not
        checked again.  Each neighbor set is frozen from an iterator, as
        the constructor freezes it, so it iterates in the same order;
        ``frozenset`` of a set may lay its table out otherwise."""
        g = cls.__new__(cls)
        g._adj = {v: frozenset(iter(ns)) for v, ns in adjacency.items()}
        g._rot = None
        return g

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], vertices: Iterable[int] = ()) -> "Graph":
        pairs = ((int(u), int(v)) for u, v in edges)
        return cls._adopt(_edge_adjacency(pairs, vertices))

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2

    @property
    def max_degree(self) -> int:
        return max((len(ns) for ns in self._adj.values()), default=0)

    # -- connectivity ------------------------------------------------------

    def components(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        comps = []
        for start in sorted(self._adj):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for w in self._adj[v]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self):  # immutable by convention
        return hash(tuple(sorted((v, ns) for v, ns in self._adj.items())))

    def __repr__(self) -> str:
        return "Graph(n=%d, m=%d)" % (self.n, self.m)


class PlaneGraph(Graph):
    """A graph together with a rotation system describing its embedding.

    The rotation at a vertex is the cyclic sequence of its neighbors.  The
    constructors check only that each rotation lists exactly the incident
    edges (:func:`_rotation_tuples`), so building one traces nothing;
    whether the rotations are plane is decided by :func:`trace_faces`, for
    every component at once, the first time :meth:`faces` is asked for.
    """

    __slots__ = ("_faces", "_comps", "_deg")

    def __init__(self, adjacency, rotation: Mapping[int, Sequence[int]]):
        super().__init__(adjacency)
        self._rot = _rotation_tuples(self._adj, rotation, _int_tuple)
        self._faces = None
        self._comps = None
        self._deg = None

    @classmethod
    def _adopt(cls, adjacency, rotation: Mapping[int, Sequence[int]]) -> "PlaneGraph":
        """:meth:`Graph._adopt` with rotations of int entries, which are
        checked against the adjacency as the constructor checks them."""
        g = super()._adopt(adjacency)
        g._rot = _rotation_tuples(g._adj, rotation)
        g._faces = None
        g._comps = None
        g._deg = None
        return g

    def components(self) -> list[frozenset[int]]:
        """:meth:`Graph.components`, searched once per graph and kept, so
        the face trace's search also serves the labeler."""
        if self._comps is None:
            self._comps = tuple(super().components())
        return list(self._comps)

    def degrees(self) -> dict[int, int]:
        """Each vertex's degree, vertices ascending, built once per graph
        and kept, so the auditor's passes share one map; read it only."""
        if self._deg is None:
            adj = self._adj
            self._deg = {v: len(adj[v]) for v in self.vertices}
        return self._deg

    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The faces of :func:`trace_faces`, traced once per graph.  A
        plane graph with several components raises DisconnectedError on
        every call, from its one trace."""
        if self._faces is None:
            try:
                self._faces = trace_faces(self)
            except DisconnectedError:
                self._faces = ()  # plane; a traced plane graph has a face
        if not self._faces:
            raise DisconnectedError(self._comps)
        return self._faces

    def __repr__(self) -> str:
        return "PlaneGraph(n=%d, m=%d)" % (self.n, self.m)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PlaneGraph)
            and self._adj == other._adj
            and self._rot == other._rot
        )

    def __hash__(self):
        return hash((super().__hash__(), tuple(sorted(self._rot.items()))))


def _int_tuple(order: Iterable) -> tuple[int, ...]:
    return tuple(map(int, order))


def _rotation_tuples(adj: Mapping[int, frozenset[int]],
                     rotation: Mapping[int, Iterable[int]],
                     as_tuple=tuple) -> dict[int, tuple[int, ...]]:
    """Each vertex's rotation made a tuple by as_tuple, in adj's order,
    checked to list exactly the vertex's neighbors; no rotation may name
    a vertex adj does not have.  The one rotation check of both PlaneGraph
    constructors; an error names the first rule broken."""
    rot: dict[int, tuple[int, ...]] = {}
    for v, ns in adj.items():
        try:
            order = as_tuple(rotation[v])
        except KeyError:
            raise GraphError("vertex %d has no rotation" % v) from None
        if len(order) != len(ns) or ns != set(order):  # name the rule broken
            listed = set(order)
            if len(listed) != len(order):
                raise GraphError("rotation at %d repeats a neighbor" % v)
            if listed - ns:
                raise GraphError("rotation at %d lists non-edges %s" % (v, sorted(listed - ns)))
            raise GraphError("rotation at %d misses neighbors %s" % (v, sorted(ns - listed)))
        rot[v] = order
    if len(rotation) != len(rot):
        for v in rotation:
            if int(v) not in adj:
                raise GraphError("rotation for unknown vertex %r" % (v,))
    return rot


def trace_faces(g: PlaneGraph) -> tuple[tuple[int, ...], ...]:
    """Partition the darts of ``g`` into face boundary walks.

    A face is the tuple of the tails of its darts in traversal order, one
    entry per dart, so its length is the face degree.  A cut edge puts both
    of its darts on the same face and is therefore counted twice, e.g. the
    single face of the path a-b-c is (a, b, c, b), of degree 4.

    The dart (u, v) is followed on its face by (v, w), w the neighbor after
    u in the rotation at v.  Each vertex v has one successor map, from u to
    that w, and a walk pops each dart it visits from its head's map, so no
    dart is built as a key; walks start in sorted dart order, so the faces
    come in the order of their least darts, after one empty face
    ``()`` for each isolated vertex.  Every component is traced.  Each
    component has V - E + F <= 2, with equality exactly when its rotations
    are plane, so g is plane exactly when the sum is 2 per component;
    otherwise, and for the empty graph, EmbeddingError is raised.  Only
    after that does a plane graph with several components raise
    :class:`DisconnectedError`.
    """
    comps = g.components()

    rot = g._rot
    # succ[v][u] = w for the dart (u, v)
    succ = {v: dict(zip(order, order[1:] + order[:1]))
            for v, order in rot.items()}

    faces: list[tuple[int, ...]] = [() for c in comps if len(c) == 1]
    for u in sorted(rot):  # walks start in sorted dart order
        for v in sorted(rot[u]):
            w = succ[v].pop(u, None)
            if w is None:  # the dart lies on a face already traced
                continue
            walk = [u]
            a, b = v, w
            while a != u or b != v:  # until back at the dart (u, v)
                walk.append(a)
                a, b = b, succ[b].pop(a)
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
