"""Constructive span-bounded total labeling of plane graphs.

Every plane graph whose maximum degree is at most a bound M >= 12 admits a
(2,1)-total labeling with colors {0..M+2}.  This module makes that bound
effective: it repeatedly locates one of a fixed menu of reducible
structures, shrinks the graph across it, labels the remainder, and extends
the labeling back while logging how much slack each coloring step actually
had against its guaranteed minimum.

:func:`label_planar` checks the guarantee's terms and runs the engine,
``_label``, which checks no bound and so also runs below 12.

The menu is one catalogue, ``_CATALOGUE``, in the kind order
``KIND_ORDER``: for each kind a predicate over plain fields, an enumerator
of candidates in scan order, a reducer, an extender and the code the audit
reports it under.  The finders, the labeler's scan, :func:`config_holds`
and :func:`tlabel.discharge.scan_structure` all read that one table, so
each condition is written once.

The labeler edits one ``_WorkGraph``, a :class:`~tlabel.graphs.BaseGraph`
like the immutable graphs, so predicates, availability and validation read
it through the same queries.  It keeps one neighbor list per vertex, the
rotation on a plane graph.  Each event's undo log is one flat list with
four entries per edit, the vertex, the slot, what left it and what took
it, so an event at a vertex of any degree logs O(1) per edit, and undoing
is one replay of the list from its end back to its start.
Each extender reads the restored graph, the working labeling, the
interval and the record from the one ``_Extension`` of the backward loop,
whose methods are the coloring steps the extenders share and take
normalized keys.  The lemmas' bounds on an element's free colors, which
the steps record as required, are one count, ``need``: the interval's
size less the colors its colored neighbors and incident elements bar, so
no extender reads M or the gap d.  ``put`` and ``lift`` are the only
writes to the working labeling, and they keep each vertex's mask of its
edge colors, so ``available`` reads an edge's free colors off two masks
and a vertex's off its mask and its neighbors' colors, as an int mask
whose least color and count are two int operations; ``color_least``
gives one element its smallest free color, ``fit_pair`` tries colors on
one element until a second still has one, ``list_color`` colors a set of
edges from their lists, and ``fail`` records an assignment that found no
color and raises.
``_refit_face_edges`` moves a third edge out of a pinned face pair's way.
The public availability functions and :func:`~tlabel.labeling.validate`
read the labeling alone, so the final check shares nothing with this path.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from contextlib import suppress
from dataclasses import dataclass, field
from typing import (Callable, Iterator, Mapping, NamedTuple, NoReturn,
                    Optional)

from .exact import find_labeling
from .graphs import (BaseGraph, DisconnectedError, Graph, GraphError,
                     PlaneGraph, edge_key)
from .labeling import (
    ColorInterval,
    Element,
    PartialLabeling,
    _free_mask,
    available_edge,
    available_edge_mask,
    available_vertex_mask,
    mask_colors,
    validate,
    working_interval,
)
from .listcolor import ListColorError, ListSizeError, list_edge_color

SPARSE_EDGE = "sparse_edge"
LIGHT_EDGE = "light_edge"
DEG4_LOW_NEIGHBOR = "deg4_low_neighbor"
TWO_DEG2 = "two_deg2"
TWIN_LOW_NEIGHBOR = "twin_low_neighbor"
FACE_566 = "face_566"
FACE_567 = "face_567"
ALTERNATOR = "alternator"

# A connected graph of at most this many vertices and edges is a base case.
BASE_ELEMENT_LIMIT = 12

# A vertex of degree d lies in a component of at least d + 1 vertices and
# d edges, so no base case has a vertex of higher degree than this, 5.
# Separate vertex and edge colorings spread d-1 apart then fit inside any
# working interval with M >= 12, so the exact searcher is sure to succeed.
_BASE_MAX_DEGREE = (BASE_ELEMENT_LIMIT - 1) // 2


class IrreducibleError(RuntimeError):
    """No reducible structure was found where one is guaranteed."""

    def __init__(self, g: Graph, bound: int):
        self.graph = g
        self.bound = bound
        super().__init__(
            "no reducible structure in a graph with %d vertices, %d edges "
            "under bound %d" % (g.n, g.m, bound)
        )


class ExtensionError(RuntimeError):
    """An extension step found no legal color where one is guaranteed."""


@dataclass(frozen=True)
class ReducibleConfig:
    """One located occurrence of a reducible structure."""

    kind: str
    data: Mapping[str, object]

    def __getitem__(self, key: str):
        return self.data[key]


class TraceStep(NamedTuple):
    """One extension action with its measured and guaranteed slack."""

    action: str  # "assign", "transfer", "recolor", "erase", "check", "list"
    element: Element
    color: Optional[int]
    measured: int
    required: int

    @property
    def ok(self) -> bool:
        return self.measured >= self.required


@dataclass
class ReductionRecord:
    """The steps taken to extend a labeling across one structure."""

    kind: str
    steps: list = field(default_factory=list)

    def add(self, action: str, element: Element, color: Optional[int],
            measured: int, required: int) -> None:
        """Append one step; an edge element must already be normalized."""
        self.steps.append(TraceStep(action, element, color, measured, required))


@dataclass
class ExtensionTrace:
    """Everything that happened while building one labeling.

    Records appear in extension order, innermost reduction first.
    ``base_cases`` counts the small components labeled by exact search and
    ``splits`` those among them that a reduction cut loose (see
    ``_label``).
    """

    max_degree_bound: int
    records: list = field(default_factory=list)
    base_cases: int = 0
    splits: int = 0

    def steps(self) -> Iterator[TraceStep]:
        for rec in self.records:
            yield from rec.steps

    def shortfalls(self) -> list[TraceStep]:
        return [s for s in self.steps() if not s.ok]

    def ok(self) -> bool:
        return not self.shortfalls()

    def kind_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in self.records:
            out[rec.kind] = out.get(rec.kind, 0) + 1
        return out


# ---------------------------------------------------------------------------
# configurations
#
# Each kind is a predicate over plain fields (vertices, and for the
# alternator its budget and sides) plus an enumerator of candidate field
# tuples in scan order.  An enumerator prunes only what the predicate rejects,
# by degrees, degree sums, 2-neighbors or triangle-face membership, so the
# predicate alone decides what is an occurrence; each has one field tuple.
# Light edges are read from their low ends, and the face kinds test a
# 5-corner's rotation pair only when the pair's degrees can pass.
# Predicates, enumerators and cites bind adj = g._adj once per call and
# read a degree as len(adj[v]), a list on the working graph and a frozenset
# on Graph, so a vertex g lacks raises KeyError, which config_holds reads as
# no occurrence.  The labeler's edge heap calls no predicate (see
# _label): sparse and light edges wait in one heap of (rank, u, v), rank 0
# sparse before rank 1 light.  The edge predicates test the edge first, so
# that config_holds rejects an edge whose ends may be gone, such as a
# stale entry that deep_check judges.  A face kind finds no face on a
# graph without rotations.


def _sparse_sum(M: int) -> int:
    """The largest end-degree sum of a sparse edge under bound M."""
    return M - 2


def _light_sum(M: int) -> int:
    """The largest end-degree sum of a light edge under bound M."""
    return M + 1


def _light_cap(M: int) -> int:
    """The largest degree of a light edge's low end under bound M."""
    return (M + 2) // 4


def _sparse_edge(g: Graph, M: int, u: int, v: int) -> bool:
    if not (u < v and g.has_edge(u, v)):  # the ends may be gone
        return False
    adj = g._adj
    return len(adj[u]) + len(adj[v]) <= _sparse_sum(M)


def _light_end(g: Graph, M: int, u: int, v: int) -> Optional[int]:
    """The low end of a light edge uv, the first end light enough, or None
    when uv is not a light edge."""
    if not g.has_edge(u, v):  # the ends may be gone
        return None
    adj = g._adj
    du, dv = len(adj[u]), len(adj[v])
    if du + dv > _light_sum(M):
        return None
    cap = _light_cap(M)
    if du <= cap:
        return u
    if dv <= cap:
        return v
    return None


def _light_edge(g: Graph, M: int, u: int, v: int, low: int) -> bool:
    return u < v and low == _light_end(g, M, u, v)


def _edges_summing_at_most(g: BaseGraph, total: int) -> list[tuple[int, int]]:
    """The edges of g, in order, whose end degrees sum to at most total;
    one pass over the adjacency, and only those edges are sorted."""
    adj = g._adj
    return sorted([(u, v) for u, ns in adj.items() if len(ns) < total
                   for v in ns if u < v and len(ns) + len(adj[v]) <= total])


def _light_candidates(g: Graph, M: int) -> list[tuple]:
    """(u, v, low) for each edge uv, u < v, within the light sum and each
    end low of degree at most ``_light_cap(M)``, read from the low ends
    and sorted: by edge, u before v as the low end."""
    adj = g._adj
    cap, total = _light_cap(M), _light_sum(M)
    return sorted([(low, v, low) if low < v else (v, low, low)
                   for low, ns in adj.items() if len(ns) <= cap
                   for v in ns if len(ns) + len(adj[v]) <= total])


def _deg4_low_neighbor(g: Graph, M: int, center: int, other: int) -> bool:
    adj = g._adj
    return (len(adj[center]) == 4 and g.has_edge(center, other)
            and len(adj[other]) <= 7)


def _deg4_candidates(g: Graph, M: int) -> Iterator[tuple]:
    adj = g._adj
    for u in sorted([u for u, ns in adj.items() if len(ns) == 4]):
        for v in sorted(adj[u]):
            yield u, v


def _two_deg2(g: Graph, M: int, hub: int, x: int, y: int,
              x_other: int, y_other: int) -> bool:
    """Non-adjacent 2-neighbors x < y of the hub whose far ends coincide
    (case 1) or are both non-adjacent to the hub (case 3)."""
    adj = g._adj
    return (
        x < y
        and len(adj[x]) == 2
        and len(adj[y]) == 2
        and set(adj[x]) == {hub, x_other}
        and set(adj[y]) == {hub, y_other}
        and x_other != y
        and (x_other == y_other
             or not (g.has_edge(hub, x_other) or g.has_edge(hub, y_other)))
    )


def _two_deg2_candidates(g: Graph, M: int) -> Iterator[tuple]:
    adj = g._adj
    twos: dict[int, list[int]] = {}  # hub -> its 2-neighbors, ascending
    for x in sorted([x for x, ns in adj.items() if len(ns) == 2]):
        for v in adj[x]:
            twos.setdefault(v, []).append(x)
    for v in sorted(twos):
        for x, y in itertools.combinations(twos[v], 2):
            (xp,) = set(adj[x]) - {v}
            (yp,) = set(adj[y]) - {v}
            yield v, x, y, xp, yp


def _two_deg2_data(v: int, x: int, y: int, xp: int, yp: int) -> dict:
    return {"hub": v, "x": x, "y": y, "x_other": xp, "y_other": yp,
            "case": 1 if xp == yp else 3}


def _twin_low_neighbor(g: Graph, M: int, hub: int, v1: int, v2: int,
                       apex: int) -> bool:
    """Two neighbors of the hub of degree M + 2 - deg(hub), which is 2 or
    3, the first on a triangle with the hub and the apex (not necessarily
    a face: the extension trades colors along its edges only)."""
    adj = g._adj
    target = M + 2 - len(adj[hub])
    return (
        2 <= target <= 3
        and v1 != v2
        and len(adj[v1]) == target
        and len(adj[v2]) == target
        and g.has_edge(hub, v1)
        and g.has_edge(hub, v2)
        and apex not in (hub, v1, v2)
        and g.has_edge(apex, hub)
        and g.has_edge(apex, v1)
    )


def _twin_candidates(g: Graph, M: int) -> Iterator[tuple]:
    adj = g._adj
    for v in sorted([v for v, ns in adj.items() if 2 <= M + 2 - len(ns) <= 3]):
        target = M + 2 - len(adj[v])
        lows = [w for w in sorted(adj[v]) if len(adj[w]) == target]
        for v1, v2 in itertools.permutations(lows, 2):
            for u in sorted(adj[v1]):
                yield v, v1, v2, u


def _has_rotation(g: BaseGraph) -> bool:
    return g._rot is not None


def _successor(g, v: int, u: int) -> int:
    """The neighbor that follows u in the rotation at v, a vertex of g."""
    order = g._rot[v]
    i = order.index(u) + 1
    return order[i] if i < len(order) else order[0]


def _face_of(g, a: int, b: int, c: int) -> Optional[tuple[int, int, int]]:
    """The triangle face on the corners a, b, c as face tracing lists it,
    from its least corner, or None when they bound no face or g has no
    rotations.

    Face tracing follows the dart (a, b) with (b, s_b(a)), so the walk
    a -> b -> c -> a is a face exactly when s_b(a) = c, s_c(b) = a and
    s_a(c) = b; the orientation a, b, c is tried before a, c, b.  Three
    pairwise adjacent vertices are distinct, as no graph has a self-loop.
    """
    if not (_has_rotation(g) and g.has_edge(a, b) and g.has_edge(b, c)
            and g.has_edge(a, c)):
        return None
    for b, c in ((b, c), (c, b)):
        if (_successor(g, b, a) == c and _successor(g, c, b) == a
                and _successor(g, a, c) == b):
            return min((a, b, c), (b, c, a), (c, a, b))
    return None


def _any_pair(dc: int, db: int) -> bool:
    return True


def _triangle_faces(g, corners, pair_ok=_any_pair) -> list[tuple[int, int, int]]:
    """The faces bounded by three distinct vertices, at least one of them
    in corners, read off the consecutive pairs of each corner's rotation;
    none on a graph without rotations.  A pair (c, b) is tested for a face
    only when pair_ok(deg c, deg b) holds, so a kind that bounds the other
    two corners' degrees skips the successor lookups of every other pair.

    Each face starts at its least corner and the faces come in the order
    :func:`~tlabel.graphs.trace_faces` lists them, without tracing any other
    face or requiring a connected graph.
    """
    if not _has_rotation(g):
        return []
    adj, rot = g._adj, g._rot
    found = set()
    for a in corners:
        order = rot[a]
        # c just before b at a is s_a(c) = b, the third condition of
        # _face_of, so two successor lookups settle the rest
        for c, b in zip(order[-1:] + order[:-1], order):
            if (c != b and pair_ok(len(adj[c]), len(adj[b]))
                    and _successor(g, b, a) == c
                    and _successor(g, c, b) == a):
                found.add(min((a, b, c), (b, c, a), (c, a, b)))
    return sorted(found)


def _five_corner_faces(g, pair_ok) -> list[tuple[int, int, int]]:
    """The triangle faces with a 5-corner whose other two corners, in
    rotation order, have degrees that pass pair_ok."""
    corners = [v for v, ns in g._adj.items() if len(ns) == 5]
    return _triangle_faces(g, corners, pair_ok)


def _face_566(g, M: int, v1: int, v2: int, v3: int) -> bool:
    """A triangle face whose corners have degree at most 6, with v1 its
    least corner of degree 5 and v2 < v3."""
    adj = g._adj
    d2, d3 = len(adj[v2]), len(adj[v3])
    return (
        len(adj[v1]) == 5
        and v2 < v3 and d2 <= 6 and d3 <= 6
        and (d2 != 5 or v1 < v2) and (d3 != 5 or v1 < v3)
        and _face_of(g, v1, v2, v3) is not None
    )


def _face_566_candidates(g, M: int) -> Iterator[tuple]:
    adj = g._adj
    for face in _five_corner_faces(g, lambda dc, db: dc <= 6 and db <= 6):
        for v1 in face:
            if len(adj[v1]) == 5:
                v2, v3 = sorted(c for c in face if c != v1)
                yield v1, v2, v3


def _face_567(g, M: int, v1: int, v2: int, v3: int, outside: int) -> bool:
    """A triangle face with corners of degree 5, 6 and 7, and the least
    neighbor of degree 6 that the 5-corner has off the face."""
    adj = g._adj
    return (
        (len(adj[v1]), len(adj[v2]), len(adj[v3])) == (5, 6, 7)
        and _face_of(g, v1, v2, v3) is not None
        and outside == min(
            (w for w in adj[v1] if w not in (v2, v3) and len(adj[w]) == 6),
            default=None,
        )
    )


def _face_567_candidates(g, M: int) -> Iterator[tuple]:
    adj = g._adj
    for face in _five_corner_faces(
            g, lambda dc, db: (dc == 6 and db == 7) or (dc == 7 and db == 6)):
        v1, v2, v3 = sorted(face, key=lambda c: len(adj[c]))
        for w in sorted(adj[v1]):
            if len(adj[w]) == 6:
                yield v1, v2, v3, w


def _alternator(g: Graph, M: int, k: int, low_side: tuple,
                high_side: tuple, edges: tuple) -> bool:
    """Independent low vertices of degree at most k, their neighbors as
    the high side, each high vertex keeping at least deg(y) + k - M low
    neighbors, and edges listing the cross edges."""
    adj = g._adj
    low, high = set(low_side), set(high_side)
    return (
        3 <= k <= (M + 2) // 4
        and bool(low)
        and low.isdisjoint(high)
        and all(len(adj[x]) <= k and high.issuperset(adj[x]) for x in low)
        and high == set().union(*(adj[x] for x in low))
        and all(len(low.intersection(adj[y])) >= len(adj[y]) + k - M
                for y in high)
        and edges == tuple(
            sorted(edge_key(x, w) for x in low for w in adj[x]))
    )


def _peel(g: Graph, M: int, k: int) -> Optional[tuple]:
    """The alternator fields (k, low side, high side, cross edges) for one
    fixed list budget k, or None when nothing survives.

    The low side holds independent vertices of degree at most k whose every
    neighbor survives on the high side; a high vertex survives only while
    it keeps at least deg(y) + k - M low neighbors.  Peeling runs to a
    fixed point, so membership is order-independent.
    """
    adj = g._adj
    low: set[int] = set()
    for x in sorted(adj):
        if len(adj[x]) <= k and low.isdisjoint(adj[x]):
            low.add(x)
    while low:
        high = frozenset().union(*(adj[x] for x in low))
        bad = [
            y for y in sorted(high)
            if len(low.intersection(adj[y])) < len(adj[y]) + k - M
        ]
        if not bad:
            cross = tuple(
                sorted(edge_key(x, w) for x in low for w in adj[x])
            )
            return k, tuple(sorted(low)), tuple(sorted(high)), cross
        for y in bad:
            low.difference_update(adj[y])
    return None


def _alternator_candidates(g: Graph, M: int) -> Iterator[tuple]:
    for k in range(3, (M + 2) // 4 + 1):
        fields = _peel(g, M, k)
        if fields is not None:
            yield fields


def _alternator_data(k: int, low: tuple, high: tuple, cross: tuple) -> dict:
    return {"k": k, "low_side": low, "high_side": high, "edges": cross}


# ---------------------------------------------------------------------------
# reductions


class _WorkGraph(BaseGraph):
    """A mutable copy of a graph that reductions edit in place.

    ``_adj`` maps each vertex to one list of its neighbors: its rotation
    when the graph has one, so ``_rot`` is ``_adj`` itself, and None
    otherwise.  The queries are :class:`BaseGraph`'s, except that
    ``has_edge`` scans the shorter of the two lists, so a spoke of a hub is
    found from its rim end.

    An event's undo log is one flat list, four entries per edit of a
    vertex's list in the order made, (vertex, slot, lost, gained): a cut
    is v, i, w, None at each end (w left slot i of v's list); a splice is
    v, i, old, new (new took old's slot i); a detach is v, None, the list,
    None (v left with that list).  So a log costs O(1) per edit whatever
    the degree, ``log[::4]`` names the vertices the event touched, and
    :meth:`undo` replays the edits from the last back to the first, which
    restores every list, rotation slots included.  A detached list goes
    back as it is, so a log is undone only once and no neighbor list may
    be held across an undo.
    """

    __slots__ = ()

    def __init__(self, g: Graph):
        plane = _has_rotation(g)
        self._adj = {v: list(g.rotation(v) if plane else g.neighbors(v))
                     for v in g.vertices}
        self._rot = self._adj if plane else None

    def freeze(self) -> Graph:
        if self._rot is None:
            return Graph(self._adj)
        return PlaneGraph(self._adj, self._rot)

    def has_edge(self, u: int, v: int) -> bool:
        try:
            a, b = self._adj[u], self._adj[v]
        except KeyError:
            return False
        return v in a if len(a) <= len(b) else u in b

    # -- edits -------------------------------------------------------------

    def cut(self, u: int, v: int, log: list) -> None:
        """Delete the edge uv."""
        adj = self._adj
        try:
            i = adj[u].index(v)
        except (KeyError, ValueError):
            raise GraphError("no edge (%d, %d) to delete" % (u, v)) from None
        j = adj[v].index(u)
        del adj[u][i]
        del adj[v][j]
        log += u, i, v, None, v, j, u, None

    def splice(self, at: int, old: int, new: int, log: list) -> None:
        """Put the neighbor new in old's place at one vertex only."""
        order = self._adj[at]
        i = order.index(old)
        order[i] = new
        log += at, i, old, new

    def detach(self, x: int, log: list) -> None:
        """Remove x, whose neighbors must no longer list it."""
        log += x, None, self._adj.pop(x), None

    def drop(self, x: int, log: list) -> None:
        """Delete x with its edges."""
        if x not in self._adj:
            raise GraphError("unknown vertex %r" % (x,))
        for w in list(self._adj[x]):
            self.cut(x, w, log)
        self.detach(x, log)

    def undo(self, log: list) -> None:
        """Take back every edit the log holds, the last first."""
        adj = self._adj
        for k in range(len(log) - 4, -1, -4):
            v, i, lost, gained = log[k], log[k + 1], log[k + 2], log[k + 3]
            if i is None:
                adj[v] = lost
            elif gained is None:
                adj[v].insert(i, lost)
            else:
                adj[v][i] = lost


def _cut_edge(w: _WorkGraph, cfg: ReducibleConfig, log: list) -> None:
    w.cut(*cfg["edge"], log)


def _reduce_two_deg2(w: _WorkGraph, cfg: ReducibleConfig, log: list) -> None:
    v, x, y = cfg["hub"], cfg["x"], cfg["y"]
    if cfg["case"] == 1:
        w.drop(x, log)
        w.drop(y, log)
    else:
        # each far end takes the deleted vertex's slot in its list, so a
        # rotation stays plane; a plain graph is rewired the same way
        xp, yp = cfg["x_other"], cfg["y_other"]
        w.splice(v, x, xp, log)
        w.splice(xp, x, v, log)
        w.splice(v, y, yp, log)
        w.splice(yp, y, v, log)
        w.detach(x, log)
        w.detach(y, log)


def _reduce_twin(w: _WorkGraph, cfg: ReducibleConfig, log: list) -> None:
    for twin in cfg["twins"]:
        w.cut(cfg["hub"], twin, log)


def _reduce_face(w: _WorkGraph, cfg: ReducibleConfig, log: list) -> None:
    v1, v2, v3 = cfg["corners"]
    w.cut(v1, v2, log)
    w.cut(v1, v3, log)


def _reduce_alternator(w: _WorkGraph, cfg: ReducibleConfig, log: list) -> None:
    for x in cfg["low_side"]:
        w.drop(x, log)


def _reduce(w: _WorkGraph, cfg: ReducibleConfig) -> list:
    """Remove the structure from w in place; return the undo log."""
    if cfg.kind not in _CATALOGUE:
        raise ValueError("unknown structure kind %r" % cfg.kind)
    log: list = []
    _CATALOGUE[cfg.kind].reduce(w, cfg, log)
    return log


def reduce_config(g: Graph, cfg: ReducibleConfig) -> Graph:
    """The smaller graph obtained by removing the structure."""
    w = _WorkGraph(g)
    _reduce(w, cfg)
    return w.freeze()


# ---------------------------------------------------------------------------
# extensions


def _least(mask: int) -> int:
    """The smallest color of a nonempty mask."""
    return (mask & -mask).bit_length() - 1


class _Extension:
    """The extension state: the graph g as restored so far, the working
    labeling, the interval, the record the steps go to, and each vertex's
    mask of the colors on its colored edges.

    ``_label`` keeps one for the whole backward loop and gives it each
    reduction's record in turn.  Every write to the working labeling goes
    through :meth:`put` and :meth:`lift`, which keep the masks, so
    availability costs O(1) for an edge and a walk over the neighbors'
    vertex colors for a vertex, whatever the degrees.  No step leaves two
    edges at a vertex on one color (each color placed is free there or a
    carried color checked free), so a color's bit stays set exactly while
    one of the vertex's edges has it.
    """

    __slots__ = ("g", "work", "itv", "rec", "masks")

    def __init__(self, g: Graph, work: dict, itv: ColorInterval,
                 rec: Optional[ReductionRecord] = None):
        self.g = g
        self.work = work
        self.itv = itv
        self.rec = rec
        self.masks = masks = defaultdict(int)
        for key, c in work.items():
            if isinstance(key, tuple):
                masks[key[0]] |= 1 << c
                masks[key[1]] |= 1 << c

    def put(self, key: Element, color: int) -> None:
        """Color an uncolored element."""
        self.work[key] = color
        if isinstance(key, tuple):
            masks, bit = self.masks, 1 << color
            masks[key[0]] |= bit
            masks[key[1]] |= bit

    def lift(self, key: Element) -> Optional[int]:
        """Uncolor an element; return the color it held, if any."""
        color = self.work.pop(key, None)
        if color is not None and isinstance(key, tuple):
            masks, keep = self.masks, ~(1 << color)
            masks[key[0]] &= keep
            masks[key[1]] &= keep
        return color

    def available(self, key: Element) -> int:
        """The colors free for an element, as a mask: bit c is set when
        color c is free (``available_edge_mask``/``available_vertex_mask``
        computed from the kept masks)."""
        work, r = self.work, self.itv.d - 1
        if isinstance(key, tuple):
            u, v = key
            bands = 0
            c = work.get(u)
            if c is not None:
                bands = 1 << (c + r)
            c = work.get(v)
            if c is not None:
                bands |= 1 << (c + r)
            return _free_mask(self.masks[u] | self.masks[v], bands, self.itv)
        same = 0
        for w in self.g._adj[key]:
            c = work.get(w)
            if c is not None:
                same |= 1 << c
        return _free_mask(same, self.masks[key] << r, self.itv)

    def need(self, key: Element, floor: int, same: int = 0,
             band: int = 0) -> int:
        """How many colors the element is sure to have free, or floor when
        that is more: the count every extension lemma makes.

        A vertex must differ from its neighbors and keep the gap d from its
        edges; an edge must differ from the other edges at its ends and
        keep the gap from its two ends.  A colored element of the first
        sort bars one color and one of the second at most 2d - 1, so the
        count is the interval's size less those bars, where ``same``
        elements of the first sort and ``band`` of the second are still
        uncolored and bar nothing.  Degrees are read from g as restored.
        """
        adj = self.g._adj
        if isinstance(key, tuple):
            n_same = len(adj[key[0]]) + len(adj[key[1]]) - 2
            n_band = 2
        else:
            n_same = n_band = len(adj[key])
        itv = self.itv
        count = (itv.k + 1 - (n_same - same)
                 - (2 * itv.d - 1) * (n_band - band))
        return count if count > floor else floor

    def erase(self, key: Element) -> Optional[int]:
        """Uncolor an element, recording the step; return the color it held."""
        self.rec.add("erase", key, None, 0, 0)
        return self.lift(key)

    def check(self, key: Element, required: int) -> None:
        """Record how many colors the element has free, changing nothing."""
        self.rec.add("check", key, None, self.available(key).bit_count(),
                     required)

    def fail(self, key: Element, required: int, message: str) -> NoReturn:
        """Record that the element could not be assigned, and raise."""
        self.rec.add("assign", key, None, 0, required)
        raise ExtensionError(message)

    def color_least(self, action: str, key: Element, required: int) -> bool:
        """Give an element its smallest legal color, with any color it holds
        lifted, and record the step; when it has none, leave it as it was
        and record nothing."""
        held = self.lift(key)
        avail = self.available(key)
        if not avail:
            if held is not None:
                self.put(key, held)
            return False
        c = _least(avail)
        self.rec.add(action, key, c, avail.bit_count(), required)
        self.put(key, c)
        return True

    def assign_free(self, key: Element, required: int) -> None:
        """Give the element its smallest legal color, recording the slack."""
        if not self.color_least("assign", key, required):
            self.fail(key, required,
                      "no color available for %r in a %s extension"
                      % (key, self.rec.kind))

    def assign_fixed(self, key: Element, color: int) -> None:
        """Place a color carried over from the reduced graph, verifying it."""
        legal = self.available(key) >> color & 1
        self.rec.add("transfer", key, color, legal, 1)
        if not legal:
            raise ExtensionError(
                "carried color %d is illegal on %r in a %s extension"
                % (color, key, self.rec.kind)
            )
        self.put(key, color)

    def fit_pair(self, action: str, first: Element, cands: list,
                 second: Element, required: tuple[int, int]) -> bool:
        """Give first the first candidate that leaves second a legal color
        and second its smallest, recording both.

        Second's own color, if any, is lifted while it is tried.  On failure
        first is left uncolored and second as it was.
        """
        rec = self.rec
        held = self.lift(second)
        for c in cands:
            self.put(first, c)
            avail = self.available(second)
            if avail:
                rec.add(action, first, c, len(cands), required[0])
                least = _least(avail)
                rec.add(action, second, least, avail.bit_count(), required[1])
                self.put(second, least)
                return True
            self.lift(first)
        if held is not None:
            self.put(second, held)
        return False

    def list_color(self, edges: list, need: Callable) -> None:
        """Color the edges together, as a list edge coloring from their free
        colors of the graph they form, and record each with the slack
        need(edge, that graph) guarantees."""
        lists = {e: available_edge(self.g, self.work, e, self.itv)
                 for e in edges}
        helper = Graph.from_edges(edges)
        try:
            colored = list_edge_color(helper, lists)
        except (ListSizeError, ListColorError) as exc:
            raise ExtensionError(str(exc)) from exc
        for e in edges:
            self.rec.add("list", e, colored[e], len(lists[e]), need(e, helper))
            self.put(e, colored[e])


def _separate_endpoints(ext: _Extension, u: int, v: int) -> None:
    """Recolor one endpoint of a restored edge so the two ends differ.

    The ends were not adjacent in the reduced graph, so they may share a
    color there.  Recoloring happens against the parent graph, where the
    other end is a neighbor again, so availability rules it out directly.
    The low end has few incident bands, which keeps a color free: the
    restored edge is still uncolored, so its band is not counted.
    """
    g = ext.g
    first, second = sorted((u, v), key=lambda t: (g.degree(t), t))
    for a in (first, second):
        if ext.color_least("recolor", a, ext.need(a, 0, band=1)):
            return
    # move one incident edge color aside to free a band for the endpoint
    for a in (first, second):
        for w in sorted(g.neighbors(a)):
            ek = edge_key(a, w)
            old = ext.lift(ek)
            if old is None:
                continue
            cands = mask_colors(ext.available(ek) & ~(1 << old))
            if ext.fit_pair("recolor", ek, cands, a, (0, 0)):
                return
            ext.put(ek, old)
    raise ExtensionError(
        "endpoints of restored edge (%d, %d) cannot be separated" % (u, v)
    )


def _extend_sparse_edge(ext: _Extension, cfg: ReducibleConfig) -> None:
    u, v = cfg["edge"]
    if ext.work[u] == ext.work[v]:
        _separate_endpoints(ext, u, v)
    ext.assign_free((u, v), ext.need((u, v), 1))


def _extend_light_edge(ext: _Extension, cfg: ReducibleConfig) -> None:
    u = cfg["low"]
    e = cfg["edge"]
    ext.erase(u)
    ext.assign_free(e, ext.need(e, 1, band=1))
    ext.assign_free(u, ext.need(u, 1))


def _extend_deg4_low_neighbor(ext: _Extension, cfg: ReducibleConfig) -> None:
    u = cfg["center"]
    a, b = cfg["edge"]
    other = b if a == u else a
    key = edge_key(u, other)
    ext.erase(u)
    ext.check(u, ext.need(u, 2, band=1))
    required = ext.need(key, 3, band=1)
    cands = mask_colors(ext.available(key))
    # some candidate leaves the center colorable because its band cannot
    # cover two spare colors three different ways
    if not ext.fit_pair("assign", key, cands, u, (required, 1)):
        ext.fail(key, required, "no edge candidate leaves the center colorable")


def _extend_two_deg2(ext: _Extension, cfg: ReducibleConfig) -> None:
    v, x, y = cfg["hub"], cfg["x"], cfg["y"]
    xp, yp = cfg["x_other"], cfg["y_other"]
    if cfg["case"] == 1:
        ring = [edge_key(*e) for e in ((v, x), (x, xp), (xp, y), (y, v))]
        # each ring edge meets two ring edges and its end x or y, all
        # still uncolored
        ext.list_color(ring, lambda e, _: ext.need(e, 2, same=2, band=1))
    else:
        carried_x = ext.erase(edge_key(v, xp))
        carried_y = ext.erase(edge_key(v, yp))
        ext.assign_fixed(edge_key(x, xp), carried_x)
        ext.assign_fixed(edge_key(v, y), carried_x)
        ext.assign_fixed(edge_key(y, yp), carried_y)
        ext.assign_fixed(edge_key(v, x), carried_y)
    ext.assign_free(x, ext.need(x, 1))
    ext.assign_free(y, ext.need(y, 1))


def _extend_twin_low_neighbor(ext: _Extension, cfg: ReducibleConfig) -> None:
    v = cfg["hub"]
    v1, v2 = cfg["twins"]
    u = cfg["apex"]
    ext.erase(v1)
    ext.erase(v2)
    e1, e2 = edge_key(v, v1), edge_key(v, v2)
    avail1 = ext.available(e1)
    if avail1.bit_count() == 1 and avail1 == ext.available(e2):
        # both edges are pinned to the same color, so trade the apex
        # edge colors: the hub frees one color the second edge can take
        ka, kb = edge_key(u, v), edge_key(u, v1)
        ca, cb = ext.lift(ka), ext.lift(kb)
        ext.assign_fixed(ka, cb)
        ext.assign_fixed(kb, ca)
        avail1 = ext.available(e1)
    if not ext.fit_pair("assign", e1, mask_colors(avail1), e2, (1, 1)):
        ext.fail(e1, 1, "hub edges cannot take distinct colors")
    ext.assign_free(v1, ext.need(v1, 1))
    ext.assign_free(v2, ext.need(v2, 1))


def _fit_face_edges(ext: _Extension, e12: tuple, e13: tuple) -> bool:
    """Color the two face edges at the low corner, e12 first."""
    cands = mask_colors(ext.available(e12))
    return ext.fit_pair("assign", e12, cands, e13, (1, 1))


def _refit_face_edges(ext: _Extension, e12: tuple, e13: tuple, moved: tuple,
                      count_held: bool) -> bool:
    """Try each other color on the edge moved and fit the face edges after
    it, recording the move only when they fit; the edge keeps its color
    otherwise.  With count_held the step's measured slack counts the
    edge's held color among its choices."""
    rec = ext.rec
    held = ext.lift(moved)
    cands = mask_colors(ext.available(moved))
    others = [r for r in cands if r != held]
    for r in others:
        ext.put(moved, r)
        rec.add("recolor", moved, r, len(cands if count_held else others), 1)
        if _fit_face_edges(ext, e12, e13):
            return True
        rec.steps.pop()
        ext.lift(moved)
    ext.put(moved, held)
    return False


def _extend_face(ext: _Extension, cfg: ReducibleConfig) -> None:
    v1, v2, v3 = cfg["corners"]
    work = ext.work
    e12, e13 = edge_key(v1, v2), edge_key(v1, v3)
    # the low corner lost both face edges in the reduced graph, so it may
    # collide with a mate it is about to rejoin; its two face edges are
    # still uncolored, so their bands are not counted against it
    if work[v1] in (work[v2], work[v3]) and not ext.color_least(
            "recolor", v1, ext.need(v1, 1, band=2)):
        raise ExtensionError(
            "low corner %d of a tight face cannot be recolored" % v1
        )
    # each face edge meets the other, still uncolored
    ext.check(e12, ext.need(e12, 0, same=1))
    ext.check(e13, ext.need(e13, 0, same=1))
    if _fit_face_edges(ext, e12, e13):
        return
    # freeing a color seen by both endpoints of the third side unsticks
    # the pinned pair
    if _refit_face_edges(ext, e12, e13, edge_key(v2, v3), count_held=True):
        return
    # moving the outside edge at the low corner releases its old color
    # for the third-side two-step
    if cfg.kind == FACE_567 and _refit_face_edges(
            ext, e12, e13, edge_key(v1, cfg["outside"]), count_held=False):
        return
    ext.fail(e12, 1, "face edges cannot be recolored consistently")


def _extend_alternator(ext: _Extension, cfg: ReducibleConfig) -> None:
    low = cfg["low_side"]
    cross = [edge_key(*e) for e in cfg["edges"]]
    ext.list_color(cross, lambda e, h: max(h.degree(e[0]), h.degree(e[1])))
    for x in sorted(low):
        ext.assign_free(x, ext.need(x, 1))


# ---------------------------------------------------------------------------
# the catalogue


@dataclass(frozen=True)
class _Kind:
    """Everything the labeler and the audit know about one kind."""

    candidates: Callable  # (g, M) -> field tuples, in scan order
    holds: Callable  # (g, M, *fields) -> whether they form an occurrence
    data: Callable  # (*fields) -> ReducibleConfig.data
    fields: Callable  # ReducibleConfig.data -> fields
    reduce: Callable  # (work graph, config, undo log) -> None
    extend: Callable  # (extension, config) -> None
    code: Optional[str] = None  # what the audit reports an occurrence as
    cite: Optional[Callable] = None  # (g, M, *fields) -> (note, elements)

    def occurrences(self, g, M: int) -> Iterator[tuple]:
        """The field tuples of every occurrence in g, in scan order."""
        for fields in self.candidates(g, M):
            if self.holds(g, M, *fields):
                yield fields


def _sparse_cite(g, M: int, u: int, v: int) -> tuple:
    adj = g._adj
    return ("edge degree sum %d is at most %d"
            % (len(adj[u]) + len(adj[v]), _sparse_sum(M)), ((u, v),))


def _light_cite(g, M: int, u: int, v: int, low: int) -> tuple:
    adj = g._adj
    du, dv = len(adj[u]), len(adj[v])
    return ("edge with a degree-%d end and degree sum %d"
            % (min(du, dv), du + dv), ((u, v),))


def _face_566_cite(g, M: int, *corners: int) -> tuple:
    adj = g._adj
    return ("triangle face with degrees %s"
            % sorted(len(adj[c]) for c in corners), (_face_of(g, *corners),))


_CATALOGUE = {
    SPARSE_EDGE: _Kind(
        lambda g, M: _edges_summing_at_most(g, _sparse_sum(M)), _sparse_edge,
        lambda u, v: {"edge": (u, v)}, lambda d: d["edge"],
        _cut_edge, _extend_sparse_edge, code="C2",
        cite=_sparse_cite,
    ),
    LIGHT_EDGE: _Kind(
        _light_candidates, _light_edge,
        lambda u, v, low: {"low": low, "edge": (u, v)},
        lambda d: (*d["edge"], d["low"]),
        _cut_edge, _extend_light_edge, code="C3",
        cite=_light_cite,
    ),
    DEG4_LOW_NEIGHBOR: _Kind(
        _deg4_candidates, _deg4_low_neighbor,
        lambda c, o: {"center": c, "edge": (c, o)},
        lambda d: (d["center"], d["edge"][1]),
        _cut_edge, _extend_deg4_low_neighbor, code="C6a",
        cite=lambda g, M, c, o: (
            "4-vertex beside a vertex of degree %d" % len(g._adj[o]), (c, o)),
    ),
    TWO_DEG2: _Kind(
        _two_deg2_candidates, _two_deg2, _two_deg2_data,
        lambda d: (d["hub"], d["x"], d["y"], d["x_other"], d["y_other"]),
        _reduce_two_deg2, _extend_two_deg2, code="C6c",
        cite=lambda g, M, v, x, y, xp, yp: (
            "vertex with two 2-neighbors (shape %d)" % (1 if xp == yp else 3),
            (v, x, y)),
    ),
    TWIN_LOW_NEIGHBOR: _Kind(
        _twin_candidates, _twin_low_neighbor,
        lambda v, v1, v2, u: {"hub": v, "twins": (v1, v2), "apex": u},
        lambda d: (d["hub"], *d["twins"], d["apex"]),
        _reduce_twin, _extend_twin_low_neighbor, code="C6d",
        cite=lambda g, M, v, v1, v2, u: (
            "twin low neighbors of a high vertex on a triangle",
            (v, v1, v2, u)),
    ),
    FACE_566: _Kind(
        _face_566_candidates, _face_566,
        lambda v1, v2, v3: {"corners": (v1, v2, v3)}, lambda d: d["corners"],
        _reduce_face, _extend_face, code="C6b",
        cite=_face_566_cite,
    ),
    FACE_567: _Kind(
        _face_567_candidates, _face_567,
        lambda v1, v2, v3, w: {"corners": (v1, v2, v3), "outside": w},
        lambda d: (*d["corners"], d["outside"]),
        _reduce_face, _extend_face, code="C6e",
        cite=lambda g, M, v1, v2, v3, w: (
            "special triangle whose 5-corner has an outside 6-neighbor",
            (_face_of(g, v1, v2, v3), w)),
    ),
    # the audit has no code for an alternator
    ALTERNATOR: _Kind(
        _alternator_candidates, _alternator, _alternator_data,
        lambda d: (d["k"], d["low_side"], d["high_side"], d["edges"]),
        _reduce_alternator, _extend_alternator,
    ),
}
KIND_ORDER = tuple(_CATALOGUE)

# sparse and light edges wait in the labeler's edge heap, at their
# KIND_ORDER index as rank; it scans only for these
_RARE_KINDS = KIND_ORDER[2:]


def _first_config(g, M: int, kinds) -> Optional[ReducibleConfig]:
    for kind in kinds:
        entry = _CATALOGUE[kind]
        fields = next(entry.occurrences(g, M), None)
        if fields is not None:
            return ReducibleConfig(kind, entry.data(*fields))
    return None


def find_configuration(g: Graph, M: int) -> ReducibleConfig:
    """The first reducible structure in a fixed kind and scan order."""
    cfg = _first_config(g, M, KIND_ORDER)
    if cfg is None:
        raise IrreducibleError(g, M)
    return cfg


def config_holds(g: Graph, M: int, cfg: ReducibleConfig) -> bool:
    """Recheck a previously found structure against a graph.

    The data must be exactly what the finder would build from its fields.
    """
    entry = _CATALOGUE.get(cfg.kind)
    if entry is None:
        return False
    try:
        fields = entry.fields(cfg.data)
        return (entry.data(*fields) == dict(cfg.data)
                and entry.holds(g, M, *fields))
    except (KeyError, IndexError, TypeError, ValueError):
        return False


# ---------------------------------------------------------------------------
# the driver


def _small_component(w: _WorkGraph, start: int) -> Optional[set[int]]:
    """The component of start when it has at most BASE_ELEMENT_LIMIT
    vertices and edges, found by a search that gives up past the limit,
    or at once on a vertex of degree above ``_BASE_MAX_DEGREE``."""
    adj = w._adj
    if len(adj[start]) > _BASE_MAX_DEGREE:
        return None
    seen = {start}
    stack = [start]
    budget = 2 * BASE_ELEMENT_LIMIT  # each vertex costs 2, each edge 1 per end
    while stack:
        nbrs = adj[stack.pop()]
        budget -= 2 + len(nbrs)
        if budget < 0:
            return None
        for x in nbrs:
            if x not in seen:
                if len(adj[x]) > _BASE_MAX_DEGREE:
                    return None
                seen.add(x)
                stack.append(x)
    return seen


def _detach_small(w: _WorkGraph, start: int, events: list) -> bool:
    """Cut the component of start loose as a base event if it is small."""
    comp = _small_component(w, start)
    if comp is None:
        return False
    log: list = []
    for v in sorted(comp):
        w.detach(v, log)
    events.append((None, log))
    return True


def _base_labeling(w: _WorkGraph, comp, itv: ColorInterval,
                   memo: dict) -> dict:
    """find_labeling's witness on the component comp of w, as a dict.

    An isolated vertex gets 0, its witness.  Any other component is looked
    up in memo, which maps its order-preserving relabeling (the sorted ids
    to 0..n-1, and its sorted relabeled edges) to the witness's (element,
    color) pairs on the relabeled graph, in the witness's order.  The
    search orders elements by degrees and id order alone, so a component
    with the same relabeling gets the same witness, mapped back; memo must
    hold witnesses in itv only.
    """
    ids = sorted(comp)
    if len(ids) == 1:
        return {ids[0]: 0}
    adj = w._adj
    index = {v: i for i, v in enumerate(ids)}
    key = (len(ids), tuple(sorted(
        [(index[u], index[x]) for u in ids for x in adj[u] if u < x])))
    pairs = memo.get(key)
    if pairs is None:
        phi, _ = find_labeling(w.induced(ids), itv)
        if phi is None:
            raise ExtensionError(
                "a base graph with %d elements has no labeling in a "
                "%d-color interval" % (len(ids) + len(key[1]), itv.size))
        pairs = memo[key] = tuple(
            ((index[el[0]], index[el[1]]) if isinstance(el, tuple)
             else index[el], c)
            for el, c in phi.as_dict().items())
    return {((ids[el[0]], ids[el[1]]) if isinstance(el, tuple) else ids[el]): c
            for el, c in pairs}


def _require_valid(g: Graph, work: dict, itv: ColorInterval,
                   stage: str) -> None:
    """Raise ExtensionError, naming the stage, when work breaks a rule."""
    bad = validate(g, work, itv)
    if bad:
        raise ExtensionError("%s labeling violates %d constraints: %r"
                             % (stage, len(bad), bad[:3]))


def _next_config(w: _WorkGraph, M: int, heap: list,
                 queued: set) -> ReducibleConfig:
    """What find_configuration would return on w, with the edge kinds
    taken from the edge heap: its least entry whose edge w has, of the
    kind ``KIND_ORDER[rank]``; each entry it pops is discarded from
    queued."""
    has_edge = w.has_edge
    while heap:
        entry = heapq.heappop(heap)
        queued.discard(entry)
        rank, u, v = entry
        if has_edge(u, v):
            kind = KIND_ORDER[rank]
            fields = (u, v) if rank == 0 else (u, v, _light_end(w, M, u, v))
            return ReducibleConfig(kind, _CATALOGUE[kind].data(*fields))
    cfg = _first_config(w, M, _RARE_KINDS)
    if cfg is None:
        raise IrreducibleError(w.freeze(), M)
    return cfg


def _require_kept_availability(ext: _Extension, touched) -> None:
    """Raise ExtensionError unless the kept edge-color mask of each vertex
    in touched and of each of its neighbors equals the mask rebuilt from
    the working labeling over the restored graph, and the extension's
    availability equals ``available_vertex_mask`` at each vertex in touched
    and ``available_edge_mask`` on each edge joining two of them, which
    holds every edge the event restored."""
    g, work, itv = ext.g, ext.work, ext.itv
    touched = set(touched)
    for x in sorted(touched.union(*(g.neighbors(v) for v in touched))):
        rebuilt = 0
        for y in g.neighbors(x):
            c = work.get(edge_key(x, y))
            if c is not None:
                rebuilt |= 1 << c
        if ext.masks[x] != rebuilt:
            raise ExtensionError("intermediate kept edge colors at %r differ "
                                 "from the labeling's" % (x,))
    for v in sorted(touched):
        public = {v: available_vertex_mask(g, work, v, itv)}
        for x in g.neighbors(v):
            if v < x and x in touched:
                public[v, x] = available_edge_mask(g, work, (v, x), itv)
        for key, mask in public.items():
            if ext.available(key) != mask:
                raise ExtensionError("intermediate availability of %r "
                                     "differs from the labeling's" % (key,))


def degree_bound(M: Optional[int], delta: int = 0) -> int:
    """The bound M, or max(12, delta) when M is None.  ValueError when M
    is below 12, where the guarantee does not hold, or below delta."""
    if M is None:
        return max(12, delta)
    if M < 12:
        raise ValueError("the labeling guarantee needs a bound of at least 12")
    if delta > M:
        raise ValueError("maximum degree %d exceeds the bound %d" % (delta, M))
    return M


def label_planar(g: PlaneGraph, M: Optional[int] = None,
                 deep_check: bool = False) -> tuple[PartialLabeling, ExtensionTrace]:
    """A total labeling of g with colors {0..M+2}, plus its build trace.

    M defaults to max(12, max degree).  The graph need not be connected.
    This is the theorem's gate: g must be a plane graph, and M at least 12
    and at least its maximum degree (GraphError, ValueError otherwise).
    Planarity is checked before labeling, by tracing g's faces, which
    raises EmbeddingError for a rotation system that is not plane,
    connected or not.  g keeps its trace, or that the trace found it
    disconnected, and the components the trace searched for, which the
    engine reads; so a fresh graph costs one trace and one component
    search, and labeling or auditing the same graph object again costs
    neither.  The labeling, and deep_check, are the engine's, ``_label``.
    """
    if not isinstance(g, PlaneGraph):
        raise GraphError("a plane graph with a rotation system is required")
    M = degree_bound(M, g.max_degree)
    with suppress(DisconnectedError):  # plane, only not connected
        g.faces()
    return _label(g, M, deep_check)


def _label(g: Graph, M: int,
           deep_check: bool = False) -> tuple[PartialLabeling, ExtensionTrace]:
    """Label g with colors {0..M+2} by reduction and extension, checking
    no bound: below 12 it may raise IrreducibleError or ExtensionError.

    The labeler works on one mutable copy of g.  A forward loop removes one
    reducible structure at a time in place and records each removal as an
    event, a pair of its configuration and its flat undo log (see
    ``_WorkGraph``), so the reductions form a chain, not a tree of graph
    copies.
    Sparse and light edges wait in one heap of entries (rank, u, v), an
    edge u < v of kind ``KIND_ORDER[rank]``: rank 0 sparse, rank 1 light,
    so every sparse entry comes before every light one and each rank is
    read in edge order; ``queued`` holds the entries in the heap, each at
    most once.  One test decides an edge's rank: within ``_sparse_sum`` 0,
    otherwise 1 when within ``_light_sum`` and an end has degree at most
    ``_light_cap``.  No reduction raises a degree, so an edge keeps its
    rank's terms for as long as it exists, also when a two_deg2 splice
    re-creates an edge deleted earlier, and ``_next_config`` tests only
    that the edge exists: an entry whose edge is gone is dropped when it
    reaches the front.  Every live edge within the sparse sum waits at
    rank 0, read first, so rank 1 needs none of them.  At the start one
    scan of g's edges within the light sum builds the heap by the test.
    After each event one pass over the vertices its log names, the
    touched vertices, detaches a vertex's component when it is small (see
    below) and otherwise walks the vertex's open edges, pushing each by
    the test unless the heap holds its entry; only edges at touched
    vertices can newly qualify, so the walk misses none.  Smallness is the
    component's, so a walked vertex's component is never detached later
    in the pass.
    An edge within the sparse sum is closed and leaves the walk; any other
    stays open, as its ends may still drop into the sparse sum.  A vertex
    walks its whole list until half its edges have closed, and then a list
    of its open neighbors, which one pass over each event's log keeps: a
    neighbor an edit took from the vertex leaves the list and one a splice
    gave it joins; walking a closed edge again pushes nothing, so the heap
    gets exactly the entries that walking every edge would give, and an
    event at a hub, once half its edges wait at rank 0, walks only the
    others.  The other kinds are scanned for only when the heap holds no
    live entry.  Whenever the component of a touched vertex has at most
    BASE_ELEMENT_LIMIT elements, it is detached as a base case; so is every
    such component of g at the start (g's components, which a plane graph
    keeps from its face trace), as an event with no configuration whose
    log saved exactly that component.  The search for a small component
    stops at the first vertex whose degree no base case can hold
    (``_BASE_MAX_DEGREE``), so most searches end at once.  The backward
    loop then pops the events in reverse and replays each log backwards,
    so each is freed once undone: a base case is rebuilt from the vertices
    its log names and given exact search's witness, through a memo of
    witnesses by shape local to this call (``_base_labeling``), and a
    reduction is extended across on the restored graph.  Both write the
    working dict through one ``_Extension``, which keeps each vertex's
    mask of its edge colors across events for availability.  The working
    graph is then freed, and the working dict becomes the result uncopied,
    once validation has found every key an element of g and the count of
    keys shows that it covers g.

    The trace counts the base cases in ``base_cases``; ``splits`` counts
    those among them that a reduction cut loose, which excludes the small
    components g starts with.  With deep_check, the forward loop checks
    each configuration it takes with ``config_holds`` before reducing it,
    so an entry pushed wrongly raises ExtensionError; and after every event
    of the backward loop the whole working graph is validated, not just at the
    end, and the kept masks and availability near the event are compared
    with the labeling and the public availability functions
    (``_require_kept_availability``): a quadratic check meant for tests.
    """
    itv = working_interval(M)
    trace = ExtensionTrace(M)

    w = _WorkGraph(g)
    adj = w._adj
    sparse_sum, light_sum, cap = _sparse_sum(M), _light_sum(M), _light_cap(M)
    # a sparse edge's bound lies below a light edge's, so one scan serves
    # both; each entry is (rank, u, v) for an edge u < v, as the predicates
    # need, and the rank-0 entries, then the rank-1 ones, each sorted, are
    # already a heap
    near = _edges_summing_at_most(g, light_sum)
    heap = [(0, u, v) for u, v in near
            if len(adj[u]) + len(adj[v]) <= sparse_sum]
    heap += [(1, u, v) for u, v in near
             if len(adj[u]) + len(adj[v]) > sparse_sum
             and (len(adj[u]) <= cap or len(adj[v]) <= cap)]
    del near
    queued = set(heap)
    heappush = heapq.heappush
    opened: dict = {}  # vertex -> its open neighbors, see above
    events: list[tuple] = []  # (configuration or None, undo log)
    for comp in g.components():
        _detach_small(w, min(comp), events)

    while adj:
        cfg = _next_config(w, M, heap, queued)
        if deep_check and not config_holds(w, M, cfg):
            raise ExtensionError("the driver chose a %s that does not hold: "
                                 "%r" % (cfg.kind, dict(cfg.data)))
        log = _reduce(w, cfg)
        events.append((cfg, log))
        # (vertex, slot, lost, gained) per edit, see _WorkGraph
        for k in range(0, len(log), 4):
            ns = opened.get(log[k])
            if ns is None or log[k + 1] is None:  # no open list, or a detach
                continue
            lost, gained = log[k + 2], log[k + 3]
            if lost in ns:
                ns.remove(lost)
            if gained is not None:
                ns.append(gained)
        for v in sorted(set(log[::4])):
            nbrs = adj.get(v)
            # most touched vertices have a degree no base case can hold
            if (nbrs is not None and len(nbrs) <= _BASE_MAX_DEGREE
                    and _detach_small(w, v, events)):
                trace.splits += 1
                nbrs = None
            if nbrs is None:
                opened.pop(v, None)
                continue
            ns = opened.get(v, nbrs)
            dv = len(nbrs)
            closed = 0
            for x in ns:
                dx = len(adj[x])
                total = dv + dx
                if total <= sparse_sum:
                    closed += 1
                    rank = 0
                elif total <= light_sum and (dv <= cap or dx <= cap):
                    rank = 1
                else:
                    continue
                entry = (rank, v, x) if v < x else (rank, x, v)
                if entry not in queued:
                    queued.add(entry)
                    heappush(heap, entry)
            # a list of its own pays once it halves the walk
            if closed and (ns is not nbrs or 2 * closed >= dv):
                opened[v] = [x for x in ns if dv + len(adj[x]) > sparse_sum]
    # the heap holds only entries whose edges are gone now
    del opened, heap, queued

    ext = _Extension(w, {}, itv)
    work = ext.work
    memo: dict = {}  # base-case witnesses by shape, see _base_labeling
    while events:
        cfg, log = events.pop()
        w.undo(log)
        if cfg is None:
            for key, c in _base_labeling(w, log[::4], itv, memo).items():
                ext.put(key, c)
            trace.base_cases += 1
        else:
            ext.rec = ReductionRecord(cfg.kind)
            _CATALOGUE[cfg.kind].extend(ext, cfg)
            trace.records.append(ext.rec)
        if deep_check:
            _require_valid(w, work, itv, "intermediate")
            _require_kept_availability(ext, log[::4])

    # free the working graph before the final validation, the run's peak;
    # validation rejects a key that is not an element of g, so counting
    # the keys is the totality check
    del w, adj, ext
    _require_valid(g, work, itv, "final")
    if len(work) != g.n + g.m:
        raise ExtensionError("extension finished without covering the graph")
    return PartialLabeling._adopt(work), trace
