"""Partial (d,1)-total labelings and their availability calculus.

A labeling assigns colors from {0..k} to vertices and edges subject to
three constraint families:

* adjacent vertices carry distinct colors,
* adjacent edges (sharing an endpoint) carry distinct colors,
* a vertex and an incident edge differ by at least d.

Elements are vertex ids (int) or normalized edges ((u, v) with u < v).
All set operations here are pure functions of the graph, the labeling and
the color interval.  :func:`validate` and the availability functions take
either a :class:`PartialLabeling` or a plain dict whose keys are already
normalized elements; they read the dict behind either one directly, so a
color lookup is one dict probe with no normalization.

Availability is computed once, as an int over {0..k} whose bit c is set
when color c is free (:func:`available_edge_mask`,
:func:`available_vertex_mask`): a color bars its own bit and a band the
2d - 1 bits around its color, clipped at both ends of the interval, in
one place, ``_free_mask``.  :func:`available_edge` and
:func:`available_vertex` return the same colors as a frozenset.  These
functions read the labeling alone.  The labeler instead keeps, beside its
working dict, each vertex's mask of its edge colors and hands
``_free_mask`` those, reading a least color and a count off the int; it
calls the availability functions only to check that fast path under its
deep check and to build list-coloring lists.  The exact solver does not use
them either and keeps its own bitmask domains, updated incrementally (see
:mod:`tlabel.exact`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Collection, Mapping, Optional, Union

from .graphs import Graph, GraphError, edge_key

Element = Union[int, tuple]


def is_edge(element: Element) -> bool:
    return isinstance(element, tuple)


def normalize_element(element: Element) -> Element:
    if is_edge(element):
        u, v = element
        return edge_key(u, v)
    return element


@dataclass(frozen=True)
class ColorInterval:
    """The color set {0..k} together with the separation parameter d."""

    k: int
    d: int = 2

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be non-negative, got %d" % self.k)
        if self.d < 1:
            raise ValueError("d must be at least 1, got %d" % self.d)

    @property
    def size(self) -> int:
        return self.k + 1

    def colors(self) -> range:
        return range(self.k + 1)

    def __contains__(self, c: int) -> bool:
        return 0 <= c <= self.k


def working_interval(max_degree_bound: int) -> ColorInterval:
    """The interval {0..M+2} with d=2 used by the planar labeling routine."""
    return ColorInterval(k=max_degree_bound + 2, d=2)


def _in_order(elements: Collection[Element]) -> list[Element]:
    """Vertices ascending, then edges ascending."""
    return sorted(e for e in elements if not is_edge(e)) + sorted(
        e for e in elements if is_edge(e))


class PartialLabeling:
    """An immutable element -> color mapping, possibly covering nothing.

    The constructor copies its assignment and normalizes its keys.
    ``_adopt`` instead takes a dict as it is, uncopied: the labeler hands
    over its working dict this way, whose keys are already normalized and
    whose colors are ints, and keeps no reference to it.
    """

    __slots__ = ("_map",)

    def __init__(self, assignment: Optional[Mapping[Element, int]] = None):
        # the only key to normalize is an edge given as (u, v) with u > v
        self._map = {
            (el[1], el[0]) if isinstance(el, tuple) and el[0] > el[1] else el: int(c)
            for el, c in (assignment or {}).items()
        }

    @classmethod
    def _adopt(cls, assignment: dict) -> "PartialLabeling":
        """A labeling whose map is assignment itself, which must be keyed
        by normalized elements, hold int colors and not change again."""
        out = cls.__new__(cls)
        out._map = assignment
        return out

    def color(self, element: Element) -> Optional[int]:
        return self._map.get(normalize_element(element))

    def __contains__(self, element: Element) -> bool:
        return normalize_element(element) in self._map

    def __len__(self) -> int:
        return len(self._map)

    def elements(self) -> tuple[Element, ...]:
        return tuple(_in_order(self._map))

    def as_dict(self) -> dict[Element, int]:
        return dict(self._map)

    def is_total(self, g: Graph) -> bool:
        return all(v in self._map for v in g.vertices) and all(
            e in self._map for e in g.edges()
        )

    def max_color(self) -> Optional[int]:
        return max(self._map.values()) if self._map else None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartialLabeling) and self._map == other._map

    def __repr__(self) -> str:
        return "PartialLabeling(%d elements)" % len(self._map)


# what validation and availability read: a PartialLabeling, or a plain dict
# whose keys are already normalized (the labeler's working dict)
Labeling = Union[PartialLabeling, Mapping[Element, int]]


@dataclass(frozen=True)
class Violation:
    """One broken constraint, naming the elements and colors involved."""

    rule: str
    elements: tuple
    colors: tuple

    def __str__(self) -> str:
        pairs = ", ".join(
            "%r=%d" % (el, c) for el, c in zip(self.elements, self.colors)
        )
        return "%s: %s" % (self.rule, pairs)


VERTEX_ADJACENCY = "adjacent-vertices-equal"
EDGE_ADJACENCY = "adjacent-edges-equal"
INCIDENCE_GAP = "incident-pair-too-close"
RANGE = "color-out-of-range"


def _color_map(phi: Labeling) -> Mapping[Element, int]:
    """The element -> color dict behind phi, read without a copy."""
    return phi._map if isinstance(phi, PartialLabeling) else phi


def _check_membership(g: Graph, m: Mapping[Element, int]) -> None:
    foreign = [
        el for el in m
        if ((not g.has_edge(*el) or el[0] > el[1]) if isinstance(el, tuple)
            else el not in g)
    ]
    if not foreign:
        return
    # name the first one in PartialLabeling.elements() order
    el = _in_order(foreign)[0]
    if not is_edge(el):
        raise GraphError("labeled element %r is not a vertex of the graph" % (el,))
    if not g.has_edge(*el):
        raise GraphError("labeled element %r is not an edge of the graph" % (el,))
    raise GraphError("labeled edge %r is not normalized" % (el,))


def validate(g: Graph, phi: Labeling, interval: ColorInterval) -> list[Violation]:
    """Collect every violated constraint; an empty list means valid.

    phi is a PartialLabeling or a dict keyed by normalized elements.
    Unassigned elements constrain nothing.  Labeled elements outside the
    graph are an error, not a violation, and so is an edge key (u, v) of a
    plain dict with u > v.  Violations come grouped by rule: range, then
    adjacent vertices, adjacent edges, and incident pairs.
    """
    m = _color_map(phi)
    _check_membership(g, m)
    out: list[Violation] = []

    k = interval.k
    if m and (min(m.values()) < 0 or max(m.values()) > k):
        for el in _in_order(m):
            c = m[el]
            if not 0 <= c <= k:
                out.append(Violation(RANGE, (el,), (c,)))

    # one pass over the edges for the vertex and incidence rules; the edge
    # colors at each vertex are gathered to find where the edge rule fires
    d = interval.d
    get = m.get
    gaps: list[Violation] = []
    at: defaultdict[int, list[int]] = defaultdict(list)
    for e in g.edges():
        u, v = e
        cu, cv = get(u), get(v)
        if cu is not None and cu == cv:
            out.append(Violation(VERTEX_ADJACENCY, (u, v), (cu, cv)))
        ce = get(e)
        if ce is None:
            continue
        at[u].append(ce)
        at[v].append(ce)
        if cu is not None and abs(cu - ce) < d:
            gaps.append(Violation(INCIDENCE_GAP, (u, e), (cu, ce)))
        if cv is not None and abs(cv - ce) < d:
            gaps.append(Violation(INCIDENCE_GAP, (v, e), (cv, ce)))

    clash = sorted(v for v, cols in at.items() if len(set(cols)) < len(cols))
    for v in clash:
        at_v = ((v, w) if v < w else (w, v) for w in g.neighbors(v))
        colored = sorted(e for e in at_v if e in m)
        # distinct edges share at most one endpoint, so each adjacent pair
        # shows up under exactly one vertex
        for i in range(len(colored)):
            for j in range(i + 1, len(colored)):
                e, f = colored[i], colored[j]
                ce, cf = m[e], m[f]
                if ce == cf:
                    out.append(Violation(EDGE_ADJACENCY, (e, f), (ce, cf)))

    out.extend(gaps)
    return out


def _free_mask(same: int, bands: int, interval: ColorInterval) -> int:
    """The colors of the interval that neither mask bars, as an int whose
    bit c is set when color c is free.

    Bit c of ``same`` bars color c.  Bit c + d - 1 of ``bands`` bars the
    2d - 1 colors closer than d to color c, so a band centered a little
    below 0 still counts; bits outside {0..k} are cut off at both ends.
    This is the one place the band rule is written.
    """
    d = interval.d
    wide = bands
    for shift in range(1, 2 * d - 1):
        wide |= bands << shift
    return ~(same | wide >> 2 * (d - 1)) & ((1 << (interval.k + 1)) - 1)


def mask_colors(mask: int) -> list[int]:
    """The colors whose bits are set in mask, ascending."""
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


def available_edge_mask(g: Graph, phi: Labeling, e: tuple,
                        interval: ColorInterval) -> int:
    """The colors that can legally be placed on the (uncolored) edge e, as
    a mask (see :func:`_free_mask`).

    phi is a PartialLabeling or a dict keyed by normalized elements; e may
    be given in either orientation.  Each colored edge at an end bars its
    color, each colored end the colors closer than d to its own.
    """
    u, v = e
    if u > v:
        u, v = v, u
    if not g.has_edge(u, v):
        raise GraphError("(%d, %d) is not an edge of the graph" % (u, v))
    get = _color_map(phi).get
    r = interval.d - 1
    same = bands = 0
    for x in (u, v):
        for w in g.neighbors(x):
            c = get((x, w) if x < w else (w, x), -1)
            if c >= 0:
                same |= 1 << c
        c = get(x)
        if c is not None and c + r >= 0:
            bands |= 1 << (c + r)
    return _free_mask(same, bands, interval)


def available_vertex_mask(g: Graph, phi: Labeling, v: int,
                          interval: ColorInterval) -> int:
    """The colors that can legally be placed on the (uncolored) vertex v,
    as a mask (see :func:`_free_mask`).

    phi is a PartialLabeling or a dict keyed by normalized elements.  Each
    colored neighbor bars its color, each colored incident edge the colors
    closer than d to its own.
    """
    if v not in g:
        raise GraphError("%r is not a vertex of the graph" % (v,))
    get = _color_map(phi).get
    r = interval.d - 1
    same = bands = 0
    for w in g.neighbors(v):
        c = get(w, -1)
        if c >= 0:
            same |= 1 << c
        c = get((v, w) if v < w else (w, v))
        if c is not None and c + r >= 0:
            bands |= 1 << (c + r)
    return _free_mask(same, bands, interval)


def available_edge(g: Graph, phi: Labeling, e: tuple,
                   interval: ColorInterval) -> frozenset[int]:
    """The colors of :func:`available_edge_mask`, as a set."""
    return frozenset(mask_colors(available_edge_mask(g, phi, e, interval)))


def available_vertex(g: Graph, phi: Labeling, v: int,
                     interval: ColorInterval) -> frozenset[int]:
    """The colors of :func:`available_vertex_mask`, as a set."""
    return frozenset(mask_colors(available_vertex_mask(g, phi, v, interval)))
