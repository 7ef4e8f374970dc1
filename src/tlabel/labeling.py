"""Partial (d,1)-total labelings and their availability calculus.

A labeling assigns colors from {0..k} to vertices and edges subject to
three constraint families:

* adjacent vertices carry distinct colors,
* adjacent edges (sharing an endpoint) carry distinct colors,
* a vertex and an incident edge differ by at least d.

Elements are vertex ids (int) or normalized edges ((u, v) with u < v).
All set operations here are pure functions of the graph, the labeling and
the color interval.  The labeler's extenders call them afresh after every
assignment; the exact solver does not use them and instead keeps its own
bitmask domains, updated incrementally (see :mod:`tlabel.exact`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

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


def color_band(c: int, interval: ColorInterval) -> frozenset[int]:
    """Colors within distance d-1 of c, clipped to the interval."""
    lo = max(0, c - interval.d + 1)
    hi = min(interval.k, c + interval.d - 1)
    return frozenset(range(lo, hi + 1))


class PartialLabeling:
    """An immutable element -> color mapping, possibly covering nothing."""

    __slots__ = ("_map",)

    def __init__(self, assignment: Optional[Mapping[Element, int]] = None):
        m = {}
        if assignment:
            for el, c in assignment.items():
                m[normalize_element(el)] = int(c)
        self._map = m

    def color(self, element: Element) -> Optional[int]:
        return self._map.get(normalize_element(element))

    def __contains__(self, element: Element) -> bool:
        return normalize_element(element) in self._map

    def __len__(self) -> int:
        return len(self._map)

    def elements(self) -> tuple[Element, ...]:
        verts = sorted(e for e in self._map if not is_edge(e))
        edges = sorted(e for e in self._map if is_edge(e))
        return tuple(verts + edges)

    def as_dict(self) -> dict[Element, int]:
        return dict(self._map)

    def assign(self, element: Element, c: int) -> "PartialLabeling":
        out = dict(self._map)
        out[normalize_element(element)] = int(c)
        return PartialLabeling(out)

    def erase(self, element: Element) -> "PartialLabeling":
        out = dict(self._map)
        out.pop(normalize_element(element), None)
        return PartialLabeling(out)

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


def _check_membership(g: Graph, phi: PartialLabeling) -> None:
    for el in phi.elements():
        if is_edge(el):
            if not g.has_edge(*el):
                raise GraphError("labeled element %r is not an edge of the graph" % (el,))
        elif el not in g:
            raise GraphError("labeled element %r is not a vertex of the graph" % (el,))


def validate(g: Graph, phi: PartialLabeling, interval: ColorInterval) -> list[Violation]:
    """Collect every violated constraint; an empty list means valid.

    Unassigned elements constrain nothing.  Labeled elements outside the
    graph are an error, not a violation.
    """
    _check_membership(g, phi)
    out: list[Violation] = []

    for el in phi.elements():
        c = phi.color(el)
        if c not in interval:
            out.append(Violation(RANGE, (el,), (c,)))

    for u, v in g.edges():
        cu, cv = phi.color(u), phi.color(v)
        if cu is not None and cu == cv:
            out.append(Violation(VERTEX_ADJACENCY, (u, v), (cu, cv)))

    for v in g.vertices:
        colored = sorted(edge_key(v, w) for w in g.neighbors(v) if (v, w) in phi)
        # distinct edges share at most one endpoint, so each adjacent pair
        # shows up under exactly one vertex
        for i in range(len(colored)):
            for j in range(i + 1, len(colored)):
                e, f = colored[i], colored[j]
                ce, cf = phi.color(e), phi.color(f)
                if ce == cf:
                    out.append(Violation(EDGE_ADJACENCY, (e, f), (ce, cf)))

    for u, v in g.edges():
        ce = phi.color((u, v))
        if ce is None:
            continue
        for x in (u, v):
            cx = phi.color(x)
            if cx is not None and abs(cx - ce) < interval.d:
                out.append(Violation(INCIDENCE_GAP, (x, (u, v)), (cx, ce)))

    return out


def incident_edge_colors(g: Graph, phi: PartialLabeling, v: int) -> frozenset[int]:
    """Colors already used on edges at v."""
    return frozenset(
        phi.color((v, w)) for w in g.neighbors(v) if (v, w) in phi
    )


def forbidden_vertex_set(g: Graph, phi: PartialLabeling, v: int,
                         interval: ColorInterval) -> frozenset[int]:
    """Colors an edge at v must avoid: edge colors at v plus the band
    around v's own color (empty when v is uncolored)."""
    out = set(incident_edge_colors(g, phi, v))
    cv = phi.color(v)
    if cv is not None:
        out |= color_band(cv, interval)
    return frozenset(out)


def available_edge(g: Graph, phi: PartialLabeling, e: tuple,
                   interval: ColorInterval) -> frozenset[int]:
    """Colors that can legally be placed on the (uncolored) edge e."""
    u, v = normalize_element(e)
    if not g.has_edge(u, v):
        raise GraphError("(%d, %d) is not an edge of the graph" % (u, v))
    bad = forbidden_vertex_set(g, phi, u, interval) | forbidden_vertex_set(
        g, phi, v, interval
    )
    return frozenset(c for c in interval.colors() if c not in bad)


def available_vertex(g: Graph, phi: PartialLabeling, v: int,
                     interval: ColorInterval) -> frozenset[int]:
    """Colors that can legally be placed on the (uncolored) vertex v."""
    if v not in g:
        raise GraphError("%r is not a vertex of the graph" % (v,))
    bad: set[int] = set()
    for w in g.neighbors(v):
        cw = phi.color(w)
        if cw is not None:
            bad.add(cw)
        ce = phi.color((v, w))
        if ce is not None:
            bad |= color_band(ce, interval)
    return frozenset(c for c in interval.colors() if c not in bad)


def available(g: Graph, phi: PartialLabeling, element: Element,
              interval: ColorInterval) -> frozenset[int]:
    if is_edge(element):
        return available_edge(g, phi, element, interval)
    return available_vertex(g, phi, element, interval)
