"""Text formats for graphs and labelings.

Graph files::

    p tlabel <n> <m>
    e <u> <v>            one line per edge
    r <v> <w1> ... <wk>  clockwise neighbor order (all or none; optional
                         for an isolated vertex)

Lines starting with ``c`` are comments.  Vertex labels may be any
non-negative integers: when all are below n they are the ids (an absent id
is an isolated vertex), and otherwise the n labels map to 0..n-1 in
ascending order.  Loading splits each line once and checks each rule
once: the grammar and the labels here, self-loops and repeated edges as
the neighbor sets are built, and each rotation against its vertex's
neighbors.  The graph adopts those sets without checking them again.
The serializer writes dense ids with edges and rotations sorted, so
serialize(parse(serialize(g))) is byte-identical.  A file that breaks the
grammar raises :class:`FormatError`; a graph error, such as a duplicate
edge or a rotation that misses an edge, raises the ``GraphError`` that
the graph constructors raise, with the same message.  No face is traced.

Labeling files::

    v <id> <color>
    e <u> <v> <color>

Partial labelings are fine: absent elements are simply unassigned.
"""

from __future__ import annotations

from itertools import chain
from typing import Union

from .graphs import Graph, PlaneGraph, _edge_adjacency, edge_key
from .labeling import PartialLabeling, _color_map


class FormatError(ValueError):
    """A file does not conform to the expected record grammar."""


def _tokens(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if toks and toks[0][0] != "c":
            yield lineno, toks


def parse_graph(text: str) -> Union[Graph, PlaneGraph]:
    """Parse a graph file; returns a PlaneGraph when rotations are present."""
    header = None
    edges: list[tuple[int, int]] = []
    rotations: dict[int, list[int]] = {}
    for lineno, toks in _tokens(text):
        kind = toks[0]
        if kind == "e":
            if len(toks) != 3:
                raise FormatError("line %d: edge line must be 'e <u> <v>'" % lineno)
            edges.append((int(toks[1]), int(toks[2])))
        elif kind == "r":
            if len(toks) < 2:
                raise FormatError("line %d: rotation line needs a vertex" % lineno)
            v = int(toks[1])
            if v in rotations:
                raise FormatError("line %d: duplicate rotation for %d" % (lineno, v))
            rotations[v] = list(map(int, toks[2:]))
        elif kind == "p":
            if header is not None:
                raise FormatError("line %d: duplicate header" % lineno)
            if len(toks) != 4 or toks[1] != "tlabel":
                raise FormatError("line %d: header must be 'p tlabel <n> <m>'" % lineno)
            header = (int(toks[2]), int(toks[3]))
        else:
            raise FormatError("line %d: unknown record %r" % (lineno, kind))
    if header is None:
        raise FormatError("missing 'p tlabel' header")
    n, m = header
    if m != len(edges):
        raise FormatError("header says %d edges, file has %d" % (m, len(edges)))

    labels = set(chain(*edges, rotations, *rotations.values()))
    if labels and min(labels) < 0:
        raise FormatError("vertex labels must be non-negative")
    if max(labels, default=-1) >= n:  # not dense: map labels to 0..n-1
        if len(labels) != n:
            raise FormatError("header says %d vertices, file uses %d distinct labels"
                              % (n, len(labels)))
        remap = {lab: i for i, lab in enumerate(sorted(labels))}
        edges = [(remap[u], remap[v]) for u, v in edges]
        rotations = {remap[v]: [remap[w] for w in order]
                     for v, order in rotations.items()}

    adj = _edge_adjacency(edges, range(n))  # ids are ints and below n
    if not rotations:
        return Graph._adopt(adj)
    for v in range(n):  # a vertex of degree zero may omit its rotation line
        rotations.setdefault(v, [])
    return PlaneGraph._adopt(adj, rotations)


def serialize_graph(g: Graph) -> str:
    """Serialize a graph (with rotations when it is a PlaneGraph)."""
    verts = g.vertices
    remap = {v: i for i, v in enumerate(verts)}
    lines = ["p tlabel %d %d" % (g.n, g.m)]
    for u, v in sorted(edge_key(remap[a], remap[b]) for a, b in g.edges()):
        lines.append("e %d %d" % (u, v))
    if isinstance(g, PlaneGraph):
        for v in verts:
            order = " ".join(str(remap[w]) for w in g.rotation(v))
            lines.append(("r %d %s" % (remap[v], order)).rstrip())
    return "\n".join(lines) + "\n"


def parse_labeling(text: str, g: Graph) -> PartialLabeling:
    """Parse a labeling file against a graph; unknown elements are errors.

    Every key is an element of g, named once and normalized, so the result
    adopts the parsed dict, and it covers g exactly when it has g.n + g.m
    elements."""
    out: dict = {}
    for lineno, toks in _tokens(text):
        kind = toks[0]
        if kind == "v":
            if len(toks) != 3:
                raise FormatError("line %d: vertex line must be 'v <id> <color>'" % lineno)
            v, c = int(toks[1]), int(toks[2])
            if v not in g:
                raise FormatError("line %d: vertex %d is not in the graph" % (lineno, v))
            if v in out:
                raise FormatError("line %d: vertex %d labeled twice" % (lineno, v))
            out[v] = c
        elif kind == "e":
            if len(toks) != 4:
                raise FormatError("line %d: edge line must be 'e <u> <v> <color>'" % lineno)
            u, v, c = int(toks[1]), int(toks[2]), int(toks[3])
            if not g.has_edge(u, v):
                raise FormatError("line %d: edge (%d, %d) is not in the graph" % (lineno, u, v))
            e = edge_key(u, v)
            if e in out:
                raise FormatError("line %d: edge (%d, %d) labeled twice" % (lineno, u, v))
            out[e] = c
        else:
            raise FormatError("line %d: unknown record %r" % (lineno, kind))
    return PartialLabeling._adopt(out)


def serialize_labeling(phi: PartialLabeling) -> str:
    m = _color_map(phi)
    lines = []
    for el in phi.elements():
        if isinstance(el, tuple):
            lines.append("e %d %d %d" % (el[0], el[1], m[el]))
        else:
            lines.append("v %d %d" % (el, m[el]))
    return "\n".join(lines) + "\n" if lines else ""
