"""Text round trips for graphs and labelings."""

from __future__ import annotations

import hashlib
import json
import random
from itertools import chain

import pytest

from corpus import digest_graphs
from gadgets import toroidal_k7, with_isolated_vertex
from tlabel.families import generate
from tlabel.graphs import (
    Graph,
    GraphError,
    PlaneGraph,
    _edge_adjacency,
    trace_faces,
)
from tlabel.io import (
    FormatError,
    parse_graph,
    parse_labeling,
    serialize_graph,
    serialize_labeling,
)
from tlabel.labeling import PartialLabeling


def test_parse_minimal_graph():
    g = parse_graph("p tlabel 3 2\ne 0 1\ne 1 2\n")
    assert isinstance(g, Graph) and not isinstance(g, PlaneGraph)
    assert g.n == 3 and g.edges() == ((0, 1), (1, 2))


def test_parse_with_rotations_gives_plane_graph():
    text = "p tlabel 3 3\ne 0 1\ne 1 2\ne 0 2\nr 0 1 2\nr 1 2 0\nr 2 0 1\n"
    g = parse_graph(text)
    assert isinstance(g, PlaneGraph)
    assert len(g.faces()) == 2


def test_comments_and_blank_lines_ignored():
    g = parse_graph("c hello\n\np tlabel 2 1\nc mid\ne 0 1\n")
    assert g.n == 2 and g.m == 1


def test_sparse_labels_remapped_dense():
    g = parse_graph("p tlabel 3 2\ne 10 20\ne 20 30\n")
    assert sorted(g.vertices) == [0, 1, 2]
    assert g.edges() == ((0, 1), (1, 2))


def test_isolated_vertices_from_header():
    g = parse_graph("p tlabel 4 1\ne 0 1\n")
    assert g.n == 4 and g.degree(3) == 0


def test_header_errors():
    with pytest.raises(FormatError):
        parse_graph("e 0 1\n")
    with pytest.raises(FormatError):
        parse_graph("p tlabel 2 2\ne 0 1\n")
    with pytest.raises(FormatError):
        parse_graph("p wrong 2 1\ne 0 1\n")
    with pytest.raises(FormatError):
        parse_graph("p tlabel 2 1\ne 0 1\nx 1 2\n")
    with pytest.raises(FormatError):
        parse_graph("p tlabel 2 1\ne 0 1\np tlabel 2 1\n")


def test_graph_round_trip_is_stable():
    rng = random.Random(3)
    for _ in range(12):
        fam = rng.choice(["wheel", "cycle", "random_planar", "star"])
        g = generate(fam, rng.randint(4, 40), seed=rng.randint(0, 99))
        text = serialize_graph(g)
        again = serialize_graph(parse_graph(text))
        assert text == again


def test_plain_graph_round_trip():
    g = Graph.from_edges([(0, 3), (1, 3), (2, 3)], vertices=range(5))
    h = parse_graph(serialize_graph(g))
    assert h.edges() == g.edges() and h.n == g.n
    assert not isinstance(h, PlaneGraph)


def test_labeling_round_trip():
    g = generate("cycle", 5)
    phi = PartialLabeling({0: 3, 2: 7, (0, 1): 9, (4, 0): 12})
    text = serialize_labeling(phi)
    back = parse_labeling(text, g)
    assert back.as_dict() == phi.as_dict()
    assert serialize_labeling(back) == text


def test_labeling_rejects_foreign_elements():
    g = generate("cycle", 5)
    with pytest.raises(FormatError):
        parse_labeling("v 9 0\n", g)
    with pytest.raises(FormatError):
        parse_labeling("e 0 2 5\n", g)
    with pytest.raises(FormatError):
        parse_labeling("v 0 1\nv 0 2\n", g)


def test_empty_labeling_serializes_empty():
    assert serialize_labeling(PartialLabeling({})) == ""


# sha256 of what loading each text gives: the serialized graph and, with
# rotations, the traced face boundaries, or the error either step raises.
# The texts are every digest graph, each again with ids mapped to 3 id + 1,
# lines shuffled and comments inserted, the malformed graphs that the CLI
# tests feed, the loader's corner cases, and the toroidal K7 alone and
# beside an isolated vertex; the constructors' own errors come last.
# Recorded with the three-pass loader and the seen-set face tracer.
LOAD_DIGEST = (
    "bbcd13c6113a4762cc8574e2fe66574dcfcfee968557954c1aab7e638b60140c"
)

MALFORMED_GRAPHS = (
    "p tlabel 2 1\ne 0 1 2\n",
    "p tlabel 2 1\ne 0 1\nr\n",
    "p tlabel 2 1\ne 0 1\nr 0 1\nr 0 1\nr 1 0\n",
    "p tlabel 2 1\ne 0 -1\n",
    "p tlabel 3 1\ne 0 5\n",
    "p tlabel 2 1\ne 0 x\n",
    "p tlabel 2 1\ne 0 1\nr 0 1 1\nr 1 0\n",
    "p tlabel 3 1\ne 0 1\nr 0 1 2\nr 1 0\n",
    "p tlabel 3 2\ne 0 1\ne 0 2\nr 0 1\nr 1 0\nr 2 0\n",
    "p tlabel 2 2\ne 0 1\ne 1 0\n",
    "p tlabel 2 2\ne 0 1\ne 1 0\nr 0 1\nr 1 0\n",
    "p tlabel 1 1\ne 0 0\n",
    "p tlabel 1 1\ne 0 0\nr 0 0\n",
    "p tlabel 3 2\ne 0 1\ne 1 2\n",
)

# corners of the loader: ids filled in from the header, sparse ids on
# isolated vertices, and rotations that break more than one rule
LOADER_CORNERS = (
    "p tlabel 0 0\n",
    "p tlabel 1 0\nr 0\n",
    "p tlabel 4 1\ne 0 1\n",
    "p tlabel 4 1\ne 0 1\nr 0 1\nr 1 0\n",
    "p tlabel 2 0\nr 5\nr 9\n",
    "p tlabel 0 0\nr 0\n",
    "p tlabel 3 2\ne 0 1\ne 1 2\nr 0 2\nr 1 0 2\nr 2 1\n",
    "p tlabel 3 2\ne 0 1\ne 0 2\nr 0 1 1\nr 1 0\nr 2 0\n",
    "p tlabel 3 2\ne 0 1\ne 0 2\nr 0 1 2 1\nr 1 0\nr 2 0\n",
    "p tlabel 3 2\ne 0 1\ne 0 2\nr 0 2 1\nr 1 0\n",
    "p tlabel 3 2\ne 0 1\ne 0 2\nr 0 1 2\nr 1 0\nr 2\n",
)

# errors that no file can reach: the loader hands the constructors
# symmetric adjacency and a rotation for every vertex it knows
CONSTRUCTOR_ERRORS = (
    lambda: Graph({0: [1], 1: []}),
    lambda: Graph({0: [1]}),
    lambda: Graph({0: [0, 1], 1: [0]}),
    lambda: PlaneGraph({0: [1], 1: [0]}, {0: [1]}),
    lambda: PlaneGraph({0: [1], 1: [0]}, {0: [1], 1: [0], 2: []}),
)


def _error(exc: Exception) -> str:
    return "%s: %s" % (type(exc).__name__, exc)


def _outcome(build) -> str:
    try:
        g = build()
    except ValueError as exc:  # FormatError and GraphError among them
        return _error(exc)
    out = serialize_graph(g)
    if isinstance(g, PlaneGraph):
        try:
            out += repr(list(trace_faces(g)))
        except GraphError as exc:
            out += _error(exc)
    return out


def _load_outcome(text: str) -> str:
    return _outcome(lambda: parse_graph(text))


def _relabeled(text: str, rng: random.Random) -> str:
    """text with every id mapped to 3 id + 1, its lines shuffled, and
    comments, blank and indented lines inserted."""
    lines = []
    for line in text.splitlines():
        toks = line.split()
        if toks[0] in "er":
            toks[1:] = [str(3 * int(t) + 1) for t in toks[1:]]
        lines.append(" ".join(toks))
    rng.shuffle(lines)
    for extra in ("c a comment", "", "   ", "cc", "\tc indented comment"):
        lines.insert(rng.randrange(len(lines) + 1), extra)
    i = rng.randrange(len(lines))
    lines[i] = "  " + lines[i] + "\t"
    return "\n".join(lines) + "\n"


def test_loading_reproduces_golden_digest():
    rng = random.Random(15)
    outcomes = []
    for g in digest_graphs():
        text = serialize_graph(g)
        outcomes.append(_load_outcome(text))
        copy = _relabeled(text, rng)
        outcomes.append(_load_outcome(copy))
        assert outcomes[-1] == outcomes[-2], copy
    outcomes += [_load_outcome(text) for text in MALFORMED_GRAPHS]
    outcomes += [_load_outcome(text) for text in LOADER_CORNERS]
    for g in (toroidal_k7(), with_isolated_vertex(toroidal_k7())):
        outcomes.append(_load_outcome(serialize_graph(g)))
    outcomes += [_outcome(build) for build in CONSTRUCTOR_ERRORS]
    text = json.dumps(outcomes)
    assert hashlib.sha256(text.encode()).hexdigest() == LOAD_DIGEST


def _checked_load(text: str) -> Graph:
    """The graph of a well-formed text built through the checked
    constructors, from the neighbor sets of :func:`_edge_adjacency` fed
    in file order, as the loader built it before it adopted those sets."""
    lines = [t for t in map(str.split, text.splitlines()) if t and t[0][0] != "c"]
    n = next(int(t[2]) for t in lines if t[0] == "p")
    edges = [(int(t[1]), int(t[2])) for t in lines if t[0] == "e"]
    rot = {int(t[1]): [int(w) for w in t[2:]] for t in lines if t[0] == "r"}
    labels = set(chain(*edges, rot, *rot.values()))
    if max(labels, default=-1) >= n:
        remap = {lab: i for i, lab in enumerate(sorted(labels))}
        edges = [(remap[u], remap[v]) for u, v in edges]
        rot = {remap[v]: [remap[w] for w in order] for v, order in rot.items()}
    adj = _edge_adjacency(edges, range(n))
    if not rot:
        return Graph(adj)
    return PlaneGraph(adj, {v: rot.get(v, []) for v in range(n)})


def _assert_adopted_as_checked(text: str) -> None:
    g, ref = parse_graph(text), _checked_load(text)
    assert type(g) is type(ref) and g == ref and hash(g) == hash(ref)
    for v in ref.vertices:
        # frozen as the checked constructor froze them, so iteration
        # order, which the labeler may read, is the same too
        assert type(g.neighbors(v)) is frozenset
        assert list(g.neighbors(v)) == list(ref.neighbors(v)), v
        if isinstance(ref, PlaneGraph):
            assert type(g.rotation(v)) is tuple
            assert g.rotation(v) == ref.rotation(v)


def test_loaded_graphs_equal_the_checked_constructors():
    # the loader adopts its neighbor sets unchecked; dense ids, the
    # 3 id + 1 label map, and files without rotations must all give the
    # graph the checked constructors give
    rng = random.Random(22)
    for g in digest_graphs():
        text = serialize_graph(g)
        plain = "".join(line for line in text.splitlines(keepends=True)
                        if not line.startswith("r"))
        for t in (text, _relabeled(text, rng), plain, _relabeled(plain, rng)):
            _assert_adopted_as_checked(t)


def test_adopting_constructors_normalize_as_the_checked_one():
    g = Graph.from_edges([(0.0, 1), (1, 2.0)], vertices=[3.0])
    assert g == Graph({0: [1], 1: [0, 2], 2: [1], 3: []})
    assert all(type(v) is int for v in g.vertices)
    assert all(type(w) is int for v in g.vertices for w in g.neighbors(v))
    assert all(type(g.neighbors(v)) is frozenset for v in g.vertices)
    with pytest.raises(GraphError, match="self-loop"):
        Graph.from_edges([(1, 1.0)])
    wheel = generate("wheel", 9)
    sub = wheel.induced(range(5))
    assert sub == Graph({v: wheel.neighbors(v) & set(range(5)) for v in range(5)})
    assert all(type(sub.neighbors(v)) is frozenset for v in sub.vertices)
