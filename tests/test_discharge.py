"""Charge bookkeeping: initial totals, rules, masters, and the scan."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from corpus import acceptance_corpus, digest_graphs
from gadgets import c4 as _make_c4
from gadgets import spider as _make_spider
from gadgets import (
    disjoint_union,
    leaf_triangle,
    master_ladder,
    octahedron,
    one_face_k33,
    pinned_twin_instance,
    separated_twin_instance,
    special_face_with_mate,
    toroidal_k7,
    triakis_tetrahedron,
    with_isolated_vertex,
)
from tlabel.discharge import (
    CORNER_PAYMENT,
    HEAVY_PAYMENT,
    MASTER_PAYMENT,
    SPECIAL_FIVE_PAYMENT,
    UNIT,
    AuditError,
    StructureViolation,
    apply_rules,
    assign_masters,
    audit,
    classify_faces,
    initial_charges,
    scan_structure,
)
from tlabel.families import generate
from tlabel.graphs import (
    DisconnectedError,
    EmbeddingError,
    Graph,
    GraphError,
    PlaneGraph,
)
from tlabel.reduction import (
    DEG4_LOW_NEIGHBOR,
    FACE_566,
    FACE_567,
    LIGHT_EDGE,
    SPARSE_EDGE,
    TWIN_LOW_NEIGHBOR,
    TWO_DEG2,
    ReducibleConfig,
    config_holds,
)


def _make_k4() -> PlaneGraph:
    rot = {0: (1, 2, 3), 1: (2, 0, 3), 2: (0, 1, 3), 3: (0, 2, 1)}
    return PlaneGraph({v: set(r) for v, r in rot.items()}, rot)


def _make_k2() -> PlaneGraph:
    return PlaneGraph({0: {1}, 1: {0}}, {0: (1,), 1: (0,)})


def _make_half_charge_tree() -> PlaneGraph:
    """Path 0-1-2 where 0 has degree 12, 1 degree 2, 2 degree 4."""
    adj = {0: {1} | set(range(10, 21)), 1: {0, 2}, 2: {1, 30, 31, 32}}
    rot = {0: [1] + list(range(10, 21)), 1: (0, 2), 2: (1, 30, 31, 32)}
    for leaf in list(range(10, 21)) + [30, 31, 32]:
        owner = 0 if leaf < 30 else 2
        adj[leaf] = {owner}
        rot[leaf] = (owner,)
    return PlaneGraph(adj, rot)


# ---------------------------------------------------------------------------
# initial charges


def test_initial_charges_frozen():
    led = initial_charges(_make_k4())
    assert all(led.get(("v", v)) == -1 for v in range(4))
    assert all(led.get(("f", i)) == -1 for i in range(4))
    assert led.total() == -8

    led = initial_charges(_make_k2())
    assert led.get(("v", 0)) == -3 and led.get(("v", 1)) == -3
    assert led.get(("f", 0)) == -2
    assert led.total() == -8

    led = initial_charges(PlaneGraph({7: set()}, {7: ()}))
    assert led.get(("v", 7)) == -4 and led.get(("f", 0)) == -4
    assert led.total() == -8

    led = initial_charges(octahedron())
    assert all(led.get(("v", v)) == 0 for v in range(6))
    assert all(led.get(("f", i)) == -1 for i in range(8))


def test_initial_total_across_families():
    cases = [
        ("cycle", 5, 0),
        ("star", 9, 0),
        ("wheel", 7, 0),
        ("stacked_triangulation", 15, 4),
        ("random_planar", 25, 1),
    ]
    for family, n, seed in cases:
        assert initial_charges(generate(family, n, seed)).total() == -8


def test_classify_faces():
    assert classify_faces(leaf_triangle(5, 6, 7)) == ("special", "big")
    assert classify_faces(leaf_triangle(5, 6, 8)) == ("normal", "big")
    assert set(classify_faces(octahedron())) == {"normal"}
    assert sorted(classify_faces(generate("wheel", 4))) == [
        "big", "normal", "normal", "normal", "normal"
    ]
    path = PlaneGraph(
        {0: {1}, 1: {0, 2}, 2: {1}}, {0: (1,), 1: (0, 2), 2: (1,)}
    )
    assert classify_faces(path) == ("big",)


def _sorted_degree_kinds(g: PlaneGraph) -> tuple:
    """classify_faces as it was written before it compared degree sets."""
    out = []
    for face in g.faces():
        if len(face) != 3 or len(set(face)) != 3:
            out.append("big")
        elif sorted(map(g.degree, face)) == [5, 6, 7]:
            out.append("special")
        else:
            out.append("normal")
    return tuple(out)


def test_face_kinds_match_the_sorted_degree_rule():
    # the set of three distinct corners' degrees is {5, 6, 7} exactly when
    # they are one of each; repeated degrees make a normal triangle
    assert classify_faces(leaf_triangle(5, 6, 6)) == ("normal", "big")
    assert classify_faces(leaf_triangle(5, 5, 7)) == ("normal", "big")
    assert classify_faces(leaf_triangle(7, 5, 6)) == ("special", "big")
    kinds = set()
    for g in digest_graphs() + tuple(
            leaf_triangle(*d) for d in itertools.product((5, 6, 7), repeat=3)):
        try:
            expected = _sorted_degree_kinds(g)
        except DisconnectedError:
            continue
        assert classify_faces(g) == expected
        kinds.update(expected)
    assert kinds == {"special", "normal", "big"}


def test_structure_violation_is_an_immutable_record():
    v = StructureViolation("C2", "sparse edge", ((0, 1),))
    assert StructureViolation._fields == ("code", "note", "elements")
    assert repr(v) == (
        "StructureViolation(code='C2', note='sparse edge', elements=((0, 1),))")
    with pytest.raises(AttributeError):
        v.code = "C3"
    assert v.to_dict() == {"code": "C2", "note": "sparse edge",
                           "elements": [[0, 1]]}


# ---------------------------------------------------------------------------
# masters


def test_assign_masters_square_of_hubs():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for hub in range(4):
        edges += [(hub, 10 + 2 * hub), (hub, 11 + 2 * hub)]
    g = Graph.from_edges(edges)
    out = assign_masters(g, 3)
    assert out.status == "ok"
    assert all(out.masters[leaf] == (leaf - 10) // 2 for leaf in range(10, 18))
    assert all(out.load[hub] == 2 for hub in range(4))


def test_assign_masters_relocates_to_free_capacity():
    # client 2 only reaches master 10, so client 1 must migrate to 11
    edges = list(itertools.combinations((10, 11, 12, 13), 2))
    edges += [(1, 10), (1, 11), (2, 10)]
    g = Graph.from_edges(edges)
    out = assign_masters(g, 2)
    assert out.status == "ok"
    assert out.masters == {1: 11, 2: 10}


def test_assign_masters_deficient_star():
    g = Graph.from_edges((0, i) for i in range(1, 13))
    out = assign_masters(g, 3)
    assert out.status == "deficient"
    assert out.violator == frozenset({0})
    assert out.unmatched == 3
    assert out.load[0] == 2


def test_assign_masters_follows_an_augmenting_path_through_every_client():
    length = 1200
    g = master_ladder(length)
    out = assign_masters(g, 2)
    assert out.status == "ok"
    # each client moved one master along to free master 0 for the pendant
    assert out.masters == {
        **{length + 1 + i: i + 1 for i in range(length)}, 2 * length + 1: 0}
    assert audit(g).status == "reducible"


# sha256 of (status, masters, load, violator, unmatched) at budgets 2 and 3
# on the acceptance corpus; recorded with the recursive augmenting-path
# search
MASTERS_DIGEST = (
    "0bb99b1c33d05356dc11c43158a70ac3469d82992d3a6312943db599b995546e"
)


def test_assign_masters_reproduces_golden_digest():
    lines = []
    for name, g, _ in acceptance_corpus():
        for k in (2, 3):
            out = assign_masters(g, k)
            lines.append("%s %d %s %r %r %r %r" % (
                name, k, out.status, sorted(out.masters.items()),
                sorted(out.load.items()), sorted(out.violator), out.unmatched))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == MASTERS_DIGEST


# ---------------------------------------------------------------------------
# discharging rules


def test_special_triangle_keeps_one_eighty_fourth():
    g = leaf_triangle(5, 6, 7)
    led = apply_rules(g, 12)
    idx = classify_faces(g).index("special")
    assert led.get(("f", idx)) == Fraction(1, 84)
    assert led.get(("v", 0)) == Fraction(3, 4)
    assert led.get(("v", 1)) == Fraction(5, 3)
    assert led.get(("v", 2)) == Fraction(18, 7)
    assert led.total() == -8


def test_normal_triangle_with_eight_corner_breaks_even():
    g = leaf_triangle(5, 6, 8)
    led = apply_rules(g, 12)
    idx = classify_faces(g).index("normal")
    assert led.get(("f", idx)) == 0
    assert led.total() == -8


def test_four_corners_pay_nothing():
    led = apply_rules(octahedron(), 12)
    assert all(led.get(("v", v)) == 0 for v in range(6))
    assert all(led.get(("f", i)) == -1 for i in range(8))


def test_two_vertex_collects_half_from_heavy_neighbor():
    g = _make_half_charge_tree()
    led = apply_rules(g, 12)
    assert led.get(("v", 1)) == Fraction(-1, 2)
    assert led.get(("v", 0)) == Fraction(13, 2)
    assert led.get(("v", 2)) == 0
    assert led.total() == -8


def test_rules_fail_when_masters_run_out():
    with pytest.raises(AuditError):
        apply_rules(generate("wheel", 12), 12)


def test_every_rule_amount_is_a_whole_number_of_units():
    # the paper's amounts: 1 from a master, 1/2 from a heavy neighbor, and
    # 1/4, 1/6, 1/3, 3/7, 1/2 from triangle corners of degree 5, 6, 7, 8+
    amounts = {Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 6),
               Fraction(1, 3), Fraction(3, 7)}
    rules = {MASTER_PAYMENT, HEAVY_PAYMENT, SPECIAL_FIVE_PAYMENT,
             *CORNER_PAYMENT} - {0}
    assert rules == amounts
    assert all((a * UNIT).denominator == 1 for a in amounts)
    assert UNIT == 84


def test_triakis_tetrahedron_scans_clean_and_ends_negative_at_bound_9():
    # the smallest residue the construction leaves below the paper's
    # threshold: nothing reducible, yet every face finishes at -1/3
    g = triakis_tetrahedron()
    assert scan_structure(g, 9) == ()
    led = apply_rules(g, 9)
    faces = [c for k, c in led.charges.items() if k[0] == "f"]
    assert faces == [Fraction(-1, 3)] * 12
    assert led.get(("v", 0)) == -2 and led.get(("v", 1)) == -2
    assert led.total() == -8
    assert list(led.charges) == (
        [("v", v) for v in range(8)] + [("f", i) for i in range(12)])


# ---------------------------------------------------------------------------
# structural scan


def test_scan_disconnected():
    codes = [v.code for v in scan_structure(Graph.from_edges([(0, 1), (2, 3)]), 12)]
    assert "C1" in codes


def test_scan_sparse_and_light_edges():
    p3 = Graph.from_edges([(0, 1), (1, 2)])
    assert "C2" in [v.code for v in scan_structure(p3, 12)]
    star = Graph.from_edges((0, i) for i in range(1, 11))
    codes = [v.code for v in scan_structure(star, 12)]
    assert "C3" in codes and "C2" not in codes


def test_scan_master_deficiency_and_weak_master():
    hits = [v for v in scan_structure(generate("wheel", 12), 12) if v.code == "C4"]
    assert hits and hits[0].elements == (0,)
    g = Graph.from_edges(
        list(itertools.combinations((10, 11, 12, 13, 14), 2)) + [(1, 10)]
    )
    # a master too weak for its client is the heavy end of a light edge,
    # which C3 reports; there is no separate code for it
    scan = scan_structure(g, 12)
    assert [v.elements for v in scan if v.code == "C3"] == [((1, 10),)]
    assert "C5" not in {v.code for v in scan}


def test_scan_low_four_vertex():
    hits = [v for v in scan_structure(generate("wheel", 4), 12) if v.code == "C6a"]
    assert hits


def test_scan_small_corner_triangle():
    hits = [v for v in scan_structure(leaf_triangle(5, 6, 6), 12) if v.code == "C6b"]
    assert hits and hits[0].elements == ((0, 1, 2),)
    assert not [
        v for v in scan_structure(leaf_triangle(5, 6, 7), 12) if v.code == "C6b"
    ]


def test_scan_paired_two_neighbors():
    hits = [v for v in scan_structure(_make_spider(), 12) if v.code == "C6c"]
    assert hits[0].elements == (0, 1, 3)
    assert "shape 3" in hits[0].note
    hits = [v for v in scan_structure(_make_c4(), 12) if v.code == "C6c"]
    assert hits[0].elements == (0, 2, 3)
    assert "shape 1" in hits[0].note


def test_scan_twins_on_triangle_face():
    g, _ = pinned_twin_instance()
    hits = [v for v in scan_structure(g, 12) if v.code == "C6d"]
    assert hits and hits[0].elements == (0, 2, 3, 1)


def test_scan_twins_on_a_triangle_that_is_not_a_face():
    # the twin extension trades colors along the triangle's edges only, so
    # the scan reports twins whose apex triangle separates the plane
    g = separated_twin_instance()
    assert not [f for f in g.faces() if set(f) == {0, 1, 2}]
    hits = [v for v in scan_structure(g, 12) if v.code == "C6d"]
    assert [v.elements for v in hits] == [(0, 1, 3, 2)]


def test_scan_reports_every_occurrence_of_paired_two_neighbors():
    # three legs at one hub make three pairs, each its own violation
    rot = {0: (1, 3, 5), 1: (0, 2), 2: (1,), 3: (0, 4), 4: (3,),
           5: (0, 6), 6: (5,)}
    g = PlaneGraph({v: set(r) for v, r in rot.items()}, rot)
    hits = [v.elements for v in scan_structure(g, 12) if v.code == "C6c"]
    assert hits == [(0, 1, 3), (0, 1, 5), (0, 3, 5)]
    twins = [v.elements for v in scan_structure(pinned_twin_instance()[0], 12)
             if v.code == "C6d"]
    assert twins[0] == (0, 2, 3, 1) and len(twins) == len(set(twins))


def test_scan_reads_faces_of_disconnected_plane_graphs():
    g = disjoint_union(leaf_triangle(5, 6, 6), special_face_with_mate(),
                       stride=1000)
    found = {(v.code, v.elements) for v in scan_structure(g, 12)}
    assert ("C6b", ((0, 1, 2),)) in found
    assert ("C6e", ((1000, 1001, 1002), 1010)) in found
    codes = [v.code for v in scan_structure(g, 12)]
    assert codes[0] == "C1" and codes == sorted(codes)


def test_scan_special_triangle_with_mate():
    hits = [
        v for v in scan_structure(special_face_with_mate(), 12) if v.code == "C6e"
    ]
    assert hits and hits[0].elements == ((0, 1, 2), 10)


def test_scan_cannot_judge_nonplane_graphs():
    # the face patterns need an embedding, so a dense abstract graph can
    # slip through the scan; the audit itself refuses such input
    k7 = Graph.from_edges(itertools.combinations(range(7), 2))
    assert scan_structure(k7, 12) == ()
    with pytest.raises(GraphError):
        audit(k7)


# ---------------------------------------------------------------------------
# the audit


def test_audit_reducible_across_families():
    cases = [
        ("wheel", 9, 0),
        ("star", 13, 0),
        ("cycle", 8, 0),
        ("random_planar", 40, 5),
        ("stacked_triangulation", 30, 2),
    ]
    for family, n, seed in cases:
        rep = audit(generate(family, n, seed))
        assert rep.status == "reducible"
        assert rep.violations
        assert rep.initial_total == -8
        json.dumps(rep.to_dict())


def test_audit_argument_checks():
    w4 = generate("wheel", 4)
    with pytest.raises(ValueError):
        audit(w4, M=11)
    with pytest.raises(ValueError):
        audit(generate("wheel", 14), M=12)


def test_audit_of_a_disconnected_graph_has_no_initial_total():
    # face tracing needs a connected graph, so the charges are left out
    g = disjoint_union(generate("wheel", 13), generate("wheel", 9))
    rep = audit(g)
    assert rep.status == "reducible"
    assert rep.initial_total is None
    assert "C1" in {v.code for v in rep.violations}
    assert json.dumps(rep.to_dict())


def test_audit_computes_components_at_most_twice(monkeypatch):
    # once for the scan's disconnection check, once for face tracing
    calls = []
    components = Graph.components

    def counted(self):
        calls.append(self)
        return components(self)

    monkeypatch.setattr(Graph, "components", counted)
    g = disjoint_union(generate("wheel", 13), generate("wheel", 9))
    assert audit(g).status == "reducible"
    assert len(calls) <= 2


def test_audit_passes_share_one_degree_map(monkeypatch):
    # audit, initial_charges, classify_faces and apply_rules each read the
    # degrees of one graph, which keeps the map that the first of them built
    maps = []
    degrees = PlaneGraph.degrees

    def kept(self):
        maps.append(degrees(self))
        return maps[-1]

    monkeypatch.setattr(PlaneGraph, "degrees", kept)
    monkeypatch.setattr("tlabel.discharge.scan_structure", lambda g, M: ())
    g = octahedron()
    assert audit(g).status == "CONTRADICTION-CANDIDATE"
    initial_charges(g)
    classify_faces(g)
    apply_rules(g, 12)
    assert len(maps) == 5 and all(m is maps[0] for m in maps)
    assert list(maps[0].items()) == [(v, g.degree(v)) for v in g.vertices]


@pytest.mark.parametrize("make", [
    toroidal_k7, one_face_k33,
    # being disconnected must not spare a rotation system its face tracing
    pytest.param(lambda: with_isolated_vertex(toroidal_k7()), id="k7+k1"),
    pytest.param(lambda: with_isolated_vertex(one_face_k33()), id="k33+k1"),
])
def test_audit_rejects_a_nonplane_rotation_system(make):
    # the K3,3 gadget has sparse edges, so its scan is not clean; the audit
    # must still refuse it rather than report a reducible graph
    with pytest.raises(EmbeddingError):
        audit(make())


def test_audit_flags_clean_scans_as_candidates(monkeypatch):
    # no plane graph under the bound should ever scan clean; if one did,
    # the audit must surface it with the full ledger attached
    monkeypatch.setattr("tlabel.discharge.scan_structure", lambda g, M: ())
    rep = audit(octahedron())
    assert rep.status == "CONTRADICTION-CANDIDATE"
    assert rep.final is not None
    assert rep.final.total() == -8
    assert rep.negatives
    assert json.dumps(rep.to_dict())


# sha256 of the scan's (code, note, elements) sequence restricted to the
# codes whose meaning the configuration catalogue kept, on the face sample
# and the acceptance corpus at three bounds; recorded with the per-code
# scan loops that the catalogue replaced
SCAN_DIGEST = "abfa9b58897b5a3f569db184096a4df43d25876937ff350f4bf1591d1d6ef2e0"
DIGEST_CODES = {"C1", "C2", "C3", "C4", "C6a", "C6b", "C6e"}

# the same over every code, C6c and C6d included; recorded with the
# enumerators that sorted every neighbor set for C6c and offered every
# edge to the C2 and C3 predicates
FULL_SCAN_DIGEST = (
    "4751395b89c96bb0ef1cc8ec834605e427f6415262def010b50683f400f7e03d"
)


@functools.lru_cache(maxsize=None)
def _scan_lines() -> tuple:
    """(code, line) for every violation of the digest scans, in order."""
    return tuple(
        (v.code, "%d %d %r" % (i, M, (v.code, v.note, v.elements)))
        for i, g in enumerate(digest_graphs())
        for M in (12, 14, 16)
        for v in scan_structure(g, M)
    )


def test_scan_reproduces_golden_digest():
    text = "\n".join(line for code, line in _scan_lines()
                     if code in DIGEST_CODES)
    assert hashlib.sha256(text.encode()).hexdigest() == SCAN_DIGEST


def test_full_scan_reproduces_golden_digest():
    text = "\n".join(line for _, line in _scan_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == FULL_SCAN_DIGEST


# sha256 of the JSON of initial_charges, apply_rules (or its error) and
# audit (or its error), each as to_dict(), on the face sample and the
# acceptance corpus at two bounds; it pins values and key order.  Recorded
# with the ledger that kept a Fraction per key.
LEDGER_DIGEST = (
    "e2a5c373b9f445a5cb09255f08f915220bc258b1546670864bd7e0073c83e2dc"
)


def _ledger_outcome(fn, *args):
    try:
        return fn(*args).to_dict()
    except (AuditError, ValueError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def test_ledgers_reproduce_golden_digest():
    entries = [
        [_ledger_outcome(initial_charges, g),
         _ledger_outcome(apply_rules, g, M), _ledger_outcome(audit, g, M)]
        for g in digest_graphs() for M in (12, 16)
    ]
    text = json.dumps(entries)
    assert hashlib.sha256(text.encode()).hexdigest() == LEDGER_DIGEST


def _config_named_by(g: Graph, M: int, v) -> ReducibleConfig:
    """The configuration a violation names, rebuilt from its elements."""
    if v.code == "C2":
        return ReducibleConfig(SPARSE_EDGE, {"edge": v.elements[0]})
    if v.code == "C3":
        ((a, b),) = v.elements
        low = a if g.degree(a) <= (M + 2) // 4 else b
        return ReducibleConfig(LIGHT_EDGE, {"low": low, "edge": (a, b)})
    if v.code == "C6a":
        c, o = v.elements
        return ReducibleConfig(DEG4_LOW_NEIGHBOR, {"center": c, "edge": (c, o)})
    if v.code == "C6b":
        (face,) = v.elements
        low = min(c for c in face if g.degree(c) == 5)
        corners = (low, *sorted(c for c in face if c != low))
        return ReducibleConfig(FACE_566, {"corners": corners})
    if v.code == "C6c":
        hub, x, y = v.elements
        (xp,) = g.neighbors(x) - {hub}
        (yp,) = g.neighbors(y) - {hub}
        return ReducibleConfig(TWO_DEG2, {
            "hub": hub, "x": x, "y": y, "x_other": xp, "y_other": yp,
            "case": 1 if xp == yp else 3})
    if v.code == "C6d":
        hub, v1, v2, apex = v.elements
        return ReducibleConfig(
            TWIN_LOW_NEIGHBOR, {"hub": hub, "twins": (v1, v2), "apex": apex})
    assert v.code == "C6e", v.code
    face, mate = v.elements
    corners = tuple(sorted(face, key=g.degree))
    return ReducibleConfig(FACE_567, {"corners": corners, "outside": mate})


def test_every_scan_code_names_a_configuration_the_labeler_reduces():
    checked = set()
    graphs = [(g, M) for _, g, M in acceptance_corpus()]
    graphs += [(g, 12) for g in (
        pinned_twin_instance()[0], separated_twin_instance(), _make_c4(),
        _make_spider(), special_face_with_mate(), leaf_triangle(5, 6, 6),
        generate("wheel", 4))]
    for g, M in graphs:
        for v in scan_structure(g, M):
            if v.code in ("C1", "C4"):
                continue
            assert config_holds(g, M, _config_named_by(g, M, v)), (v, M)
            checked.add(v.code)
    assert checked == {"C2", "C3", "C6a", "C6b", "C6c", "C6d", "C6e"}
