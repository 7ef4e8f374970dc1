"""Mechanized charge bookkeeping over plane graphs.

The audit has two halves.  A structural scan hunts for local patterns that
always allow a labeling to be extended, so a graph containing one can never
be a minimal counterexample.  Apart from disconnection (C1) and a master
deficiency (C4), those patterns are the labeler's own reducible kinds: the
scan runs the predicates of :mod:`tlabel.reduction`'s catalogue and reports
every occurrence they accept.  When the scan comes up empty, an exact
rational charge redistribution runs; its fixed negative total certifies
that a clean scan describes an impossible graph, and any vertex or face
left negative shows exactly where the bookkeeping says so.  Every rule
moves a whole number of units of 1/UNIT, so the charges are counted
exactly on ints; a ledger hands them out as Fractions, each built once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .graphs import DisconnectedError, Graph, GraphError, PlaneGraph
from .reduction import _CATALOGUE, SPECIAL_FACE_DEGREES, degree_bound


class AuditError(RuntimeError):
    """The charge rules cannot be applied to this graph."""


class StructureViolation(NamedTuple):
    """One local pattern that contradicts minimality."""

    code: str
    note: str
    elements: tuple

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "note": self.note,
            "elements": [list(e) if isinstance(e, tuple) else e
                         for e in self.elements],
        }


@dataclass
class ChargeLedger:
    """Exact charges keyed by ("v", vertex) and ("f", face index)."""

    charges: dict

    def get(self, key) -> Fraction:
        return self.charges[key]

    def total(self) -> Fraction:
        return sum(self.charges.values(), Fraction(0))

    def negatives(self) -> tuple:
        return tuple(
            k for k in sorted(self.charges) if self.charges[k] < 0
        )

    def to_dict(self) -> dict:
        verts = {
            str(k[1]): str(c) for k, c in self.charges.items() if k[0] == "v"
        }
        faces = {
            str(k[1]): str(c) for k, c in self.charges.items() if k[0] == "f"
        }
        return {"vertices": verts, "faces": faces, "total": str(self.total())}


# The amounts the rules move.  A 2- or 3-vertex takes MASTER_PAYMENT from
# its master, and a 2-vertex HEAVY_PAYMENT from each neighbor of degree at
# least M.  A triangle corner pays its face CORNER_PAYMENT[min(d, 8)] by
# its degree d: nothing below 5, (d - 4)/d at 6 and 7, 1/2 from 8 up; a
# 5-corner of a special triangle pays SPECIAL_FIVE_PAYMENT instead.
MASTER_PAYMENT = Fraction(1)
HEAVY_PAYMENT = Fraction(1, 2)
SPECIAL_FIVE_PAYMENT = Fraction(1, 4)
CORNER_PAYMENT = (0, 0, 0, 0, 0, Fraction(1, 6), Fraction(1, 3),
                  Fraction(3, 7), Fraction(1, 2))

# The ledger counts in units of 1/UNIT, the coarsest unit in which every
# amount above is whole.
UNIT = math.lcm(*(Fraction(a).denominator for a in (
    MASTER_PAYMENT, HEAVY_PAYMENT, SPECIAL_FIVE_PAYMENT, *CORNER_PAYMENT)))

_MASTER_UNITS = int(MASTER_PAYMENT * UNIT)
_HEAVY_UNITS = int(HEAVY_PAYMENT * UNIT)
_CORNER_UNITS = tuple(int(a * UNIT) for a in CORNER_PAYMENT)
_SPECIAL_CORNER_UNITS = (
    _CORNER_UNITS[:5] + (int(SPECIAL_FIVE_PAYMENT * UNIT),)
    + _CORNER_UNITS[6:])


def _initial_units(g: PlaneGraph, deg: dict) -> tuple[dict, list]:
    """Degree-minus-four charges in units: a dict over the vertices in
    deg's order, and a list over the faces."""
    return ({v: (d - 4) * UNIT for v, d in deg.items()},
            [(len(face) - 4) * UNIT for face in g.faces()])


def _ledger(vertex_units: dict, face_units: list) -> ChargeLedger:
    """The charges as Fractions, one built per distinct value."""
    distinct = {*vertex_units.values(), *face_units}
    value = {u: Fraction(u, UNIT) for u in distinct}
    charges = {("v", v): value[u] for v, u in vertex_units.items()}
    charges.update(
        (("f", idx), value[u]) for idx, u in enumerate(face_units))
    return ChargeLedger(charges)


def initial_charges(g: PlaneGraph) -> ChargeLedger:
    """Degree-minus-four charges; any connected plane graph totals -8."""
    return _ledger(*_initial_units(g, g.degrees()))


_SPECIAL_DEGREE_SET = frozenset(SPECIAL_FACE_DEGREES)


def _face_kinds(faces, deg: dict) -> list[str]:
    """Each face's kind by the corner degrees in deg: "big" unless it is a
    triangle on three distinct corners, then "special" when the set of
    its corner degrees is {5, 6, 7}, which for three corners means one of
    each, and "normal" otherwise."""
    out = []
    for face in faces:
        if len(face) != 3:
            out.append("big")
            continue
        a, b, c = face
        if a == b or b == c or a == c:
            out.append("big")
        elif {deg[a], deg[b], deg[c]} == _SPECIAL_DEGREE_SET:
            out.append("special")
        else:
            out.append("normal")
    return out


def classify_faces(g: PlaneGraph) -> tuple[str, ...]:
    """Label each face "special", "normal" (other triangles), or "big"."""
    return tuple(_face_kinds(g.faces(), g.degrees()))


# ---------------------------------------------------------------------------
# master assignment


@dataclass
class MasterOutcome:
    """Result of assigning low vertices to adjacent high-degree masters."""

    budget: int
    status: str  # "ok" or "deficient"
    masters: dict
    load: dict
    violator: frozenset = frozenset()
    unmatched: Optional[int] = None


def assign_masters(g: Graph, k: int,
                   clients: Optional[Iterable[int]] = None) -> MasterOutcome:
    """Match every client to an adjacent vertex of degree above k.

    Masters take at most k - 1 clients each.  Clients default to all
    vertices of degree at most k.  On failure the violator set is the
    saturated neighborhood blocking the unmatched client, a Hall-style
    certificate that no assignment exists.
    """
    adj = g._adj
    if clients is None:
        clients = sorted(v for v, ns in adj.items() if len(ns) <= k)
    else:
        clients = sorted(clients)
    cap = k - 1
    match: dict = {}
    served: dict = {}  # master -> its clients, kept beside match

    def attempt(root: int, visited: set) -> bool:
        """Depth-first search for an augmenting path from root, on an
        explicit stack.  A frame holds a client, its masters still to try,
        the master it tries, and that master's clients still to move (last
        first)."""
        stack = [[root, iter(sorted(g.neighbors(root))), None, None]]
        while stack:
            frame = stack[-1]
            rivals = frame[3]
            if rivals:
                x = rivals.pop()
                stack.append([x, iter(sorted(adj[x])), None, None])
                continue
            for m in frame[1]:
                if len(adj[m]) > k and m not in visited:
                    break
            else:
                stack.pop()
                continue
            visited.add(m)
            frame[2] = m
            if len(served.get(m, ())) < cap:
                for x, _, m, _ in reversed(stack):
                    if x in match:
                        served[match[x]].remove(x)
                    served.setdefault(m, set()).add(x)
                    match[x] = m
                return True
            frame[3] = sorted(served[m], reverse=True)
        return False

    for x in clients:
        visited: set = set()
        if not attempt(x, visited):
            break
    else:
        x, visited = None, set()
    load = {m: len(cs) for m, cs in served.items()}
    return MasterOutcome(k, "ok" if x is None else "deficient", match, load,
                         frozenset(visited), x)


# ---------------------------------------------------------------------------
# discharging rules


def apply_rules(g: PlaneGraph, M: int) -> ChargeLedger:
    """Redistribute charge; moves only, so the total stays -8.

    Senders: every vertex of degree at least M pushes 1/2 to each
    neighbor of degree 2; every vertex of degree 2 or 3 additionally
    pulls 1 from its assigned master; triangle corners pay their face on
    a sliding scale by degree, a 5-corner paying more on a special
    triangle.  The moves count units of 1/UNIT on ints.
    """
    deg = g.degrees()
    vertex_units, face_units = _initial_units(g, deg)
    needy = [v for v, d in deg.items() if d in (2, 3)]
    masters: dict = {}
    if needy:
        outcome = assign_masters(g, 3, clients=needy)
        if outcome.status != "ok":
            raise AuditError(
                "vertex %d of degree %d has no master with spare capacity"
                % (outcome.unmatched, deg[outcome.unmatched])
            )
        masters = outcome.masters

    for v in needy:
        vertex_units[masters[v]] -= _MASTER_UNITS
        vertex_units[v] += _MASTER_UNITS
        if deg[v] == 2:
            for w in g.neighbors(v):
                if deg[w] >= M:
                    vertex_units[w] -= _HEAVY_UNITS
                    vertex_units[v] += _HEAVY_UNITS

    capped = {v: min(d, 8) for v, d in deg.items()}
    faces = g.faces()
    for idx, (face, kind) in enumerate(zip(faces, _face_kinds(faces, deg))):
        if kind == "big":
            continue
        pays = _SPECIAL_CORNER_UNITS if kind == "special" else _CORNER_UNITS
        for v in face:
            amount = pays[capped[v]]
            vertex_units[v] -= amount
            face_units[idx] += amount
    return _ledger(vertex_units, face_units)


# ---------------------------------------------------------------------------
# structural scan


# the catalogue's kinds with an audit code, in code order, split where C4
# falls between them
_SCAN_KINDS = sorted((k for k in _CATALOGUE.values() if k.code is not None),
                     key=lambda k: k.code)
_KINDS_BEFORE_C4 = tuple(k for k in _SCAN_KINDS if k.code < "C4")
_KINDS_AFTER_C4 = tuple(k for k in _SCAN_KINDS if k.code > "C4")


def _scan_kinds(g: Graph, M: int, kinds, found: list) -> None:
    """Append one violation per occurrence of each kind, in order."""
    for kind in kinds:
        code, cite = kind.code, kind.cite
        for fields in kind.occurrences(g, M):
            note, elements = cite(g, M, *fields)
            found.append(StructureViolation(code, note, elements))


def scan_structure(g: Graph, M: int) -> tuple[StructureViolation, ...]:
    """Every local pattern that rules the graph out as a counterexample.

    C1 is disconnection and C4 a master deficiency at budget 2 or 3.  The
    other codes are the labeler's reducible kinds, one violation for each
    occurrence its predicate accepts: C2 sparse edges, C3 light edges, C6a
    low 4-vertices, C6b small-corner triangle faces, C6c paired
    2-neighbors, C6d twinned low neighbors on a triangle, C6e special
    triangle faces with an outside mate.  The face codes need rotations
    but not a connected graph.  Violations come ordered by code, and in
    scan order within a code: the codes are produced in that order, so
    nothing is sorted afterwards.
    """
    found: list[StructureViolation] = []

    comps = g.components()
    if len(comps) > 1:
        sizes = sorted((len(c) for c in comps), reverse=True)
        found.append(StructureViolation(
            "C1", "disconnected: component sizes %s" % sizes, ()
        ))

    _scan_kinds(g, M, _KINDS_BEFORE_C4, found)
    for k in (2, 3):
        outcome = assign_masters(g, k)
        if outcome.status != "ok":
            found.append(StructureViolation(
                "C4",
                "budget %d: vertex %d cannot be assigned a master"
                % (k, outcome.unmatched),
                tuple(sorted(outcome.violator)),
            ))
    _scan_kinds(g, M, _KINDS_AFTER_C4, found)

    return tuple(found)


# ---------------------------------------------------------------------------
# the audit


@dataclass
class AuditReport:
    """Outcome of scanning and, when the scan is clean, discharging."""

    bound: int
    status: str  # "reducible" or "CONTRADICTION-CANDIDATE"
    violations: tuple
    initial_total: Optional[Fraction] = None
    final: Optional[ChargeLedger] = None
    negatives: tuple = ()

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "status": self.status,
            "violations": [v.to_dict() for v in self.violations],
            "initial_total": (
                None if self.initial_total is None else str(self.initial_total)
            ),
            "discharge": None if self.final is None else self.final.to_dict(),
            "negatives": [list(k) for k in self.negatives],
        }


def audit(g: PlaneGraph, M: Optional[int] = None) -> AuditReport:
    """Scan for reducible structure, discharging only on a clean scan.

    A clean scan would mean the graph evades every reduction this package
    can perform, which the charge argument says cannot happen; such a
    graph is reported as a contradiction candidate for manual review.
    A rotation system that is not plane raises EmbeddingError, connected
    or not; a disconnected plane graph is reported without initial charges.
    """
    if not isinstance(g, PlaneGraph):
        raise GraphError("auditing needs a plane graph with rotations")
    M = degree_bound(M, g.max_degree)

    violations = scan_structure(g, M)
    try:
        vertex_units, face_units = _initial_units(g, g.degrees())
        initial = Fraction(sum(vertex_units.values()) + sum(face_units), UNIT)
    except DisconnectedError:
        initial = None

    if violations:
        return AuditReport(M, "reducible", violations, initial)

    ledger = apply_rules(g, M)
    return AuditReport(
        M, "CONTRADICTION-CANDIDATE", (), initial, ledger, ledger.negatives()
    )
