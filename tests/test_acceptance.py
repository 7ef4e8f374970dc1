"""Acceptance checks, one test per shipped guarantee.

Each test prints a single summary line on success, so a verbose run reads
as a checklist.  The corpus and atlas fixtures are session scoped because
several guarantees are measured against the same instances.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import networkx as nx
import pytest

from tlabel.discharge import (
    AuditError,
    apply_rules,
    audit,
    classify_faces,
    initial_charges,
)
from tlabel.exact import (
    chromatic_number,
    edge_chromatic_number,
    lambda_exact,
    span_lower_bound,
)
from tlabel.graphs import Graph, edge_key
from tlabel.labeling import ColorInterval, validate
from tlabel.listcolor import list_edge_color
from tlabel.reduction import label_planar

from corpus import acceptance_corpus
from gadgets import leaf_triangle
from oracle import naive_lambda


# ---------------------------------------------------------------------------
# shared instance pools


@pytest.fixture(scope="session")
def corpus():
    """Connected plane graphs, 13..300 vertices, degree capped at 12..16."""
    return list(acceptance_corpus())


@pytest.fixture(scope="session")
def labeled(corpus):
    """label_planar run on every corpus instance, with wall-clock times."""
    runs = []
    for name, g, bound in corpus:
        start = time.perf_counter()
        phi, trace = label_planar(g, bound)
        runs.append((name, g, bound, phi, trace, time.perf_counter() - start))
    return runs


@pytest.fixture(scope="session")
def atlas():
    """Every connected graph on at most six vertices, with optimal spans."""
    rows = []
    for idx, G in enumerate(nx.graph_atlas_g()[1:209], start=1):
        if not nx.is_connected(G):
            continue
        g = Graph.from_edges(G.edges(), vertices=G.nodes())
        lam = {d: lambda_exact(g, d=d).value for d in (1, 2)}
        rows.append((idx, G, g, lam))
    assert len(rows) == 143
    return rows


# ---------------------------------------------------------------------------
# the guarantees


def test_01_corpus_labeling_meets_degree_plus_two(corpus, labeled):
    assert len(corpus) >= 200
    for name, g, bound in corpus:
        assert 13 <= g.n <= 300, name
        assert 12 <= bound <= 16 and g.max_degree <= bound, name
        assert g.is_connected(), name
    slowest = 0.0
    for name, g, bound, phi, trace, seconds in labeled:
        assert phi.is_total(g), name
        assert phi.max_color() <= bound + 2, name
        assert validate(g, phi, ColorInterval(k=bound + 2, d=2)) == [], name
        assert seconds < 10.0, (name, seconds)
        slowest = max(slowest, seconds)
    print("01 corpus labeling: PASS (%d instances, slowest %.2fs)"
          % (len(labeled), slowest))


def test_02_exact_solver_matches_naive_oracle(atlas):
    checked = 0
    for idx, G, g, lam in atlas:
        for d in (1, 2):
            assert lam[d] == naive_lambda(g, d), (idx, d)
            checked += 1
    print("02 oracle equivalence: PASS (%d graphs x 2 gaps, %d comparisons)"
          % (len(atlas), checked))


def test_03_degree_and_coloring_bounds_sandwich_optimum(atlas):
    for idx, G, g, lam in atlas:
        chi = chromatic_number(g)
        chi_prime = edge_chromatic_number(g)
        for d in (1, 2):
            lo = span_lower_bound(g, d)
            assert lo <= lam[d] <= chi + chi_prime + d - 2, (idx, d)
            if g.m:
                assert lo >= g.max_degree + d - 1, (idx, d)
    print("03 bound sandwich: PASS (%d graphs, both gaps)" % len(atlas))


def test_04_some_planar_graph_needs_degree_plus_two(atlas):
    witnesses = [
        (idx, g.n, g.max_degree)
        for idx, G, g, lam in atlas
        if nx.check_planarity(G)[0] and g.m and lam[2] == g.max_degree + 2
    ]
    assert witnesses, "no witness among connected planar graphs on <= 6 vertices"
    idx, n, delta = witnesses[0]
    print("04 tightness witness: PASS (%d planar graphs on <= 6 vertices "
          "reach max degree + 2; first is atlas %d with %d vertices, "
          "max degree %d)" % (len(witnesses), idx, n, delta))


def test_05_charge_totals_and_conservation(corpus):
    trees = 0
    conserved = 0
    for name, g, bound in corpus:
        assert initial_charges(g).total() == Fraction(-8), name
        if g.m == g.n - 1:
            trees += 1
        try:
            ledger = apply_rules(g, bound)
        except AuditError:
            continue
        assert ledger.total() == Fraction(-8), name
        conserved += 1
    assert trees >= 5
    assert conserved >= 150

    g = leaf_triangle(5, 6, 7)
    ledger = apply_rules(g, 12)
    idx = classify_faces(g).index("special")
    assert ledger.get(("f", idx)) == Fraction(1, 84)
    print("05 charge identities: PASS (%d graphs at -8 incl. %d trees, "
          "%d conserved redistributions, worked face holds 1/84)"
          % (len(corpus), trees, conserved))


def test_06_every_corpus_graph_scans_reducible(corpus):
    codes_seen = set()
    for name, g, bound in corpus:
        report = audit(g, bound)
        assert report.status == "reducible", name
        codes = {v.code for v in report.violations}
        assert not any(c == "C1" for c in codes), name
        hits = {c[:2] for c in codes} & {"C2", "C3", "C4", "C6"}
        assert hits, name
        codes_seen |= codes
    print("06 reducibility universality: PASS (%d graphs, 0 contradiction "
          "candidates, codes seen: %s)"
          % (len(corpus), ", ".join(sorted(codes_seen))))


def _colorable_by_force(edges, lists):
    def rec(i, assigned):
        if i == len(edges):
            return True
        u, v = edges[i]
        for c in lists[edges[i]]:
            if any(assigned[j] == c and (u in f or v in f)
                   for j, f in enumerate(edges[:i])):
                continue
            assigned.append(c)
            if rec(i + 1, assigned):
                return True
            assigned.pop()
        return False

    return rec(0, [])


def test_07_bipartite_list_edge_coloring_guarantee():
    rng = random.Random(98173)
    forced = 0
    for trial in range(1000):
        pairs = [(u, 10 + w)
                 for u in range(rng.randint(1, 4))
                 for w in range(rng.randint(1, 4))]
        rng.shuffle(pairs)
        edges = sorted(pairs[:rng.randint(1, min(12, len(pairs)))])
        g = Graph.from_edges(edges)
        lists = {
            edge_key(u, v): tuple(rng.sample(range(16),
                                             max(g.degree(u), g.degree(v))))
            for u, v in edges
        }
        coloring = list_edge_color(g, lists)
        assert set(coloring) == set(lists), trial
        for e, c in coloring.items():
            assert c in lists[e], trial
            for f, cf in coloring.items():
                if e != f and set(e) & set(f):
                    assert c != cf, trial
        if len(edges) <= 6:
            assert _colorable_by_force(edges, lists), trial
            forced += 1
    assert forced >= 100
    print("07 list edge coloring: PASS (1000 instances, %d brute-force "
          "cross-checks)" % forced)


def test_08_extension_traces_meet_required_slack(labeled):
    steps = 0
    deepest = 0
    for name, g, bound, phi, trace, seconds in labeled:
        assert trace.ok(), name
        assert trace.shortfalls() == [], name
        for record in trace.records:
            for step in record.steps:
                assert step.measured >= step.required, (name, step)
                deepest = max(deepest, step.required)
                steps += 1
    assert steps > 5000
    assert deepest >= 7
    print("08 trace slack telemetry: PASS (%d steps across %d runs, "
          "largest requirement %d)" % (steps, len(labeled), deepest))
