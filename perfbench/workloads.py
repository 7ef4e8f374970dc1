"""The four workloads: their inputs, their ops and how each op is checked.

A workload's set-up turns the seed into ops, yielded one input at a time
so that the benchmark can time set-up in pieces.  Generation,
serialization and file writing happen there, never inside an op.  Each op
carries the size class its latency counts toward (for ``doubling_ratio``),
the number of input vertices plus edges it processes, the call to time, and
an independent check of what the call returned (see ``checks``).
"""

from __future__ import annotations

import contextlib
import io as textio
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from tlabel import cli, discharge, exact, families, graphs, io, listcolor, reduction

import checks


@dataclass
class Op:
    size: Optional[int]  # size class for doubling_ratio; None: not counted
    elements: int  # input vertices plus edges
    call: Callable[[], object]  # the timed work
    check: Callable[[object], list]  # problems with what call returned


def _plain(g) -> tuple[tuple, tuple]:
    # vertex and edge lists captured at generation time, for the checks
    return tuple(g.vertices), tuple(g.edges())


def _seeds(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


# ---------------------------------------------------------------------------
# label-dense: label_planar on degree-saturated stacked triangulations

# graphs per size: enough distinct inputs that one seed's graphs do not
# decide the result, small enough (an op at n=300 takes seconds) for two
# rounds, and twice as many small ones as large so that the median op lies
# inside the small class, not at its top; at most ten in all, so that
# op_tail_ms is the slowest op
DENSE_GRAPHS = {150: 6, 300: 3}
DENSE_BOUND = 12


def _label_op(g, M: int) -> Op:
    vertices, edges = _plain(g)

    def call():
        return reduction.label_planar(g, M)

    def check(result):
        phi, trace = result
        out = checks.labeling_problems(vertices, edges, phi.as_dict(), M + 2, 2)
        if not trace.ok():
            out.append("extension trace has steps below their required slack")
        return out

    return Op(g.n, g.n + g.m, call, check)


def label_dense(seed: int, work_dir: str) -> Iterator[Op]:
    rng = _seeds("label-dense", seed)
    for n, count in DENSE_GRAPHS.items():
        for _ in range(count):
            yield _label_op(families.stacked_triangulation(
                n, rng.randrange(2**31), max_degree=DENSE_BOUND), DENSE_BOUND)


# ---------------------------------------------------------------------------
# label-sparse-cli: the label and verify commands on thinned random graphs

# labeling time varies by a quarter between graphs of one size and has a
# long upper tail, so each size and bound gets many graphs, and more large
# ones than small, so that the median op sits low in the large class
SPARSE_GRAPHS = {75: 8, 150: 12}
SPARSE_BOUNDS = (14, 16)


def _cli(argv: list) -> int:
    sink = textio.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _cli_op(g, M: int, graph_path: str) -> Op:
    vertices, edges = _plain(g)
    stem = os.path.splitext(graph_path)[0]
    lab, rep = stem + ".lab", stem + ".json"

    def call():
        code = _cli(["label", graph_path, "--bound", str(M), "-o", lab, "--report", rep])
        if code != 0:
            raise RuntimeError("tlabel label exited with %d" % code)
        code = _cli(["verify", graph_path, lab, "--span", str(M + 2)])
        if code != 0:
            raise RuntimeError("tlabel verify exited with %d" % code)

    def check(result):
        with open(lab, encoding="utf-8") as fh:
            colors = checks.parse_labeling_text(fh.read())
        with open(rep, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(lab)
        os.remove(rep)
        out = checks.labeling_problems(vertices, edges, colors, M + 2, 2)
        if report.get("slack_ok") is not True:
            out.append("report says the trace missed its required slack")
        if report.get("bound") != M:
            out.append("report bound %r, expected %d" % (report.get("bound"), M))
        return out

    return Op(g.n, g.n + g.m, call, check)


def label_sparse_cli(seed: int, work_dir: str) -> Iterator[Op]:
    rng = _seeds("label-sparse-cli", seed)
    for n, count in SPARSE_GRAPHS.items():
        for M, i in itertools.product(SPARSE_BOUNDS, range(count)):
            g = families.random_planar(n, rng.randrange(2**31), max_degree=M)
            path = os.path.join(work_dir, "g%d-%d-%d.txt" % (n, M, i))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(io.serialize_graph(g))
            yield _cli_op(g, M, path)


# ---------------------------------------------------------------------------
# small-search: the exact solver on every small connected graph

SMALL_MAX_N = 6
SMALL_MAX_M = 8
LIST_INSTANCES = 24


def _canonical(n: int, edges) -> tuple:
    """The smallest relabeled edge tuple over relabelings that respect a
    vertex invariant; equal exactly for isomorphic graphs on n vertices."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    inv = [(len(adj[v]), tuple(sorted(len(adj[w]) for w in adj[v]))) for v in range(n)]
    classes = [
        [v for v in range(n) if inv[v] == key] for key in sorted(set(inv))
    ]
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in classes)):
        pos = {v: i for i, v in enumerate(itertools.chain.from_iterable(parts))}
        key = tuple(sorted(
            (min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges))
        if best is None or key < best:
            best = key
    return best


def _connected(n: int, edges) -> bool:
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


def small_connected_graphs(max_n: int, max_m: int) -> list[tuple[int, tuple]]:
    """Every connected graph with at most max_n vertices and max_m edges,
    one per isomorphism class, as (n, edges) on vertices 0..n-1."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        level = {()}
        for m in range(max_m + 1):
            out.extend((n, e) for e in sorted(level) if _connected(n, e))
            if m < max_m:
                level = {
                    _canonical(n, e + (p,)) for e in level for p in pairs if p not in e
                }
    return out


def _exact_op(g) -> Op:
    vertices, edges = _plain(g)

    def call():
        return (exact.lambda_exact(g, 1), exact.lambda_exact(g, 2),
                exact.bounds(g, 2))

    def check(result):
        r1, r2, (lower, upper) = result
        out = []
        for d, r in ((1, r1), (2, r2)):
            if not r.solved:
                out.append("d=%d: status %r" % (d, r.status))
                continue
            out.extend("d=%d: %s" % (d, p) for p in checks.labeling_problems(
                vertices, edges, r.witness.as_dict(), r.value, d))
        if not out:
            if not lower <= r2.value <= upper:
                out.append("span %d outside bounds [%d, %d]" % (r2.value, lower, upper))
            if r1.value > r2.value:
                out.append("d=1 span %d exceeds d=2 span %d" % (r1.value, r2.value))
        return out

    return Op(g.m, g.n + g.m, call, check)


def _list_op(rng: random.Random) -> Op:
    a, b = rng.randint(2, 5), rng.randint(2, 5)
    edges = [(u, v) for u in range(a) for v in range(a, a + b) if rng.random() < 0.6]
    if not edges:
        edges = [(0, a)]
    h = graphs.Graph.from_edges(edges)
    palette = range(max(h.degree(v) for v in h.vertices) + 2)
    lists = {
        e: frozenset(rng.sample(palette, max(h.degree(e[0]), h.degree(e[1]))))
        for e in edges
    }

    def call():
        return listcolor.list_edge_color(h, lists)

    def check(result):
        return checks.list_coloring_problems(edges, lists, result)

    return Op(None, h.n + h.m, call, check)


def small_search(seed: int, work_dir: str) -> Iterator[Op]:
    # the graph set is complete, so the seed draws only the list instances
    rng = _seeds("small-search", seed)
    for n, edges in small_connected_graphs(SMALL_MAX_N, SMALL_MAX_M):
        yield _exact_op(graphs.Graph.from_edges(edges, vertices=range(n)))
    for _ in range(LIST_INSTANCES):
        yield _list_op(rng)


# ---------------------------------------------------------------------------
# audit-large: parse, audit and discharge large stacked triangulations

# more small graphs than large, so that the median op is not on the
# boundary between sizes
AUDIT_GRAPHS = {400: 2, 800: 1}
AUDIT_BOUNDS = (12, 16)


def _audit_op(text: str, n: int, m: int, M: int) -> Op:
    def call():
        g = io.parse_graph(text)
        report = discharge.audit(g, M)
        initial = discharge.initial_charges(g)
        kinds = discharge.classify_faces(g)
        final = discharge.apply_rules(g, M)
        return report, initial, kinds, final

    def check(result):
        report, initial, kinds, final = result
        faces = sum(1 for key in initial.charges if key[0] == "f")
        return checks.audit_problems(
            n, m, report.status, report.initial_total, faces, len(kinds),
            sum(final.charges.values()))

    return Op(n, n + m, call, check)


def audit_large(seed: int, work_dir: str) -> Iterator[Op]:
    rng = _seeds("audit-large", seed)
    for n, count in AUDIT_GRAPHS.items():
        for M, _ in itertools.product(AUDIT_BOUNDS, range(count)):
            g = families.stacked_triangulation(n, rng.randrange(2**31), max_degree=M)
            yield _audit_op(io.serialize_graph(g), g.n, g.m, M)


WORKLOADS = {
    "label-dense": label_dense,
    "label-sparse-cli": label_sparse_cli,
    "small-search": small_search,
    "audit-large": audit_large,
}
