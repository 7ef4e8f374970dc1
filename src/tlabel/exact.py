"""Exact (d,1)-total labeling by bounded backtracking.

The optimum is found by trying span k upward from a degree lower bound.
Every unsatisfiable level is proven by exhausting its search tree, so a
returned value is exact; when a node budget runs out the result says
"unknown" instead of guessing.

The search is one iterative depth-first loop with forward checking
(Haralick and Elliott, 1980), so depth is bounded by memory, not by the
interpreter's recursion limit.  Every element carries its remaining colors
as an int bitmask.  Placing a color removes it from the later elements that
must differ ("same" conflicts: adjacent vertices, edges sharing an
endpoint) and removes the band of colors closer than d from the later
elements that must keep the gap ("band" conflicts: a vertex and an
incident edge).  A color that would empty one of those domains is pruned
and leaves every domain as it found it; a placement that survives saves
the domains it narrows and writes them back when the search returns to
its depth, so the saved domains never outnumber the conflicts.  The
conflicts come from one index of each vertex's incident edges.  Elements
are tried in a static order with colors ascending; a smallest-domain-first
order would find other first solutions and so change the witnesses that
the labeler's base cases and their golden digests depend on.

The search never tries a color that a symmetry of the problem makes
redundant (Gent, Petrie and Puget, "Symmetry in Constraint Programming",
2006).  The reflection c -> k - c maps labelings to labelings at every d,
so the first element tries only the colors 0..k/2.  At d = 1 every
constraint says "differ", so any permutation of the colors maps labelings
to labelings, and element i tries only the colors up to one above the
largest color placed before it (the first element tries color 0 alone).
Neither rule changes a witness.  Forward checking prunes only prefixes
that no labeling extends, so the search returns the lexicographically
least labeling in its element order, and neither rule cuts that one: had
it given the first element a color above k/2, its reflection would be
smaller; had it given element i a color c more than one above every
earlier color, swapping c with the unused color one above them would give
a smaller labeling.  So values and witnesses are the same as without the
rules, and at d >= 2 so are the nodes of a solvable level: the colors cut
lie beyond the witness.  A refuted level is cheaper, and at d = 1 a
solvable one may be too.

This is meant for small instances (say up to a few dozen elements) and as a
ground-truth oracle for the structural machinery, not for scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import Graph
from .labeling import ColorInterval, PartialLabeling, is_edge


class BudgetExceeded(Exception):
    """The node budget ran out before the search finished."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__("search budget exhausted after %d nodes" % nodes)


@dataclass
class SolveResult:
    """Outcome of :func:`lambda_exact`.

    ``level_nodes`` holds the nodes spent at each span tried, from the
    lowest upward, including the level cut short when the budget ran out;
    it sums to ``nodes``.  For a disconnected graph the components' counts
    at one span are added together, starting at the smallest component
    lower bound.
    """

    status: str  # "solved" or "unknown"
    value: Optional[int]
    witness: Optional[PartialLabeling]
    nodes: int
    level_nodes: tuple[int, ...]

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def _check_budget(budget: Optional[int]) -> None:
    if budget is not None and budget < 0:
        raise ValueError("the search budget must be non-negative, got %d" % budget)


def _element_order(g: Graph) -> list:
    """Vertices and edges interleaved by descending degree pressure.

    An edge weighs the sum of its endpoint degrees, a vertex its own degree;
    ties break toward vertices and then lower ids so runs are reproducible.
    """
    deg = {}
    items = []
    for v in g.vertices:
        deg[v] = dv = g.degree(v)
        items.append((-dv, 0, v, v))
    for u, v in g.edges():
        items.append((-(deg[u] + deg[v]), 1, u, v))
    items.sort()
    return [u if kind == 0 else (u, v) for _, kind, u, v in items]


def _search(same: list, band: list, k: int, d: int,
            budget: Optional[int]) -> tuple[Optional[list], int]:
    """Color items 0..n-1 from {0..k}, in index order, by forward checking.

    ``same[i]`` lists the later items whose color must differ from item
    i's, ``band[i]`` the later items whose color must differ from it by at
    least d.  Returns (colors, nodes) with colors None when no coloring
    exists, and otherwise the lexicographically least coloring.  One node
    is spent per candidate color tried; colors a symmetry rules out are
    never tried: item 0 tries only 0..k/2 (the reflection c -> k - c), and
    at d = 1, where colors are interchangeable, item i tries only colors up
    to one above the largest placed at depths below i.  Raises
    BudgetExceeded past ``budget`` nodes.

    A placement that survives saves the domains it narrows in
    ``undo[i]``, and returning to depth i from deeper writes them back.  A
    pruned color leaves nothing behind: its band is checked before anything
    is written, and what it wrote before emptying a "same" domain is put
    back at once.  The two lists of one item never share an item (a "same"
    pair is two vertices or two edges, a band pair a vertex and an edge),
    so checking the band first decides the same colors as checking it last.
    """
    n = len(same)
    full = (1 << (k + 1)) - 1
    spread = (1 << (2 * d - 1)) - 1  # the 2d-1 colors closer than d, low end at bit 0
    limit = float("inf") if budget is None else budget
    dom = [full] * n
    bits = [0] * n       # the placed color of each item, as a one-bit mask
    rest = [0] * n       # colors not yet tried at each depth
    undo: list = [None] * n  # (item, domain before) per domain narrowed at each depth
    interchangeable = d == 1
    # at d = 1, the colors each depth may try: up to one above the largest
    # placed before it (at d >= 2 every depth past 0 may try every color)
    opened = [1] * n if interchangeable else None
    nodes = 0
    i = 0
    if n:
        # the reflection c -> k - c leaves item 0 the colors 0..k/2, and
        # interchangeable colors leave it color 0 alone
        rest[0] = 1 if interchangeable else (1 << (k // 2 + 1)) - 1
    while i < n:
        r = rest[i]
        if not r:
            if i == 0:
                return None, nodes
            i -= 1
            for j, m in undo[i]:
                dom[j] = m
            continue
        low = r & -r
        rest[i] = r ^ low
        nodes += 1
        if nodes > limit:
            raise BudgetExceeded(nodes)
        if band[i]:
            drop = (spread * low) >> (d - 1)
            keep = ~drop
            emptied = False
            for j in band[i]:
                if not dom[j] & keep:
                    emptied = True
                    break
            if emptied:
                continue
        saved = []
        emptied = False
        for j in same[i]:
            m = dom[j]
            if m & low:
                if m == low:  # the color alone: placing it empties m
                    emptied = True
                    break
                saved.append((j, m))
                dom[j] = m ^ low
        if emptied:
            for j, m in saved:
                dom[j] = m
            continue
        if band[i]:
            for j in band[i]:
                m = dom[j]
                if m & drop:
                    saved.append((j, m))
                    dom[j] = m & keep
        undo[i] = saved
        bits[i] = low
        i += 1
        if i < n:
            if interchangeable:
                opened[i] = opened[i - 1] | low << 1
                rest[i] = dom[i] & opened[i]
            else:
                rest[i] = dom[i]
    return [b.bit_length() - 1 for b in bits], nodes


def _total_conflicts(g: Graph, order: Sequence) -> tuple[list, list]:
    """The later "same" and "band" conflicts of each element in order; an
    element left out of the order constrains nothing.

    One pass indexes the position of each vertex and of each vertex's
    edges; every element's conflicts are then read off that index.
    """
    pos: dict = {}       # vertex -> its position in order
    incident: dict = {}  # vertex -> the positions of its edges
    for i, el in enumerate(order):
        if is_edge(el):
            for x in el:
                incident.setdefault(x, []).append(i)
        else:
            pos[el] = i
    same: list = []
    band: list = []
    for i, el in enumerate(order):
        later_same: list = []
        later_band: list = []
        if is_edge(el):
            for x in el:
                if pos.get(x, -1) > i:
                    later_band.append(pos[x])
                for j in incident[x]:
                    if j > i:
                        later_same.append(j)
        else:
            for w in g.neighbors(el):
                if pos.get(w, -1) > i:
                    later_same.append(pos[w])
            for j in incident.get(el, ()):
                if j > i:
                    later_band.append(j)
        same.append(later_same)
        band.append(later_band)
    return same, band


def find_labeling(g: Graph, interval: ColorInterval,
                  budget: Optional[int] = None) -> tuple[Optional[PartialLabeling], int]:
    """Search for any total labeling within the interval.

    Returns (labeling, nodes) with labeling None when the level is
    unsatisfiable; raises BudgetExceeded when the budget runs out first
    and ValueError when it is negative.
    """
    _check_budget(budget)
    order = _element_order(g)
    same, band = _total_conflicts(g, order)
    colors, nodes = _search(same, band, interval.k, interval.d, budget)
    if colors is None:
        return None, nodes
    return PartialLabeling(dict(zip(order, colors))), nodes


def span_lower_bound(g: Graph, d: int) -> int:
    """Degree-based lower bound for the optimal span.

    The extra unit for regular graphs needs d >= 2: it comes from every
    vertex being forced to an end of the interval, which only happens
    when interior colors block strictly more than d edge colors.
    """
    if g.m == 0:
        return 0
    delta = g.max_degree
    lo = delta + d - 1
    regular = min(map(g.degree, g.vertices)) == delta
    if d >= delta or (regular and d >= 2):
        lo = max(lo, delta + d)
    return lo


def _left(budget: Optional[int], spent: int) -> Optional[int]:
    """What is left of a budget (None for none) after spent nodes."""
    return None if budget is None else budget - spent


def _lambda_connected(g: Graph, d: int, budget: Optional[int]) -> SolveResult:
    """lambda_exact on a connected graph: each span level gets what the
    levels below it left of the budget."""
    levels: list = []
    for k in itertools.count(span_lower_bound(g, d)):
        interval = ColorInterval(k=k, d=d)
        try:
            phi, spent = find_labeling(g, interval,
                                       _left(budget, sum(levels)))
        except BudgetExceeded as exc:
            levels.append(exc.nodes)
            return SolveResult("unknown", None, None, sum(levels), tuple(levels))
        levels.append(spent)
        if phi is not None:
            return SolveResult("solved", k, phi, sum(levels), tuple(levels))


def lambda_exact(g: Graph, d: int = 2, budget: Optional[int] = None) -> SolveResult:
    """The exact optimal span, searched upward from the lower bound.

    Components are solved independently; the optimum of a disconnected
    graph is the maximum over its components.  The budget caps the nodes
    of the whole search: each span level, and each component, gets only
    what the levels and components before it left, and the result is
    "unknown" as soon as one more node would exceed it.  A negative budget
    raises ValueError.
    """
    _check_budget(budget)
    comps = g.components()
    if len(comps) <= 1:
        return _lambda_connected(g, d, budget)
    subs = []
    per_span: dict = {}
    for comp in comps:
        sub_g = g.induced(comp)
        left = _left(budget, sum(per_span.values()))
        sub = _lambda_connected(sub_g, d, left)
        for k, spent in enumerate(sub.level_nodes, span_lower_bound(sub_g, d)):
            per_span[k] = per_span.get(k, 0) + spent
        subs.append(sub)
        if not sub.solved:
            break
    levels = tuple(per_span.get(k, 0) for k in range(min(per_span), max(per_span) + 1))
    if not subs[-1].solved:
        return SolveResult("unknown", None, None, sum(levels), levels)
    merged: dict = {}
    for sub in subs:
        merged.update(sub.witness.as_dict())
    return SolveResult("solved", max(sub.value for sub in subs),
                       PartialLabeling(merged), sum(levels), levels)


def _min_colors(same: list) -> int:
    """The fewest colors properly coloring items 0..n-1 (n >= 1), where
    ``same[i]`` lists the later items that must differ from item i."""
    no_band = [[] for _ in same]
    for c in itertools.count(1):
        colors, _ = _search(same, no_band, c - 1, 1, None)
        if colors is not None:
            return c


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by exhaustive search over color counts."""
    if g.n == 0:
        return 0
    return _min_colors(_total_conflicts(g, g.vertices)[0])


def edge_chromatic_number(g: Graph) -> int:
    """Exact chromatic index by exhaustive search over color counts."""
    if g.m == 0:
        return 0
    return _min_colors(_total_conflicts(g, g.edges())[0])


def bounds(g: Graph, d: int = 2) -> tuple[int, int]:
    """Lower and upper bounds sandwiching the optimal span.

    Lower: max-degree bounds (plus one when d dominates the degree or the
    graph is regular).  Upper: chromatic number plus chromatic index plus
    d - 2, from coloring vertices and edges separately and spreading them.
    """
    upper = chromatic_number(g) + edge_chromatic_number(g) + d - 2
    lower = span_lower_bound(g, d)
    return lower, max(lower, upper)
