"""List edge coloring of bipartite graphs.

A bipartite graph whose every edge uv carries a list of at least
max{deg(u), deg(v)} allowed colors always admits a proper edge coloring
choosing from the lists.  The searcher here exploits that guarantee: it
backtracks fail-first, in one loop over an explicit stack that keeps each
uncolored edge's free colors as a set and picks the next edge from a heap
keyed by their number, and treats exhaustion as a broken precondition
rather than a legitimate outcome.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Mapping

from .graphs import Graph, GraphError, edge_key


class ListSizeError(ValueError):
    """Some edge list is smaller than the guaranteed-solvable threshold."""


class ListColorError(RuntimeError):
    """The search exhausted despite lists meeting the threshold."""


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]]:
    """Two-color the vertices, raising GraphError on an odd cycle."""
    side: dict[int, int] = {}
    for root in sorted(g.vertices):
        if root in side:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for w in g.neighbors(v):
                if w not in side:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    raise GraphError("graph is not bipartite")
    left = frozenset(v for v, s in side.items() if s == 0)
    return left, frozenset(g.vertices) - left


def check_list_sizes(g: Graph, lists: Mapping[tuple, Iterable[int]]) -> None:
    """Require every edge list to hold max of the endpoint degrees colors."""
    for e in g.edges():
        if e not in lists:
            raise ListSizeError("edge (%d, %d) has no color list" % e)
        u, v = e
        need = max(g.degree(u), g.degree(v))
        have = len(set(lists[e]))
        if have < need:
            raise ListSizeError(
                "edge (%d, %d) has %d colors, needs %d" % (u, v, have, need)
            )


def list_edge_color(g: Graph,
                    lists: Mapping[tuple, Iterable[int]]) -> dict[tuple, int]:
    """Proper edge coloring from per-edge lists on a bipartite graph.

    The degree threshold is enforced up front (ListSizeError), so a failed
    search raises ListColorError: exhaustion then means the caller handed
    over an inconsistent instance.
    """
    bipartition(g)
    check_list_sizes(g, lists)
    edges = g.edges()

    # free[e] is e's list less the colors of its colored neighbors; it stays
    # fixed once e is colored, since only uncolored edges are struck
    free = {e: set(lists[e]) for e in edges}
    # (free colors, edge) with lazy deletion: an entry is live while its
    # edge is uncolored with that many free colors, and each change of
    # either pushes a fresh one
    heap = [(len(free[e]), e) for e in edges]
    heapify(heap)

    assignment: dict[tuple, int] = {}
    # per edge on the search path: the colors it has yet to try and the
    # neighbors its current color was struck from
    stack: list[tuple[tuple, Iterator[int], list[tuple]]] = []
    while len(assignment) < len(edges):
        if not stack or stack[-1][0] in assignment:
            # fail-first: fewest free colors, ties to the least edge, which
            # is the first in g.edges() since that lists them sorted
            if len(heap) > 4 * len(edges):  # mostly dead entries: rebuild
                heap = [(len(free[f]), f) for f in edges if f not in assignment]
                heapify(heap)
            while True:
                s, e = heap[0]
                if e not in assignment and len(free[e]) == s:
                    break
                heappop(heap)
            stack.append((e, iter(sorted(free[e])), []))
        e, todo, struck = stack[-1]
        c = next(todo, None)
        if c is None:
            stack.pop()
            if not stack:
                raise ListColorError("list edge coloring search exhausted")
            e, _, struck = stack[-1]
            c = assignment.pop(e)
            for f in struck:
                free[f].add(c)
                heappush(heap, (len(free[f]), f))
            struck.clear()
            heappush(heap, (len(free[e]), e))
            continue
        assignment[e] = c
        for v in e:
            for w in g.neighbors(v):
                f = edge_key(v, w)
                if f not in assignment and c in free[f]:
                    free[f].remove(c)
                    heappush(heap, (len(free[f]), f))
                    struck.append(f)
    return assignment
