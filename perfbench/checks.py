"""Output checks written from the definitions, independent of tlabel.

Nothing here calls into the program under test: graphs arrive as plain
vertex and edge lists captured when the inputs were generated, and
labelings as plain dicts (vertex -> color, (u, v) with u < v -> color).
Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction


def labeling_problems(vertices, edges, colors: dict, span: int, gap: int) -> list[str]:
    """A total (gap,1)-total labeling with colors in {0..span}, or problems."""
    out = []
    expected = set(vertices) | set(edges)
    missing = expected - colors.keys()
    extra = colors.keys() - expected
    if missing:
        out.append("%d elements unlabeled, e.g. %r" % (len(missing), min(missing, key=repr)))
    if extra:
        out.append("%d labeled elements not in the graph" % len(extra))
    if missing or extra:
        return out
    bad = [el for el, c in colors.items() if not 0 <= c <= span]
    if bad:
        out.append("%d colors outside 0..%d" % (len(bad), span))
    at: dict = defaultdict(list)
    for u, v in edges:
        if colors[u] == colors[v]:
            out.append("adjacent vertices %d, %d share color %d" % (u, v, colors[u]))
        c = colors[(u, v)]
        for x in (u, v):
            if abs(colors[x] - c) < gap:
                out.append("vertex %d (%d) and edge %r (%d) closer than %d"
                           % (x, colors[x], (u, v), c, gap))
            at[x].append(c)
    for x, cs in at.items():
        if len(set(cs)) != len(cs):
            out.append("edges at vertex %d repeat a color" % x)
    return out


def parse_labeling_text(text: str) -> dict:
    """Read the 'v id color' / 'e u v color' labeling file format."""
    colors: dict = {}
    for line in text.splitlines():
        toks = line.split()
        if not toks:
            continue
        if toks[0] == "v" and len(toks) == 3:
            key = int(toks[1])
        elif toks[0] == "e" and len(toks) == 4:
            u, v = int(toks[1]), int(toks[2])
            key = (min(u, v), max(u, v))
        else:
            raise ValueError("unreadable labeling line %r" % line)
        if key in colors:
            raise ValueError("element %r labeled twice" % (key,))
        colors[key] = int(toks[-1])
    return colors


def list_coloring_problems(edges, lists: dict, coloring: dict) -> list[str]:
    """Every edge colored from its own list, adjacent edges distinct."""
    out = []
    if set(coloring) != set(edges):
        return ["colored edges differ from the graph's edges"]
    at: dict = defaultdict(list)
    for e in edges:
        c = coloring[e]
        if c not in lists[e]:
            out.append("edge %r got %r, not on its list" % (e, c))
        for x in e:
            at[x].append(c)
    for x, cs in at.items():
        if len(set(cs)) != len(cs):
            out.append("edges at vertex %d repeat a color" % x)
    return out


def audit_problems(n: int, m: int, status: str, initial_total, face_count: int,
                   classified: int, final_total) -> list[str]:
    """A connected plane graph: reducible, charges total -8 before and after."""
    out = []
    if status != "reducible":
        out.append("audit status %r, expected 'reducible'" % status)
    if initial_total != Fraction(-8):
        out.append("initial charge total %s, expected -8" % initial_total)
    if face_count != 2 - n + m:
        out.append("%d faces, Euler's formula gives %d" % (face_count, 2 - n + m))
    if classified != face_count:
        out.append("%d faces classified of %d" % (classified, face_count))
    if final_total != Fraction(-8):
        out.append("charge total %s after the rules, expected -8" % final_total)
    return out
