"""Shared instance pools: the acceptance corpus and a sample with faces.

Both are built once per process; the graphs are immutable, so the test
modules may share them.
"""

from __future__ import annotations

import functools

from gadgets import (
    c4,
    leaf_triangle,
    octahedron,
    pinned_twin_instance,
    special_face_with_mate,
    spider,
)
from tlabel.families import generate


@functools.lru_cache(maxsize=None)
def acceptance_corpus() -> tuple:
    """(name, graph, bound): connected plane graphs, 13..300 vertices,
    degree capped at 12..16."""
    out = []
    for n in (13, 20, 30, 45, 60, 80, 100, 140, 200, 300):
        for cap in (12, 14, 16):
            for seed in range(5):
                g = generate("stacked_triangulation", n, seed, cap)
                out.append(("stacked-%d-%d-%d" % (n, cap, seed), g, cap))
    for n in (13, 24, 40, 70, 120, 250):
        for cap in (12, 14, 16):
            for seed in range(2):
                g = generate("random_planar", n, seed, cap)
                out.append(("random-%d-%d-%d" % (n, cap, seed), g, cap))
    for n in (12, 13, 14, 15, 16):
        out.append(("wheel-%d" % n, generate("wheel", n), n))
        out.append(("star-%d" % n, generate("star", n), n))
    for n in (13, 60, 150, 300):
        out.append(("cycle-%d" % n, generate("cycle", n), 12))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def face_sample() -> tuple:
    """Generated and hand-built plane graphs with triangle faces of every
    corner pattern the face kinds look at."""
    sample = [generate("stacked_triangulation", n, s, cap)
              for n, s, cap in ((12, 1, None), (60, 2, 12), (120, 3, 16))]
    sample += [generate("random_planar", n, s, cap)
               for n, s, cap in ((30, 4, 12), (80, 5, 14))]
    sample += [generate("wheel", n) for n in (3, 4, 9)]
    sample += [generate("cycle", 3), generate("star", 4), c4(), spider(),
               octahedron(), leaf_triangle(5, 6, 6), special_face_with_mate(),
               pinned_twin_instance()[0]]
    return tuple(sample)


def digest_graphs() -> tuple:
    """The face sample, then the acceptance corpus."""
    return face_sample() + tuple(g for _, g, _ in acceptance_corpus())
