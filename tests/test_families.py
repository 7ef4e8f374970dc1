"""Generator families: reproducibility, degree caps and scale."""

from __future__ import annotations

import hashlib
import random

import pytest

from tlabel.cli import main
from tlabel.families import (
    cycle,
    generate,
    random_planar,
    stacked_triangulation,
    star,
    wheel,
)
from tlabel.graphs import GraphError, PlaneGraph
from tlabel.io import parse_graph, serialize_graph

GOLDEN_NS = (3, 4, 5, 8, 20, 60, 150, 400)
GOLDEN_CAPS = (None, 2, 3, 4, 5, 6, 8, 12, 16)
GOLDEN_SEEDS = range(6)
# sha256 over every (family, n, cap, seed) above of serialize_graph(g), or
# of "GraphError: <message>" when the generator refuses; recorded with the
# generators that rebuilt the admissible-face list per vertex and copied
# the graph per candidate deletion
GOLDEN_DIGEST = "837a72469b37344e8bf5588072617f801ece88198c589cd4466ad9ebf6de55d3"


def _golden_digest() -> str:
    h = hashlib.sha256()
    for gen in (stacked_triangulation, random_planar):
        for n in GOLDEN_NS:
            for cap in GOLDEN_CAPS:
                for seed in GOLDEN_SEEDS:
                    try:
                        text = serialize_graph(gen(n, seed, cap))
                    except GraphError as exc:
                        text = "GraphError: %s\n" % exc
                    h.update(("# %s %d %s %d\n" % (gen.__name__, n, cap, seed)).encode())
                    h.update(text.encode())
    return h.hexdigest()


def test_generators_reproduce_golden_digest():
    assert _golden_digest() == GOLDEN_DIGEST


# sha256 of serialize_graph for cycle, star and wheel at n = 3..20, in that
# order; recorded when they still built an adjacency beside their rotations
FIXED_DIGEST = "f91e6715517e13199cd36241233ab2325caa5cab8506ed29ee7803c24ea3a5a7"


def test_fixed_families_reproduce_golden_digest():
    h = hashlib.sha256()
    for gen in (cycle, star, wheel):
        for n in range(3, 21):
            h.update(serialize_graph(gen(n)).encode())
    assert h.hexdigest() == FIXED_DIGEST


def test_random_planar_never_drops_every_edge():
    with pytest.raises(GraphError, match="drop probability"):
        random_planar(10, 0, None, drop=1.0)


def _without_edge(g: PlaneGraph, u: int, v: int) -> PlaneGraph:
    """A copy of g without the edge uv, every rotation otherwise kept."""
    rot = {x: [w for w in g.rotation(x) if {x, w} != {u, v}]
           for x in g.vertices}
    return PlaneGraph({x: set(order) for x, order in rot.items()}, rot)


def _thin_by_copying(n: int, seed: int, cap: int, drop: float):
    # the definition random_planar implements: delete each drawn edge from
    # a copy of the graph unless the copy comes out disconnected
    g = stacked_triangulation(n, seed, cap)
    rng = random.Random("%d-thin" % seed)
    order = list(g.edges())
    rng.shuffle(order)
    for u, v in order:
        if rng.random() >= drop:
            continue
        trimmed = _without_edge(g, u, v)
        if trimmed.is_connected():
            g = trimmed
    return g


@pytest.mark.parametrize("drop", [0.5, 0.9, 0.99])
def test_random_planar_keeps_exactly_the_bridges(drop):
    for n, seed, cap in ((4, 0, None), (20, 1, 12), (60, 2, 12), (120, 3, None)):
        assert random_planar(n, seed, cap, drop) == \
            _thin_by_copying(n, seed, cap, drop), (n, seed, cap)


def _assert_connected_plane(g, cap: int) -> None:
    assert g.max_degree <= cap
    assert g.is_connected()
    assert g.n - g.m + len(g.faces()) == 2  # faces() also runs this check


@pytest.mark.parametrize("gen", [stacked_triangulation, random_planar])
def test_generators_scale_to_12800_vertices(gen):
    g = gen(12800, 1, 14)
    assert g.n == 12800
    _assert_connected_plane(g, 14)


def test_random_planar_thins_almost_to_a_tree():
    for seed in range(3):
        g = random_planar(2000, seed, 14, drop=0.99)
        _assert_connected_plane(g, 14)
        # nearly every edge was drawn, so few beyond a spanning tree remain
        assert g.m < 1.1 * (g.n - 1)


def test_generate_rejects_fixed_family_over_max_degree():
    for family, n, degree in (("cycle", 5, 2), ("star", 4, 4), ("wheel", 5, 5)):
        assert generate(family, n, max_degree=degree).max_degree == degree
        with pytest.raises(GraphError, match="max_degree %d" % (degree - 1)):
            generate(family, n, max_degree=degree - 1)
    assert generate("wheel", 5, max_degree=None).max_degree == 5


def test_gen_cli_rejects_fixed_family_over_max_degree(tmp_path, capsys):
    out = tmp_path / "w.gr"
    assert main(["gen", "--family", "wheel", "--n", "5", "--max-degree", "3",
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()
    assert main(["gen", "--family", "wheel", "--n", "5", "--max-degree", "5",
                 "-o", str(out)]) == 0
    assert parse_graph(out.read_text()).max_degree == 5
