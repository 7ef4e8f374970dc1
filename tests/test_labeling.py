"""Color intervals, partial labelings, validation, and availability."""

from __future__ import annotations

import hashlib
import random

import pytest

from tlabel.families import generate
from tlabel.graphs import Graph, GraphError
from tlabel.labeling import (
    EDGE_ADJACENCY,
    INCIDENCE_GAP,
    RANGE,
    VERTEX_ADJACENCY,
    ColorInterval,
    PartialLabeling,
    available_edge,
    available_edge_mask,
    available_vertex,
    available_vertex_mask,
    mask_colors,
    normalize_element,
    validate,
    working_interval,
)

ITV = ColorInterval(14, 2)


def _make_triangle() -> Graph:
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)])


def _make_full_triangle_labeling() -> PartialLabeling:
    return PartialLabeling(
        {0: 0, 1: 2, 2: 4, (0, 1): 7, (1, 2): 9, (0, 2): 12}
    )


def _with(phi: PartialLabeling, element, c: int) -> PartialLabeling:
    """A copy of phi that gives one element the color c."""
    out = phi.as_dict()
    out[normalize_element(element)] = c
    return PartialLabeling(out)


def _without(phi: PartialLabeling, element) -> PartialLabeling:
    """A copy of phi that leaves one element uncolored."""
    out = phi.as_dict()
    del out[normalize_element(element)]
    return PartialLabeling(out)


def test_interval_basics():
    assert ITV.size == 15
    assert list(ITV.colors()) == list(range(15))
    assert 0 in ITV and 14 in ITV and 15 not in ITV
    assert working_interval(12) == ColorInterval(14, 2)


def test_partial_labeling_is_immutable_and_normalizing():
    phi = PartialLabeling({(2, 1): 5, 0: 3})
    assert phi.color((1, 2)) == 5 and phi.color((2, 1)) == 5
    assert (1, 2) in phi and (2, 1) in phi and 0 in phi
    plain = phi.as_dict()
    assert plain == {(1, 2): 5, 0: 3}
    plain[1] = 7
    assert 1 not in phi and PartialLabeling(plain).color(1) == 7
    assert phi.max_color() == 5


def test_is_total_and_elements():
    g = _make_triangle()
    phi = _make_full_triangle_labeling()
    assert phi.is_total(g)
    assert not _without(phi, 2).is_total(g)
    assert not _without(phi, (1, 2)).is_total(g)
    assert len(list(phi.elements())) == 6


def test_validate_accepts_a_good_labeling():
    g = _make_triangle()
    assert validate(g, _make_full_triangle_labeling(), ITV) == []


def test_validate_flags_equal_adjacent_vertices():
    g = _make_triangle()
    phi = _with(_make_full_triangle_labeling(), 1, 0)
    rules = {v.rule for v in validate(g, phi, ITV)}
    assert VERTEX_ADJACENCY in rules


def test_validate_flags_equal_adjacent_edges():
    g = _make_triangle()
    phi = _with(_make_full_triangle_labeling(), (1, 2), 7)
    rules = {v.rule for v in validate(g, phi, ITV)}
    assert EDGE_ADJACENCY in rules


def test_validate_flags_narrow_incidence_gap():
    g = _make_triangle()
    phi = _with(_make_full_triangle_labeling(), (0, 1), 1)
    bad = [v for v in validate(g, phi, ITV) if v.rule == INCIDENCE_GAP]
    assert bad


def test_validate_flags_out_of_range():
    g = _make_triangle()
    phi = _with(_make_full_triangle_labeling(), 0, 15)
    rules = {v.rule for v in validate(g, phi, ITV)}
    assert RANGE in rules


def test_validate_ignores_uncolored_elements():
    g = _make_triangle()
    phi = PartialLabeling({0: 0, 1: 0})  # not adjacent? they are; flagged
    assert validate(g, phi, ITV)
    assert validate(g, PartialLabeling({0: 0, (1, 2): 0}), ITV) == []


def test_available_edge_frozen_case():
    g = _make_triangle()
    phi = PartialLabeling({0: 0, 1: 14, (0, 2): 5})
    # forbidden: band(0)={0,1}, band(14)={13,14}, edge color 5
    assert available_edge(g, phi, (0, 1), ITV) == frozenset(
        {2, 3, 4, 6, 7, 8, 9, 10, 11, 12}
    )


def test_available_vertex_frozen_case():
    g = _make_triangle()
    phi = PartialLabeling({1: 6, (0, 1): 0, (0, 2): 10})
    # forbidden: neighbor color 6, bands {0,1} and {9,10,11}
    assert available_vertex(g, phi, 0, ITV) == frozenset(
        {2, 3, 4, 5, 7, 8, 12, 13, 14}
    )


def test_available_on_an_empty_labeling_is_every_color():
    g = _make_triangle()
    phi = PartialLabeling({})
    assert available_vertex(g, phi, 0, ITV) == frozenset(range(15))
    assert available_edge(g, phi, (0, 1), ITV) == frozenset(range(15))
    assert available_edge(g, phi, (1, 0), ITV) == frozenset(range(15))


def _available(g, phi, el, itv):
    if isinstance(el, tuple):
        return available_edge(g, phi, el, itv)
    return available_vertex(g, phi, el, itv)


def _random_partial(rng: random.Random, g: Graph, itv: ColorInterval):
    """A random partial labeling that is valid by construction."""
    phi = PartialLabeling({})
    items = list(g.vertices) + [e for e in g.edges()]
    rng.shuffle(items)
    for el in items:
        if rng.random() < 0.4:
            continue
        avail = _available(g, phi, el, itv)
        if avail:
            phi = _with(phi, el, rng.choice(sorted(avail)))
    return phi


def test_availability_is_sound_and_complete():
    # every offered color keeps the labeling valid; every rejected color
    # breaks it; a PartialLabeling and its plain dict offer the same colors.
    # With d=3 a vertex bars a band of five edge colors, clipped at the ends.
    for d in (2, 3):
        rng = random.Random(23)
        for _ in range(20):
            g = generate("random_planar", rng.randint(5, 14),
                         seed=rng.randint(0, 500))
            itv = ColorInterval(max(12, g.max_degree) + 2, d)
            phi = _random_partial(rng, g, itv)
            plain = phi.as_dict()
            assert validate(g, phi, itv) == []
            assert validate(g, plain, itv) == []
            for el in list(g.vertices) + list(g.edges()):
                if el in phi:
                    continue
                offered = _available(g, phi, el, itv)
                assert _available(g, plain, el, itv) == offered
                for c in offered:
                    assert validate(g, _with(phi, el, c), itv) == []
                for c in set(itv.colors()) - set(offered):
                    assert validate(g, _with(phi, el, c), itv)


def _color_band(c: int, itv: ColorInterval) -> set:
    """The colors of the interval closer than d to c."""
    return {b for b in itv.colors() if abs(b - c) < itv.d}


def _reference_free(g: Graph, phi: PartialLabeling, el,
                    itv: ColorInterval) -> set:
    """The colors the definition leaves el, read through phi.color."""
    free = set(itv.colors())
    if isinstance(el, tuple):
        u, v = el
        for x in (u, v):
            for w in g.neighbors(x):
                if {x, w} != {u, v}:
                    free.discard(phi.color((x, w)))
            if phi.color(x) is not None:
                free -= _color_band(phi.color(x), itv)
    else:
        for w in g.neighbors(el):
            free.discard(phi.color(w))
            if phi.color((el, w)) is not None:
                free -= _color_band(phi.color((el, w)), itv)
    return free


def test_availability_masks_match_the_definition():
    # the labelings need not be valid; a third of the colors sit at 0 or k,
    # so bands are clipped at both ends, and k = 3 at d = 3 is narrower
    # than one band
    rng = random.Random(31)
    checked = 0
    for d in (1, 2, 3):
        for _ in range(12):
            g = generate("random_planar", rng.randint(5, 14),
                         seed=rng.randint(0, 500))
            for k in (3, max(12, g.max_degree) + 2):
                itv = ColorInterval(k, d)
                phi = PartialLabeling({
                    el: rng.choice((0, k, rng.randrange(k + 1)))
                    for el in list(g.vertices) + list(g.edges())
                    if rng.random() < 0.6
                })
                for el in list(g.vertices) + list(g.edges()):
                    if el in phi:
                        continue
                    want = _reference_free(g, phi, el, itv)
                    if isinstance(el, tuple):
                        masks = [available_edge_mask(g, phi, e, itv)
                                 for e in (el, el[::-1])]
                        masks.append(available_edge_mask(
                            g, phi.as_dict(), el, itv))
                        assert available_edge(g, phi, el[::-1], itv) == want
                    else:
                        masks = [available_vertex_mask(g, p, el, itv)
                                 for p in (phi, phi.as_dict())]
                        assert available_vertex(g, phi, el, itv) == want
                    for mask in masks:
                        assert set(mask_colors(mask)) == want
                        assert 0 <= mask < 1 << (k + 1)
                    checked += 1
    assert checked > 500


def test_availability_rejects_unknown_elements():
    g = _make_triangle()
    phi = PartialLabeling({0: 0})
    g4 = Graph.from_edges([(0, 1), (2, 3)])
    calls = [
        lambda: available_vertex_mask(g, phi, 9, ITV),
        lambda: available_vertex(g, phi, 9, ITV),
        lambda: available_edge_mask(g, phi, (0, 9), ITV),
        lambda: available_edge(g, phi, (9, 0), ITV),
        lambda: available_edge_mask(g4, phi, (1, 2), ITV),
        lambda: available_edge(g4, phi, (2, 1), ITV),
    ]
    for call in calls:
        with pytest.raises(GraphError):
            call()


def test_validate_rejects_foreign_elements():
    g = _make_triangle()
    with pytest.raises(Exception):
        validate(g, PartialLabeling({9: 0}), ITV)


GOLDEN_SPANS = (13, 16, 18)
# sha256 over validate's output, violation by violation and in order, as
# repr((rule, elements, colors)), for the corpus of _corrupted_corpus at
# every span in GOLDEN_SPANS; recorded with the validator that looked up
# every color through PartialLabeling.color
GOLDEN_VALIDATE = "575115f097de9816f11cbf3d080a519d930804231d92f051fa6f82bfbc7dc556"


def _corrupted_corpus():
    """30 labelings from label_planar on random_planar graphs, each with
    1..25 seeded edits: a color set to a value in -2..19, or an element
    erased."""
    from tlabel.reduction import label_planar

    out = []
    for i in range(30):
        rng = random.Random(1000 + i)
        g = generate("random_planar", rng.randint(12, 60), seed=i,
                     max_degree=12)
        phi, _ = label_planar(g, 12)
        m = phi.as_dict()
        elements = list(g.vertices) + list(g.edges())
        for _ in range(rng.randint(1, 25)):
            el = rng.choice(elements)
            if rng.random() < 0.2:
                m.pop(el, None)
            else:
                m[el] = rng.randint(-2, 19)
        out.append((g, PartialLabeling(m)))
    return out


def _validate_digest(corpus, form) -> str:
    h = hashlib.sha256()
    for i, (g, phi) in enumerate(corpus):
        for span in GOLDEN_SPANS:
            h.update(b"# %d %d\n" % (i, span))
            for v in validate(g, form(phi), ColorInterval(span, 2)):
                h.update(repr((v.rule, v.elements, v.colors)).encode())
                h.update(b"\n")
    return h.hexdigest()


def test_validate_reproduces_golden_digest():
    corpus = _corrupted_corpus()
    rules = {v.rule for g, phi in corpus for v in validate(g, phi, ITV)}
    assert rules == {RANGE, VERTEX_ADJACENCY, EDGE_ADJACENCY, INCIDENCE_GAP}
    assert _validate_digest(corpus, lambda phi: phi) == GOLDEN_VALIDATE
    assert _validate_digest(corpus, PartialLabeling.as_dict) == GOLDEN_VALIDATE


def test_validate_rejects_an_unnormalized_dict_key():
    g = _make_triangle()
    with pytest.raises(GraphError, match="not normalized"):
        validate(g, {(2, 1): 5}, ITV)


def test_validate_names_the_first_foreign_element():
    g = _make_triangle()
    cases = [
        ({9: 0}, "labeled element 9 is not a vertex of the graph"),
        ({(0, 5): 3}, "labeled element (0, 5) is not an edge of the graph"),
        ({(0, 5): 3, 7: 1, 9: 2},
         "labeled element 7 is not a vertex of the graph"),
        ({(2, 4): 3, (0, 5): 3, 1: 1},
         "labeled element (0, 5) is not an edge of the graph"),
    ]
    for assignment, message in cases:
        with pytest.raises(GraphError) as info:
            validate(g, PartialLabeling(assignment), ITV)
        assert str(info.value) == message
