from __future__ import annotations

import random
from dataclasses import replace

import pytest

from eilab import cameron_walker as cw
from eilab import graph_core as gc
from eilab import matchings
from eilab.errors import NotConnected

from helpers import (
    add_one_edge,
    bipartite_pendant,
    complete,
    cycle,
    path,
    relabel,
    star,
    star_triangle,
    subdivide_one_edge,
)


def test_invariant_route_examples():
    assert cw.cw_by_invariants(star(3))
    assert not cw.cw_by_invariants(cycle(5))
    assert not cw.cw_by_invariants(path(4))


def test_star_shapes():
    assert cw.recognize_structural(star(3)) == cw.Star(center=0)
    # single vertex and single edge both count, center tie-breaks low
    assert cw.recognize_structural(gc.from_edges(1, [])) == cw.Star(0)
    assert cw.recognize_structural(gc.from_edges(2, [(0, 1)])) == cw.Star(0)


def test_star_triangle_shapes():
    assert cw.recognize_structural(complete(3)) == cw.StarTriangle(0, ((1, 2),))
    bowtie = gc.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    shape = cw.recognize_structural(bowtie)
    assert shape == cw.StarTriangle(0, ((1, 2), (3, 4)))
    assert cw.validate_decomposition(bowtie, shape)


def test_bipartite_pendant_example():
    # X = {0, 1}, Y = {2}; leaves 3, 4; pendant triangle {2, 5, 6}
    g = gc.from_edges(7, [(0, 2), (1, 2), (0, 3), (1, 4), (2, 5), (2, 6), (5, 6)])
    shape = cw.recognize_structural(g)
    assert isinstance(shape, cw.BipartitePendant)
    assert shape.side_x == (0, 1) and shape.side_y == (2,)
    assert shape.leaf_map == ((0, (3,)), (1, (4,)))
    assert shape.triangle_map == ((2, ((5, 6),)),)
    assert cw.validate_decomposition(g, shape)
    assert matchings.nu(g) == matchings.nu0(g) == 3


def test_triangle_anchor_stays_in_core():
    # leaf - x - y - pendant triangle: y must survive leaf stripping
    g = gc.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)])
    shape = cw.recognize_structural(g)
    assert isinstance(shape, cw.BipartitePendant)
    assert cw.validate_decomposition(g, shape)


def test_rejects_bowtie_with_leaf():
    # pendant triangles may only hang off the leaf-free side
    g = gc.from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5)])
    assert cw.recognize_structural(g) is None


def test_disconnected_rejected():
    with pytest.raises(NotConnected):
        cw.recognize_structural(gc.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(NotConnected):
        cw.recognize_structural(gc.from_edges(0, []))


def _forbid_matching_searches(monkeypatch):
    def refuse(*_):
        raise AssertionError("structural recognition ran a matching search")

    for name in ("nu", "max_matching", "induced_matching_number"):
        monkeypatch.setattr(matchings, name, refuse)


def test_equivalence_on_corpus(corpus7, monkeypatch):
    """The shape tests alone, with every matching search made to raise,
    reproduce nu == nu0 on the n <= 7 corpus, and every shape validates."""
    connected = [g for g in corpus7 if g.is_connected()]
    expected = [cw.cw_by_invariants(g) for g in connected]
    _forbid_matching_searches(monkeypatch)
    for g, equal in zip(connected, expected):
        shape = cw.recognize_structural(g)
        assert (shape is not None) == equal, g
        assert shape is None or cw.validate_decomposition(g, shape)


def test_cw_regularity_reaches_bound(corpus6):
    """Positive verdicts force the regularity to the matching bound."""
    from eilab import matchings as M
    from eilab.regularity_oracle import FieldSpec, regularity

    for g in corpus6:
        if not g.is_connected() or g.num_edges == 0:
            continue
        if cw.recognize_structural(g) is not None:
            for c in (0, 2):
                assert regularity(g, FieldSpec(c)).reg_star == M.nu(g) + 1


def test_validate_rejects_mutated_certificates():
    """A center or a leaf outside the graph, and a disconnected graph
    dressed as a bipartite core with two leaves."""
    assert not cw.validate_decomposition(gc.from_edges(1, []), cw.Star(3))
    p3 = path(3)
    stray_leaf = cw.BipartitePendant(
        side_x=(1,), side_y=(), core_edges=(), leaf_map=((1, (0, 2, 7)),), triangle_map=()
    )
    assert not cw.validate_decomposition(p3, stray_leaf)
    two_k2 = gc.from_edges(4, [(0, 1), (2, 3)])
    shape = cw.BipartitePendant(
        side_x=(0, 2), side_y=(), core_edges=(), leaf_map=((0, (1,)), (2, (3,))), triangle_map=()
    )
    with pytest.raises(NotConnected):
        cw.validate_decomposition(two_k2, shape)


def test_validate_rejects_bad_shapes():
    """Each rejection branch of the star-triangle and bipartite-pendant
    checks, from one valid shape mutated at a time."""
    bowtie = gc.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert not cw.validate_decomposition(bowtie, cw.StarTriangle(0, ((1, 2), (2, 3))))
    # leaf 0 - x 1 - y 2, with the triangle {2, 3, 4} on y
    g = gc.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)])
    good = cw.BipartitePendant(
        side_x=(1,), side_y=(2,), core_edges=((1, 2),), leaf_map=((1, (0,)),), triangle_map=((2, ((3, 4),)),)
    )
    assert cw.validate_decomposition(g, good)
    for bad in [
        replace(good, side_y=(1, 2)),  # the sides overlap
        replace(good, side_x=(1, 2), side_y=(), triangle_map=()),  # core edge inside X
        replace(good, core_edges=((1, 2), (2, 3))),  # 3 is on neither side
        replace(good, leaf_map=()),  # leaf keys are not X
        replace(good, leaf_map=((1, (0,)), (2, (3,)))),  # a leaf key outside X
        replace(good, triangle_map=((1, ((3, 4),)),)),  # triangle on a vertex outside Y
    ]:
        assert not cw.validate_decomposition(g, bad), bad
    # vertex 4 of the triangle also carries the pendant vertex 5
    g5 = gc.from_edges(6, list(g.edges) + [(4, 5)])
    assert not cw.validate_decomposition(g5, good)


def test_recognition_past_the_matching_cap(monkeypatch):
    """Graphs past the matching searches' vertex cap are recognized with
    no matching search."""
    _forbid_matching_searches(monkeypatch)
    large = [
        (cw.StarTriangle, star_triangle(15)),
        (cw.BipartitePendant, bipartite_pendant(random.Random(40), 40)),
        (type(None), cycle(40)),
    ]
    for kind, g in large:
        assert g.n > matchings.NP_HARD_VERTEX_CAP
        shape = cw.recognize_structural(g)
        assert type(shape) is kind
        assert shape is None or cw.validate_decomposition(g, shape)


def test_routes_agree_past_the_corpus():
    """Seeded stars, star triangles and bipartite-pendant graphs on 8 to 20
    vertices, each also with one edge added and with one edge subdivided:
    the shapes and nu == nu0 agree, and every shape validates."""
    rng = random.Random(18)

    def shuffled(g):
        perm = list(range(g.n))
        rng.shuffle(perm)
        return relabel(g, perm)

    graphs = []
    for _ in range(40):
        for g in (
            shuffled(star(rng.randint(7, 19))),
            shuffled(star_triangle(rng.randint(4, 9))),
            bipartite_pendant(rng, rng.randint(8, 20)),
        ):
            graphs += [g, add_one_edge(rng, g), subdivide_one_edge(rng, g)]
    verdicts = set()
    for g in graphs:
        assert g.num_edges <= matchings.NP_HARD_EDGE_CAP
        shape = cw.recognize_structural(g)
        equal = cw.cw_by_invariants(g)
        assert (shape is not None) == equal, g
        assert shape is None or cw.validate_decomposition(g, shape)
        verdicts.add(equal)
    assert verdicts == {True, False}
