from __future__ import annotations

import random

import pytest

from eilab import graph_core as gc
from eilab.errors import InvalidSurgery, InvalidVertex, SelfLoopRejected, TooLarge
from eilab.graph_core import CloseEdge, CloseVertex, DeleteEdge, DeleteVertex

from helpers import cycle, path, complete, edgeless, relabel


def test_from_edges_c5():
    g = gc.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert g.num_edges == 5
    assert all(g.degree(v) == 2 for v in range(5))


def test_from_edges_empty_and_dedup():
    assert gc.from_edges(3, []).num_edges == 0
    g = gc.from_edges(4, [(0, 1), (0, 1), (1, 0), (2, 3)])
    assert g.num_edges == 2


def test_from_edges_errors():
    with pytest.raises(InvalidVertex):
        gc.from_edges(2, [(0, 2)])
    with pytest.raises(SelfLoopRejected):
        gc.from_edges(2, [(1, 1)])


def test_complement():
    c5 = cycle(5)
    comp = gc.complement(c5)
    assert comp.num_edges == 5  # self-complementary
    assert gc.canonical_form(comp) == gc.canonical_form(c5)
    assert gc.complement(edgeless(4)) == complete(4)
    assert gc.complement(gc.from_edges(2, [(0, 1)])).num_edges == 0


def test_complement_involution(corpus5):
    for g in corpus5:
        assert gc.complement(gc.complement(g)) == g


def test_surgery_close_edge_p4():
    p4 = path(4)
    out = gc.apply_surgery(p4, CloseEdge((1, 2)))
    assert out.n == 0


def test_surgery_close_vertex_c5():
    c5 = cycle(5)
    out = gc.apply_surgery(c5, CloseVertex(0))
    assert out == gc.from_edges(2, [(0, 1)])  # the edge 2-3 between the non-neighbors of 0


def test_surgery_delete_edge_keeps_vertices():
    c5 = cycle(5)
    out = gc.apply_surgery(c5, DeleteEdge((0, 1)))
    assert out.n == 5 and out.num_edges == 4
    assert out.is_connected()


def test_surgery_delete_vertex():
    c5 = cycle(5)
    out = gc.apply_surgery(c5, DeleteVertex(2))
    assert out.n == 4
    # vertices 0, 1, 3, 4 keep their order: the path 1-0-4-3 as 1-0-3-2
    assert out.edges == ((0, 1), (0, 3), (2, 3))


def test_surgery_errors():
    p4 = path(4)
    with pytest.raises(InvalidSurgery):
        gc.apply_surgery(p4, DeleteVertex(9))
    with pytest.raises(InvalidSurgery):
        gc.apply_surgery(p4, DeleteEdge((0, 2)))


def test_close_vertex_equals_induced_on_complement_of_neighborhood(corpus5):
    for g in corpus5:
        for v in range(g.n):
            closed = gc.apply_surgery(g, CloseVertex(v))
            keep = [u for u in range(g.n) if not (g.adj_mask(v) | 1 << v) >> u & 1]
            assert closed == gc.induced_subgraph(g, keep)


def test_induced_subgraph():
    c5 = cycle(5)
    p = gc.induced_subgraph(c5, [0, 1, 2, 3])
    assert p == path(4)
    assert gc.induced_subgraph(c5, []).n == 0
    assert gc.induced_subgraph(c5, range(5)) == c5
    with pytest.raises(InvalidVertex):
        gc.induced_subgraph(c5, [7])


def test_components():
    u = gc.disjoint_union(cycle(5), gc.from_edges(2, [(0, 1)]))
    comps = gc.components(u)
    assert sorted(c.n for _, c in comps) == [2, 5]
    verts = sorted(v for vs, _ in comps for v in vs)
    assert verts == list(range(7))
    assert gc.components(edgeless(3)) == [((v,), edgeless(1)) for v in range(3)]
    c5 = cycle(5)
    assert gc.components(c5)[0][1] == c5


def test_components_reglue(corpus5):
    for g in corpus5:
        comps = gc.components(g)
        rebuilt_edges = set()
        for verts, comp in comps:
            for u, v in comp.edges:
                a, b = verts[u], verts[v]
                rebuilt_edges.add((min(a, b), max(a, b)))
        assert rebuilt_edges == set(g.edges)


def test_canonical_form_relabel_invariance():
    p4 = path(4)
    rev = relabel(p4, [3, 2, 1, 0])
    assert gc.canonical_form(p4) == gc.canonical_form(rev)
    assert gc.canonical_form(cycle(4)) != gc.canonical_form(p4)
    k3 = complete(3)
    assert gc.canonical_form(k3) == bytes([3]) + bytes([0b11100000])


def test_canonical_form_random_permutations(corpus5):
    rng = random.Random(421)
    for g in corpus5:
        base = gc.canonical_form(g)
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert gc.canonical_form(relabel(g, perm)) == base


def test_canonical_form_distinguishes(corpus5):
    forms = [gc.canonical_form(g) for g in corpus5]
    assert len(set(forms)) == len(forms)


def test_canonical_form_cap():
    with pytest.raises(TooLarge):
        gc.canonical_form(edgeless(11))


def test_canonical_roundtrip(corpus5):
    for g in corpus5:
        data = gc.canonical_form(g)
        back = gc.graph_of_canonical_form(data)
        assert gc.canonical_form(back) == data
