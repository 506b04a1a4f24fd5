from __future__ import annotations

import gc as gc_module
import random

import pytest

from eilab import graph_core as gc
from eilab.errors import InvalidSurgery, InvalidVertex, SelfLoopRejected, TooLarge
from eilab.formats_io import encode_graph6, parse_graph6
from eilab.graph_core import CloseEdge, CloseVertex, DeleteEdge, DeleteVertex

from helpers import cycle, path, complete, edgeless, relabel


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return gc.from_edges(10, outer + inner + [(i, i + 5) for i in range(5)])


def _circulant(n, steps):
    return gc.from_edges(n, {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps})


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


SYMMETRIC_10 = {
    "K10": complete(10),
    "edgeless10": edgeless(10),
    "K5,5": gc.from_edges(10, [(i, j) for i in range(5) for j in range(5, 10)]),
    "2C5": gc.disjoint_union(cycle(5), cycle(5)),
    "Petersen": _petersen(),
    "C10": cycle(10),
}


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


def test_components_shift_route_matches_drop_route(corpus6):
    """A component on consecutive vertices is built by shifting its
    adjacency masks down, any other by ``_drop_vertices``.  Both routes
    give the same parts: on the unions of the n <= 6 corpus, whose parts
    are all consecutive, and on seeded relabellings of those unions with
    an isolated vertex added, whose parts mostly interleave."""
    from eilab import harness

    unions = harness.union_pairs(corpus6, 9)
    rng = random.Random(2727)
    relabelled = []
    for u in rng.sample(unions, 200):
        g = gc.disjoint_union(u, edgeless(1))
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabelled.append(relabel(g, perm))
    routes = {True: 0, False: 0}
    for g in unions + relabelled:
        seen = 0
        for verts, comp in gc.components(g):
            mask = sum(1 << v for v in verts)
            assert verts == tuple(v for v in range(g.n) if mask >> v & 1)
            assert gc._reach(g._adj, mask) == mask and not seen & mask
            assert comp == gc._drop_vertices(g, g.full_mask ^ mask), (g, verts)
            routes[verts == tuple(range(verts[0], verts[-1] + 1))] += 1
            seen |= mask
        assert seen == g.full_mask
    assert routes[True] > 2 * len(unions) and routes[False] > 100


def test_canonical_form_relabel_invariance():
    p4 = path(4)
    rev = relabel(p4, [3, 2, 1, 0])
    assert gc.canonical_form(p4) == gc.canonical_form(rev)
    assert gc.canonical_form(cycle(4)) != gc.canonical_form(p4)
    k3 = complete(3)
    assert encode_graph6(gc.canonical_form(k3)) == "Bw"  # bits 111, padded to 111000


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
        data = encode_graph6(gc.canonical_form(g))
        back = parse_graph6(data)
        assert encode_graph6(gc.canonical_form(back)) == data


def test_canonical_form_twins_pruned():
    # Each of these took seconds to minutes without the twin rule.
    assert encode_graph6(gc.canonical_form(complete(10))) == "I" + "~" * 7 + "w"  # 45 ones
    assert encode_graph6(gc.canonical_form(edgeless(10))) == "I" + "?" * 8
    assert gc.canonical_form(complete(9)) == gc.canonical_form(relabel(complete(9), list(range(8, -1, -1))))


def test_canonical_key_on_corpus(corpus7):
    rng = random.Random(12)
    keys = [gc.canonical_key(g) for g in corpus7]
    assert len(set(keys)) == len(keys)
    for g, key in zip(corpus7, keys):
        for _ in range(20):
            assert gc.canonical_key(_shuffled(g, rng)) == key


def _assert_key_matches_form(graphs):
    keys = [gc.canonical_key(g) for g in graphs]
    forms = [gc.canonical_form(g) for g in graphs]
    for i in range(len(graphs)):
        for j in range(i):
            assert (keys[i] == keys[j]) == (forms[i] == forms[j]), (graphs[i], graphs[j])


def test_canonical_key_matches_lex_min_on_relabellings():
    rng = random.Random(8)
    graphs = []
    for _ in range(40):
        n = rng.randint(8, 10)
        p = rng.choice((0.2, 0.4, 0.5, 0.7))
        g = gc.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        u, v = rng.sample(range(n), 2)
        flipped = gc.apply_surgery(g, DeleteEdge((u, v))) if g.has_edge(u, v) else gc.from_edges(n, g.edges + ((u, v),))
        graphs += [g, _shuffled(g, rng), flipped, _shuffled(flipped, rng)]
    _assert_key_matches_form(graphs)


def test_canonical_key_matches_lex_min_on_circulants():
    # Vertex-transitive graphs: colour refinement splits nothing, so every
    # distinction comes from individualization.
    rng = random.Random(9)
    graphs = []
    for n in (8, 9, 10):
        for mask in range(1, 1 << (n // 2)):
            g = _circulant(n, [s + 1 for s in range(n // 2) if mask >> s & 1])
            graphs += [g, _shuffled(g, rng)]
    _assert_key_matches_form(graphs)


def _random_regular(n, d, rng):
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) == n * d // 2 and all(a != b for a, b in pairs):
            return gc.from_edges(n, pairs)


def test_canonical_key_matches_lex_min_on_regular_graphs():
    # Colour refinement splits nothing here either, and most of these have
    # few automorphisms, so the search branches on more than one level.
    # A switch (a b)(c d) -> (a c)(b d) keeps the degrees.
    rng = random.Random(11)
    graphs = []
    for n, d in ((8, 3), (10, 3), (9, 4), (10, 4), (10, 5)):
        for _ in range(4):
            g = _random_regular(n, d, rng)
            (a, b), (c, e) = rng.sample(g.edges, 2)
            switched = g
            if len({a, b, c, e}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, e):
                switched = gc.from_edges(n, set(g.edges) - {(a, b), (c, e)} | {(min(a, c), max(a, c)), (min(b, e), max(b, e))})
            graphs += [g, _shuffled(g, rng), switched, _shuffled(switched, rng)]
    _assert_key_matches_form(graphs)


def test_canonical_key_symmetric_graphs():
    rng = random.Random(10)
    graphs = list(SYMMETRIC_10.values())
    keys = [gc.canonical_key(g) for g in graphs]
    assert len(set(keys)) == len(keys)
    for g, key in zip(graphs, keys):
        for _ in range(5):
            assert gc.canonical_key(_shuffled(g, rng)) == key
    _assert_key_matches_form(graphs + [_shuffled(g, rng) for g in graphs])


def test_canonical_key_small_and_cap():
    assert gc.canonical_key(edgeless(0)) == 0b1
    assert gc.canonical_key(edgeless(1)) == 0b10
    # the two ends first (degree 1), each with the mask of position 2
    assert gc.canonical_key(path(3)) == 0b1_100_100_011
    assert gc.canonical_key(path(3)) == gc.canonical_key(relabel(path(3), [1, 0, 2]))
    assert gc.canonical_key(edgeless(3)) != gc.canonical_key(edgeless(2))
    with pytest.raises(TooLarge):
        gc.canonical_key(edgeless(11))


def test_canonical_searches_leave_no_reference_cycle():
    """``canonical_form`` and ``canonical_key`` free their search closures
    when they return, without waiting for the cyclic collector."""
    c7 = cycle(7)
    gc_module.collect()
    gc_module.disable()
    try:
        assert encode_graph6(gc.canonical_form(c7)) == "F@Ue?"
        assert gc_module.collect() == 0
        assert gc.canonical_key(c7) == 987921977082499
        assert gc_module.collect() == 0
    finally:
        gc_module.enable()
