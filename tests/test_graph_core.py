from __future__ import annotations

import gc as gc_module
import random

import pytest

from eilab import graph_core as gc
from eilab import harness
from eilab.errors import InvalidSurgery, InvalidVertex, SelfLoopRejected, TooLarge
from eilab.formats_io import encode_graph6, parse_graph6

from helpers import brute_canonical_form, column_string, complete, cycle, edgeless, path, relabel


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
    """P4 minus N[{1, 2}] is empty."""
    p4 = path(4)
    out = gc.induced_subgraph(p4, [w for w in range(4) if not (p4.adj_mask(1) | p4.adj_mask(2)) >> w & 1])
    assert out.n == 0


def test_surgery_close_vertex_c5():
    c5 = cycle(5)
    out = gc._drop_vertices(c5, c5.adj_mask(0) | 1 << 0)
    assert out == gc.from_edges(2, [(0, 1)])  # the edge 2-3 between the non-neighbors of 0


def test_surgery_delete_edge_keeps_vertices():
    c5 = cycle(5)
    out = gc.from_edges(c5.n, [e for e in c5.edges if e != (0, 1)])
    assert out.n == 5 and out.num_edges == 4
    assert out.is_connected()


def test_surgery_delete_vertex():
    c5 = cycle(5)
    out = gc._drop_vertices(c5, 1 << 2)
    assert out.n == 4
    # vertices 0, 1, 3, 4 keep their order: the path 1-0-4-3 as 1-0-3-2
    assert out.edges == ((0, 1), (0, 3), (2, 3))


def test_surgery_errors():
    """An edge that is not there is refused as a surgery error, a vertex
    that is not there as an invalid vertex."""
    p4 = path(4)
    with pytest.raises(InvalidVertex):
        gc.induced_subgraph(p4, [9])
    with pytest.raises(InvalidSurgery):
        gc._check_edge(p4, (0, 2))
    assert gc._check_edge(p4, (2, 1)) == (1, 2)


def test_close_vertex_equals_induced_on_complement_of_neighborhood(corpus5):
    """The bounds engine's ``G - N[x]`` cut is the induced subgraph on the
    vertices outside ``N[x]``."""
    for g in corpus5:
        for v in range(g.n):
            closed = gc._drop_vertices(g, g.adj_mask(v) | 1 << v)
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
    """Every component of a disconnected graph is cut by
    ``_drop_vertices``, whether its vertices are consecutive or not, and
    the parts partition the vertices into connected sets, in vertex order:
    on the unions of the n <= 6 corpus, whose parts are all consecutive,
    and on seeded relabellings of those unions with an isolated vertex
    added, whose parts mostly interleave."""
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


def test_masks_without_isolated_vertex(corpus6):
    """The masks listed are exactly the nonempty subsets in which every
    vertex has a neighbour, ascending: on the n <= 6 corpus, a few
    disconnected graphs, edgeless graphs and the empty graph."""
    graphs = list(corpus6) + [gc.disjoint_union(cycle(5), path(2)), gc.disjoint_union(edgeless(2), path(3))]
    graphs += [edgeless(k) for k in range(4)]
    for g in graphs:
        expected = [
            w for w in range(1, 1 << g.n) if all(g.adj_mask(v) & w for v in range(g.n) if w >> v & 1)
        ]
        assert list(gc.masks_without_isolated_vertex(g)) == expected, g.edges


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


def test_canonical_form_matches_brute_lex_min(corpus6):
    """``canonical_form`` gives the least column string over every vertex
    order (``helpers.brute_canonical_form``): on a seeded relabelling of
    each graph of ``corpus_up_to(6)`` and of every graph on 6 vertices,
    whose disconnected ones can have many maximum independent sets, and on
    20 seeded 7-vertex graphs, connected or not."""
    rng = random.Random(29)
    graphs = [_shuffled(g, rng) for g in corpus6 + harness.enumerate_all(6).graphs]
    for _ in range(20):
        p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        graphs.append(gc.from_edges(7, [(u, v) for v in range(7) for u in range(v) if rng.random() < p]))
    for g in graphs:
        assert column_string(gc.canonical_form(g)) == brute_canonical_form(g), g


def test_canonical_form_symmetric_graphs():
    """Graphs with many automorphisms and many equal columns, where the
    search meets the most ties: each comes back the same from 5 seeded
    relabellings."""
    rng = random.Random(30)
    k22222 = gc.from_edges(10, [(u, v) for v in range(10) for u in range(v) if u // 2 != v // 2])
    for g in [*SYMMETRIC_10.values(), k22222]:
        base = gc.canonical_form(g)
        for _ in range(5):
            assert gc.canonical_form(_shuffled(g, rng)) == base, g


def test_canonical_form_fixes_the_corpus(corpus7):
    """The enumeration labels each graph by its canonical form, so a
    relabelled corpus graph comes back as itself: a seeded relabelling of
    each graph of ``corpus_up_to(7)`` and of every 50th connected
    8-vertex graph."""
    rng = random.Random(2929)
    for g in corpus7 + harness.connected_graphs(8)[::50]:
        assert gc.canonical_form(_shuffled(g, rng)) == g, g


def _assert_forms_match_networkx(graphs):
    """``graphs`` alternate a graph and a relabelling of it: each pair gets
    one canonical form, and over all of them the forms are equal exactly
    for the pairs that networkx finds isomorphic (VF2, an independent
    test)."""
    nx = pytest.importorskip("networkx")
    forms = [gc.canonical_form(g) for g in graphs]
    assert forms[::2] == forms[1::2]
    nx_graphs = []
    for g in graphs:
        h = nx.Graph(g.edges)
        h.add_nodes_from(range(g.n))
        nx_graphs.append(h)
    for i in range(len(graphs)):
        for j in range(i):
            assert (forms[i] == forms[j]) == nx.is_isomorphic(nx_graphs[i], nx_graphs[j]), (graphs[i], graphs[j])


def test_canonical_form_on_random_graphs_and_edge_flips():
    """Random graphs on 8-10 vertices, each beside a copy with one vertex
    pair flipped, and a seeded relabelling of both."""
    rng = random.Random(8)
    graphs = []
    for _ in range(40):
        n = rng.randint(8, 10)
        p = rng.choice((0.2, 0.4, 0.5, 0.7))
        g = gc.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        u, v = rng.sample(range(n), 2)
        flipped = gc.from_edges(n, set(g.edges) ^ {(min(u, v), max(u, v))})
        graphs += [g, _shuffled(g, rng), flipped, _shuffled(flipped, rng)]
    _assert_forms_match_networkx(graphs)


def test_canonical_form_on_circulants():
    """Vertex-transitive graphs, where every vertex starts alike: each
    circulant on 8-10 vertices and a seeded relabelling of it."""
    rng = random.Random(9)
    graphs = []
    for n in (8, 9, 10):
        for mask in range(1, 1 << (n // 2)):
            g = _circulant(n, [s + 1 for s in range(n // 2) if mask >> s & 1])
            graphs += [g, _shuffled(g, rng)]
    _assert_forms_match_networkx(graphs)


def _random_regular(n, d, rng):
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) == n * d // 2 and all(a != b for a, b in pairs):
            return gc.from_edges(n, pairs)


def test_canonical_form_on_regular_graphs():
    """Random regular graphs on 8-10 vertices, where degrees tell no vertex
    apart and most graphs have few automorphisms, each beside a switch
    (a b)(c d) -> (a c)(b d), which keeps the degrees, and a seeded
    relabelling of both."""
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
    _assert_forms_match_networkx(graphs)


def test_canonical_searches_leave_no_reference_cycle():
    """``canonical_form`` frees its search closure when it returns,
    without waiting for the cyclic collector."""
    c7 = cycle(7)
    gc_module.collect()
    gc_module.disable()
    try:
        assert encode_graph6(gc.canonical_form(c7)) == "F@Ue?"
        assert gc_module.collect() == 0
    finally:
        gc_module.enable()
