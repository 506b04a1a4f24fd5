from __future__ import annotations

import random
from itertools import combinations

import pytest

from eilab import cli
from eilab import graph_core as gc
from eilab import harness, homology
from eilab import matchings as M
from eilab import regularity_oracle as ro
from eilab.errors import CapExceeded, NotApplicable
from eilab.formats_io import encode_graph6, parse_graph6
from eilab.regularity_oracle import FieldSpec

from helpers import (
    SimplicialComplex,
    all_subsets_walk,
    brute_betti,
    brute_homology,
    brute_rank,
    brute_witness,
    complete,
    cycle,
    edgeless,
    flag_rp2,
    flag_rp2_complement,
    independence_complex,
    path,
    reduced_homology_dims,
    relabel,
    rp2_minus_vertex_and_edge,
    seeded_matrices,
    star,
)


def test_field_spec_validation():
    """The primes from ``2**31`` on (2147483659, 2**61 - 1, 10**18 + 3) are
    refused before the trial division, which takes minutes near ``10**18``."""
    FieldSpec(0)
    FieldSpec(2)
    FieldSpec(32003)
    FieldSpec(2**31 - 1)
    for bad in (1, 4, 6, -3, 2147483659, 2**61 - 1, 10**18 + 3):
        with pytest.raises(ValueError):
            FieldSpec(bad)


def test_independence_complex_examples():
    single = gc.from_edges(2, [(0, 1)])
    assert independence_complex(single).facets == ((0,), (1,))
    c5 = cycle(5)
    facets = independence_complex(c5).facets
    assert len(facets) == 5 and all(len(f) == 2 for f in facets)
    assert independence_complex(edgeless(3)).facets == ((0, 1, 2),)


def test_simplicial_complex_rejects_nested_facets():
    with pytest.raises(ValueError):
        SimplicialComplex(3, ((0, 1), (0, 1, 2)))


def test_homology_triangle_boundary():
    hollow = SimplicialComplex(3, ((0, 1), (0, 2), (1, 2)))
    for char in (0, 2, 3):
        dims = reduced_homology_dims(hollow, FieldSpec(char))
        assert dims[0] == 0 and dims[1] == 1


def test_homology_full_simplex():
    solid = SimplicialComplex(3, ((0, 1, 2),))
    dims = reduced_homology_dims(solid, FieldSpec(0))
    assert all(v == 0 for v in dims.values())


def test_homology_ind_c5_is_circle():
    comp = independence_complex(cycle(5))
    for char in (0, 2, 3):
        dims = reduced_homology_dims(comp, FieldSpec(char))
        assert dims[1] == 1 and dims[0] == 0


def test_homology_empty_complex():
    assert reduced_homology_dims(SimplicialComplex(0, ()), FieldSpec(0)) == {-1: 1}


def test_homology_matches_independent_implementation(corpus5):
    rng = random.Random(5150)
    sample = rng.sample(list(corpus5), 12)
    for g in sample:
        comp = independence_complex(g)
        for char in (0, 2, 3):
            mine = reduced_homology_dims(comp, FieldSpec(char))
            ref = brute_homology(list(comp.facets), char)
            for t in set(mine) | set(ref):
                assert mine.get(t, 0) == ref.get(t, 0), (g, char, t)


def test_regularity_examples():
    single = gc.from_edges(2, [(0, 1)])
    assert ro.regularity(single, FieldSpec(0)).reg_star == 2
    for char in (0, 2, 3):
        res = ro.regularity(cycle(5), FieldSpec(char))
        assert res.reg_star == 3 == res.reg_ideal
        assert res.reg_quotient == 2
        assert res.witness_degree == 1
        assert res.witness_subset == (0, 1, 2, 3, 4)


def test_regularity_conventions():
    assert ro.regularity(edgeless(3), FieldSpec(0)).reg_star == 1
    assert ro.regularity(gc.from_edges(0, []), FieldSpec(0)).reg_star == 0
    assert ro.regularity(edgeless(3), FieldSpec(0)).reg_ideal is None
    assert ro.regularity(edgeless(3), FieldSpec(0)).witness_degree is None
    assert max(ro.regularity(gc.from_edges(0, [])).reg_star, 1) == 1
    assert max(ro.regularity(edgeless(2)).reg_star, 1) == 1
    assert max(ro.regularity(cycle(5)).reg_star, 1) == 3


def test_regularity_witness_revalidates(corpus5):
    for g in corpus5:
        if g.num_edges == 0:
            continue
        res = ro.regularity(g, FieldSpec(0))
        sub = gc.induced_subgraph(g, res.witness_subset)
        dims = reduced_homology_dims(
            independence_complex(sub), FieldSpec(0)
        )
        assert dims[res.witness_degree] > 0
        assert res.reg_ideal == res.witness_degree + 2


def test_witness_is_first_by_tie_break(corpus6):
    """The witness is the smallest ``(-t, |W|, W)`` over all subsets, not
    just some subset carrying homology in the top degree."""
    for g in corpus6:
        if g.num_edges == 0:
            continue
        for char in (0, 2):
            res = ro.regularity(g, FieldSpec(char))
            assert (res.witness_subset, res.witness_degree) == brute_witness(g, char), (g.edges, char)


def test_betti_table_matches_brute_force(corpus6):
    """The fast path (cones, splits, built pieces) against
    Hochster's formula evaluated with dense elimination over every vertex
    subset."""
    rng = random.Random(4242)
    graphs = [g for g in corpus6 if g.num_edges]
    for _ in range(12):
        n = rng.choice((8, 9))
        pairs = list(combinations(range(n), 2))
        graphs.append(gc.from_edges(n, rng.sample(pairs, rng.randint(n, 2 * n))))
    for g in graphs:
        for char in (0, 2, 3):
            assert ro.betti_table(g, FieldSpec(char)).as_dict() == brute_betti(g, char), (g.n, g.edges, char)


def test_betti_table_matches_per_subset_reference():
    """The subset table against the per-subset reference path, which builds
    the independence complex of every induced subgraph and takes its
    homology with no cone or split and no table.  The 11-vertex relative of
    the flag RP^2 graph has a subset that no vertex splits, so a split
    taken without its condition shows here as a wrong Betti table."""
    rng = random.Random(1212)
    pairs = list(combinations(range(10), 2))
    graphs = [cycle(12), path(12), rp2_minus_vertex_and_edge()]
    graphs += [gc.from_edges(10, rng.sample(pairs, rng.randint(10, 20))) for _ in range(2)]
    for g in graphs:
        complexes = []
        for w in range(1 << g.n):
            verts = [v for v in range(g.n) if w >> v & 1]
            complexes.append((len(verts), independence_complex(gc.induced_subgraph(g, verts))))
        for char in (0, 2, 3):
            ref: dict[tuple[int, int], int] = {}
            for size, complex_ in complexes:
                for t, d in reduced_homology_dims(complex_, FieldSpec(char)).items():
                    if d:
                        ref[(size - t - 1, size)] = ref.get((size - t - 1, size), 0) + d
            assert ro.betti_table(g, FieldSpec(char)).as_dict() == ref, (g.n, g.edges, char)


def _seeded_disconnected_graphs(corpus5) -> list[gc.Graph]:
    """Seeded disconnected graphs on up to 12 vertices: two to four parts,
    corpus graphs or isolated vertices, with the labels shuffled so that
    the components interleave; then edgeless graphs."""
    rng = random.Random(1616)
    parts = list(corpus5)
    out = []
    while len(out) < 40:
        g = gc.from_edges(0, [])
        for _ in range(rng.randint(2, 4)):
            g = gc.disjoint_union(g, rng.choice(parts))
        if g.n <= 12:
            perm = list(range(g.n))
            rng.shuffle(perm)
            out.append(relabel(g, perm))
    return out + [edgeless(k) for k in range(2, 6)]


def _answers(g: gc.Graph, char: int):
    """``reg_star``, witness and Betti table from ``regularity`` and
    ``betti_table``, which combine the components' readings."""
    res = ro.regularity(g, FieldSpec(char))
    betti = ro.betti_table(g, FieldSpec(char)).as_dict() if g.num_edges else {(0, 0): 1}
    return res.reg_star, res.witness_subset, betti


def _whole_walk(g: gc.Graph, char: int):
    """The same, read off one walk over every subset of the whole graph."""
    sub = ro.subgraph_regularity(g, FieldSpec(char))
    return sub.whole(), sub.witness(), {(0, 0): 1, **sub.betti()}


def test_component_split_matches_whole_graph_walk(corpus5):
    """A disconnected graph combines its components' readings; the walk
    over all its subsets is the reference: the same regularity, witness
    and Betti entries at chars 0, 2 and 3, its torsion is the union of
    theirs, and on up to 8 vertices the same Betti table and witness as
    Hochster's formula by brute force."""
    unions = harness.union_pairs(corpus5, 8)
    seeded = _seeded_disconnected_graphs(corpus5)
    assert all(len(gc.components(g)) >= 2 for g in unions + seeded)
    assert any(len(gc.components(g)) >= 3 for g in seeded)
    assert any(
        verts != tuple(range(verts[0], verts[-1] + 1))
        for g in seeded
        for verts, _ in gc.components(g)
    )
    for g in unions + seeded:
        for char in (0, 2, 3):
            assert _answers(g, char) == _whole_walk(g, char), (g.n, g.edges, char)
        torsion = {p for _, comp in gc.components(g) for p in ro.subgraph_regularity(comp).torsion}
        assert ro.subgraph_regularity(g).torsion == tuple(sorted(torsion)), (g.n, g.edges)
    small = [g for g in seeded if g.n <= 8] + random.Random(1717).sample(unions, 12)
    for g in small:
        for char in (0, 2, 3):
            res = ro.regularity(g, FieldSpec(char))
            if g.num_edges:
                assert ro.betti_table(g, FieldSpec(char)).as_dict() == brute_betti(g, char), (g.edges, char)
                assert (res.witness_subset, res.witness_degree) == brute_witness(g, char), (g.edges, char)
            else:
                assert res.witness_subset is None and brute_witness(g, char) is None


def _count_walks(monkeypatch) -> tuple[list[tuple[int, tuple, int]], dict]:
    """Empties the oracle's one-graph record and records ``(n, edges,
    char)`` of every subset walk from then on, and the torsion of each
    walked graph under ``(n, edges)``."""
    walks, torsion = [], {}
    walk_table = ro._walk_table

    def counting(g, char):
        walks.append((g.n, g.edges, char))
        table, torsion[g.n, g.edges] = walk_table(g, char)
        return table, torsion[g.n, g.edges]

    monkeypatch.setattr(ro, "_walk_table", counting)
    ro._whole_graph.cache_clear()
    return walks, torsion


def _oracle_n14_graphs() -> list[gc.Graph]:
    """C13, C14, P14 and the seeded G(14, 20) and G(14, 45)."""
    pairs = list(combinations(range(14), 2))
    return [
        cycle(13),
        cycle(14),
        path(14),
        gc.from_edges(14, random.Random(1).sample(pairs, 20)),
        gc.from_edges(14, random.Random(3).sample(pairs, 45)),
    ]


def test_one_walk_serves_every_characteristic(corpus7, monkeypatch):
    """``regularity`` and ``betti_table`` at chars 0, 2 and 3 walk each
    connected graph once, at char 0: no walk of the corpus or of the five
    14-vertex graphs leaves a diagonal entry other than +1 or -1."""
    walks, torsion = _count_walks(monkeypatch)
    connected = [g for g in corpus7 if g.is_connected()]
    assert len(connected) == 996
    for g in connected:
        for char in (0, 2, 3):
            ro.regularity(g, FieldSpec(char))
            if g.num_edges:
                ro.betti_table(g, FieldSpec(char))
        assert torsion[g.n, g.edges] == set(), g.edges
    assert sorted(walks) == sorted((g.n, g.edges, 0) for g in connected)
    n14 = _oracle_n14_graphs()
    assert len(gc.components(n14[3])) == 2
    for g in n14:
        walks.clear()
        ro._whole_graph.cache_clear()
        for char in (0, 2, 3):
            ro.regularity(g, FieldSpec(char))
            ro.betti_table(g, FieldSpec(char))
        comps = {(comp.n, comp.edges, 0) for _, comp in gc.components(g)}
        assert sorted(walks) == sorted(comps), g.edges
        assert all(torsion[n, edges] == set() for n, edges, _ in walks), g.edges


def test_torsion_fallback_flag_rp2(corpus6, monkeypatch):
    """The flag RP^2 leaves the diagonal entry 2, so char 2 is walked again
    (and gains homology) while chars 0, 3 and 5 reuse the char-0 walk; the
    record keeps the char-2 walk, so its Betti tables at chars 2 and 3
    walk nothing more.  Every result of the record equals the walk of the
    whole graph at its own characteristic, on the n <= 6 corpus, its
    unions up to 8 vertices, RP^2 and RP^2 plus a component."""
    rp2 = flag_rp2_complement()
    assert encode_graph6(rp2) == "KWaqbO\\euTz["
    walks, torsion = _count_walks(monkeypatch)
    for char in (0, 3, 5):
        assert ro.regularity(rp2, FieldSpec(char)).reg_star == 3
    assert torsion[rp2.n, rp2.edges] == {2}
    assert walks == [(rp2.n, rp2.edges, 0)]
    assert ro.regularity(rp2, FieldSpec(2)).reg_star == 4
    assert walks == [(rp2.n, rp2.edges, 0), (rp2.n, rp2.edges, 2)]
    for char in (2, 3):
        ro.betti_table(rp2, FieldSpec(char))
    assert walks == [(rp2.n, rp2.edges, 0), (rp2.n, rp2.edges, 2)]
    union = gc.disjoint_union(cycle(4), rp2)
    assert ro.regularity(union, FieldSpec(2)).reg_star == 5
    assert ro.subgraph_regularity(union).torsion == (2,)
    graphs = list(corpus6) + harness.union_pairs(corpus6, 8) + [rp2, union]
    for g in graphs:
        for char in (0, 2, 3, 5):
            assert _answers(g, char) == _whole_walk(g, char), (g.n, g.edges, char)


def test_union_walks_each_distinct_component(monkeypatch):
    """A disconnected graph walks each distinct component once at char 0,
    and again only at a characteristic that divides that component's own
    torsion: C5 + C5 + C5 at chars 0, 2 and 3 walks C5 once, and C4 + RP^2
    walks RP^2 again at char 2, and C4 not."""
    walks, _ = _count_walks(monkeypatch)
    c5 = cycle(5)
    triple = gc.disjoint_union(gc.disjoint_union(c5, c5), c5)
    for char in (0, 2, 3):
        assert ro.regularity(triple, FieldSpec(char)).reg_star == 7
    assert walks == [(5, c5.edges, 0)]
    rp2, c4 = flag_rp2_complement(), cycle(4)
    union = gc.disjoint_union(c4, rp2)
    walks.clear()
    for char in (0, 2, 3):
        ro.regularity(union, FieldSpec(char))
    assert sorted(walks) == sorted([(4, c4.edges, 0), (12, rp2.edges, 0), (12, rp2.edges, 2)])


def _assert_record_holds_only(g: gc.Graph) -> None:
    """The oracle's one cross-call record is ``g``'s, and keeps no subset
    table."""
    info = ro._whole_graph.cache_info()
    assert (info.maxsize, info.currsize) == (1, 1)
    record = ro._whole_graph(g)
    assert ro._whole_graph.cache_info().hits == info.hits + 1
    assert all(reading._table is None for reading in record._char0.values())


def test_sweep_memo_holds_one_graph(corpus6, capsys, tmp_path):
    """The oracle's record keeps only the graph last asked, with no subset
    table: ``regularity`` and ``betti_table`` at chars 0, 2 and 3 over the
    n <= 6 corpus, and ``eilab reg`` over it as a graph6 file, leave the
    last graph's record alone."""
    ro._whole_graph.cache_clear()
    for g in corpus6:
        for char in (0, 2, 3):
            ro.regularity(g, FieldSpec(char))
            if g.num_edges:
                ro.betti_table(g, FieldSpec(char))
    last = corpus6[-1]
    _assert_record_holds_only(last)
    ro._whole_graph.cache_clear()
    g6 = tmp_path / "corpus6.g6"
    g6.write_text("".join(encode_graph6(g) + "\n" for g in corpus6))
    assert cli.main(["reg", "--g6", str(g6), "--char", "0", "--char", "2", "--char", "3"]) == 0
    assert capsys.readouterr().out.count("\r\n") == len(corpus6) + 1
    _assert_record_holds_only(last)


def _ind_dims(g: gc.Graph, w: int, char: int) -> dict[int, int]:
    """Reduced homology of ``Ind(G[w])`` by the per-subset reference path,
    from degree -1."""
    sub = gc.induced_subgraph(g, [v for v in range(g.n) if w >> v & 1])
    return reduced_homology_dims(independence_complex(sub), FieldSpec(char))


def test_packed_table_digits_match_per_subset_reference():
    """Every digit of the packed table, decoded, against the per-subset
    reference path on the flag RP^2 graph and ``JWaqbO\\euT?``, at chars
    0, 2 and 3: each subset's table entry holds the dims of
    ``Ind(G[W])`` from degree -1, and nothing else."""
    for g in (flag_rp2_complement(), rp2_minus_vertex_and_edge()):
        complexes = [
            independence_complex(gc.induced_subgraph(g, [v for v in range(g.n) if w >> v & 1]))
            for w in range(1 << g.n)
        ]
        for char in (0, 2, 3):
            table, _ = ro._walk_table(g, char)
            for w, (value, complex_) in enumerate(zip(table, complexes)):
                decoded = {}
                for t in range(-1, ro._digits(value) - 1):
                    if value >> ro._WIDTH * (t + 1) & ro._DIGIT:
                        decoded[t] = value >> ro._WIDTH * (t + 1) & ro._DIGIT
                ref = {t: d for t, d in reduced_homology_dims(complex_, FieldSpec(char)).items() if d}
                assert decoded == ref, (g.n, w, char)


def _random_graph(n: int, m: int, seed: int) -> gc.Graph:
    return gc.from_edges(n, random.Random(seed).sample(list(combinations(range(n), 2)), m))


def test_walk_matches_all_subsets_walk(corpus7):
    """The walk over the subsets with no isolated vertex gives the table
    and torsion of ``helpers.all_subsets_walk``, which visits every
    subset: at chars 0, 2 and 3 on the n <= 7 corpus, its unions of at
    most 9 vertices, the flag RP^2 graph and ``JWaqbO\\euT?``; at char 0
    on ``C_16`` and on seeded ``G(14, m)`` and ``G(16, m)``."""
    graphs = list(corpus7) + harness.union_pairs(corpus7, 9) + [flag_rp2_complement(), rp2_minus_vertex_and_edge()]
    for g in graphs:
        for char in (0, 2, 3):
            assert ro._walk_table(g, char) == all_subsets_walk(g, char), (encode_graph6(g), char)
    large = [cycle(16)] + [_random_graph(14, m, m) for m in (20, 45)]
    large += [_random_graph(16, m, m) for m in (20, 24, 32, 48)]
    for g in large:
        assert ro._walk_table(g, 0) == all_subsets_walk(g, 0), encode_graph6(g)


def test_piece_dims_gets_only_irreducible_pieces(monkeypatch):
    """On the pieces that the two characteristic-dependent graphs build:
    only connected pieces with no vertex
    pair ``N(u) <= N(v)`` and no vertex adjacent to all the others build a
    complex, and no vertex ``v`` splits them: at every ``v`` some degree
    has homology both in ``W - v`` and in ``W - N[v]`` (by the per-subset
    reference).  Every other subset is a cone or split in the table.  The
    walk has no fold test, so the no-pair assertion checks that a fold
    always splits: ``u`` is isolated in ``G[W - N[v]]``, which then has no
    homology."""
    pieces = []

    def record(adj, piece_mask, char):
        pieces.append((adj, piece_mask, char))
        return piece_dims(adj, piece_mask, char)

    piece_dims = ro._piece_dims
    monkeypatch.setattr(ro, "_piece_dims", record)
    for g in (flag_rp2_complement(), rp2_minus_vertex_and_edge()):
        pieces.clear()
        for char in (0, 2, 3):
            ro._walk_table(g, char)
        assert pieces, g.edges
        for adj, w, char in pieces:
            verts = [v for v in range(len(adj)) if w >> v & 1]
            nbrs = {v: adj[v] & w for v in verts}
            assert gc._reach(adj, 1 << verts[0], w) == w, verts
            assert not any(u != v and nbrs[u] & ~nbrs[v] == 0 for u in verts for v in verts), verts
            assert not any(nbrs[u] == w ^ (1 << u) for u in verts), verts
            for v in verts:
                a = _ind_dims(g, w ^ (1 << v), char)
                b = _ind_dims(g, w & ~adj[v] & ~(1 << v), char)
                assert any(a.get(t) and b.get(t) for t in a), (verts, v, char)


def test_piece_dims_matches_reference_homology(corpus7):
    """The rank kernel, tested directly: ``_piece_dims`` on every connected
    subset of at least two vertices with no vertex pair ``N(u) <= N(v)``
    (no fold) of the n <= 7 corpus graphs, of the flag RP^2 graph and of
    its 11-vertex relative, against the per-subset reference path and the
    dense elimination of ``brute_homology``, at chars 0, 2 and 3.  Each distinct induced
    subgraph is checked once: relabelling in vertex order leaves the
    kernel's steps the same.  The dims at a characteristic differ from
    the char-0 dims only if it divides an entry of the piece's torsion."""
    rp2, rp2_minor = flag_rp2_complement(), rp2_minus_vertex_and_edge()
    seen = set()
    torsion_free = 0
    for g in list(corpus7) + [rp2, rp2_minor]:
        adj = [g.adj_mask(v) for v in range(g.n)]
        for w in range(1, 1 << g.n):
            if not w & (w - 1) or gc._reach(adj, w & -w, w) != w:
                continue
            verts = [v for v in range(g.n) if w >> v & 1]
            if any(u != v and adj[u] & w & ~adj[v] == 0 for u in verts for v in verts):
                continue
            sub = gc.induced_subgraph(g, verts)
            if (sub.n, sub.edges) in seen:
                continue
            seen.add((sub.n, sub.edges))
            facets = list(independence_complex(sub).facets)
            dims0, torsion = ro._piece_dims(adj, w, 0)
            torsion_free += not torsion
            for char in (0, 2, 3):
                dims, diagonal = ro._piece_dims(adj, w, char)
                assert diagonal == torsion, (g.edges, verts)
                ref = _ind_dims(g, w, char)
                assert ref == brute_homology(facets, char), (g.edges, verts, char)
                assert ref == {-1: 0, **dict(enumerate(dims))}, (g.edges, verts, char)
                if dims != dims0:
                    assert any(p % char == 0 for p in torsion), (g.edges, verts, char)
    assert 0 < torsion_free < len(seen) and (rp2.n, rp2.edges) in seen


def test_kernel_matches_reference_on_the_pieces_built(corpus7, monkeypatch):
    """Every complex the walk builds, on the graphs where it builds any, has
    the dims of ``helpers.brute_homology`` on the same faces at chars 0, 2,
    3 and 5: the one 16-face piece of ``GK~vno``, torsion-free, and the
    pieces of the flag RP^2 graph, of ``JWaqbO\\euT?`` and of RP^2 plus a
    4-cycle, with torsion 2.  The walk of the n <= 7 corpus builds no
    complex, and that of ``GK~vno`` one at each characteristic."""
    built = []
    kernel = ro.homology_from_masks

    def record(by_dim, char):
        dims, torsion = kernel(by_dim, char)
        built.append((by_dim, dims, torsion))
        return dims, torsion

    monkeypatch.setattr(ro, "homology_from_masks", record)
    for g in corpus7:
        ro._walk_table(g, 0)
    assert not built
    rp2, gk = flag_rp2_complement(), parse_graph6("GK~vno")
    cases = [
        (gk, ()),
        (rp2, (2,)),
        (rp2_minus_vertex_and_edge(), (2,)),
        (gc.disjoint_union(rp2, cycle(4)), (2,)),
    ]
    for g, torsion in cases:
        for char in (0, 2, 3, 5):
            built.clear()
            ro._walk_table(g, char)
            assert built, (g.edges, char)
            if g is gk:
                assert [sum(map(len, by_dim)) for by_dim, _, _ in built] == [16]
            for by_dim, dims, diagonal in built:
                faces = [tuple(gc._bits(face)) for level in by_dim for face in level]
                assert brute_homology(faces, char) == {-1: 0, **dict(enumerate(dims))}, (g.edges, char)
                assert tuple(sorted(diagonal)) == torsion, (g.edges, char)
        assert ro.subgraph_regularity(g).torsion == torsion


def test_cliques_and_bowtie_build_no_complex(monkeypatch):
    """The table fills every subset of a complete graph or of two triangles
    sharing a vertex without building a complex: a connected subset has a
    vertex adjacent to all the others, which the split always takes, its
    link being the empty complex with homology in degree -1, and the
    bowtie's two disjoint edges are split too.  The Betti tables stay
    exact."""

    def refuse(adj, piece_mask, char):
        raise AssertionError(f"complex built for subset {piece_mask:b}")

    monkeypatch.setattr(ro, "_piece_dims", refuse)
    ro._whole_graph.cache_clear()
    bowtie = gc.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    for g in [complete(k) for k in range(2, 9)] + [bowtie]:
        for char in (0, 2):
            assert ro.betti_table(g, FieldSpec(char)).as_dict() == brute_betti(g, char), (g.n, char)


def test_unit_elimination_keeps_rank():
    """The rank read from ``homology._diagonal``'s diagonal form of the whole
    matrix (the entries the characteristic does not divide) equals its rank
    at chars 0, 2, 3 and 5, on small integer matrices with units and on
    matrices with none (``helpers.seeded_matrices``)."""
    for n_rows, cols in seeded_matrices():
        dense = [[col.get(r, 0) for r in range(n_rows)] for col in cols]
        diagonal = homology._diagonal([dict(col) for col in cols])
        for char in (0, 2, 3, 5):
            rank = sum(1 for p in diagonal if char == 0 or p % char)
            assert rank == brute_rank(dense, char), (cols, char)


def test_characteristic_dependence_flag_rp2():
    """Ind(G) is a flag projective plane: H_2 is one-dimensional over GF(2)
    and zero over Q and GF(3), so the regularity depends on the field."""
    n, triangles = flag_rp2()
    edges = {e for t in triangles for e in combinations(t, 2)}
    for v in range(n):
        nbrs: dict[int, set[int]] = {}
        for t in triangles:
            if v in t:
                a, b = (u for u in t if u != v)
                nbrs.setdefault(a, set()).add(b)
                nbrs.setdefault(b, set()).add(a)
        assert all(len(s) == 2 for s in nbrs.values()), f"link of {v} is not 2-regular"
        start = min(nbrs)
        prev, cur, steps = start, min(nbrs[start]), 1
        while cur != start:
            prev, cur = cur, min(nbrs[cur] - {prev})
            steps += 1
        assert steps == len(nbrs), f"link of {v} is not one cycle"
    # a closed surface with Euler characteristic 1 is the projective plane
    assert n - len(edges) + len(triangles) == 1
    cliques = [c for k in (3, 4) for c in combinations(range(n), k) if all(e in edges for e in combinations(c, 2))]
    assert cliques == sorted(triangles)
    g = gc.from_edges(n, [e for e in combinations(range(n), 2) if e not in edges])
    assert independence_complex(g).facets == tuple(triangles)
    regs = {c: ro.regularity(g, FieldSpec(c)).reg_star for c in (0, 2, 3)}
    assert regs == {0: 3, 2: 4, 3: 3}


def test_characteristic_dependence_11_vertices(monkeypatch):
    """The flag RP^2 graph without vertex 11 and edge (9, 10) still has
    more homology over GF(2): ``reg_star`` is 3, 4 and 3 at chars 0, 2 and
    3, the char-0 walk leaves the diagonal entry 2, and the Betti tables at
    chars 0 and 2 match Hochster's formula by brute force."""
    _, torsion = _count_walks(monkeypatch)
    g = rp2_minus_vertex_and_edge()
    assert encode_graph6(g) == "JWaqbO\\euT?" and g.num_edges == 25
    regs = {c: ro.regularity(g, FieldSpec(c)).reg_star for c in (0, 2, 3)}
    assert regs == {0: 3, 2: 4, 3: 3}
    assert torsion[g.n, g.edges] == {2}
    for char in (0, 2):
        assert ro.betti_table(g, FieldSpec(char)).as_dict() == brute_betti(g, char), char


def test_regularity_at_vertex_cap():
    """C16 at the oracle cap against the closed form for cycles:
    reg I(C_n) = floor(n/3) + 1, plus 1 when n = 2 (mod 3)."""
    g = cycle(16)
    assert g.n == ro.ORACLE_VERTEX_CAP
    for char in (0, 2):
        assert ro.regularity(g, FieldSpec(char)).reg_star == 16 // 3 + 1 == 6


def test_regularity_cap():
    with pytest.raises(CapExceeded):
        ro.regularity(edgeless(17), FieldSpec(0))
    with pytest.raises(CapExceeded, match="regularity sweep capped at 16 vertices, got 17"):
        ro.betti_table(path(17), FieldSpec(0))


def test_regularity_cap_disconnected():
    """The cap is checked on the whole graph before the component split,
    so a 17-vertex union of small parts is still refused."""
    g = gc.disjoint_union(cycle(9), path(8))
    for char in (0, 2):
        with pytest.raises(CapExceeded, match="regularity sweep capped at 16 vertices, got 17"):
            ro.regularity(g, FieldSpec(char))
        with pytest.raises(CapExceeded, match="regularity sweep capped at 16 vertices, got 17"):
            ro.subgraph_regularity(g, FieldSpec(char))


def test_recursion_value_cap():
    """The recursion value comes from ``regularity`` or, in FL2 and FL3,
    from the graph's subset table; both refuse past the cap, so FL2 and
    FL3 record the graph as a skip instead of checking it."""
    with pytest.raises(CapExceeded):
        max(ro.regularity(path(17)).reg_star, 1)
    g = path(17)
    for report in harness.verify_lemma_suite([g], ["FL2", "FL3"]):
        assert (report.checked, report.violations) == (1, ())
        assert report.skips == (encode_graph6(g),), report.property_name


def test_betti_single_edge():
    table = ro.betti_table(gc.from_edges(2, [(0, 1)]), FieldSpec(0))
    assert table.as_dict() == {(0, 0): 1, (1, 2): 1}
    assert table.regularity_ideal() == 2


def test_betti_2k2():
    table = ro.betti_table(gc.from_edges(4, [(0, 1), (2, 3)]), FieldSpec(0))
    assert table.as_dict() == {(0, 0): 1, (1, 2): 2, (2, 4): 1}


def test_betti_c5():
    table = ro.betti_table(cycle(5), FieldSpec(0))
    assert table.as_dict() == {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1}
    assert table.regularity_quotient() == 2
    assert table.regularity_ideal() == ro.regularity(cycle(5), FieldSpec(0)).reg_star


def test_betti_generators_are_quadrics(corpus5):
    for g in corpus5:
        if g.num_edges == 0:
            continue
        table = ro.betti_table(g, FieldSpec(0)).as_dict()
        assert table[(0, 0)] == 1
        assert table[(1, 2)] == g.num_edges
        assert all(j == 2 for (i, j) in table if i == 1)


def test_betti_requires_edges():
    with pytest.raises(NotApplicable):
        ro.betti_table(edgeless(2), FieldSpec(0))


def test_field_independence_small(corpus5):
    for g in corpus5:
        regs = {c: ro.regularity(g, FieldSpec(c)).reg_star for c in (0, 2, 3)}
        assert len(set(regs.values())) == 1, (g, regs)


def test_component_additivity(corpus5):
    rng = random.Random(77)
    graphs = list(corpus5)
    for _ in range(30):
        g1, g2 = rng.choice(graphs), rng.choice(graphs)
        u = gc.disjoint_union(g1, g2)
        lhs = ro.regularity(u, FieldSpec(0)).reg_star
        rhs = (
            ro.regularity(g1, FieldSpec(0)).reg_star
            + ro.regularity(g2, FieldSpec(0)).reg_star
            - 1
        )
        assert lhs == rhs


def test_induced_subgraph_monotone(corpus5):
    rng = random.Random(88)
    for g in corpus5:
        reg = ro.regularity(g, FieldSpec(0)).reg_star
        for _ in range(3):
            w = [v for v in range(g.n) if rng.random() < 0.5]
            sub = gc.induced_subgraph(g, w)
            assert ro.regularity(sub, FieldSpec(0)).reg_star <= reg or sub.n == 0


def test_trees_attain_induced_matching_bound(corpus7):
    """Independent anchor: on every forest, regularity is nu0 + 1."""
    for g in corpus7:
        if g.num_edges and g.num_edges == g.n - 1 and g.is_connected():
            assert ro.regularity(g, FieldSpec(0)).reg_star == M.nu0(g) + 1


def test_known_small_families():
    assert ro.regularity(complete(5), FieldSpec(0)).reg_star == 2
    assert ro.regularity(star(5), FieldSpec(0)).reg_star == 2
    assert ro.regularity(cycle(4), FieldSpec(0)).reg_star == 2
    assert ro.regularity(cycle(6), FieldSpec(0)).reg_star == 3
    assert ro.regularity(cycle(7), FieldSpec(0)).reg_star == 3
    assert ro.regularity(path(4), FieldSpec(0)).reg_star == 2


def test_squeeze_chain(corpus6):
    for g in corpus6:
        if g.num_edges == 0:
            continue
        reg = ro.regularity(g, FieldSpec(0)).reg_star
        assert M.nu0(g) + 1 <= reg <= M.mm(g) + 1 <= M.nu(g) + 1
