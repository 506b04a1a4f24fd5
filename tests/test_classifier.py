from __future__ import annotations

import pytest

from eilab import classifier as cl
from eilab import graph_core as gc
from eilab import harness
from eilab import regularity_oracle as ro
from eilab.errors import CapExceeded, NotApplicable, NotConnected
from eilab.regularity_oracle import FieldSpec

from helpers import (
    brute_contains_c5,
    cycle,
    edgeless,
    flag_rp2_complement,
    path,
    rp2_minus_vertex_and_edge,
    star,
)


def test_pentagon_test():
    assert cl.pentagon_test(cycle(5))
    chord = gc.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert not cl.pentagon_test(chord)
    assert not cl.pentagon_test(path(5))
    with pytest.raises(NotConnected):
        cl.pentagon_test(gc.from_edges(4, [(0, 1), (2, 3)]))


def test_contains_c5_subgraph():
    assert cl.contains_c5_subgraph(cycle(5))
    chord = gc.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert cl.contains_c5_subgraph(chord)  # non-induced counts
    assert not cl.contains_c5_subgraph(cycle(6))
    assert not cl.contains_c5_subgraph(path(5))


def test_contains_c5_matches_subset_search(corpus7):
    """The path walk agrees with the 5-subset search on every graph of the
    n <= 7 corpus and on their unions up to 8 vertices."""
    graphs = list(corpus7) + harness.union_pairs(corpus7, 8)
    for g in graphs:
        assert cl.contains_c5_subgraph(g) == brute_contains_c5(g), g


def test_classify_pentagon_union_star():
    u = gc.disjoint_union(cycle(5), star(2))
    (v,) = cl.classify(u, (0,))
    assert v.structural and v.numeric and v.agreement
    assert v.component_shapes == ("pentagon", "star")
    from eilab import matchings as M
    from eilab.regularity_oracle import regularity

    assert regularity(u, FieldSpec(0)).reg_star == 4 == M.nu(u) + 1


def test_classify_c6_both_false():
    (v,) = cl.classify(cycle(6), (0,))
    assert not v.structural and not v.numeric and v.agreement


def test_classify_single_vertex():
    (v,) = cl.classify(edgeless(1), (0,))
    assert v.structural and v.numeric
    (v,) = cl.classify(edgeless(4), (0,))
    assert v.structural and v.numeric


def test_classify_empty_rejected():
    with pytest.raises(NotApplicable):
        cl.classify(gc.from_edges(0, []), (0,))


def test_classify_per_characteristic_flag_rp2():
    """One call gives one verdict per characteristic, in order, each equal
    to the verdict of a call with that characteristic alone."""
    g = flag_rp2_complement()
    verdicts = cl.classify(g, (0, 2, 3))
    assert [v.characteristic for v in verdicts] == [0, 2, 3]
    assert [v.reg_star for v in verdicts] == [3, 4, 3]
    for v in verdicts:
        assert cl.classify(g, (v.characteristic,)) == [v]
    assert cl.classify(g, (2, 0, 2)) == [verdicts[1], verdicts[0], verdicts[1]]


def test_classify_field_free_side_once(monkeypatch):
    """The shapes and the matching number are taken once per component,
    not once per characteristic: ``nu`` adds over the components."""
    from eilab import matchings as M

    calls = {"shape": 0, "nu": []}
    shape, nu = cl.component_shape, M.nu

    def counted_shape(comp):
        calls["shape"] += 1
        return shape(comp)

    def counted_nu(g):
        calls["nu"].append(g)
        return nu(g)

    monkeypatch.setattr(cl, "component_shape", counted_shape)
    monkeypatch.setattr(M, "nu", counted_nu)
    u = gc.disjoint_union(gc.disjoint_union(cycle(5), star(2)), path(4))
    verdicts = cl.classify(u, (0, 2, 3))
    assert len(verdicts) == 3
    assert calls == {"shape": 3, "nu": [comp for _, comp in gc.components(u)]}
    assert all(v.numeric == (v.reg_star == nu(u) + 1) for v in verdicts)


def test_classify_reads_regularity_per_component(corpus7, monkeypatch):
    """The numeric side sums each component's ``reg_star - 1``, read off
    one walk of the component.  It equals the ``reg_star`` of one walk of
    the whole graph, with no component split, at chars 0, 2 and 3 on the n <= 7 corpus, its unions up to 9 vertices,
    RP^2, RP^2 plus C4 and ``JWaqbO\\euT?``.  Each distinct component is
    walked once at char 0, and again at char 2 only where the walk has
    torsion 2.  A graph past the oracle's cap is refused whole, though
    each of its components is under it."""
    rp2 = flag_rp2_complement()
    graphs = list(corpus7) + harness.union_pairs(corpus7, 9)
    graphs += [rp2, gc.disjoint_union(rp2, cycle(4)), rp2_minus_vertex_and_edge()]
    walks = []
    walk_table = ro._walk_table

    def counted(g, char):
        walks.append(char)
        return walk_table(g, char)

    monkeypatch.setattr(ro, "_walk_table", counted)
    for g in graphs:
        walks.clear()
        verdicts = cl.classify(g, (0, 2, 3))
        torsion = g.n >= 11  # a component from RP^2; the corpus and its unions stay under 10 vertices
        distinct = {comp for _, comp in gc.components(g)}
        assert walks == [0, 2] * torsion + [0] * (len(distinct) - torsion), g
        whole = ro.subgraph_regularity(g)
        assert [v.reg_star for v in verdicts] == [whole.at(FieldSpec(c)).whole() for c in (0, 2, 3)], g
    with pytest.raises(CapExceeded, match="regularity sweep capped at 16 vertices, got 18"):
        cl.classify(gc.disjoint_union(cycle(9), cycle(9)), (0,))


def test_classify_agreement_on_corpus(corpus6):
    for g in corpus6:
        for v in cl.classify(g, (0, 2)):
            assert v.agreement


def test_lemma_c1_property(corpus6):
    from eilab import matchings as M
    from eilab.regularity_oracle import regularity

    for g in corpus6:
        if cl.contains_c5_subgraph(g):
            continue
        if regularity(g, FieldSpec(0)).reg_star == M.nu(g) + 1:
            assert M.nu(g) == M.nu0(g)


def test_lemma_c2_property(corpus6):
    from eilab import matchings as M
    from eilab.regularity_oracle import regularity

    for g in corpus6:
        if not g.is_connected() or not cl.contains_c5_subgraph(g):
            continue
        if regularity(g, FieldSpec(0)).reg_star == M.nu(g) + 1:
            assert cl.pentagon_test(g)
