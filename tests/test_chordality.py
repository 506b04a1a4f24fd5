from __future__ import annotations

import gc as gc_module

import pytest

from eilab import chordality as ch
from eilab import graph_core as gc
from eilab.errors import CapExceeded, NotApplicable, WorkBoundExceeded

from helpers import (
    brute_has_chordless_cycle,
    complete,
    cycle,
    edgeless,
    lex_bfs_order,
    path,
    reference_cochord_parts,
    sparse_random_graphs,
    star,
)


def test_c4_not_chordal():
    cert = ch.is_chordal(cycle(4))
    assert not cert.verdict
    assert ch.validate_chordless_cycle(cycle(4), cert.chordless_cycle)
    assert set(cert.chordless_cycle) == {0, 1, 2, 3}


def test_trees_chordal():
    for g in (path(5), star(4), gc.from_edges(1, [])):
        cert = ch.is_chordal(g)
        assert cert.verdict
        assert ch.validate_elimination_order(g, cert.elimination_order)


def test_c5_plus_chord_not_chordal():
    g = gc.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    cert = ch.is_chordal(g)
    assert not cert.verdict
    assert len(cert.chordless_cycle) == 4
    assert ch.validate_chordless_cycle(g, cert.chordless_cycle)


def test_agrees_with_brute_force(corpus7):
    for g in corpus7:
        cert = ch.is_chordal(g)
        assert cert.verdict == (not brute_has_chordless_cycle(g))
        if cert.verdict:
            assert ch.validate_elimination_order(g, cert.elimination_order)
        else:
            assert ch.validate_chordless_cycle(g, cert.chordless_cycle)


def test_is_cochordal():
    assert not ch.is_cochordal(cycle(5)).verdict  # self-complementary
    assert ch.is_cochordal(path(4)).verdict
    assert ch.is_cochordal(complete(5)).verdict


def test_froberg():
    pentagon_chord = gc.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert ch.froberg_reg_two(pentagon_chord)
    assert not ch.froberg_reg_two(cycle(5))
    assert ch.froberg_reg_two(gc.from_edges(2, [(0, 1)]))
    with pytest.raises(NotApplicable):
        ch.froberg_reg_two(edgeless(3))


def test_validators_reject_bad_certificates():
    c4 = cycle(4)
    two_k2 = gc.from_edges(4, [(0, 1), (2, 3)])
    assert ch.validate_cover(two_k2, ch.CochordCover(2, (((0, 1),), ((2, 3),))))
    assert not ch.validate_cover(two_k2, ch.CochordCover(2, (((0, 1),), ((1, 2),))))  # not an edge
    assert not ch.validate_cover(two_k2, ch.CochordCover(1, (((0, 1), (2, 3)),)))  # complement C4
    p3 = path(3)
    assert ch.validate_elimination_order(p3, (0, 1, 2))
    assert not ch.validate_elimination_order(p3, (0, 1, 1))  # not a permutation
    assert not ch.validate_elimination_order(p3, (1, 0, 2))  # 0 and 2 follow 1, not adjacent
    assert ch.validate_chordless_cycle(c4, (0, 1, 2, 3))
    assert not ch.validate_chordless_cycle(complete(3), (0, 1, 2))  # too short
    assert not ch.validate_chordless_cycle(c4, (0, 1, 0, 1))  # repeated vertices
    assert not ch.validate_chordless_cycle(c4, (0, 2, 1, 3))  # 0 and 2 are not adjacent
    assert not ch.validate_chordless_cycle(complete(4), (0, 1, 2, 3))  # chords 02 and 13
    assert not ch.validate_chordless_cycle(c4, (-1, 0, 1, 2))  # not a vertex
    assert not ch.validate_chordless_cycle(c4, (9, 0, 1, 2))


def test_cochord_examples():
    single = gc.from_edges(2, [(0, 1)])
    assert ch.cochord_number(single).k == 1
    cover = ch.cochord_number(cycle(5))
    assert cover.k == 2
    assert ch.validate_cover(cycle(5), cover)
    sizes = sorted(len(p) for p in cover.parts)
    assert sizes == [2, 3]  # a 2-edge path and a 3-edge path
    two_k2 = gc.from_edges(4, [(0, 1), (2, 3)])
    assert ch.cochord_number(two_k2).k == 2


def test_cochord_covers_validate(corpus5):
    for g in corpus5:
        if g.num_edges == 0:
            continue
        cover = ch.cochord_number(g, cap=4)
        assert ch.validate_cover(g, cover)


def test_cochord_matches_brute_cover_minimum(corpus5):
    """The edge-assignment search agrees with a cover search that allows
    overlapping parts, built from all maximal co-chordal edge subsets."""
    from itertools import combinations

    def brute(g, cap=4):
        m = g.num_edges
        subsets = []
        for mask in range(1, 1 << m):
            chosen = [g.edges[i] for i in range(m) if mask >> i & 1]
            support = sorted({v for e in chosen for v in e})
            index = {v: i for i, v in enumerate(support)}
            sub = gc.from_edges(len(support), [(index[u], index[v]) for u, v in chosen])
            if not brute_has_chordless_cycle(gc.complement(sub)):
                subsets.append(mask)
        maximal = [
            s for s in subsets if not any(s != t and s & t == s for t in subsets)
        ]
        full = (1 << m) - 1
        for k in range(1, cap + 1):
            for combo in combinations(maximal, k):
                u = 0
                for s in combo:
                    u |= s
                if u == full:
                    return k
        return None

    for g in corpus5:
        if g.num_edges == 0:
            continue
        assert ch.cochord_number(g, cap=4).k == brute(g)


def test_certificates_golden():
    """Exact witnesses, pinned so that kernel rewrites keep them byte for byte."""
    bull = gc.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
    c5_chord = gc.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    cases = [
        (cycle(4), (None, (0, 1, 2, 3)), ((3, 1, 2, 0), None)),
        (cycle(6), (None, (0, 1, 2, 3, 4, 5)), (None, (1, 4, 2, 5))),
        (c5_chord, (None, (0, 2, 3, 4)), ((2, 4, 1, 3, 0), None)),
        (path(5), ((4, 3, 2, 1, 0), None), (None, (0, 3, 1, 4))),
        (bull, ((4, 3, 2, 1, 0), None), ((1, 3, 2, 4, 0), None)),
    ]
    for g, chordal, cochordal in cases:
        for cert, (order, cyc) in ((ch.is_chordal(g), chordal), (ch.is_cochordal(g), cochordal)):
            assert cert.verdict == (order is not None)
            assert (cert.elimination_order, cert.chordless_cycle) == (order, cyc)
    assert ch.cochord_number(cycle(5)).parts == (
        ((0, 1), (0, 4), (1, 2)),
        ((2, 3), (3, 4)),
    )
    assert ch.cochord_number(cycle(7)).parts == (
        ((0, 1), (0, 6), (1, 2)),
        ((2, 3), (3, 4), (4, 5)),
        ((5, 6),),
    )


def test_cochord_work_bound(monkeypatch):
    """Past its work bound the cover search refuses, naming the bound and
    carrying the greedy star bound, however small the cover would be."""
    monkeypatch.setattr(ch, "COCHORD_WORK_BOUND", 10)
    with pytest.raises(WorkBoundExceeded) as rec:
        ch.cochord_number(cycle(7), cap=4)
    assert isinstance(rec.value, CapExceeded)
    assert "work bound of 10 part checks" in str(rec.value)
    assert "exceeds cap" not in str(rec.value)
    assert rec.value.best_bound == 4
    assert ch.cochord_number(cycle(5)).k == 2  # needs fewer part checks


def test_cochord_c7_and_cap():
    c7 = cycle(7)
    assert ch.cochord_number(c7).k == 3
    with pytest.raises(CapExceeded) as rec:
        ch.cochord_number(c7, cap=2)
    assert rec.value.best_bound >= 3
    with pytest.raises(NotApplicable):
        ch.cochord_number(edgeless(2))


def test_cochord_leaves_no_reference_cycle(monkeypatch):
    """The search frees its memo when it returns or refuses, without
    waiting for the cyclic collector: an answer, a cap refusal and a work
    bound refusal leave nothing for ``gc.collect`` to find."""
    c7 = cycle(7)
    gc_module.collect()
    gc_module.disable()
    try:
        assert ch.cochord_number(c7).k == 3
        with pytest.raises(CapExceeded):
            ch.cochord_number(c7, cap=2)
        monkeypatch.setattr(ch, "COCHORD_WORK_BOUND", 10)
        with pytest.raises(WorkBoundExceeded):
            ch.cochord_number(c7, cap=4)
        assert gc_module.collect() == 0
    finally:
        gc_module.enable()


def test_woodroofe_bound_on_corpus(corpus6):
    from eilab.regularity_oracle import FieldSpec, regularity

    for g in corpus6:
        if g.num_edges == 0:
            continue
        cover = ch.cochord_number(g, cap=4)
        assert regularity(g, FieldSpec(0)).reg_star <= cover.k + 1


def _reference_elimination(adj, alive):
    """The slow LexBFS order with the first-violation rule: the first
    visited ``v`` whose latest-visited earlier neighbour ``w`` misses
    another earlier neighbour, ``y`` the lowest of those."""
    order = lex_bfs_order(adj, alive)
    for i, v in enumerate(order):
        earlier = [u for u in order[:i] if adj[v] >> u & 1]
        if earlier:
            w = earlier[-1]
            bad = [u for u in earlier if u != w and not adj[w] >> u & 1]
            if bad:
                return None, (v, w, min(bad))
    return tuple(reversed(order)), None


def test_elimination_order_matches_lex_bfs_reference(corpus6):
    """Partition refinement gives the reference LexBFS order on chordal
    graphs and its first violation on the others: every vertex submask of
    every n <= 6 graph and of its complement, and the seeded sparse graphs
    on 8-10 vertices with their complements."""
    cases = [(g, alive) for g in corpus6 for alive in range(1 << g.n)]
    cases += [(g, g.full_mask) for g in sparse_random_graphs()]
    verdicts = set()
    for g, alive in cases:
        for h in (g, gc.complement(g)):
            adj = [h.adj_mask(v) for v in range(h.n)]
            got = ch._elimination_order(adj, alive)
            assert got == _reference_elimination(adj, alive), (h.edges, alive)
            verdicts.add(got[0] is not None)
    assert verdicts == {True, False}


def _with_edges(graphs):
    return [g for g in graphs if g.num_edges]


def test_cochord_matches_peel_reference(corpus7):
    """The cover search agrees, part for part, with an independent search in
    the same order whose pruning cycles come from a vertex peel.

    Covers every n <= 7 graph with edges and 40 seeded sparse graphs on
    8-10 vertices with at most 2n edges.  Dense graphs whose cover exceeds
    cap 4 are left out: refuting every cover of size 4 takes minutes on
    either search.
    """
    for g in _with_edges(corpus7) + sparse_random_graphs():
        cover = ch.cochord_number(g, cap=4)
        assert cover.parts == reference_cochord_parts(g, cap=4)
        assert cover.k == len(cover.parts)


def test_violation_cycles_are_chordless(corpus7, monkeypatch):
    """Every pruning cycle read off an elimination violation is a chordless
    cycle of the part's complement, and every violation is the first one
    of the LexBFS order, in the shape ``v~w``, ``v~y``, ``w`` not adjacent
    to ``y``, ``w`` the latest-visited earlier neighbour of ``v``."""
    built = {}
    real = ch._violation_cycle

    def recording(adj, alive, violation):
        cycle = real(adj, alive, violation)
        built[tuple(adj), alive, violation] = cycle
        return cycle

    monkeypatch.setattr(ch, "_violation_cycle", recording)
    for g in _with_edges(corpus7) + sparse_random_graphs():
        ch.cochord_number(g, cap=4)
    assert len(built) > 10_000
    for (adj, alive, (v, w, y)), cycle in built.items():
        order = lex_bfs_order(list(adj), alive)
        pos = {u: i for i, u in enumerate(order)}

        def earlier(u):
            return [x for x in order[: pos[u]] if adj[u] >> x & 1]

        for u in order[: pos[v]]:
            before = earlier(u)
            assert all(x == before[-1] or adj[before[-1]] >> x & 1 for x in before)
        before = earlier(v)
        assert before[-1] == w and y in before and pos[y] < pos[w]
        assert adj[v] >> w & 1 and adj[v] >> y & 1 and not adj[w] >> y & 1
        if cycle is not None:
            inside = [u for u in range(len(adj)) if alive >> u & 1]
            comp = gc.from_edges(
                len(adj), [(a, b) for a in inside for b in inside if a < b and adj[a] >> b & 1]
            )
            assert cycle[:2] == (v, w) and cycle[-1] == y
            assert set(cycle) <= set(inside)
            assert ch.validate_chordless_cycle(comp, cycle)


def test_peel_fallback(corpus6, monkeypatch):
    """Without a ``w``-``y`` path avoiding ``v``'s other neighbours there is
    no violation cycle, and the cover search falls back on the peel."""
    c4_and_p3 = gc.from_edges(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6)])
    adj = [c4_and_p3.adj_mask(v) for v in range(7)]
    assert ch._violation_cycle(adj, c4_and_p3.full_mask, (5, 4, 6)) is None
    assert ch._chordless_cycle(adj, c4_and_p3.full_mask) == (0, 1, 2, 3)

    monkeypatch.setattr(ch, "_violation_cycle", lambda adj, alive, violation: None)
    assert ch.cochord_number(cycle(7)).parts == (
        ((0, 1), (0, 6), (1, 2)),
        ((2, 3), (3, 4), (4, 5)),
        ((5, 6),),
    )
    for g in _with_edges(corpus6):
        assert ch.cochord_number(g, cap=4).parts == reference_cochord_parts(g, cap=4)
