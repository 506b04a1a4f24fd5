from __future__ import annotations

import gc as gc_module
import random
import time

import pytest

from eilab import graph_core as gc
from eilab import matchings as M
from eilab.errors import CapExceeded
from eilab.graph_core import DeleteVertex
from eilab.matchings import MatchingKind

from helpers import brute_mm, brute_nu, brute_nu0, complete, cycle, edgeless, path, relabel, star


def test_nu_examples():
    assert M.max_matching(cycle(5)).size == 2
    assert M.max_matching(star(3)).size == 1
    cert = M.max_matching(path(4))
    assert cert.size == 2
    assert cert.edges == ((0, 1), (2, 3))  # the two end edges, lex-smallest


def test_nu0_examples():
    assert M.induced_matching_number(cycle(5)).size == 1
    two_k2 = gc.from_edges(4, [(0, 1), (2, 3)])
    cert = M.induced_matching_number(two_k2)
    assert cert.size == 2 and cert.edges == ((0, 1), (2, 3))
    assert M.induced_matching_number(path(4)).size == 1


def test_mm_examples():
    cert = M.min_maximal_matching(path(4))
    assert cert.size == 1 and cert.edges == ((1, 2),)  # middle edge alone
    assert M.min_maximal_matching(cycle(5)).size == 2
    assert M.min_maximal_matching(star(3)).size == 1


def test_edgeless():
    for fn in (M.max_matching, M.induced_matching_number, M.min_maximal_matching):
        cert = fn(edgeless(3))
        assert cert.size == 0 and cert.edges == ()


def test_certificates_validate(corpus6):
    for g in corpus6:
        for fn in (M.max_matching, M.induced_matching_number, M.min_maximal_matching):
            assert M.validate_certificate(g, fn(g))


def test_validate_rejects_bad_certificates():
    c5 = cycle(5)
    bad = M.MatchingCertificate(MatchingKind.MAXIMUM, ((0, 1), (1, 2)), 2)
    assert not M.validate_certificate(c5, bad)  # shared vertex
    bad = M.MatchingCertificate(MatchingKind.MAXIMUM, ((0, 2),), 1)
    assert not M.validate_certificate(c5, bad)  # not an edge
    bad = M.MatchingCertificate(MatchingKind.MAXIMUM_INDUCED, ((0, 1), (2, 3)), 2)
    assert not M.validate_certificate(c5, bad)  # edge 1-2 joins the pair
    bad = M.MatchingCertificate(MatchingKind.MINIMUM_MAXIMAL, ((0, 1),), 1)
    assert not M.validate_certificate(c5, bad)  # edge 2-3 uncovered
    bad = M.MatchingCertificate(MatchingKind.MAXIMUM, ((0, 1),), 2)
    assert not M.validate_certificate(c5, bad)  # size is not the edge count
    for edge in [(-1, 0), (4, 5), (7, 8)]:
        bad = M.MatchingCertificate(MatchingKind.MAXIMUM, (edge,), 1)
        assert not M.validate_certificate(c5, bad)  # a vertex outside the graph


def test_against_brute_force(corpus5):
    for g in corpus5:
        assert M.nu(g) == brute_nu(g)
        assert M.nu0(g) == brute_nu0(g)
        assert M.mm(g) == brute_mm(g)


def test_invariant_chain(corpus6):
    for g in corpus6:
        assert M.nu0(g) <= M.mm(g) <= M.nu(g)


def test_vertex_deletion_monotonicity(corpus5):
    for g in corpus5:
        for v in range(g.n):
            h = gc.apply_surgery(g, DeleteVertex(v))
            assert M.nu(h) in (M.nu(g) - 1, M.nu(g))
            assert M.nu0(h) <= M.nu0(g)


def test_lex_tie_break_is_smallest(corpus5):
    from itertools import combinations

    for g in corpus5:
        cert = M.max_matching(g)
        k = cert.size
        if k == 0:
            continue
        candidates = [
            sub
            for sub in combinations(g.edges, k)
            if len({v for e in sub for v in e}) == 2 * k
        ]
        assert cert.edges == min(candidates)


def test_caps():
    big = gc.from_edges(25, [(i, i + 1) for i in range(24)])
    with pytest.raises(CapExceeded):
        M.induced_matching_number(big)
    with pytest.raises(CapExceeded):
        M.min_maximal_matching(big)


def test_matching_number_vertex_cap():
    """The matching number refuses past 24 vertices at once, whatever the
    edge count, and still answers the densest graph within the cap."""
    big = path(25)
    start = time.monotonic()
    with pytest.raises(CapExceeded, match="matching number refuses graphs beyond n=24"):
        M.nu(big)
    with pytest.raises(CapExceeded):
        M.max_matching(big)
    assert time.monotonic() - start < 0.1
    k24 = complete(24)
    assert k24.num_edges > M.NP_HARD_EDGE_CAP
    assert M.nu(k24) == 12
    cert = M.max_matching(k24)
    assert cert.size == 12 and M.validate_certificate(k24, cert)


def test_mm_by_components_matches_whole_search(corpus5):
    """Searching each component apart gives the certificate the search over
    the whole union gives, lex tie-break included."""
    from eilab import harness

    rng = random.Random(3)
    unions = harness.union_pairs(corpus5, total_cap=8)
    unions.append(gc.disjoint_union(gc.disjoint_union(cycle(5), edgeless(2)), star(3)))
    unions += [relabel(g, rng.sample(range(g.n), g.n)) for g in unions]  # interleave the parts
    for g in unions:
        assert M.min_maximal_matching(g).edges == M._min_maximal_edges(g)


def test_searches_leave_no_reference_cycle():
    """The matching searches free their memos and closures when they
    return, without waiting for the cyclic collector, and their answers
    and certificates are unchanged."""
    c7 = cycle(7)
    gc_module.collect()
    gc_module.disable()
    try:
        for search, answer in [
            (M.nu, 3),
            (M.nu0, 2),
            (M.mm, 3),
            (M.max_matching, M.MatchingCertificate(MatchingKind.MAXIMUM, ((0, 1), (2, 3), (4, 5)), 3)),
            (M.induced_matching_number, M.MatchingCertificate(MatchingKind.MAXIMUM_INDUCED, ((0, 1), (3, 4)), 2)),
            (M.min_maximal_matching, M.MatchingCertificate(MatchingKind.MINIMUM_MAXIMAL, ((0, 1), (2, 3), (4, 5)), 3)),
        ]:
            assert search(c7) == answer, search.__name__
            assert gc_module.collect() == 0, search.__name__
    finally:
        gc_module.enable()
