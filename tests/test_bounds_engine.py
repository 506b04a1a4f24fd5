from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from eilab import bounds_engine as be
from eilab import chordality
from eilab import formats_io as fio
from eilab import graph_core as gc
from eilab.errors import NotApplicable
from eilab.regularity_oracle import FieldSpec, regularity

from helpers import cycle, edgeless, path, star


def test_static_examples():
    iv = be.static_bounds(path(4))
    assert (iv.lo, iv.hi) == (2, 2)
    assert iv.trace[0][0] == be.RULE_FROBERG
    iv = be.static_bounds(cycle(5))
    assert (iv.lo, iv.hi) == (3, 3)
    two_k2 = gc.from_edges(4, [(0, 1), (2, 3)])
    iv = be.static_bounds(two_k2)
    assert (iv.lo, iv.hi) == (3, 3)


def test_static_requires_edges():
    with pytest.raises(NotApplicable):
        be.static_bounds(edgeless(3))
    with pytest.raises(NotApplicable):
        be.refine_bounds(edgeless(3))


def test_trace_names_rules(corpus5):
    known = {
        be.RULE_KATZMAN,
        be.RULE_HA_VAN_TUYL,
        be.RULE_MM_BOUND,
        be.RULE_FROBERG,
        be.RULE_COMP_SPLIT,
        be.RULE_FL2,
    }
    for g in corpus5:
        if g.num_edges == 0:
            continue
        iv = be.refine_bounds(g)
        assert iv.trace
        assert {step[0] for step in iv.trace} <= known


def test_refine_examples():
    u = gc.disjoint_union(cycle(5), gc.from_edges(2, [(0, 1)]))
    iv = be.refine_bounds(u)
    assert (iv.lo, iv.hi) == (4, 4)
    assert any(step[0] == be.RULE_COMP_SPLIT for step in iv.trace)
    iv = be.refine_bounds(star(5))
    assert (iv.lo, iv.hi) == (2, 2)
    iv = be.refine_bounds(cycle(6))
    assert (iv.lo, iv.hi) == (3, 3)


def test_soundness_against_oracle(corpus7):
    """The static chain, component additivity and the vertex recursion pin
    every connected graph on at most 7 vertices to the oracle's value,
    within the default budget."""
    for g in corpus7:
        if g.num_edges == 0:
            continue
        iv = be.refine_bounds(g)
        reg = regularity(g, FieldSpec(0)).reg_star
        assert (iv.lo, iv.hi, iv.budget_exhausted) == (reg, reg, False), (g, iv, reg)


def test_fl2_membership_against_oracle(corpus5):
    def reg(h):
        return max(regularity(h, FieldSpec(0)).reg_star, 1)

    for g in corpus5:
        for x in range(g.n):
            minus = reg(gc.apply_surgery(g, gc.DeleteVertex(x)))
            closed = reg(gc.apply_surgery(g, gc.CloseVertex(x)))
            assert reg(g) in (minus, closed + 1)


def test_budget_exhaustion_flagged():
    c7 = cycle(7)  # static bounds stay [3,4], so refinement must recurse
    iv = be.refine_bounds(c7, budget=1)
    assert iv.budget_exhausted
    reg = regularity(c7, FieldSpec(0)).reg_star
    assert iv.lo <= reg <= iv.hi
    full = be.refine_bounds(c7)
    assert not full.budget_exhausted
    assert (full.lo, full.hi) == (reg, reg)


def test_never_widens_static(corpus5):
    for g in corpus5:
        if g.num_edges == 0:
            continue
        s = be.static_bounds(g)
        r = be.refine_bounds(g)
        assert s.lo <= r.lo and r.hi <= s.hi


@pytest.fixture
def no_cover_search(monkeypatch):
    """Make the co-chordal cover search fail the test if it is started."""

    def refuse(g, *args, **kwargs):
        raise AssertionError("cover search started")

    monkeypatch.setattr(chordality, "cochord_number", refuse)


def test_refine_skips_cover_search_on_a_point(no_cover_search):
    """The engine never starts the co-chordal cover search: not on C14,
    where the recursion leaves the interval open, and not on a dense
    14-vertex graph it pins to a point."""
    iv = be.refine_bounds(cycle(14))
    assert (iv.lo, iv.hi) == (5, 6)
    assert iv.lo <= regularity(cycle(14), FieldSpec(0)).reg_star <= iv.hi
    g = _random_graph(14, 45, 3)
    reg = regularity(g, FieldSpec(0)).reg_star
    iv = be.refine_bounds(g)
    assert (iv.lo, iv.hi) == (reg, reg)


def test_spent_budget_starts_no_cover_search(no_cover_search):
    """With the node budget spent, no cover search is started either: the
    interval comes back flagged instead."""
    g = _random_graph(14, 55, 0)
    iv = be.refine_bounds(g, budget=0)
    assert iv.budget_exhausted
    assert iv.lo <= regularity(g, FieldSpec(0)).reg_star <= iv.hi


def test_refine_closes_dense_14_vertex_graph():
    """A dense 14-vertex graph that the vertex recursion pins to the
    oracle's value within the default budget."""
    g = fio.parse_graph6("MGAKdedYd^x_kgps?")
    assert (g.n, g.num_edges) == (14, 40)
    assert regularity(g, FieldSpec(0)).reg_star == 4
    iv = be.refine_bounds(g)
    assert (iv.lo, iv.hi, iv.budget_exhausted) == (4, 4, False)


def _random_graph(n: int, m: int, seed: int) -> gc.Graph:
    return gc.from_edges(n, random.Random(seed).sample(list(combinations(range(n), 2)), m))


def test_refine_clique_union_cycle(monkeypatch):
    """K10 + C5: the memo keys K10 without the lex-min search, which alone
    took ~20 s on K10 before it pruned twins."""

    def refuse(g):
        raise AssertionError("lex-min search started")

    monkeypatch.setattr(gc, "canonical_form", refuse)
    g = fio.parse_graph6("N~~~~~~~w??@?@??_@G")
    assert (g.n, g.num_edges) == (15, 50)
    start = time.monotonic()
    iv = be.refine_bounds(g)
    assert time.monotonic() - start < 5
    assert (iv.lo, iv.hi, iv.budget_exhausted) == (4, 4, False)


def test_memo_key_matches_lex_min_reference(corpus6, monkeypatch):
    """Keying the memo by the lex-min form instead gives the same intervals,
    traces and flags: both keys group exactly the isomorphic graphs."""
    graphs = [g for g in corpus6 if g.num_edges]
    graphs += [_random_graph(n, m, seed) for seed, (n, m) in enumerate([(8, 12), (9, 16), (10, 14), (10, 22), (12, 20)])]
    fast = [be.refine_bounds(g) for g in graphs]
    monkeypatch.setattr(gc, "canonical_key", gc.canonical_form)
    assert [be.refine_bounds(g) for g in graphs] == fast
