from __future__ import annotations

import random
from itertools import combinations

import pytest

from eilab import bounds_engine as be
from eilab import chordality
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
        be.RULE_WOODROOFE,
        be.RULE_MM_BOUND,
        be.RULE_FROBERG,
        be.RULE_COMP_SPLIT,
        be.RULE_FL2,
        be.RULE_FL3,
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


def test_soundness_against_oracle(corpus6):
    point = 0
    total = 0
    for g in corpus6:
        if g.num_edges == 0:
            continue
        iv = be.refine_bounds(g)
        reg = regularity(g, FieldSpec(0)).reg_star
        assert iv.lo <= reg <= iv.hi, (g, iv, reg)
        total += 1
        point += iv.is_point()
    # exactness rate is reported, not asserted; keep visibility in the log
    print(f"refine_bounds exact on {point}/{total} graphs")


def test_fl2_membership_against_oracle(corpus5):
    def reg(h):
        return regularity(h, FieldSpec(0)).reg_recursion

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


def test_refine_skips_cover_search_on_a_point():
    """A dense 14-vertex graph that the recursion pins to a point: the
    co-chordal cover search, which runs for minutes here, is not started."""
    g = gc.from_edges(14, random.Random(3).sample(list(combinations(range(14), 2)), 45))
    reg = regularity(g, FieldSpec(0)).reg_star
    iv = be.refine_bounds(g)
    assert (iv.lo, iv.hi) == (reg, reg)
    assert all(step[0] != be.RULE_WOODROOFE for step in iv.trace)


def test_spent_budget_starts_no_cover_search(monkeypatch):
    """With the node budget spent, the co-chordal cover search, which runs
    for minutes on a dense 14-vertex graph and counts no nodes, is not
    started: the interval comes back flagged instead."""

    def refuse(g, *args, **kwargs):
        raise AssertionError("cover search started with the budget spent")

    monkeypatch.setattr(chordality, "cochord_number", refuse)
    g = gc.from_edges(14, random.Random(0).sample(list(combinations(range(14), 2)), 55))
    iv = be.refine_bounds(g, budget=0)
    assert iv.budget_exhausted
    assert iv.lo <= regularity(g, FieldSpec(0)).reg_star <= iv.hi
