"""Certified intervals for edge-ideal regularity, with a provenance trace.

Everything here is homology-free: the interval [lo, hi] is derived purely
from matching invariants, chordality of the complement, component
additivity and the vertex recursion (for every vertex x, reg G lies in
{reg(G - x), reg(G - N[x]) + 1}).  Each tightening is recorded as a
(rule, subject, contribution) trace step.  The vertex recursion is genuine
set membership, not an equation, so when its two branches disagree the
engine keeps the convex hull -- it never guesses a side.

Subgraphs reached by the recursion can lose all their edges (or all
their vertices); those contribute the fixed value 1, the regularity of
the ambient polynomial ring's quotient bumped to the ideal convention,
which is the convention under which the recursion is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import chordality, graph_core, matchings
from .errors import NotApplicable
from .graph_core import Graph, _drop_vertices

RULE_KATZMAN = "Katzman"
RULE_HA_VAN_TUYL = "HaVanTuyl"
RULE_MM_BOUND = "MMBound"
RULE_FROBERG = "Froberg"
RULE_COMP_SPLIT = "CompSplit"
RULE_FL2 = "FL2"

TraceStep = tuple[str, str, str]

DEFAULT_BUDGET = 2000


@dataclass(frozen=True)
class BoundsInterval:
    lo: int
    hi: int
    trace: tuple[TraceStep, ...] = ()
    budget_exhausted: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
            raise AssertionError(f"inconsistent interval [{self.lo}, {self.hi}]")


def static_bounds(g: Graph) -> BoundsInterval:
    """Non-recursive bounds from the matching chain and complement chordality."""
    if g.num_edges == 0:
        raise NotApplicable("bounds are defined for graphs with at least one edge")
    trace: list[TraceStep] = []
    desc = f"graph(n={g.n}, m={g.num_edges})"
    if chordality.froberg_reg_two(g):
        trace.append((RULE_FROBERG, desc, "complement chordal: reg = 2"))
        return BoundsInterval(2, 2, tuple(trace))
    n0 = matchings.nu0(g)
    lo = n0 + 1
    trace.append((RULE_KATZMAN, desc, f"lo >= nu0+1 = {lo}"))
    if lo < 3:
        lo = 3
        trace.append((RULE_FROBERG, desc, "complement not chordal: lo >= 3"))
    n1 = matchings.nu(g)
    hi = n1 + 1
    trace.append((RULE_HA_VAN_TUYL, desc, f"hi <= nu+1 = {hi}"))
    m1 = matchings.mm(g)
    if m1 + 1 < hi:
        hi = m1 + 1
        trace.append((RULE_MM_BOUND, desc, f"hi <= mm+1 = {hi}"))
    return BoundsInterval(lo, hi, tuple(trace))


@dataclass
class _Budget:
    remaining: int
    exhausted: bool = False

    def spend(self) -> bool:
        if self.remaining <= 0:
            self.exhausted = True
            return False
        self.remaining -= 1
        return True


def refine_bounds(g: Graph, budget: int = DEFAULT_BUDGET) -> BoundsInterval:
    """Recursive tightening by components and the vertex recursion.

    Memoized on canonical forms; never widens the static interval.  When
    the node budget runs out the best interval so far comes back flagged.
    """
    if g.num_edges == 0:
        raise NotApplicable("bounds are defined for graphs with at least one edge")
    state = _Budget(budget)
    memo: dict[Graph, tuple[int, int]] = {}
    trace: list[TraceStep] = []
    static = static_bounds(g)
    lo, hi = _refine(g, state, memo, trace, top=static)
    lo, hi = max(lo, static.lo), min(hi, static.hi)
    return BoundsInterval(lo, hi, static.trace + tuple(trace), state.exhausted)


# ``top`` is the input graph's static interval, given only at the top level,
# where the narrowing steps are traced.
def _refine(g: Graph, budget: _Budget, memo, trace: list[TraceStep], top: BoundsInterval | None = None) -> tuple[int, int]:
    if g.num_edges == 0:
        return (1, 1)
    key = None
    if g.n <= graph_core.CANONICAL_LIMIT_DEFAULT:
        key = graph_core.canonical_form(g)
        hit = memo.get(key)
        if hit is not None:
            return hit
    if not budget.spend():
        iv = top or static_bounds(g)
        return (iv.lo, iv.hi)

    comps = graph_core.components(g)
    if len(comps) > 1:
        lo = hi = 1
        for verts, comp in comps:
            c_lo, c_hi = _refine(comp, budget, memo, trace)
            lo += c_lo - 1
            hi += c_hi - 1
        if top:
            trace.append(
                (RULE_COMP_SPLIT, f"{len(comps)} components", f"[{lo},{hi}] by additivity")
            )
        if key is not None:
            memo[key] = (lo, hi)
        return (lo, hi)

    iv = top or static_bounds(g)
    lo, hi = iv.lo, iv.hi

    if lo < hi:
        order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        for x in order:
            if lo == hi or budget.exhausted:
                break
            del_lo, del_hi = _refine(_drop_vertices(g, 1 << x), budget, memo, trace)
            cls_lo, cls_hi = _refine(_drop_vertices(g, g.adj_mask(x) | 1 << x), budget, memo, trace)
            new_lo = max(lo, min(del_lo, cls_lo + 1))
            new_hi = min(hi, max(del_hi, cls_hi + 1))
            if (new_lo, new_hi) != (lo, hi):
                lo, hi = new_lo, new_hi
                if top:
                    trace.append((RULE_FL2, f"vertex {x}", f"narrowed to [{lo},{hi}]"))

    if lo > hi:
        raise AssertionError(f"refinement produced an empty interval on {g!r}")
    if key is not None:
        memo[key] = (lo, hi)
    return (lo, hi)
