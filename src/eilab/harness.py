"""Corpus enumeration and exhaustive verification sweeps.

The corpus is every connected graph on up to eight vertices, one per
isomorphism class, produced by vertex augmentation (attach a new vertex to
each nonempty subset of a smaller connected graph).  Candidates are
deduplicated by the refinement key ``graph_core.canonical_key``; each
class is then labelled by the lex-min ``graph_core.canonical_form``,
computed once per class, and each vertex count is sorted by graph6 string.
Sweeps then check the classification theorem and each supporting lemma
over a corpus, optionally including two-component disjoint unions, in one
process.

Each per-graph check states its lemma and returns the detail strings of
its violations, calling its searches in any order: each refuses past its
own cap.  The sweep names the graph by its graph6 string, for a violation
and a skip (a refused search) alike, so any failure is reproducible.

The lemma suite runs graph-major: each graph gets one ``_GraphFacts``
record, which every tag's check reads and which is dropped before the
next graph.  The record computes each fact on first use and keeps it: the
char-0 subgraph readings (``subgraph_oracle.subgraph_regularity``) and
their ``at(c)``, ``reg_star`` at each characteristic (the digit count of
the largest entry of that table), ``nu``, ``nu0`` and ``mm``.  So UB, FL1,
FL2, FL3, C1, C1a, C2 and Squeeze share one walk of the graph, and a
refusal is kept as well, so that every tag needing the refused fact skips
the graph.  A report's ``seconds`` is the sum of its tag's check time.

FL1, FL2, FL3 and C1a walk no surgery and add nothing to the oracle's
memo: they read the regularity of ``G - x``, ``G - N[x]``, ``G - N[e]``
and any other induced subgraph off the graph's one subset table, and that
of ``G - e`` off a copy that refills only the subsets holding both ends.
FL3 decides an edge from the table first: ``G - e`` shares the subsets
missing ``u`` or ``v``, so ``reg(G - e)`` is at least the larger of
``reg(G - u)`` and ``reg(G - v)``, and only an edge that bound leaves
undecided is refilled.  C1a builds ``G - e`` only for its matching number.

No sweep uses the oracle's memo.  Comp reads the regularity of the union
and of each of its components off the union's one subset table
(``subgraph_oracle.subgraph_regularity``): the whole table, and the
submasks of each component's vertices.  The table is walked once at
char 0 and serves every characteristic that divides none of its torsion,
through ``SubgraphRegularity.at``.  The theorem sweep hands ``classify``
one dict for the whole sweep, from each component to its shape, ``nu``
and ``reg_star`` at each characteristic, and Comp keeps one from each
component to its ``nu`` and ``nu0``.  Both are keyed from the start by
the corpus graphs, which the unions' components equal, so each is
measured once and no component ``Graph`` is kept as a key of its own.

Squeeze checks Woodroofe's ``reg <= cochord + 1`` without the cover number
itself: it reads ``reg`` first and asks the cover search only whether a
cover with at most ``max(reg) - 2`` parts exists, capped there and at 4.
A refusal at that cap is the bound holding; a cover found has the least
size, since the search deepens from one part, so a violation names the
cover number as before.
"""

from __future__ import annotations

import copy
import random
import time
import zlib
from dataclasses import dataclass

from . import (
    cameron_walker,
    chordality,
    classifier,
    formats_io,
    graph_core,
    matchings,
    subgraph_oracle,
)
from .errors import CapExceeded, TooLarge, UnknownProperty, WorkBoundExceeded
from .graph_core import Graph
from .regularity_oracle import FieldSpec

INTERNAL_ENUMERATION_CAP = 8

# Connected graph counts per vertex count, for corpus self-checks.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

_FL1_SEED = 0x5EED
_FL1_SAMPLES = 5


@dataclass(frozen=True)
class Corpus:
    graphs: tuple[Graph, ...]


@dataclass(frozen=True)
class SweepReport:
    property_name: str
    checked: int
    violations: tuple[tuple[str, str], ...]  # (graph6, detail)
    skips: tuple[str, ...]
    seconds: float

    @property
    def passed(self) -> bool:
        return not self.violations


# -- enumeration ----------------------------------------------------------------


def _connected_levels(max_n: int):
    """Yield, for ``n = 1 .. max_n`` in turn, all connected graphs on ``n``
    vertices, canonically labelled and sorted by graph6 string.  Each level
    is built from the labelled previous one."""
    if max_n > INTERNAL_ENUMERATION_CAP:
        raise TooLarge(
            f"internal enumeration caps at {INTERNAL_ENUMERATION_CAP} vertices; "
            "ingest an external graph6 file instead"
        )
    level = (graph_core.from_edges(1, []),)
    for n in range(1, max_n + 1):
        if n > 1:
            seen: dict[int, Graph] = {}
            for g in level:
                base = [g.adj_mask(v) for v in range(n - 1)]
                for attach in range(1, 1 << (n - 1)):
                    adj = list(base) + [attach]
                    for v in range(n - 1):
                        if attach >> v & 1:
                            adj[v] |= 1 << (n - 1)
                    cand = Graph(n, adj)
                    seen.setdefault(graph_core.canonical_key(cand), cand)
            forms = (graph_core.canonical_form(g) for g in seen.values())
            level = tuple(sorted(forms, key=formats_io.encode_graph6))
        if n in CONNECTED_COUNTS and len(level) != CONNECTED_COUNTS[n]:
            raise AssertionError(
                f"enumeration found {len(level)} connected graphs on {n} vertices, "
                f"expected {CONNECTED_COUNTS[n]}"
            )
        yield level


def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on exactly ``n`` vertices, canonically labeled,
    in increasing order of canonical form."""
    if n < 1:
        raise ValueError("vertex count must be positive")
    *_, level = _connected_levels(n)
    return level


def enumerate_connected(n: int) -> Corpus:
    """Corpus of all connected graphs on ``n`` vertices, exactly once each."""
    return Corpus(connected_graphs(n))


def enumerate_all(n: int) -> Corpus:
    """Corpus of all graphs on ``n`` vertices, via component multisets."""
    if n < 1:
        raise ValueError("vertex count must be positive")
    # Already in (vertex count, canonical form) order.
    catalog = [g for level in _connected_levels(n) for g in level]

    out: list[Graph] = []

    def build(remaining: int, start: int, parts: list[Graph]) -> None:
        if remaining == 0:
            acc = parts[0]
            for p in parts[1:]:
                acc = graph_core.disjoint_union(acc, p)
            out.append(acc)
            return
        for idx in range(start, len(catalog)):
            g = catalog[idx]
            if g.n > remaining:
                continue
            parts.append(g)
            build(remaining - g.n, idx, parts)
            parts.pop()

    build(n, 0, [])
    return Corpus(tuple(out))


def corpus_up_to(max_n: int) -> Corpus:
    return Corpus(tuple(g for level in _connected_levels(max_n) for g in level))


def corpus_from_graph6(text: str) -> Corpus:
    return Corpus(tuple(d.graph for d in formats_io.read_graph6_lines(text)))


def union_pairs(graphs, total_cap: int = 9) -> list[Graph]:
    """All two-component disjoint unions (unordered, repeats allowed) with
    at most ``total_cap`` vertices.  A cap past the graph6 vertex limit is
    refused up front: a sweep names each graph by its graph6 string."""
    if total_cap > formats_io.MAX_VERTICES:
        raise TooLarge(f"unions cap at {formats_io.MAX_VERTICES} vertices, got {total_cap}")
    out = []
    items = list(graphs)
    for i, g1 in enumerate(items):
        for g2 in items[i:]:
            if g1.n + g2.n <= total_cap:
                out.append(graph_core.disjoint_union(g1, g2))
    return out


# -- sweeps ------------------------------------------------------------------------


def _sweeps(checks: dict, graphs, chars, facts_for) -> list[SweepReport]:
    """One report per entry of ``checks``, graph by graph: each graph of
    the sequence ``graphs`` gets ``facts = facts_for(g)``, then every
    ``check(g, chars, facts)`` in turn.  Each detail string a check returns
    is a violation, and a ``CapExceeded`` a skip, both named by the graph's
    graph6 string.  A report's ``seconds`` sums its own check's time."""
    violations: dict[str, list[tuple[str, str]]] = {name: [] for name in checks}
    skips: dict[str, list[str]] = {name: [] for name in checks}
    seconds = dict.fromkeys(checks, 0.0)
    for g in graphs:
        facts = facts_for(g)
        for name, check in checks.items():
            start = time.monotonic()
            try:
                violations[name].extend((_g6(g), detail) for detail in check(g, chars, facts))
            except CapExceeded:
                skips[name].append(_g6(g))
            seconds[name] += time.monotonic() - start
        del facts  # before the next graph's record is made
    return [
        SweepReport(name, len(graphs), tuple(sorted(violations[name])), tuple(sorted(skips[name])), seconds[name])
        for name in checks
    ]


def verify_theorem(
    graphs,
    chars=(0, 2),
    include_unions: bool = True,
    union_total_cap: int = 9,
    workers: int = 1,
) -> SweepReport:
    """Check structural == numeric on every graph (and optional unions).
    Sweeps run in one process; ``workers`` is accepted only as 1."""
    if workers != 1:
        raise ValueError(f"sweeps run in one process; workers must be 1, got {workers}")
    graphs = list(graphs)
    # component -> (shape, nu, regs), for this sweep only; keyed from the
    # start by the corpus graphs, as Comp's dict is.
    facts = dict.fromkeys(graphs)
    if include_unions:
        graphs += union_pairs(graphs, union_total_cap)
    (report,) = _sweeps({"main-theorem": _check_theorem}, graphs, tuple(chars), lambda g: facts)
    return report


def verify_lemma_suite(
    graphs,
    tags,
    chars=(0,),
    union_total_cap: int = 9,
) -> list[SweepReport]:
    """One report per requested lemma tag, in the order given, over the
    given corpus graphs; ``Comp`` runs over their two-component unions
    instead.  The other tags run graph by graph, sharing one
    ``_GraphFacts`` record per graph.  Bad tags and union caps are refused
    before any sweep runs."""
    for tag in tags:
        if tag not in _LEMMA_CHECKS:
            raise UnknownProperty(
                f"unknown lemma tag {tag!r}; known: {', '.join(LEMMA_TAGS)}"
            )
    unions = union_pairs(graphs, union_total_cap) if "Comp" in tags else []
    per_graph = {tag: _LEMMA_CHECKS[tag] for tag in tags if tag != "Comp"}
    reports = {rep.property_name: rep for rep in _sweeps(per_graph, graphs, chars, _GraphFacts)}
    if "Comp" in tags:
        # component -> (nu, nu0), for this sweep only; keyed from the start
        # by the corpus graphs, which every part of a union of two connected
        # ones equals, so that no part is kept as a key of its own.
        components = dict.fromkeys(graphs)
        (reports["Comp"],) = _sweeps({"Comp": _LEMMA_CHECKS["Comp"]}, unions, chars, lambda u: components)
    return [reports[tag] for tag in tags]


def _g6(g: Graph) -> str:
    return formats_io.encode_graph6(g)


# -- per-graph checks ----------------------------------------------------------------


class _GraphFacts:
    """One graph's facts, each computed on first use and then kept: the
    subgraph readings at each characteristic, ``reg_star`` at each
    characteristic, ``nu``, ``nu0`` and ``mm``.  A lemma sweep makes one
    per graph and drops it before the next.

    The char-0 readings are one walk of the graph; ``at(c)`` shares that
    table with every characteristic that divides none of its torsion.  A
    refusal is kept in place of its fact, as a copy with no traceback or
    context that could tie it back to the record, and raised again, as a
    fresh copy, to every check that asks."""

    __slots__ = ("graph", "_known")

    def __init__(self, g: Graph):
        self.graph = g
        self._known: dict = {}

    def _fact(self, key, compute):
        known = self._known
        if key not in known:
            try:
                known[key] = compute()
            except CapExceeded as exc:
                known[key] = copy.copy(exc)
        value = known[key]
        if isinstance(value, CapExceeded):
            raise copy.copy(value)
        return value

    def readings(self, c: int) -> subgraph_oracle.SubgraphRegularity:
        if c == 0:
            return self._fact(("readings", 0), lambda: subgraph_oracle.subgraph_regularity(self.graph, FieldSpec(0)))
        return self._fact(("readings", c), lambda: self.readings(0).at(FieldSpec(c)))

    def reg(self, c: int) -> int:
        return self._fact(("reg", c), lambda: self.readings(c).whole())

    def nu(self) -> int:
        return self._fact("nu", lambda: matchings.nu(self.graph))

    def nu0(self) -> int:
        return self._fact("nu0", lambda: matchings.nu0(self.graph))

    def mm(self) -> int:
        return self._fact("mm", lambda: matchings.mm(self.graph))


def _check_theorem(g, chars, facts):
    """``classify``'s verdicts that disagree, with each component's shape,
    ``nu`` and ``reg_star`` taken from, or recorded in, the sweep's
    ``facts``."""
    return [
        f"char {v.characteristic}: structural={v.structural} "
        f"numeric={v.numeric} shapes={v.component_shapes}"
        for v in classifier._classify(g, chars, facts)
        if not v.agreement
    ]


def _check_ub(g, chars, facts):
    out = []
    if g.num_edges == 0:
        return out
    bound = facts.mm() + 1
    for c in chars:
        reg = facts.reg(c)
        if reg > bound:
            out.append(f"char {c}: reg {reg} > mm+1 = {bound}")
    return out


def _check_fl1(g, chars, facts):
    """Restriction: no induced subgraph has a larger regularity.  Five
    seeded vertex subsets are read off ``g``'s own table."""
    out = []
    rng = random.Random(_FL1_SEED ^ zlib.crc32(_g6(g).encode()))
    subsets = []
    for _ in range(_FL1_SAMPLES):
        subsets.append([v for v in range(g.n) if rng.random() < 0.6])
    for c in chars:
        sub = facts.readings(c)
        reg = sub.induced(g.full_mask)
        for w in subsets:
            reg_h = sub.induced(sum(1 << v for v in w))
            if reg_h > reg:
                out.append(f"char {c}: induced {w} has reg {reg_h} > {reg}")
    return out


def _check_fl2(g, chars, facts):
    """Vertex recursion: ``reg(G)`` is ``reg(G - x)`` or
    ``reg(G - N[x]) + 1`` at every vertex ``x``, in the convention that
    gives every edgeless graph 1.  Both are induced subgraphs, read off
    ``g``'s own table."""
    out = []
    full = g.full_mask
    for c in chars:
        sub = facts.readings(c)
        reg = max(sub.induced(full), 1)
        for x in range(g.n):
            minus = max(sub.induced(full ^ 1 << x), 1)
            closed = max(sub.induced(full & ~(g.adj_mask(x) | 1 << x)), 1)
            if reg not in (minus, closed + 1):
                out.append(
                    f"char {c}: vertex {x}: reg {reg} not in "
                    f"{{del={minus}, closed+1={closed + 1}}}"
                )
    return out


def _check_fl3(g, chars, facts):
    """Edge recursion: ``reg(G) <= max(reg(G - e), reg(G - N[e]) + 1)``
    at every edge, in FL2's convention.  ``G - N[e]`` is read off ``g``'s
    own table.  So is a lower bound on ``reg(G - e)``: the larger of
    ``reg(G - u)`` and ``reg(G - v)``, since ``G - e`` shares every subset
    that misses an end.  Only an edge that bound leaves undecided refills
    the subsets holding both ends for ``reg(G - e)`` itself."""
    out = []
    full = g.full_mask
    for c in chars:
        sub = facts.readings(c)
        reg = max(sub.induced(full), 1)
        for e in g.edges:
            u, v = e
            closed = max(sub.induced(full & ~(g.adj_mask(u) | g.adj_mask(v) | 1 << u | 1 << v)), 1)
            shared = max(sub.induced(full ^ 1 << u), sub.induced(full ^ 1 << v))
            if reg <= max(shared, closed + 1):
                continue
            minus = sub.edge_deleted(u, v)
            if reg > max(minus, closed + 1):
                out.append(
                    f"char {c}: edge {e}: reg {reg} > "
                    f"max(del={minus}, closed+1={closed + 1})"
                )
    return out


def _check_comp(u: Graph, chars, facts):
    """``reg``, ``nu`` and ``nu0`` add over the components of ``u``.

    ``reg_star`` of the union is read off its whole subset table, which
    uses no product formula (an edgeless union has 1, from the empty
    complex): ``regularity`` would combine the components and compare
    their sum with itself.  Each component's ``reg_star`` is read off the
    same table as an induced subgraph, over the subsets of its own
    vertices, which the walk fills as it would the component's own table.
    The char-0 table serves every characteristic that divides none of its
    torsion.  Each component's ``nu`` and ``nu0`` come from, or are
    recorded in, the sweep's ``facts``."""
    out = []
    base = subgraph_oracle.subgraph_regularity(u)
    parts = []
    for verts, comp in graph_core.components(u):
        if facts.get(comp) is None:
            facts[comp] = (matchings.nu(comp), matchings.nu0(comp))
        parts.append((sum(1 << v for v in verts), *facts[comp]))
    for c in chars:
        sub = base.at(FieldSpec(c))
        reg = sub.whole()
        reg_sum = sum(sub.induced(mask) - 1 for mask, _, _ in parts) + 1
        if reg != reg_sum:
            out.append(f"char {c}: reg {reg} != component sum {reg_sum}")
    if matchings.nu(u) != sum(nu for _, nu, _ in parts):
        out.append("matching number not additive over components")
    if matchings.nu0(u) != sum(nu0 for _, _, nu0 in parts):
        out.append("induced matching number not additive over components")
    return out


def _check_c1(g, chars, facts):
    if classifier.contains_c5_subgraph(g):
        return []
    nu = facts.nu()
    tight = [c for c in chars if facts.reg(c) == nu + 1]
    if not tight:
        return []
    nu0 = facts.nu0()
    if nu == nu0:
        return []
    return [f"char {c}: C5-free, reg = nu+1 but nu {nu} != nu0 {nu0}" for c in tight]


def _middle_edges(g: Graph):
    """Edges lying in the middle of some simple path on three edges: uv is
    one when u has a neighbour other than v, v one other than u, and the
    two can be chosen distinct."""
    for u, v in g.edges:
        a = g.adj_mask(u) & ~(1 << v)
        b = g.adj_mask(v) & ~(1 << u)
        if a and b and not (a == b and a & (a - 1) == 0):
            yield (u, v)


def _check_c1a(g, chars, facts):
    """Where ``reg = nu + 1``, deleting an edge in the middle of a path on
    three edges keeps both ``reg`` and ``nu``; ``reg(G - e)`` is read off
    ``g``'s table."""
    out = []
    nu = facts.nu()
    for c in chars:
        sub = facts.readings(c)
        reg = sub.induced(g.full_mask)
        if reg != nu + 1:
            continue
        for e in _middle_edges(g):
            reg_h = sub.edge_deleted(*e)
            nu_h = matchings.nu(graph_core.from_edges(g.n, [f for f in g.edges if f != e]))
            if not (reg_h == reg and nu_h == nu):
                out.append(
                    f"char {c}: middle edge {e}: expected reg and nu preserved, "
                    f"got reg {reg_h} (was {reg}), nu {nu_h} (was {nu})"
                )
    return out


def _check_c2(g, chars, facts):
    if not g.is_connected() or not classifier.contains_c5_subgraph(g):
        return []
    nu = facts.nu()
    return [
        f"char {c}: contains C5, reg = nu+1, but not the pentagon"
        for c in chars
        if facts.reg(c) == nu + 1 and not classifier.pentagon_test(g)
    ]


def _check_cawa(g, chars, facts):
    if not g.is_connected() or g.n == 0:
        return []
    shape = cameron_walker.recognize_structural(g)
    equal = cameron_walker.cw_by_invariants(g)
    if shape is None:
        return ["no shape found but matching numbers agree"] if equal else []
    if not equal:
        return [f"shape {shape!r} accepted but matching numbers differ"]
    if not cameron_walker.validate_decomposition(g, shape):
        return ["decomposition failed re-validation"]
    return []


def _check_squeeze(g, chars, facts):
    """The chain ``nu0+1 <= reg <= mm+1 <= nu+1`` and ``reg <= cochord+1``
    at each characteristic.  The bound needs only to know whether a cover
    with fewer than ``need = max(reg) - 1`` parts exists.  When ``need <=
    1`` it holds: a graph with an edge has a cover.  Otherwise the cover
    search runs with cap ``min(need - 1, 4)``.  It deepens from one part,
    so a cover it returns has the least ``k``, and the bound fails at each
    characteristic whose ``reg`` exceeds ``k + 1``.  A refusal at cap
    ``need - 1`` means ``cochord >= need``, so the bound holds.  A refusal
    at the work bound, or at cap 4 below ``need - 1``, is a skip."""
    out = []
    if g.num_edges == 0:
        return out
    lo = facts.nu0() + 1
    mid = facts.mm() + 1
    hi = facts.nu() + 1
    regs = [(c, facts.reg(c)) for c in chars]
    for c, reg in regs:
        if not (lo <= reg <= mid <= hi):
            out.append(f"char {c}: chain broken: {lo} <= {reg} <= {mid} <= {hi}")
    need = max((reg for _, reg in regs), default=0) - 1
    if need <= 1:
        return out
    cap = min(need - 1, 4)
    try:
        k = chordality.cochord_number(g, cap=cap).k
    except WorkBoundExceeded:
        raise
    except CapExceeded:
        if cap < need - 1:
            raise
        return out
    out.extend(f"char {c}: reg {reg} > cochord+1 = {k + 1}" for c, reg in regs if reg > k + 1)
    return out


_LEMMA_CHECKS = {
    "UB": _check_ub,
    "FL1": _check_fl1,
    "FL2": _check_fl2,
    "FL3": _check_fl3,
    "Comp": _check_comp,
    "C1": _check_c1,
    "C1a": _check_c1a,
    "C2": _check_c2,
    "CaWa": _check_cawa,
    "Squeeze": _check_squeeze,
}

LEMMA_TAGS = tuple(_LEMMA_CHECKS)
