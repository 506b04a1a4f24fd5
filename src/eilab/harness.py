"""Corpus enumeration and exhaustive verification sweeps.

The corpus is every connected graph on up to eight vertices, one per
isomorphism class, produced by vertex augmentation (attach a new vertex to
a nonempty subset of a smaller connected graph).  Two exact filters, a
weak form of McKay's canonical deletion, drop most candidates before any
is labelled: the attach set must take the lowest vertices of each
twin class of the parent, and no non-cut vertex may beat the new vertex on
``(degree, sorted neighbour degrees)``.  Up to n = 7 they leave 1,353 of
the 7,815 candidates.  Each one left is labelled by
``graph_core.canonical_form``, the least column string over all vertex
orders, searched from the graph's maximum independent sets; the labelled
forms are deduplicated as they are made, and each vertex count is sorted
by graph6 string.

``verify`` then checks the classification theorem and each supporting
lemma over a corpus in one sweep, in one process.  The theorem is one more
tag of one check table (``_CHECKS``) beside the lemma tags: each tag has a
check of a graph, of a two-component union, or, for the theorem, both.
A row pass runs every graph's checks, and a union pass every union's,
where a union is a pair of indices into the corpus (``unions``).

Each check states its lemma and returns the detail strings of its
violations, calling its searches in any order: each refuses past its own
cap.  The sweep names the graph by its graph6 string, for a violation and
a skip (a refused search) alike, so any failure is reproducible; a union
is built only then, or where a check walks it.  A report's ``seconds`` is
the sum of its tag's check time.

Every check reads records (``classifier._GraphFacts``), which compute
each fact at its first ask and keep it, a refusal too, so that every tag
needing a refused fact skips the graph.  One dict for the sweep, keyed by
component, holds them, and a connected graph's record is its component's.
So the theorem, UB, FL1, FL2, FL3, C1, C1a, C2 and Squeeze share one walk
of each graph, and the theorem, the lemma tags and Comp one ``nu`` and one
``nu0`` of each component.  After its row a record drops its subset
tables; it stays only if some union holds its graph, for the union pass.

FL1, FL2, FL3 and C1a walk no surgery: they read the regularity of
``G - x``, ``G - N[x]``, ``G - N[e]`` and any other induced subgraph off
the graph's one subset table, and that of ``G - e`` off a copy that
refills only the subsets holding both ends.
FL3 decides an edge from the table first: ``G - e`` shares the subsets
missing ``u`` or ``v``, so ``reg(G - e)`` is at least the larger of
``reg(G - u)`` and ``reg(G - v)``, and only an edge that bound leaves
undecided is refilled.  C1a builds ``G - e`` only for its matching number.

The theorem builds no union.  Both sides of the equivalence add over the
components, so a union's verdicts are read off its two graphs' component
records (``classifier._verdicts``).  A union with a refused part, or past
the oracle cap, is a skip.  Comp checks that additivity itself, so it
walks each union (``unions.check_comp``).

Squeeze checks Woodroofe's ``reg <= cochord + 1`` without the cover number
itself: it reads ``reg`` first and asks the cover search only whether a
cover with at most ``max(reg) - 2`` parts exists, capped there and at 4.
A refusal at that cap is the bound holding; a cover found has the least
size, since the search deepens from one part, so a violation names the
cover number as before.
"""

from __future__ import annotations

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
    unions,
)
from .errors import CapExceeded, TooLarge, UnknownProperty, WorkBoundExceeded
from .graph_core import Graph, _bits, _reach, _twin_masks

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
    is built from the labelled previous one: a parent ``g`` gains a vertex
    ``v`` attached to a nonempty set ``A``, and a candidate is labelled
    only if it passes two exact filters.

    (a) Within each twin class of ``g``, ``A`` holds the lowest vertices.
    Swapping twins is an automorphism of ``g``, so every other ``A`` gives
    a candidate isomorphic to one kept.

    (b) No non-cut vertex of the candidate beats ``v`` on the invariant
    ``(degree, sorted neighbour degrees)``.  Every connected class has a
    non-cut vertex ``w`` of largest invariant; deleting it leaves a
    connected parent, and the candidate that re-attaches ``w`` to that
    parent (moved by (a)'s twin swap) is kept.

    Each kept candidate is labelled by ``canonical_form``, and the labelled
    forms are deduplicated as they are made."""
    if max_n > INTERNAL_ENUMERATION_CAP:
        raise TooLarge(
            f"internal enumeration caps at {INTERNAL_ENUMERATION_CAP} vertices; "
            "ingest an external graph6 file instead"
        )
    level = (graph_core.from_edges(1, []),)
    for n in range(1, max_n + 1):
        if n > 1:
            seen: set[Graph] = set()
            v = n - 1
            full = (1 << n) - 1
            for g in level:
                base = [g.adj_mask(x) for x in range(v)]
                deg = [m.bit_count() for m in base]
                attaches = [0]
                twins = _twin_masks(base)
                for x in range(v):
                    if twins[x] & ((1 << x) - 1):
                        continue  # its class was met at its lowest vertex
                    prefixes = [0]
                    for y in _bits(twins[x] | 1 << x):
                        prefixes.append(prefixes[-1] | 1 << y)
                    attaches = [a | p for a in attaches for p in prefixes]
                for attach in attaches[1:]:
                    adj = base + [attach]
                    cand_deg = deg + [attach.bit_count()]
                    for x in _bits(attach):
                        adj[x] |= 1 << v
                        cand_deg[x] += 1
                    k = cand_deg[v]
                    mine = sorted(cand_deg[y] for y in _bits(attach))
                    for x in range(v):
                        if cand_deg[x] < k:
                            continue
                        if cand_deg[x] == k and sorted(cand_deg[y] for y in _bits(adj[x])) <= mine:
                            continue
                        if _reach(adj, 1 << v, full ^ 1 << x) == full ^ 1 << x:
                            break  # x is not a cut vertex and beats v
                    else:
                        seen.add(graph_core.canonical_form(Graph(n, adj)))
            level = tuple(sorted(seen, key=formats_io.encode_graph6))
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
    """The unions of ``unions.union_index_pairs``, built."""
    items = list(graphs)
    return [graph_core.disjoint_union(items[i], items[j]) for i, j in unions.union_index_pairs(items, total_cap)]


# -- the sweep ---------------------------------------------------------------------


def verify(graphs, tags, chars, union_total_cap: int = 9) -> list[SweepReport]:
    """One report per tag of ``_CHECKS``, in the order given, from one pass
    over the graphs and then one over their two-component unions
    (``unions.union_index_pairs``).  A row tag checks each graph, Comp each
    union, and the theorem both; the union pass runs only for a tag that
    checks unions, and a cap below two vertices leaves none.  Bad tags and
    union caps are refused before any sweep runs.

    Each graph's record comes from one dict for the sweep, keyed by
    component (``classifier._record``), and every tag reads it.  A record
    that some union holds is kept for the union pass with its tables
    dropped; any other is made afresh and dropped after its row."""
    for tag in tags:
        if tag not in _CHECKS:
            raise UnknownProperty(f"unknown tag {tag!r}; known: {', '.join(_CHECKS)}")
    graphs = list(graphs)
    chars = tuple(chars)
    on_rows = {tag: _CHECKS[tag][0] for tag in tags if _CHECKS[tag][0]}
    on_unions = {tag: _CHECKS[tag][1] for tag in tags if _CHECKS[tag][1]}
    pairs = unions.union_index_pairs(graphs, union_total_cap) if on_unions else ()
    # a graph with more vertices than this is in no union
    held_up_to = union_total_cap - min(g.n for g in graphs) if on_unions and graphs else -1
    violations: dict[str, list[tuple[str, str]]] = {tag: [] for tag in tags}
    skips: dict[str, list[str]] = {tag: [] for tag in tags}
    seconds = dict.fromkeys(tags, 0.0)
    checked = dict.fromkeys(tags, 0)

    def run(checks, graph_of, *args):
        """Every check on one item, whose graph ``graph_of`` builds only to
        name a violation (a detail string) or a skip (a ``CapExceeded``)."""
        for tag, check in checks.items():
            checked[tag] += 1
            start = time.monotonic()
            try:
                violations[tag].extend((_g6(graph_of()), detail) for detail in check(*args))
            except CapExceeded:
                skips[tag].append(_g6(graph_of()))
            seconds[tag] += time.monotonic() - start

    records: dict = {}  # component -> its record, for the graphs some union holds
    held: list = [None] * len(graphs)  # index -> its record, for the union pass
    for i, g in enumerate(graphs):
        facts = classifier._record(g, records if g.n <= held_up_to else {})
        run(on_rows, lambda: g, g, chars, facts)
        if g.n <= held_up_to:
            facts.drop_tables()
            held[i] = facts
        del facts  # before the next graph's record is made
    for i, j in pairs:
        first, second = held[i], held[j]
        run(on_unions, lambda: graph_core.disjoint_union(first.graph, second.graph), chars, first, second)
    return [
        SweepReport(tag, checked[tag], tuple(sorted(violations[tag])), tuple(sorted(skips[tag])), seconds[tag])
        for tag in tags
    ]


def verify_theorem(
    graphs,
    chars=(0, 2),
    include_unions: bool = True,
    union_total_cap: int = 9,
    workers: int = 1,
) -> SweepReport:
    """``verify``'s main-theorem report: structural == numeric on every
    graph, then, with ``include_unions``, on every union of two of them.
    Sweeps run in one process; ``workers`` is accepted only as 1."""
    if workers != 1:
        raise ValueError(f"sweeps run in one process; workers must be 1, got {workers}")
    (report,) = verify(graphs, ["main-theorem"], chars, union_total_cap if include_unions else 0)
    return report


def verify_lemma_suite(graphs, tags, chars=(0,), union_total_cap: int = 9) -> list[SweepReport]:
    """``verify``'s reports for the given lemma tags; ``Comp`` checks the
    graphs' two-component unions, the others the graphs."""
    for tag in tags:
        if tag not in LEMMA_TAGS:
            raise UnknownProperty(f"unknown lemma tag {tag!r}; known: {', '.join(LEMMA_TAGS)}")
    return verify(graphs, tags, chars, union_total_cap)


def _g6(g: Graph) -> str:
    return formats_io.encode_graph6(g)


# -- the checks ------------------------------------------------------------------------
#
# A row check ``check(g, chars, facts)`` reads one graph and its record, a
# union check ``check(chars, first, second)`` the records of the union's two
# graphs; each returns the detail strings of its violations.


def _check_theorem(chars, *records):
    """The characteristics where the two sides of the equivalence disagree,
    read off the records of one graph or of the two graphs of a union
    (``classifier._sides``)."""
    shapes, structural, target, regs = classifier._sides(chars, *records)
    return [
        f"char {c}: structural={structural} numeric={reg == target} shapes={shapes}"
        for c, reg in regs
        if structural != (reg == target)
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


# tag -> (row check, union check)
_CHECKS = {
    "main-theorem": (lambda g, chars, facts: _check_theorem(chars, facts), _check_theorem),
    "UB": (_check_ub, None),
    "FL1": (_check_fl1, None),
    "FL2": (_check_fl2, None),
    "FL3": (_check_fl3, None),
    "Comp": (None, unions.check_comp),
    "C1": (_check_c1, None),
    "C1a": (_check_c1a, None),
    "C2": (_check_c2, None),
    "CaWa": (_check_cawa, None),
    "Squeeze": (_check_squeeze, None),
}

LEMMA_TAGS = tuple(tag for tag in _CHECKS if tag != "main-theorem")
