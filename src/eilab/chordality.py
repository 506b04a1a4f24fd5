"""Chordality recognition with certificates and the co-chordal cover number.

A graph is chordal when every cycle of length at least four has a chord,
equivalently when it admits a perfect elimination order.  The searches run
on adjacency bitmasks restricted to an ``alive`` vertex mask, so the
subgraphs and complements they need are masks, not new graphs.  The
recognizer runs lexicographic BFS as partition refinement on vertex masks
(lowest index first among equal labels) and verifies the reversed visit
order, stopping at the first violation: a vertex ``v`` with earlier
neighbours ``w`` (the latest) and ``y`` not adjacent to each other.

The public refutation witness is a vertex peel: one ascending pass over
the vertices drops each vertex whose removal leaves the graph non-chordal.
Chordality is inherited by induced subgraphs, so a vertex kept once stays
needed, and what remains is vertex-minimal non-chordal: a chordless cycle
(Tarjan-Yannakakis, SIAM J. Comput. 1984).  The peel costs one LexBFS per
vertex, so the cover search below reads its cycle off the violation
instead: ``v`` closed by a shortest ``w``-``y`` path avoiding the rest of
``v``'s neighbourhood (Rose-Tarjan-Lueker, SIAM J. Comput. 1976), with the
peel as the fallback when no such path exists.

Co-chordality is chordality of the complement.  The co-chordal cover
number is found exactly by iterative deepening over the cover size,
assigning edges to parts in sorted order.  Because co-chordality is not
monotone under adding edges (a later edge can chord away an offending
cycle in the complement), a part that currently fails is only pruned when
some chordless cycle of its complement cannot be touched by any edge still
unassigned.  That holds for any chordless cycle, so the cover found does
not depend on which cycle the search reads.  Each part keeps its own
adjacency masks, updated as edges are assigned and taken back, and its
complement is read off them; part verdicts are memoized by edge set.  The
search refuses with ``WorkBoundExceeded`` (a ``CapExceeded``) once it has
checked ``COCHORD_WORK_BOUND`` distinct parts, as it refuses past its size
cap: neither refusal is an answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import graph_core
from .errors import CapExceeded, NotApplicable, WorkBoundExceeded
from .graph_core import Graph, _bits

# Part checks (co-chordality tests of distinct edge subsets) one cover
# search may make before it refuses: ten times the most needed by any
# graph of the n <= 7 corpus (1,412) or of the seeded sparse graphs on
# 8-10 vertices in the tests (5,655).
COCHORD_WORK_BOUND = 60_000


@dataclass(frozen=True)
class ChordalityCertificate:
    """Verdict plus a checkable witness.

    ``elimination_order`` is a perfect elimination order when the verdict
    is positive; ``chordless_cycle`` lists the vertices of an induced cycle
    of length at least four when it is negative.
    """

    verdict: bool
    elimination_order: tuple[int, ...] | None = None
    chordless_cycle: tuple[int, ...] | None = None


@dataclass(frozen=True)
class CochordCover:
    """A certified edge cover by co-chordal subgraphs."""

    k: int
    parts: tuple[tuple[tuple[int, int], ...], ...]


def is_chordal(g: Graph) -> ChordalityCertificate:
    """Decide chordality; always returns a validating witness."""
    adj = [g.adj_mask(v) for v in range(g.n)]
    elimination, _ = _elimination_order(adj, g.full_mask)
    if elimination is not None:
        return ChordalityCertificate(True, elimination_order=elimination)
    return ChordalityCertificate(False, chordless_cycle=_chordless_cycle(adj, g.full_mask))


def is_cochordal(g: Graph) -> ChordalityCertificate:
    """Chordality of the complement, with witnesses in g's own vertex ids."""
    return is_chordal(graph_core.complement(g))


def froberg_reg_two(g: Graph) -> bool:
    """True exactly when the edge ideal has regularity two.

    Holds if and only if the complement is chordal; requires at least one
    edge (an edgeless graph has no edge ideal to speak of).
    """
    if g.num_edges == 0:
        raise NotApplicable("regularity-two test needs at least one edge")
    co_adj = _complement([g.adj_mask(v) for v in range(g.n)], g.full_mask)
    return _elimination_order(co_adj, g.full_mask)[0] is not None


def cochord_number(g: Graph, cap: int = 4) -> CochordCover:
    """Minimum number of co-chordal subgraphs covering all edges, exactly.

    Iterative deepening over the cover size k; within one k, edges are
    assigned in lexicographic order to the lowest-index part or the first
    empty one, which prunes permutation-equivalent covers.  If the minimum
    exceeds ``cap``, a ``CapExceeded`` is raised carrying a greedy upper
    bound (a bound, never the answer); past ``COCHORD_WORK_BOUND`` part
    checks, a ``WorkBoundExceeded`` carrying the same bound.
    """
    if g.num_edges == 0:
        raise NotApplicable("co-chordal covers need at least one edge")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    n = g.n
    edges = g.edges
    m = len(edges)
    ends = [1 << u | 1 << v for u, v in edges]
    later = [ends[idx + 1:] for idx in range(m)]

    # Memoized co-chordality of edge subsets, evaluated on their support:
    # None when co-chordal, else the vertex mask of a chordless cycle of
    # the part's complement.  Its size is the count of part checks, which
    # the work bound caps.
    cycle_memo: dict[int, int | None] = {}

    def part_status(edge_mask: int, part_adj: list[int]) -> int | None:
        if edge_mask in cycle_memo:
            return cycle_memo[edge_mask]
        if len(cycle_memo) >= COCHORD_WORK_BOUND:
            raise WorkBoundExceeded(
                "co-chordal cover search stopped at its work bound of "
                f"{COCHORD_WORK_BOUND} part checks",
                best_bound=_greedy_star_cover_bound(g),
            )
        support = sum(1 << v for v, a in enumerate(part_adj) if a)
        co_adj = _complement(part_adj, support)
        elimination, violation = _elimination_order(co_adj, support)
        cyc = None
        if elimination is None:
            cycle = _violation_cycle(co_adj, support, violation)
            if cycle is None:
                cycle = _chordless_cycle(co_adj, support)
            cyc = sum(1 << u for u in cycle)
        cycle_memo[edge_mask] = cyc
        return cyc

    for k in range(1, cap + 1):
        parts = [0] * k
        # Each part's own adjacency masks, kept in step with ``parts``.
        adjs = [[0] * n for _ in range(k)]

        def assign(idx: int, used: int) -> bool:
            if idx == m:
                return all(
                    not parts[p] or part_status(parts[p], adjs[p]) is None for p in range(k)
                )
            u, v = edges[idx]
            bit, bu, bv = 1 << idx, 1 << u, 1 << v
            for p in range(min(used + 1, k)):
                adj = adjs[p]
                parts[p] |= bit
                adj[u] ^= bv
                adj[v] ^= bu
                cyc = part_status(parts[p], adj)
                # A failing part may still be repaired by a later edge that
                # chords the offending complement cycle away, which needs
                # both its endpoints on the cycle.
                if cyc is None or any(not e & ~cyc for e in later[idx]):
                    if assign(idx + 1, max(used, p + 1)):
                        return True
                parts[p] ^= bit
                adj[u] ^= bv
                adj[v] ^= bu
            return False

        try:
            found = assign(0, 0)
        finally:
            assign = None  # break its self-reference, so the memo dies with the call
        if found:
            out = []
            for p in parts:
                if p:
                    out.append(tuple(edges[i] for i in range(m) if p >> i & 1))
            return CochordCover(len(out), tuple(out))

    raise CapExceeded(
        f"co-chordal cover number exceeds cap {cap}",
        best_bound=_greedy_star_cover_bound(g),
    )


def validate_cover(g: Graph, cover: CochordCover) -> bool:
    """Independent check: parts union to E(g) and each is co-chordal."""
    union = set()
    for part in cover.parts:
        for e in part:
            if e not in g.edges:
                return False
            union.add(e)
        co_adj, support = _part_complement(g.n, part)
        if _elimination_order(co_adj, support)[0] is None:
            return False
    return union == set(g.edges) and cover.k == len(cover.parts)


def validate_elimination_order(g: Graph, order: tuple[int, ...]) -> bool:
    """True when each vertex's later neighbors form a clique."""
    if sorted(order) != list(range(g.n)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
        for a, b in combinations(later, 2):
            if not g.has_edge(a, b):
                return False
    return True


def validate_chordless_cycle(g: Graph, cycle: tuple[int, ...]) -> bool:
    """True when the vertices form an induced cycle of length >= 4."""
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k or not all(0 <= v < g.n for v in cycle):
        return False
    for i, v in enumerate(cycle):
        for j in range(i + 1, k):
            adjacent = g.has_edge(v, cycle[j])
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            if adjacent != consecutive:
                return False
    return True


# -- internals ----------------------------------------------------------------


def _elimination_order(
    adj: list[int], alive: int
) -> tuple[tuple[int, ...] | None, tuple[int, int, int] | None]:
    """Perfect elimination order of the graph induced on ``alive``, or the
    first violation of one.

    Lexicographic BFS by partition refinement: the unvisited vertices sit
    in an ordered list of equal-label classes, highest label first, and the
    next vertex is the lowest index of the first class.  Visiting ``v``
    splits every class into its neighbours of ``v`` followed by the rest,
    so a label beats its own prefixes.  Each visited vertex's
    earlier-visited neighbours must lie in the neighbourhood of the
    latest-visited of them, which is the elimination test on the reversed
    visit order.  Returns ``(order, None)`` on success, else
    ``(None, (v, w, y))``: ``v`` the vertex just visited, ``w`` its
    latest-visited earlier neighbour and ``y`` the lowest earlier neighbour
    of ``v`` not adjacent to ``w``.
    """
    classes = [alive] if alive else []
    order: list[int] = []
    visited = 0
    while classes:
        first = classes[0]
        low = first & -first
        v = low.bit_length() - 1
        earlier = adj[v] & visited
        if earlier:
            for w in reversed(order):
                if earlier >> w & 1:
                    break
            bad = earlier & ~adj[w] & ~(1 << w)
            if bad:
                return None, (v, w, (bad & -bad).bit_length() - 1)
        order.append(v)
        visited |= low
        classes[0] = first ^ low
        nb = adj[v]
        refined = []
        for c in classes:
            hit = c & nb
            if hit:
                refined.append(hit)
                c ^= hit
            if c:
                refined.append(c)
        classes = refined
    return tuple(reversed(order)), None


def _violation_cycle(
    adj: list[int], alive: int, violation: tuple[int, int, int]
) -> tuple[int, ...] | None:
    """The chordless cycle ``v, w, ..., y`` through an elimination violation,
    or None when no such cycle exists.

    The path from ``w`` to ``y`` is a BFS shortest one avoiding the other
    neighbours of ``v``: being shortest it has no chords, ``v`` sees only
    its ends, and ``w`` and ``y`` are not adjacent, so the cycle has length
    at least four.
    """
    v, w, y = violation
    allowed = alive & ~adj[v] & ~(1 << v) | 1 << w | 1 << y
    parent = {w: w}
    seen = frontier = 1 << w
    while frontier and not seen >> y & 1:
        reached = 0
        for u in _bits(frontier):
            new = adj[u] & allowed & ~seen & ~reached
            for x in _bits(new):
                parent[x] = u
            reached |= new
        seen |= reached
        frontier = reached
    if not seen >> y & 1:
        return None
    path = [y]
    while path[-1] != w:
        path.append(parent[path[-1]])
    return (v, *reversed(path))


def _chordless_cycle(adj: list[int], alive: int) -> tuple[int, ...]:
    """A chordless cycle of length >= 4 in the non-chordal graph on ``alive``.

    One ascending pass drops every vertex whose removal keeps the graph
    non-chordal; the vertex-minimal remainder is a single chordless cycle,
    walked from its lowest vertex toward that vertex's lowest neighbour.
    """
    for v in _bits(alive):
        if _elimination_order(adj, alive & ~(1 << v))[0] is None:
            alive &= ~(1 << v)
    start = (alive & -alive).bit_length() - 1
    walk = [start]
    prev, v = start, next(_bits(adj[start] & alive))
    while v != start:
        walk.append(v)
        prev, v = v, (adj[v] & alive & ~(1 << prev)).bit_length() - 1
    return tuple(walk)


def _complement(adj: list[int], alive: int) -> list[int]:
    return [alive & ~a & ~(1 << v) for v, a in enumerate(adj)]


def _part_complement(n: int, part) -> tuple[list[int], int]:
    """Complement of the graph spanned by the edges ``part``, taken within
    their support, together with that support mask."""
    adj = [0] * n
    for u, v in part:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    support = sum(1 << v for v in range(n) if adj[v])
    return _complement(adj, support), support


def _greedy_star_cover_bound(g: Graph) -> int:
    """Stars at a greedy vertex cover: each star is co-chordal."""
    remaining = set(g.edges)
    k = 0
    while remaining:
        counts: dict[int, int] = {}
        for u, v in remaining:
            counts[u] = counts.get(u, 0) + 1
            counts[v] = counts.get(v, 0) + 1
        center = max(sorted(counts), key=lambda v: counts[v])
        remaining = {e for e in remaining if center not in e}
        k += 1
    return k
