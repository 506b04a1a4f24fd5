"""Exact matching invariants with witness certificates.

Three quantities are computed, all exactly: the matching number (largest
set of pairwise disjoint edges), the induced matching number (largest
matching spanning no further edge of the graph) and the minimum maximal
matching number (smallest matching that cannot be extended).  Each search
refuses past its own cap with ``CapExceeded`` rather than approximate: the
matching number past ``NP_HARD_VERTEX_CAP`` vertices, the two NP-hard ones
past that or past ``NP_HARD_EDGE_CAP`` edges.

Ties between optimal certificates break to the lexicographically smallest
sorted edge list, which keeps golden tests stable.

No memo outlives a call: a caller that needs a value twice keeps it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial

from .errors import CapExceeded
from .graph_core import Graph, components

NP_HARD_VERTEX_CAP = 24
NP_HARD_EDGE_CAP = 60


class MatchingKind(enum.Enum):
    MAXIMUM = "maximum"
    MAXIMUM_INDUCED = "maximum_induced"
    MINIMUM_MAXIMAL = "minimum_maximal"


@dataclass(frozen=True)
class MatchingCertificate:
    kind: MatchingKind
    edges: tuple[tuple[int, int], ...]
    size: int


def validate_certificate(g: Graph, cert: MatchingCertificate) -> bool:
    """Re-check a certificate from scratch, knowing nothing of the search.

    Verifies the edges exist, are pairwise vertex-disjoint, and satisfy the
    side condition of the claimed kind (induced, or maximal).  Optimality is
    not re-proved here; it is covered by brute-force cross-checks in tests.
    """
    if cert.size != len(cert.edges):
        return False
    used = 0
    for u, v in cert.edges:
        if not (0 <= u < g.n and 0 <= v < g.n and g.has_edge(u, v)):
            return False
        pair = 1 << u | 1 << v
        if used & pair:
            return False
        used |= pair
    if cert.kind is MatchingKind.MAXIMUM_INDUCED:
        for u, v in g.edges:
            pair = 1 << u | 1 << v
            if (u, v) not in cert.edges and used & pair == pair:
                return False
    if cert.kind is MatchingKind.MINIMUM_MAXIMAL:
        for u, v in g.edges:
            if not used & (1 << u | 1 << v):
                return False
    return True


# -- matching number ----------------------------------------------------------


def max_matching(g: Graph) -> MatchingCertificate:
    """Maximum matching, exact, with the lex-smallest optimal edge list."""
    _check_vertex_cap(g)
    size_fn = _nu_of_mask_fn(g)
    target = size_fn(g.full_mask)
    chosen: list[tuple[int, int]] = []
    avail = g.full_mask
    edges = g.edges
    scan = 0
    while len(chosen) < target:
        for idx in range(scan, len(edges)):
            u, v = edges[idx]
            pair = 1 << u | 1 << v
            if avail & pair == pair and size_fn(avail ^ pair) == target - len(chosen) - 1:
                chosen.append((u, v))
                avail ^= pair
                scan = idx + 1
                break
        else:  # pragma: no cover - exactness of the size oracle forbids this
            raise AssertionError("maximum matching extraction failed")
    return MatchingCertificate(MatchingKind.MAXIMUM, tuple(chosen), target)


def nu(g: Graph) -> int:
    """Matching number."""
    _check_vertex_cap(g)
    return _nu_of_mask_fn(g)(g.full_mask)


def _nu_of_mask_fn(g: Graph):
    """The matching number of ``G[mask]`` as a function of ``mask``, with a
    memo that lives as long as the function."""
    return partial(_nu_of_mask, [g.adj_mask(v) for v in range(g.n)], {0: 0})


def _nu_of_mask(adj: list[int], memo: dict[int, int], mask: int) -> int:
    got = memo.get(mask)
    if got is not None:
        return got
    v = (mask & -mask).bit_length() - 1
    best = _nu_of_mask(adj, memo, mask & ~(1 << v))
    nbrs = adj[v] & mask
    while nbrs:
        low = nbrs & -nbrs
        nbrs ^= low
        cand = 1 + _nu_of_mask(adj, memo, mask & ~(1 << v) & ~low)
        if cand > best:
            best = cand
    memo[mask] = best
    return best


# -- induced matching number --------------------------------------------------


def induced_matching_number(g: Graph) -> MatchingCertificate:
    """Maximum induced matching via exhaustive search with pruning."""
    _check_np_caps(g, "induced matching number")
    adj = [g.adj_mask(v) for v in range(g.n)]
    edges = g.edges
    closed = [adj[u] | adj[v] | 1 << u | 1 << v for u, v in edges]
    best_size = -1
    best_edges: tuple[tuple[int, int], ...] = ()

    def search(start: int, avail: int, chosen: list[tuple[int, int]]) -> None:
        nonlocal best_size, best_edges
        if len(chosen) > best_size:
            best_size = len(chosen)
            best_edges = tuple(chosen)
        if len(chosen) + (avail.bit_count() >> 1) <= best_size:
            return
        for idx in range(start, len(edges)):
            u, v = edges[idx]
            pair = 1 << u | 1 << v
            if avail & pair == pair:
                chosen.append((u, v))
                search(idx + 1, avail & ~closed[idx], chosen)
                chosen.pop()

    try:
        search(0, g.full_mask, [])
    finally:
        search = None  # break its self-reference, so nothing waits for the collector
    return MatchingCertificate(MatchingKind.MAXIMUM_INDUCED, best_edges, best_size)


def nu0(g: Graph) -> int:
    """Induced matching number."""
    return induced_matching_number(g).size


# -- minimum maximal matching -------------------------------------------------


def min_maximal_matching(g: Graph) -> MatchingCertificate:
    """Smallest maximal matching, by branching on the first uncovered edge.

    Components are searched apart: a maximal matching of a union is one of
    each component, and the lex-first optimum of a union is the union of
    the components' lex-first optima.
    """
    _check_np_caps(g, "minimum maximal matching")
    chosen = tuple(
        sorted(
            (verts[a], verts[b])
            for verts, comp in components(g)
            for a, b in _min_maximal_edges(comp)
        )
    )
    return MatchingCertificate(MatchingKind.MINIMUM_MAXIMAL, chosen, len(chosen))


def _min_maximal_edges(g: Graph) -> tuple[tuple[int, int], ...]:
    edges = g.edges
    best: tuple[int, tuple[tuple[int, int], ...]] | None = None

    def first_uncovered(matched: int) -> tuple[int, int] | None:
        for u, v in edges:
            if not matched & (1 << u | 1 << v):
                return (u, v)
        return None

    def search(matched: int, chosen: list[tuple[int, int]]) -> None:
        nonlocal best
        gap = first_uncovered(matched)
        if gap is None:
            cand = (len(chosen), tuple(sorted(chosen)))
            if best is None or cand < best:
                best = cand
            return
        if best is not None and len(chosen) + 1 > best[0]:
            return
        u, v = gap
        # Some chosen edge must touch u or v, else (u, v) extends the matching.
        for a, b in edges:
            pair = 1 << a | 1 << b
            if matched & pair:
                continue
            if a in (u, v) or b in (u, v):
                chosen.append((a, b))
                search(matched | pair, chosen)
                chosen.pop()

    try:
        search(0, [])
    finally:
        search = None  # break its self-reference, so nothing waits for the collector
    assert best is not None
    return best[1]


def mm(g: Graph) -> int:
    """Minimum maximal matching number."""
    return min_maximal_matching(g).size


def _check_vertex_cap(g: Graph) -> None:
    if g.n > NP_HARD_VERTEX_CAP:
        raise CapExceeded(
            f"matching number refuses graphs beyond n={NP_HARD_VERTEX_CAP} (got n={g.n})"
        )


def _check_np_caps(g: Graph, what: str) -> None:
    if g.n > NP_HARD_VERTEX_CAP or g.num_edges > NP_HARD_EDGE_CAP:
        raise CapExceeded(
            f"{what} refuses graphs beyond n={NP_HARD_VERTEX_CAP}, "
            f"m={NP_HARD_EDGE_CAP} (got n={g.n}, m={g.num_edges})"
        )
