"""Immutable simple graphs and the vertex/edge surgeries the lemmas need.

Vertices are dense integers ``0..n-1`` and adjacency is kept as one bitmask
per vertex, which is what every search in this package indexes against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidSurgery, InvalidVertex, SelfLoopRejected, TooLarge

CANONICAL_LIMIT_DEFAULT = 10


class Graph:
    """Immutable simple graph on vertices ``0..n-1``.

    Instances are value-like: equality and hashing look only at the vertex
    count and the edge set.  All operations in this module return new
    graphs; nothing is ever mutated after construction.
    """

    __slots__ = ("n", "_adj", "_edges")

    def __init__(self, n: int, adj_masks: Sequence[int]):
        self.n = n
        self._adj = tuple(adj_masks)
        edges = []
        for v in range(n):
            mask = self._adj[v] >> (v + 1)
            u = v + 1
            while mask:
                if mask & 1:
                    edges.append((v, u))
                mask >>= 1
                u += 1
        self._edges = tuple(edges)

    # -- basic accessors ---------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as ``(u, v)`` pairs with ``u < v``, in lexicographic order."""
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def vertices(self) -> range:
        return range(self.n)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def adj_mask(self, v: int) -> int:
        """Bitmask of the neighbors of ``v``."""
        return self._adj[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self._adj[v]))

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def is_connected(self) -> bool:
        """True for the empty graph and for any graph with one reachable part."""
        if self.n == 0:
            return True
        return _reach(self._adj, 1) == self.full_mask

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self._edges)})"


# -- construction ...........................................................


def from_edges(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse silently."""
    if n < 0:
        raise InvalidVertex(f"negative vertex count {n}")
    adj = [0] * n
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidVertex(f"edge {(u, v)} has an endpoint outside 0..{n - 1}")
        if u == v:
            raise SelfLoopRejected(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges of ``g``."""
    full = g.full_mask
    adj = [(full ^ g.adj_mask(v)) & ~(1 << v) for v in range(g.n)]
    return Graph(g.n, adj)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Place ``g2`` after ``g1`` on a fresh vertex range."""
    adj = list(g1._adj) + [m << g1.n for m in g2._adj]
    return Graph(g1.n + g2.n, adj)


# -- surgeries ...............................................................


@dataclass(frozen=True)
class DeleteVertex:
    """Remove a vertex and its incident edges."""

    vertex: int


@dataclass(frozen=True)
class CloseVertex:
    """Remove the closed neighborhood of a vertex."""

    vertex: int


@dataclass(frozen=True)
class DeleteEdge:
    """Remove an edge; both endpoints remain."""

    edge: tuple[int, int]


@dataclass(frozen=True)
class CloseEdge:
    """Remove the union of both endpoints' closed neighborhoods."""

    edge: tuple[int, int]


SurgeryKind = DeleteVertex | CloseVertex | DeleteEdge | CloseEdge


def apply_surgery(g: Graph, surgery: SurgeryKind) -> Graph:
    """Apply one surgery, returning a new graph on the surviving vertices in order."""
    match surgery:
        case DeleteVertex(vertex=v):
            _check_vertex(g, v)
            return _drop_vertices(g, 1 << v)
        case CloseVertex(vertex=v):
            _check_vertex(g, v)
            return _drop_vertices(g, g.adj_mask(v) | 1 << v)
        case DeleteEdge(edge=e):
            u, v = _check_edge(g, e)
            adj = list(g._adj)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            return Graph(g.n, adj)
        case CloseEdge(edge=e):
            u, v = _check_edge(g, e)
            drop = g.adj_mask(u) | g.adj_mask(v) | 1 << u | 1 << v
            return _drop_vertices(g, drop)
    raise InvalidSurgery(f"unknown surgery {surgery!r}")


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Restrict ``g`` to a vertex subset, keeping only edges inside it."""
    keep = 0
    for v in vertices:
        if not (0 <= v < g.n):
            raise InvalidVertex(f"vertex {v} outside 0..{g.n - 1}")
        keep |= 1 << v
    return _drop_vertices(g, g.full_mask ^ keep)


def components(g: Graph) -> list[tuple[tuple[int, ...], Graph]]:
    """Connected components as ``(original vertices, component graph)`` pairs.

    The vertex tuples partition ``0..n-1``; each component graph is relabeled
    to a dense range, vertex ``i`` standing for the tuple's ``i``-th entry.
    A component on consecutive vertices, as every part of a
    ``disjoint_union`` of connected graphs is, takes its adjacency masks
    shifted down to its first vertex.
    """
    out = []
    seen = 0
    for v in range(g.n):
        if seen >> v & 1:
            continue
        mask = _reach(g._adj, 1 << v)
        seen |= mask
        if mask == g.full_mask:
            out.append((tuple(range(g.n)), g))
        elif not (mask >> v) & (mask >> v) + 1:  # all ones: v, v + 1, ..., end - 1
            end = mask.bit_length()
            out.append((tuple(range(v, end)), Graph(end - v, [m >> v for m in g._adj[v:end]])))
        else:
            out.append((tuple(_bits(mask)), _drop_vertices(g, g.full_mask ^ mask)))
    return out


def canonical_key(g: Graph) -> int:
    """Exact isomorphism key: equal keys exactly when graphs are isomorphic.

    Colour refinement plus individualization-refinement (McKay-Piperno,
    *Practical graph isomorphism, II*, 2014).  The one-cell partition is
    refined to an equitable one; each vertex of the first non-singleton
    cell is individualized in turn and the partition refined again, down to
    discrete leaves.  A leaf packs the graph relabelled in leaf order into
    one integer, a leading 1 and then the ``n``-bit adjacency mask of each
    position in turn; the key is the smallest leaf.  In a target cell only
    one vertex of each twin class is tried: swapping two twins is an
    automorphism that fixes the partition, so their subtrees give the same
    leaves.

    Much faster than :func:`canonical_form`, which stays the reference and
    the output form; the two keys are not comparable with each other.
    """
    n = g.n
    if n > CANONICAL_LIMIT_DEFAULT:
        raise TooLarge(f"canonical_key capped at {CANONICAL_LIMIT_DEFAULT} vertices, got {n}")
    adj = g._adj
    twins = None
    best = None

    def search(cells: list[int]) -> None:
        nonlocal best, twins
        for i, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            order = [cell.bit_length() - 1 for cell in cells]
            pos = [0] * n
            for p, v in enumerate(order):
                pos[v] = p
            leaf = 1
            for v in order:
                mask = 0
                for u in _bits(adj[v]):
                    mask |= 1 << pos[u]
                leaf = leaf << n | mask
            if best is None or leaf < best:
                best = leaf
            return
        if twins is None:
            twins = _twin_masks(adj)
        tried = 0
        for v in _bits(cell):
            if twins[v] & tried:
                continue
            tried |= 1 << v
            # The partition was equitable, so the new singleton is the only
            # splitter needed: counts into the rest of the cell follow.
            split = cells[:i] + [1 << v, cell ^ 1 << v] + cells[i + 1 :]
            search(_equitable(adj, split, [1 << v]))

    # Splitting by the whole vertex set gives the degree partition first.
    cells = [g.full_mask] if n else []
    try:
        search(_equitable(adj, cells, list(cells)))
    finally:
        search = None  # break its self-reference, so nothing waits for the collector
    return best


def canonical_form(g: Graph) -> Graph:
    """The canonically labelled copy of ``g``: equal results exactly when
    graphs are isomorphic.

    The vertex order is the one whose upper-triangle bit string is
    lexicographically minimal, the bits taken in column order x(0,1),
    x(0,2), x(1,2), x(0,3), ... (graph6's order, so within one vertex count
    the graph6 strings of canonical forms sort as these bit strings do).
    Found by placing vertices one position at a time and pruning any
    placement whose bit prefix already exceeds the best.  At each position
    only one vertex of each twin class is tried: twins outside the placed
    prefix give the same column, and swapping them is an automorphism
    fixing the prefix, so their subtrees give the same strings.
    """
    n = g.n
    if n > CANONICAL_LIMIT_DEFAULT:
        raise TooLarge(f"canonical_form capped at {CANONICAL_LIMIT_DEFAULT} vertices, got {n}")
    if n <= 1:
        return g

    adj = g._adj
    twins = _twin_masks(adj)
    # Identity ordering seeds the bound; a dummy leading column keeps the
    # column list aligned with placement positions (position 0 adds no bits).
    best = [0] + _columns_for(adj, list(range(n)))
    best_order = list(range(n))

    placed = [0] * n

    def descend(pos: int, used: int, cols: list[int]) -> None:
        nonlocal best, best_order
        if pos == n:
            if cols < best:
                best = list(cols)
                best_order = list(placed)
            return
        candidates = []
        tried = 0
        for v in range(n):
            if used >> v & 1 or twins[v] & tried:
                continue
            tried |= 1 << v
            col = 0
            av = adj[v]
            for i in range(pos):
                col = col << 1 | (av >> placed[i] & 1)
            candidates.append((col, v))
        candidates.sort()
        for col, v in candidates:
            # Compare prefix against the current best before descending.
            keep = True
            for i in range(pos):
                if cols[i] != best[i]:
                    keep = cols[i] < best[i]
                    break
            else:
                keep = col <= best[pos]
            if not keep:
                continue
            placed[pos] = v
            cols.append(col)
            descend(pos + 1, used | 1 << v, cols)
            cols.pop()

    try:
        descend(0, 0, [])
    finally:
        descend = None  # break its self-reference, so nothing waits for the collector
    pos = [0] * n
    for p, v in enumerate(best_order):
        pos[v] = p
    return Graph(n, [sum(1 << pos[u] for u in _bits(adj[v])) for v in best_order])


# -- internals ...............................................................


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(adj: Sequence[int], start_mask: int, alive: int = -1) -> int:
    """Vertices reachable from ``start_mask`` through vertices of ``alive``."""
    seen = start_mask
    frontier = start_mask
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & alive & ~seen
        seen |= frontier
    return seen


def _drop_vertices(g: Graph, drop_mask: int) -> Graph:
    keep = [v for v in range(g.n) if not (drop_mask >> v & 1)]
    index = {v: i for i, v in enumerate(keep)}
    adj = [0] * len(keep)
    for v in keep:
        mask = g.adj_mask(v) & ~drop_mask
        for u in _bits(mask):
            adj[index[v]] |= 1 << index[u]
    return Graph(len(keep), adj)


def _check_vertex(g: Graph, v: int) -> None:
    if not (0 <= v < g.n):
        raise InvalidSurgery(f"vertex {v} not in graph on {g.n} vertices")


def _check_edge(g: Graph, e: Sequence[int]) -> tuple[int, int]:
    u, v = e
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise InvalidSurgery(f"edge {(u, v)} not present")
    return (u, v) if u < v else (v, u)


def _twin_masks(adj: Sequence[int]) -> list[int]:
    """``twins[v]``: the vertices ``u != v`` with ``N(u) - v == N(v) - u``."""
    n = len(adj)
    twins = [0] * n
    for v in range(n):
        for u in range(v):
            if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                twins[v] |= 1 << u
                twins[u] |= 1 << v
    return twins


def _equitable(adj: Sequence[int], cells: list[int], queue: list[int]) -> list[int]:
    """Refine an ordered partition (cells as masks) until it is equitable.

    Splitters are taken from ``queue`` in order; each one splits every cell
    by the number of neighbours its vertices have in the splitter, the parts
    in increasing order of that count, and the parts join the queue.  The
    partition must already be equitable towards every cell not queued.
    Every step depends on positions and counts only, so the result commutes
    with relabelling the graph.
    """
    n = len(adj)
    k = 0
    while k < len(queue) and len(cells) < n:
        splitter = queue[k]
        k += 1
        out = []
        for cell in cells:
            if cell & (cell - 1):
                by_count: dict[int, int] = {}
                for v in _bits(cell):
                    d = (adj[v] & splitter).bit_count()
                    by_count[d] = by_count.get(d, 0) | 1 << v
                if len(by_count) > 1:
                    parts = [by_count[d] for d in sorted(by_count)]
                    out += parts
                    queue += parts
                    continue
            out.append(cell)
        cells = out
    return cells


def _columns_for(adj: Sequence[int], order: list[int]) -> list[int]:
    cols = []
    for j in range(1, len(order)):
        col = 0
        aj = adj[order[j]]
        for i in range(j):
            col = col << 1 | (aj >> order[i] & 1)
        cols.append(col)
    return cols
