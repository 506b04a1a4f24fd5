"""Immutable simple graphs, their subgraphs cut by vertex masks, and canonical forms.

Vertices are dense integers ``0..n-1`` and adjacency is kept as one bitmask
per vertex, which is what every search in this package indexes against.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Sequence

from .errors import InvalidSurgery, InvalidVertex, SelfLoopRejected, TooLarge

CANONICAL_LIMIT_DEFAULT = 10

# Maps the ASCII digits of ``bin`` to the bytes 0 and 1.
_BINARY_DIGIT = bytes.maketrans(b"01", b"\0\1")


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
    A connected graph is its own one component.
    """
    out = []
    seen = 0
    for v in range(g.n):
        if seen >> v & 1:
            continue
        mask = _reach(g._adj, 1 << v)
        seen |= mask
        out.append((tuple(_bits(mask)), g if mask == g.full_mask else _drop_vertices(g, g.full_mask ^ mask)))
    return out


def maximal_independent_sets(g: Graph) -> Iterator[int]:
    """Every maximal independent set of ``g`` once, as a mask.

    Bron-Kerbosch with a pivot, on the complement's cliques: at most
    ``3^(n/3)`` sets (Moon and Moser), each found in polynomial time.
    """
    full = g.full_mask
    closed = [g._adj[v] | 1 << v for v in range(g.n)]
    # Each frame is (I, P, X): an independent set, the vertices that may
    # still join it, and those that may not because their branch is done.
    stack = [(0, full, 0)]
    while stack:
        indep, cand, done = stack.pop()
        if not cand & cand - 1:
            # At most one vertex v may still join: I + P is maximal when
            # every vertex of X is adjacent to v.
            reach = closed[cand.bit_length() - 1] if cand else 0
            if not done & ~reach:
                yield indep | cand
            continue
        # Every maximal I here holds the pivot or one of its neighbours in P:
        # branch only on those, with the pivot that leaves the fewest.
        branch = min((cand & closed[u] for u in _bits(cand | done)), key=int.bit_count)
        for v in _bits(branch):
            stack.append((indep | 1 << v, cand & ~closed[v], done & ~closed[v]))
            cand ^= 1 << v
            done |= 1 << v


def masks_without_isolated_vertex(g: Graph) -> Iterator[int]:
    """The nonempty vertex masks ``W`` with no vertex isolated in ``G[W]``,
    ascending.

    One bit per mask: ``has[x]`` sets bit ``W`` for each ``W`` holding
    ``x``, and ``near[x]`` for each ``W`` holding a neighbour of ``x``.
    Each vertex clears the masks that hold it and none of its neighbours,
    and the bits left are read in order off their binary digits."""
    size = 1 << g.n
    has = [0] * g.n
    repeat = 1  # one bit per period 2^(x+1) of x's bit, from the top vertex down
    for x in reversed(range(g.n)):
        upper = repeat << (1 << x)
        has[x] = (upper - repeat) << (1 << x)  # the top half of each period
        repeat |= upper
    near = [0] * g.n
    for u, v in g._edges:
        near[u] |= has[v]
        near[v] |= has[u]
    alive = (1 << size) - 2  # every nonempty mask
    for x in range(g.n):
        alive &= ~has[x] | near[x]
    del has, near  # freed before the 2^n-byte selector is made
    return compress(range(size), bin(alive)[:1:-1].encode().translate(_BINARY_DIGIT))


def canonical_form(g: Graph) -> Graph:
    """The canonically labelled copy of ``g``: equal results exactly when
    graphs are isomorphic.

    The vertex order is the one whose upper-triangle bit string is
    lexicographically minimal, the bits taken in column order x(0,1),
    x(0,2), x(1,2), x(0,3), ... (graph6's order, so within one vertex count
    the graph6 strings of canonical forms sort as these bit strings do).
    Column ``j`` holds position ``j`` against positions ``0..j-1``, so the
    strings compare column by column.  The search places one vertex per
    position but leaves the order inside cells of placed vertices open:

    1. The first ``alpha`` positions of the least order hold a maximum
       independent set: columns ``1..k`` are zero exactly when positions
       ``0..k`` are independent, and no order has more.  So the search
       starts once from each maximum independent set, as one cell.
    2. The cells are ordered; each is a clique or an independent set, and
       each vertex is adjacent to all or none of every earlier cell, alike
       within its cell.  So no order inside the cells changes a placed
       column: the cells fix the placed string.
    3. The next vertex ``w`` gets its least column exactly when every cell
       puts its non-neighbours of ``w`` before its neighbours, and nothing
       else placed depends on that order.  So ``w`` splits each cell into
       those two parts, which keep step 2, and its column follows from its
       neighbour count in each cell.
    4. ``w`` joins the last cell instead of starting one when it has that
       cell's column against the earlier cells and the cell stays a clique
       or an independent set, which keeps step 2.
    5. The cells fix the placed string and the unplaced set, so each cell
       sequence is searched once, recorded as one packed int per call.
    6. Only one unplaced vertex of each twin class is tried, and only the
       seeds holding the lowest vertices of each twin class: swapping two
       twins is an automorphism fixing the rest, so their subtrees give the
       same strings.

    A node knows whether its string is equal to the best's so far or
    already below it; below, every leaf improves the best, after which the
    string equals the new best's.  When equal, the candidates are tried in
    increasing column order up to the first column above the best's.
    """
    n = g.n
    if n > CANONICAL_LIMIT_DEFAULT:
        raise TooLarge(f"canonical_form capped at {CANONICAL_LIMIT_DEFAULT} vertices, got {n}")
    if n <= 1:
        return g

    adj = g._adj
    twins = _twin_masks(adj)
    seeds = list(maximal_independent_sets(g))
    alpha = max(map(int.bit_count, seeds))
    full = (1 << n) - 1
    # best[j] is the column of the best order's position j (best[0] is empty).
    best = None
    cols = [0] * n
    visited = set()

    def descend(pos: int, cells: list[int], unplaced: int, below: bool) -> bool:
        """Search below the ordered cells ``cells``, which fix ``cols[:pos]``
        and leave ``unplaced``; True if the best improved."""
        nonlocal best
        if not unplaced:
            if below:
                best = list(cols)
            return below
        candidates = []
        tried = 0
        rest = unplaced
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            if not twins[w] & tried:
                tried |= low
                nb = adj[w]
                col = 0
                for cell in cells:  # the cell's non-neighbours of w, then its neighbours
                    col = col << cell.bit_count() | (1 << (nb & cell).bit_count()) - 1
                candidates.append((col, w))
        candidates.sort()
        last = cells[-1]
        x = (last & -last).bit_length() - 1  # the last cell's vertices share x's column
        before = full ^ unplaced ^ last  # the earlier cells
        clique = (adj[x] | 1 << x) & last == last
        independent = not adj[x] & last
        improved = False
        for col, w in candidates:
            if not below and col > best[pos]:
                break
            cols[pos] = col
            if unplaced == 1 << w:  # the last position
                if below or col < best[pos]:
                    best = list(cols)
                    return True
                return False
            nb = adj[w]
            inside = nb & last
            if nb & before == adj[x] & before and (inside == last and clique or not inside and independent):
                child = cells[:-1] + [last | 1 << w]
            else:
                child = []
                for cell in cells:
                    for part in (cell & ~nb, cell & nb):
                        if part:
                            child.append(part)
                child.append(1 << w)
            key = 1
            for cell in child:
                key = key << n | cell
            if key in visited:
                continue
            visited.add(key)
            if descend(pos + 1, child, unplaced ^ 1 << w, below or col < best[pos]):
                improved = True
                below = False  # the new best extends this prefix
        return improved

    try:
        for seed in seeds:
            if seed.bit_count() == alpha and not any(twins[u] & ~seed & (1 << u) - 1 for u in _bits(seed)):
                descend(alpha, [seed], full ^ seed, best is None)
    finally:
        descend = None  # break its self-reference, so nothing waits for the collector
    # The best string is the labelled graph: bit j - 1 - i of best[j] is x(i, j).
    out = [0] * n
    for j in range(1, n):
        for i in range(j):
            if best[j] >> j - 1 - i & 1:
                out[i] |= 1 << j
                out[j] |= 1 << i
    return Graph(n, out)


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


def _check_edge(g: Graph, e: Sequence[int]) -> tuple[int, int]:
    u, v = e
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise InvalidSurgery(f"edge {(u, v)} not present")
    return (u, v) if u < v else (v, u)


def _twin_masks(adj: Sequence[int]) -> list[int]:
    """``twins[v]``: the vertices ``u != v`` with ``N(u) - v == N(v) - u``."""
    # Non-adjacent twins share N(v), adjacent ones N(v) + v.
    open_class: dict[int, int] = {}
    closed_class: dict[int, int] = {}
    for v, mask in enumerate(adj):
        open_class[mask] = open_class.get(mask, 0) | 1 << v
        closed_class[mask | 1 << v] = closed_class.get(mask | 1 << v, 0) | 1 << v
    return [(open_class[mask] | closed_class[mask | 1 << v]) ^ 1 << v for v, mask in enumerate(adj)]
