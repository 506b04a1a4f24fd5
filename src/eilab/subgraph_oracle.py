"""Regularity of a graph's induced subgraphs and single-edge deletions,
read off one subset table of the graph.

The oracle's walk fills ``table[W]`` with the homology of ``Ind(G[W])``
for every vertex subset ``W``, packed into one integer whose digit count
is the top homology index plus one.  The table of an induced subgraph
``G[W]`` is the restriction of that table to the submasks of ``W``, so
its regularity is a maximum of digit counts over them; and ``G`` less an
edge differs from ``G`` only on the subsets holding both ends, so a copy
of the table with those subsets walked again is the table of ``G - e``.
Nothing is memoized: the readings live as long as the object.
"""

from __future__ import annotations

from .graph_core import Graph, _check_edge
from .regularity_oracle import _WIDTH, ORACLE_VERTEX_CAP, FieldSpec, _digits, _fill, _walk_table


def subgraph_regularity(g: Graph, field: FieldSpec = FieldSpec(0)) -> SubgraphRegularity:
    """``reg_star`` of every induced subgraph of ``g``, and of ``g`` less
    any one edge, over the given field, from one subset walk of ``g``.
    Refuses past ``ORACLE_VERTEX_CAP`` vertices, as the walk does."""
    table, torsion = _walk_table(g, field.characteristic)
    return SubgraphRegularity(g, field.characteristic, table, tuple(sorted(torsion)))


class SubgraphRegularity:
    """One graph's subset table at one characteristic, kept for reading.

    ``best[W]`` is the largest digit count of ``table[S]`` over the
    submasks ``S`` of ``W``: the top homology index plus one, which is
    ``reg_star`` of ``G[W]``, and 1 on an edgeless ``W`` since the empty
    complex ``table[0] = 1`` counts.  It is filled at the first induced
    reading, in ``O(n 2^n)``; ``whole`` needs no such pass.  ``torsion``
    is the walk's, as in ``_subset_walk``.
    """

    __slots__ = ("characteristic", "torsion", "_graph", "_table", "_best")

    def __init__(self, g: Graph, char: int, table: list[int], torsion: tuple[int, ...]):
        self.characteristic = char
        self.torsion = torsion
        self._graph = g
        self._table = table
        self._best = None

    def whole(self) -> int:
        """``reg_star`` of ``G`` itself: the digit count of the largest
        entry, since entries with more digits are larger; 0 for the empty
        graph."""
        return _digits(max(self._table)) if self._graph.n else 0

    def induced(self, keep_mask: int) -> int:
        """``reg_star`` of ``G[keep]``: 0 when ``keep`` is empty, 1 when
        it spans no edge."""
        if not keep_mask:
            return 0
        if self._best is None:
            counts = bytes(map(_DIGIT_COUNT.__getitem__, map(int.bit_length, self._table)))
            self._best = _submask_max(counts, self._graph.n)
        return self._best[keep_mask]

    def edge_deleted(self, u: int, v: int) -> int:
        """``reg_star`` of ``G - uv``.  A subset without both ends induces
        the same graph in ``G - uv`` as in ``G``, and those subsets are the
        submasks of ``V - u`` and of ``V - v``; the ``2^(n-2)`` others are
        walked again, in ascending order, with the edge dropped.  A proper
        submask of one of them that holds both ends is smaller, so it is
        refilled first."""
        g = self._graph
        u, v = _check_edge(g, (u, v))
        adj = [g.adj_mask(x) for x in range(g.n)]
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        both = 1 << u | 1 << v
        rest = g.full_mask ^ both
        masks = [both]
        sub = 0
        while sub != rest:
            sub = (sub - rest) & rest  # the next submask of rest, ascending
            masks.append(sub | both)
        table = list(self._table)
        _fill(adj, masks, table, self.characteristic)
        refilled = _digits(max(map(table.__getitem__, masks)))
        return max(self.induced(g.full_mask ^ 1 << u), self.induced(g.full_mask ^ 1 << v), refilled)

    def at(self, field: FieldSpec) -> SubgraphRegularity:
        """The same readings over another field.  A char-0 table serves
        every characteristic that divides none of its torsion entries (the
        pieces have the same ranks there); any other is walked again.
        ``edge_deleted`` builds its pieces at the new characteristic."""
        c = field.characteristic
        if c == self.characteristic:
            return self
        if self.characteristic == 0 and not any(p % c == 0 for p in self.torsion):
            shared = SubgraphRegularity(self._graph, c, self._table, self.torsion)
            shared._best = self._best
            return shared
        return subgraph_regularity(self._graph, field)


# _DIGIT_COUNT[b] is the digit count of a packed entry of bit length b.
_DIGIT_COUNT = bytes(-(-b // _WIDTH) for b in range(_WIDTH * (ORACLE_VERTEX_CAP + 1) + 1))

# _AT_LEAST[v] maps a byte x to 1 when x >= v and to 0 otherwise.
_AT_LEAST = tuple(b"\0" * v + b"\1" * (256 - v) for v in range(ORACLE_VERTEX_CAP + 2))


def _submask_max(values: bytes, n: int) -> bytes:
    """The maximum of ``values`` over the submasks of each mask of ``n``
    vertices, for values below ``n + 2``.

    Level ``v`` is one integer with a byte per mask, 1 where the value is
    at least ``v``.  Closing a level under adding vertex ``i`` is one shift
    of its bytes at the masks without ``i``, so ``n`` shifts close it under
    supersets; the closed levels are nested, and their sum is the
    maximum."""
    size = 1 << n
    without = [
        int.from_bytes((b"\1" * (1 << i) + b"\0" * (1 << i)) * (size >> i + 1), "little") for i in range(n)
    ]
    total = 0
    for v in range(1, max(values) + 1):
        level = int.from_bytes(values.translate(_AT_LEAST[v]), "little")
        for i, keep in enumerate(without):
            level |= (level & keep) << (8 << i)
        total += level
    return total.to_bytes(size, "little")
