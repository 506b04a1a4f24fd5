"""Field-aware regularity of edge ideals via reduced simplicial homology.

The regularity of ``I(G)`` is computed combinatorially: for every vertex
subset ``W``, the reduced homology of the independence complex of ``G[W]``
is taken over the requested field, and the largest degree ``t`` carrying
homology yields ``reg I(G) = t + 2``.  The same sweep yields the graded
Betti table of the quotient ring ``R/I(G)``, whose ``(i, j)`` entry counts
homology in degree ``j - i - 1`` over subsets of size ``j``.

The sweep is one table over vertex subsets: ``W`` is visited in
ascending order, so every proper submask of ``W`` already has its dims
when ``W`` is reached.  ``table[W]`` is one integer: the dimension of the
reduced homology of ``Ind(G[W])`` in degree ``k - 1`` is its digit ``k``,
``_WIDTH`` bits wide.  No dim exceeds the number of faces of its degree,
at most ``comb(ORACLE_VERTEX_CAP, ORACLE_VERTEX_CAP // 2)``, so the top
bit of every digit stays clear.  Three observations spare most of the
work: the first spares most subsets a visit, the second fills table
entries without building a complex, the last spares the whole table of a
disconnected graph:

* a vertex isolated inside ``G[W]`` makes the independence complex a cone,
  with no reduced homology, so the table starts at 0 and the walk visits
  only the subsets with no isolated vertex
  (``graph_core.masks_without_isolated_vertex``): on a sparse graph a
  small share of the ``2^n``;
* for a vertex ``v``, ``Ind(G[W])`` is the union of ``Ind(G[W - v])`` and
  the cone ``v * Ind(G[W - N[v]])``, which meet in ``Ind(G[W - N[v]])``
  (Adamaszek's splitting).  When no degree has homology in both, the
  Mayer-Vietoris sequence makes the dims of ``W`` those of ``W - v`` plus
  those of ``W - N[v]`` one degree up: ``a + (b << _WIDTH)`` on the packed
  entries, once a carry-free test on their digits finds no degree nonzero
  in both.  Counting from degree -1, where the empty complex has its
  homology, this covers a vertex adjacent to the rest of ``W``; and
  Engstrom's fold lemma, ``N(u)`` contained in ``N(v)`` for another vertex
  ``u``, is the case where ``u`` is isolated in ``G[W - N[v]]``, so that
  ``W`` takes the dims of ``W - v``;
* the resolution of a disjoint union is the tensor product of its
  components' resolutions, so ``regularity`` and ``betti_table`` walk no
  table of a disconnected graph: ``reg - 1`` adds (``union_reg_star``),
  witnesses unite and Betti polynomials multiply, from each component's
  own walk.

Only a ``W`` that no split reduces gets its complex built, and
``homology`` takes its ranks by one exact integer path for every field.
Nothing else in the walk depends on ``c``, so one walk serves every
characteristic that divides none of the diagonal entries other than +1
and -1 that the pieces leave (the walk's torsion); only a characteristic
that divides one is walked again.

One object per walk, ``SubgraphRegularity``, holds the table and its
torsion, and states the torsion rule in ``at``.  The one memory across
calls is an ``lru_cache`` of size 1: the record of the graph last asked
by ``regularity`` or ``betti_table``, which keeps no table.  So asking
one graph at several characteristics in a row walks it once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice, repeat
from math import comb
from operator import le

from .errors import CapExceeded, NotApplicable
from .graph_core import Graph, _bits, _check_edge, components, masks_without_isolated_vertex
from .homology import homology_from_masks

ORACLE_VERTEX_CAP = 16

# The packed subset table: digit ``k`` of ``table[W]`` is ``_WIDTH`` bits
# wide, enough for any face count below the cap with the top bit clear.
# ``a + _MID`` sets the top bit of exactly the nonzero digits of ``a``
# without a carry, so ``(a + _MID) & (b + _MID) & _HIGH`` marks the digits
# nonzero in both.
_WIDTH = comb(ORACLE_VERTEX_CAP, ORACLE_VERTEX_CAP // 2).bit_length() + 1
_DIGIT = (1 << _WIDTH) - 1
_ONES = sum(1 << _WIDTH * k for k in range(ORACLE_VERTEX_CAP + 1))
_HIGH = _ONES << _WIDTH - 1
_MID = _HIGH - _ONES

# _DIGIT_COUNT[b] is the digit count of a packed entry of bit length b.
_DIGIT_COUNT = bytes(-(-b // _WIDTH) for b in range(_WIDTH * (ORACLE_VERTEX_CAP + 1) + 1))

# _AT_LEAST[v] maps a byte x to 1 when x >= v and to 0 otherwise.
_AT_LEAST = tuple(b"\0" * v + b"\1" * (256 - v) for v in range(ORACLE_VERTEX_CAP + 2))


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field, identified by its characteristic: 0 or a prime below ``2**31``."""

    characteristic: int = 0

    def __post_init__(self):
        c = self.characteristic
        if c == 0:
            return
        if not 2 <= c < 2**31 or any(c % d == 0 for d in range(2, int(c**0.5) + 1)):
            raise ValueError(f"characteristic must be 0 or a prime below 2**31, got {c}")


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of the quotient by the edge ideal."""

    entries: tuple[tuple[tuple[int, int], int], ...]  # ((i, j), value), sorted
    characteristic: int

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    def regularity_quotient(self) -> int:
        """Largest ``j - i`` over nonzero entries (the quotient's regularity)."""
        return max(j - i for (i, j), _ in self.entries)

    def regularity_ideal(self) -> int:
        """Regularity of the edge ideal itself: one more than the quotient's."""
        return self.regularity_quotient() + 1


@dataclass(frozen=True)
class RegularityResult:
    """Regularity, stored once, with a homology witness.

    ``reg_star`` follows the three-case convention used throughout this
    package's verdicts: 0 for the empty graph, 1 for an edgeless nonempty
    graph, and the regularity of the edge ideal otherwise.  The other
    conventions are derived from it.

    The witness is a subset ``W`` and homology degree ``t`` attaining the
    maximum, so ``reg_ideal = t + 2``; ties resolve to the smallest then
    lexicographically first ``W``.  It exists exactly when an edge does.
    """

    reg_star: int
    characteristic: int
    witness_subset: tuple[int, ...] | None

    @property
    def witness_degree(self) -> int | None:
        """The witness's homology degree ``t = reg_star - 2``; None when
        there is no edge."""
        return self.reg_star - 2 if self.witness_subset is not None else None

    @property
    def reg_quotient(self) -> int:
        """Regularity of ``R/I(G)``: 0 in both degenerate cases."""
        return max(self.reg_star - 1, 0)

    @property
    def reg_ideal(self) -> int | None:
        """Regularity of the edge ideal; None when there is no edge."""
        return self.reg_star if self.witness_subset is not None else None


def regularity(g: Graph, field: FieldSpec = FieldSpec(0)) -> RegularityResult:
    """Exact regularity of the edge ideal over the given field."""
    reg_star, witness, _ = _whole_graph(g).reading(field.characteristic)
    return RegularityResult(reg_star, field.characteristic, witness)


def betti_table(g: Graph, field: FieldSpec = FieldSpec(0)) -> BettiTable:
    """Full graded Betti table of ``R/I(G)`` over the given field."""
    if g.num_edges == 0:
        raise NotApplicable("Betti table requires at least one edge")
    reg_star, _, betti = _whole_graph(g).reading(field.characteristic)
    table = BettiTable(tuple(sorted({(0, 0): 1, **betti}.items())), field.characteristic)
    if table.regularity_ideal() != reg_star:
        raise AssertionError("Betti table disagrees with the regularity sweep")
    return table


def union_reg_star(regs) -> int:
    """``reg_star`` of a disjoint union from its components': the union's
    resolution is the tensor product of theirs, so ``reg - 1`` adds over
    them.  One component keeps its own, the empty graph's 0 included."""
    return 1 + sum(reg - 1 for reg in regs)


def refuse_past_cap(n: int) -> None:
    """Raise ``CapExceeded`` past ``ORACLE_VERTEX_CAP`` vertices."""
    if n > ORACLE_VERTEX_CAP:
        raise CapExceeded(f"regularity sweep capped at {ORACLE_VERTEX_CAP} vertices, got {n}")


# -- the one object per graph -------------------------------------------------


def subgraph_regularity(g: Graph, field: FieldSpec = FieldSpec(0)) -> SubgraphRegularity:
    """One subset walk of ``g`` over the given field, kept for reading:
    ``reg_star``, witness and Betti entries of ``g``, and ``reg_star`` of
    every induced subgraph and of ``g`` less any one edge.  Refuses past
    ``ORACLE_VERTEX_CAP`` vertices, as the walk does."""
    table, torsion = _walk_table(g, field.characteristic)
    return SubgraphRegularity(g, field.characteristic, table, tuple(sorted(torsion)))


class SubgraphRegularity:
    """One graph's subset table at one characteristic, kept for reading.

    An induced subgraph ``G[W]`` has the table restricted to the submasks
    of ``W``, and ``G`` less an edge differs only on the subsets holding
    both ends.  ``best[W]``, the largest digit count of ``table[S]`` over
    the submasks ``S`` of ``W``, is ``reg_star`` of ``G[W]`` (1 on an
    edgeless ``W``: the empty complex ``table[0] = 1`` counts), filled at
    the first induced reading in ``O(n 2^n)``.  The witness and the Betti
    entries are decoded at the first ask of either.  ``torsion``, the
    sorted distinct absolute values above 1 left on the diagonal of any
    piece built, does not depend on the characteristic.
    """

    __slots__ = ("characteristic", "torsion", "_graph", "_table", "_best", "_decoded")

    def __init__(self, g: Graph, char: int, table: list[int] | None, torsion: tuple[int, ...]):
        self.characteristic = char
        self.torsion = torsion
        self._graph = g
        self._table = table
        self._best = None
        self._decoded = None

    def whole(self) -> int:
        """``reg_star`` of ``G`` itself: the digit count of the largest
        entry, since entries with more digits are larger; 0 for the empty
        graph."""
        if self._table is None:
            return self._decoded[0]
        return _digits(max(self._table)) if self._graph.n else 0

    def witness(self) -> tuple[int, ...] | None:
        """A smallest subset with homology in the top degree ``whole() - 2``,
        of those the one holding the lowest vertex where two differ; None
        when there is no edge."""
        return self._decode()[1]

    def betti(self) -> dict[tuple[int, int], int]:
        """The graded Betti numbers ``(i, j) -> value`` of ``R/I(G)`` but
        ``(0, 0)``: degree ``j - i - 1`` homology over the subsets of size ``j``."""
        return self._decode()[2]

    def _decode(self) -> tuple[int, tuple[int, ...] | None, dict[tuple[int, int], int]]:
        """``(whole, witness, betti)``, decoded at the first ask and kept;
        each distinct ``(|W|, table[W])`` is decoded once, weighted."""
        if self._decoded is None:
            table = self._table
            betti: dict[tuple[int, int], int] = {}
            sizes = map(int.bit_count, compress(range(1, len(table)), islice(table, 1, None)))
            for (size, value), count in Counter(zip(sizes, filter(None, islice(table, 1, None)))).items():
                k = 0
                while value:
                    if value & _DIGIT:
                        key = (size - k, size)
                        betti[key] = betti.get(key, 0) + count * (value & _DIGIT)
                    value >>= _WIDTH
                    k += 1
            witness = None
            top_value = max(islice(table, 1, None), default=0)
            if top_value:
                top = _digits(top_value) - 1
                # the masks with homology in the top degree; ``le`` maps
                # faster than a bound ``__le__``
                tops = list(compress(range(len(table)), map(le, repeat(1 << _WIDTH * top), table)))
                least = min(map(int.bit_count, tops))
                best = 0
                for w_mask in tops:
                    diff = w_mask ^ best
                    if w_mask.bit_count() == least and (not best or diff & -diff & w_mask):
                        best = w_mask
                witness = tuple(_bits(best))
            self._decoded = (self.whole(), witness, betti)
        return self._decoded

    def induced(self, keep_mask: int) -> int:
        """``reg_star`` of ``G[keep]``: 0 when ``keep`` is empty, 1 when
        it spans no edge."""
        if not keep_mask:
            return 0
        if self._best is None:
            counts = bytes(map(_DIGIT_COUNT.__getitem__, map(int.bit_length, self._table)))
            self._best = _submask_max(counts, self._graph.n)
        return self._best[keep_mask]

    def induced_direct(self, keep_mask: int) -> int:
        """``induced(keep_mask)``, read directly off the ``2^|keep|``
        submasks of ``keep`` with no pass over the whole table: for a few
        masks of a large table, such as the components of a union."""
        if not keep_mask:
            return 0
        table = self._table
        top, sub = table[keep_mask], keep_mask
        while sub:
            sub = (sub - 1) & keep_mask
            top = max(top, table[sub])
        return _digits(top)

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
        every characteristic that divides none of its torsion entries: the
        pieces have the same ranks there, so the same dims, and the cones
        and splits read only the graph and the table.  Any other is walked
        again.  ``edge_deleted`` builds its pieces at the new
        characteristic."""
        c = field.characteristic
        if c == self.characteristic:
            return self
        if self.characteristic == 0 and not any(p % c == 0 for p in self.torsion):
            shared = SubgraphRegularity(self._graph, c, self._table, self.torsion)
            shared._best, shared._decoded = self._best, self._decoded
            return shared
        return subgraph_regularity(self._graph, field)

    def _drop_table(self) -> SubgraphRegularity:
        """Decode the whole graph's readings and drop the table, for a
        record that outlives the walk: then only ``whole``, ``witness``,
        ``betti`` and ``at`` answer."""
        self._decode()
        self._table = None
        return self


class _WholeGraph:
    """The record that ``regularity`` and ``betti_table`` keep of the graph
    last asked (``_whole_graph``): the char-0 readings of its distinct
    components, decoded and without their tables, and its results at each
    characteristic asked.  The cap is checked on the whole graph first."""

    __slots__ = ("_parts", "_char0", "_results")

    def __init__(self, g: Graph):
        refuse_past_cap(g.n)
        self._parts = components(g) or [((), g)]  # the empty graph is its own one part
        distinct = dict.fromkeys(comp for _, comp in self._parts)  # each walked once
        self._char0 = {comp: subgraph_regularity(comp)._drop_table() for comp in distinct}
        self._results: dict[int, tuple] = {}

    def reading(self, char: int) -> tuple[int, tuple[int, ...] | None, dict[tuple[int, int], int]]:
        """``(reg_star, witness, betti)`` at ``char`` from each component's
        ``at(char)``: ``reg_star`` by ``union_reg_star``; the witnesses
        unite, the smallest and first union since the top degree needs each
        component at its own; the Betti polynomials ``1 + B`` multiply."""
        if char not in self._results:
            field = FieldSpec(char)
            readings = {comp: r.at(field)._drop_table() for comp, r in self._char0.items()}
            witness: list[int] = []
            betti = {(0, 0): 1}
            for verts, comp in self._parts:
                witness += [verts[v] for v in readings[comp].witness() or ()]
                product = dict(betti)  # the factor's own (0, 0) entry of 1
                for (i, j), b in betti.items():
                    for (i2, j2), b2 in readings[comp].betti().items():
                        product[i + i2, j + j2] = product.get((i + i2, j + j2), 0) + b * b2
                betti = product
            del betti[(0, 0)]
            reg_star = union_reg_star(readings[comp].whole() for _, comp in self._parts)
            self._results[char] = (reg_star, tuple(sorted(witness)) or None, betti)
        return self._results[char]


_whole_graph = lru_cache(maxsize=1)(_WholeGraph)


# -- the walk -----------------------------------------------------------------


def _digits(value: int) -> int:
    """The digit count of a packed entry: its top homology index plus one,
    0 for an entry with no homology."""
    return -(-value.bit_length() // _WIDTH)


def _walk_table(g: Graph, char: int) -> tuple[list[int], set[int]]:
    """The whole packed subset table of ``g`` at ``char``, and its torsion;
    refused past the cap."""
    refuse_past_cap(g.n)
    table = [0] * (1 << g.n)  # every mask left out below is a cone
    table[0] = 1  # the empty complex: dim 1 in degree -1
    torsion = _fill([g.adj_mask(v) for v in range(g.n)], masks_without_isolated_vertex(g), table, char)
    return table, torsion


def _fill(adj: list[int], masks, table: list[int], char: int) -> set[int]:
    """Write ``table[W]`` for each ``W`` of ``masks``, an ascending
    sequence, and return the torsion of the pieces built.

    ``table[W]`` packs the dims of the reduced homology of ``Ind(G[W])``:
    digit ``k`` (bits ``k * _WIDTH`` up) holds the dim in degree ``k - 1``,
    so ``_digits(table[W]) - 1`` is the top homology index, 0 means no
    homology, and ``table[0] = 1`` is the empty complex.  A proper submask
    of ``W`` that ``masks`` holds comes before ``W``; every other one must
    already be right in ``table``.  Each ``W`` is a cone, a split or a
    built piece.  A split takes the lowest vertex ``v`` of ``W`` for which
    no degree has homology both in ``W - v`` and in ``W - N[v]``: then the
    inclusion of the second complex in the first induces zero in homology,
    and the Mayer-Vietoris sequence adds the first's dims to the second's
    shifted up one degree.  A ``v`` with no homology in ``W - N[v]``, as
    when ``N(u)`` lies in ``N(v)`` for some other ``u`` (a fold), shares
    the dims of ``W - v``.  Every ``W`` is written, cones as 0, so a table
    copied from another graph keeps nothing stale at the masks refilled.
    Equal entries are one shared integer within a call: a table holds a
    few dozen distinct values, and an integer object each would cost ~32
    bytes a subset.
    """
    torsion: set[int] = set()
    closed = {1 << v: nbrs | 1 << v for v, nbrs in enumerate(adj)}  # N[v], keyed by v's bit
    mid, high, width = _MID, _HIGH, _WIDTH
    shared: dict[int, int] = {}
    for w_mask in masks:
        low = w_mask & -w_mask
        near = closed[low]
        if near & w_mask == low:
            table[w_mask] = 0  # an isolated vertex makes the complex a cone
            continue
        a = table[w_mask ^ low]
        b = table[w_mask & ~near]
        if not a:  # the common case: all the homology comes from the link
            value = b << width
        elif not (a + mid) & (b + mid) & high:  # dims are never negative
            value = a + (b << width)
        else:
            rest = w_mask ^ low
            while rest:
                bit = rest & -rest
                rest ^= bit
                a = table[w_mask ^ bit]
                b = table[w_mask & ~closed[bit]]
                if not a:
                    value = b << width
                    break
                if not (a + mid) & (b + mid) & high:
                    value = a + (b << width)
                    break
            else:
                dims, diagonal = _piece_dims(adj, w_mask, char)
                torsion.update(diagonal)
                value = sum(d << width * k for k, d in enumerate(dims, 1))
        table[w_mask] = shared.setdefault(value, value)
    return torsion


def _piece_dims(adj: list[int], piece_mask: int, char: int) -> tuple[tuple[int, ...], set[int]]:
    """Homology dims, from degree 0, of the independence complex of one
    piece that no split reduces, and the absolute values above 1
    left on the diagonals of its boundary maps."""
    by_dim: list[list[int]] = [[] for _ in range(piece_mask.bit_count())]
    for mask in _independent_masks(adj, piece_mask)[1:]:
        by_dim[mask.bit_count() - 1].append(mask)
    while by_dim and not by_dim[-1]:
        by_dim.pop()
    return homology_from_masks(by_dim, char)


# -- small shared helpers -----------------------------------------------------


def _independent_masks(adj: list[int], alive: int) -> list[int]:
    """Every independent set of the graph induced on ``alive``, as masks in
    ascending order (the empty set first)."""
    masks = [0]
    for v in _bits(alive):
        bit = 1 << v
        masks += [m | bit for m in masks if not m & adj[v]]
    return masks


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
