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
bit of every digit stays clear.  Four observations spare most of the
work: the first two fill table entries without building a complex, the
last the whole table of a disconnected graph:

* a vertex isolated inside ``G[W]`` makes the independence complex a cone,
  with no reduced homology;
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
* boundary ranks start with sparse elimination on pivots equal to +1 or
  -1, in every characteristic.  Those steps are unimodular, so they keep
  the rank over the integers and over every field;
* the resolution of a disjoint union is the tensor product of its
  components' resolutions, so a disconnected graph gets no table: the
  regularities of its components add, their witnesses unite and their
  Betti polynomials multiply, from each component's own walk.

Only a ``W`` that no split reduces gets its complex built.  The
core left without a unit pivot is brought to a diagonal by unimodular
integer row and column steps (Euclid on an entry of least absolute value),
and the rank over characteristic ``c`` is the pivot count plus the number
of diagonal entries that ``c`` does not divide.  One exact integer path
thus serves every field; floating point is never used, and every evaluated
complex is checked against its Euler characteristic.  Nothing else
in the walk depends on ``c``, so one walk serves every characteristic that
divides none of the diagonal entries other than +1 and -1 (the walk's
torsion); only a characteristic that divides one is walked again.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, islice
from math import comb

from .errors import CapExceeded, NotApplicable
from .graph_core import Graph, _bits, components

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
    reg_q, witness, _, _ = _hochster_sweep(g, field.characteristic)
    if g.num_edges == 0:
        reg_star = 0 if g.n == 0 else 1
        return RegularityResult(reg_star, field.characteristic, None)
    return RegularityResult(reg_q + 1, field.characteristic, witness)


def betti_table(g: Graph, field: FieldSpec = FieldSpec(0)) -> BettiTable:
    """Full graded Betti table of ``R/I(G)`` over the given field."""
    if g.num_edges == 0:
        raise NotApplicable("Betti table requires at least one edge")
    reg_q, _, betti, _ = _hochster_sweep(g, field.characteristic)
    entries = dict(betti)
    entries[(0, 0)] = 1
    table = BettiTable(tuple(sorted(entries.items())), field.characteristic)
    if table.regularity_quotient() != reg_q:
        raise AssertionError("Betti table disagrees with the regularity sweep")
    return table


# -- sweep internals ----------------------------------------------------------

_SWEEP_MEMO: dict = {}


def _hochster_sweep(g: Graph, char: int):
    """Per-graph sweep: returns (reg_quotient, witness subset, betti entries,
    torsion).

    ``torsion`` is the sorted tuple of the distinct absolute values above 1
    left on the diagonal of any piece of the walk; it does not depend on the
    characteristic.  ``_SWEEP_MEMO`` holds only the graph last asked, its
    char-0 result under ``(n, edges)``; another graph clears it, so a
    caller asking one graph at several characteristics walks it once.  A
    characteristic that divides no torsion entry gives every piece the
    same ranks, so the same dims, and the cones and splits read only the
    graph and the table: the char-0 result is its own.  Any other is walked
    again and kept under ``(n, edges, char)``.  A graph with more than
    ``ORACLE_VERTEX_CAP`` vertices is refused.
    """
    refuse_past_cap(g)
    key = (g.n, g.edges)
    hit = _SWEEP_MEMO.get(key)
    if hit is None:
        _SWEEP_MEMO.clear()
        hit = _SWEEP_MEMO[key] = _sweep(g, 0)
    if char and any(p % char == 0 for p in hit[3]):
        key += (char,)
        hit = _SWEEP_MEMO.get(key)
        if hit is None:
            hit = _SWEEP_MEMO[key] = _sweep(g, char)
    return hit


def _sweep(g: Graph, char: int):
    """One unmemoized sweep at ``char`` by ``_subset_walk``, of a connected
    graph or of each distinct component of a disconnected one, whose
    resolution is the tensor product of theirs.  The regularities add over
    the components with an edge; the top degree needs each at its own, so
    the union of their witnesses is the smallest and the lexicographically
    first (two such unions of one size first differ in one component).
    The Betti polynomials ``1 + B`` multiply; the torsions unite."""
    parts = components(g)
    if len(parts) < 2:
        return _subset_walk(g, char)
    reg_q = 0
    witness: list[int] = []
    betti = {(0, 0): 1}
    torsion: set[int] = set()
    walked = {comp: _subset_walk(comp, char) for comp in dict.fromkeys(comp for _, comp in parts)}
    for verts, comp in parts:
        reg_k, w_k, betti_k, torsion_k = walked[comp]
        torsion.update(torsion_k)
        if w_k is None:
            continue  # an isolated vertex
        reg_q += reg_k
        witness += [verts[v] for v in w_k]
        product = dict(betti)  # the factor's own (0, 0) entry of 1
        for (i, j), b in betti.items():
            for (i2, j2), b2 in betti_k.items():
                ij = (i + i2, j + j2)
                product[ij] = product.get(ij, 0) + b * b2
        betti = product
    del betti[(0, 0)]
    if not witness:
        return (0, None, {}, tuple(sorted(torsion)))
    return (reg_q, tuple(sorted(witness)), betti, tuple(sorted(torsion)))


def refuse_past_cap(g: Graph) -> None:
    """Raise ``CapExceeded`` for a graph past ``ORACLE_VERTEX_CAP``."""
    if g.n > ORACLE_VERTEX_CAP:
        raise CapExceeded(f"regularity sweep capped at {ORACLE_VERTEX_CAP} vertices, got {g.n}")


def _subset_walk(g: Graph, char: int):
    """The subset walk over the whole graph, connected or not: returns
    (reg_quotient, witness subset, betti entries, torsion), unmemoized.

    ``_fill`` builds the table over every subset in ascending order.  Each
    distinct ``(|W|, table[W])`` is decoded once into Betti entries,
    weighted by how often it occurs.  The witness is a subset of the top
    degree, the smallest and then the lexicographically first: of two
    subsets of one size, the first holds the lowest vertex where they
    differ.  It is the reference for the component split of
    ``_hochster_sweep`` and, at each characteristic, for its reuse of the
    char-0 walk.  It refuses past the cap too.  The pieces it builds, and
    so its torsion, do not depend on ``char``.
    """
    table, torsion = _walk_table(g, char)
    torsion = tuple(sorted(torsion))
    top_value = max(islice(table, 1, None), default=0)
    if not top_value:
        return (0, None, {}, torsion)
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
    top = _digits(top_value) - 1
    best = best_size = 0
    for w_mask in compress(range(len(table)), map((1 << _WIDTH * top).__le__, table)):
        size = w_mask.bit_count()
        diff = w_mask ^ best
        if not best or size < best_size or size == best_size and diff & -diff & w_mask:
            best, best_size = w_mask, size
    return (top, tuple(_bits(best)), betti, torsion)


def _digits(value: int) -> int:
    """The digit count of a packed entry: its top homology index plus one,
    0 for an entry with no homology."""
    return -(-value.bit_length() // _WIDTH)


def _walk_table(g: Graph, char: int) -> tuple[list[int], set[int]]:
    """The whole packed subset table of ``g`` at ``char``, and its torsion;
    refused past the cap."""
    refuse_past_cap(g)
    table = [0] * (1 << g.n)
    table[0] = 1  # the empty complex: dim 1 in degree -1
    torsion = _fill([g.adj_mask(v) for v in range(g.n)], range(1, 1 << g.n), table, char)
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
        if closed[low] & w_mask == low:
            table[w_mask] = 0  # an isolated vertex makes the complex a cone
            continue
        rest = w_mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            a = table[w_mask ^ bit]
            b = table[w_mask & ~closed[bit]]
            if not a:  # the common case: all the homology comes from the link
                value = b << width
                break
            if not (a + mid) & (b + mid) & high:  # dims are never negative
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
    return _homology_from_masks(by_dim, char)


def _homology_from_masks(by_dim: list[list[int]], char: int) -> tuple[tuple[int, ...], set[int]]:
    """Reduced homology dims (degrees 0..maxdim) from faces given as masks,
    and the diagonal entries other than +1 and -1 (as absolute values) of
    the boundary maps' diagonal forms.

    ``by_dim[d]`` lists the d-dimensional faces.  Raises if the alternating
    sum of the computed dims disagrees with the reduced Euler characteristic
    -- a built-in self-check on every evaluated complex.
    """
    if not by_dim or not by_dim[0]:
        return (), set()
    maxdim = len(by_dim) - 1
    ranks = [0] * (maxdim + 2)
    ranks[0] = 1  # the augmentation map onto the empty face
    torsion: set[int] = set()
    for d in range(1, maxdim + 1):
        pivots, diagonal = _boundary_form(by_dim[d - 1], by_dim[d])
        ranks[d] = pivots + sum(1 for p in diagonal if char == 0 or p % char)
        torsion.update(p for p in diagonal if p > 1)
    dims = tuple(
        len(by_dim[t]) - ranks[t] - ranks[t + 1] for t in range(maxdim + 1)
    )
    euler = sum((-1) ** t * len(by_dim[t]) for t in range(maxdim + 1)) - 1
    if sum((-1) ** t * v for t, v in enumerate(dims)) != euler:
        raise AssertionError("homology dims violate the Euler characteristic")
    if any(v < 0 for v in dims):
        raise AssertionError("negative homology dimension: rank bookkeeping broken")
    return dims, torsion


def _boundary_form(rows_faces: list[int], cols_faces: list[int]) -> tuple[int, list[int]]:
    """The boundary map from ``cols_faces`` to ``rows_faces`` brought to a
    diagonal by unimodular steps: returns the unit pivot count and the
    absolute values of the diagonal left from the core."""
    row_index = {m: i for i, m in enumerate(rows_faces)}
    cols = []
    for face in cols_faces:
        col = {}
        sign = 1
        m = face
        while m:  # ascending vertices carry the alternating sign
            low = m & -m
            col[row_index[face ^ low]] = sign
            sign = -sign
            m ^= low
        cols.append(col)
    pivots, core = _eliminate_units(cols)
    return pivots, _diagonal(core)


def _eliminate_units(cols: list[dict[int, int]]) -> tuple[int, list[dict[int, int]]]:
    """Sparse integer column reduction that pivots only on entries +1 or -1.

    Columns are ``{row: value}`` maps and are updated in place.  Each column
    in turn has its largest row cleared by the pivot column led there, until
    that row has no pivot; if the entry left there is +1 or -1 the column
    becomes that row's pivot, otherwise it joins the core.  Once every pivot
    is known, the core columns are cleared of every pivot row.  Pivot
    columns are triangular with unit leads, and adding integer multiples of
    columns is unimodular, so the rank over the integers and over every
    field is the pivot count plus the rank of the returned nonzero columns,
    which no longer meet a pivot row.
    """
    pivots: dict[int, dict[int, int]] = {}
    core = []
    for col in cols:
        while col:
            r = max(col)
            if r not in pivots:
                if col[r] == 1 or col[r] == -1:
                    pivots[r] = col
                else:
                    core.append(col)
                break
            _subtract(col, pivots[r], col[r] * pivots[r][r])  # a unit is its own inverse
    for col in core:
        while rows := [r for r in col if r in pivots]:
            r = max(rows)
            _subtract(col, pivots[r], col[r] * pivots[r][r])
    return len(pivots), [col for col in core if col]


def _subtract(col: dict[int, int], other: dict[int, int], f: int) -> None:
    """``col -= f * other``, on sparse columns, dropping zeros."""
    for rr, x in other.items():
        y = col.get(rr, 0) - f * x
        if y:
            col[rr] = y
        else:
            del col[rr]


def _diagonal(cols: list[dict[int, int]]) -> list[int]:
    """The absolute values of a diagonal form of the integer matrix with
    sparse columns ``cols``, which are updated in place.

    The matrix is brought to a diagonal by unimodular row and column steps:
    an entry of least absolute value divides its row and its column by
    Euclid, and when every remainder is zero its row and column are clear,
    so it leaves as one diagonal entry.  Otherwise a remainder is smaller
    and becomes the next pivot.  The steps are invertible over the integers
    and so over every field: the rank over characteristic ``c`` is the
    number of entries that ``c`` does not divide, and every entry counts at
    ``c = 0``.
    """
    diagonal = []
    while cols := [col for col in cols if col]:
        col, r = min(((col, r) for col in cols for r in col), key=lambda e: abs(e[0][e[1]]))
        p = col[r]
        clear = True
        for col2 in cols:  # column steps leave remainders in row r
            if col2 is not col and r in col2:
                _subtract(col2, col, col2[r] // p)
                clear = clear and r not in col2
        for r2 in [x for x in col if x != r]:  # row steps leave them in col
            f = col[r2] // p
            for col2 in cols:
                if r in col2:
                    y = col2.get(r2, 0) - f * col2[r]
                    if y:
                        col2[r2] = y
                    else:
                        del col2[r2]
            clear = clear and r2 not in col
        if clear:
            diagonal.append(abs(p))
            col.clear()
    return diagonal


# -- small shared helpers -----------------------------------------------------


def _independent_masks(adj: list[int], alive: int) -> list[int]:
    """Every independent set of the graph induced on ``alive``, as masks in
    ascending order (the empty set first)."""
    masks = [0]
    for v in _bits(alive):
        bit = 1 << v
        masks += [m | bit for m in masks if not m & adj[v]]
    return masks
