"""Field-aware regularity of edge ideals via reduced simplicial homology.

The regularity of ``I(G)`` is computed combinatorially: for every vertex
subset ``W``, the reduced homology of the independence complex of ``G[W]``
is taken over the requested field, and the largest degree ``t`` carrying
homology yields ``reg I(G) = t + 2``.  The same sweep yields the graded
Betti table of the quotient ring ``R/I(G)``, whose ``(i, j)`` entry counts
homology in degree ``j - i - 1`` over subsets of size ``j``.

Two exact linear-algebra kernels back the rank computations: fraction-free
integer elimination for characteristic zero and dense modular elimination
for prime fields (with a bit-parallel fast path at characteristic two).
Floating point is never used.

Two observations keep the subset sweep cheap enough to run over whole
corpora of small graphs:

* a vertex isolated inside ``G[W]`` makes the independence complex a cone,
  so such ``W`` contribute nothing and are skipped;
* the independence complex of a disjoint union is the join of the factors'
  complexes, so homology is only ever computed on connected pieces (and
  memoized on their relabeled edge sets), then combined by the join rule
  ``dim H_t(X * Y) = sum over i+j = t-1 of dim H_i(X) * dim H_j(Y)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CapExceeded, NotApplicable
from .graph_core import Graph

ORACLE_VERTEX_CAP = 16


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field, identified by its characteristic (0 or a prime)."""

    characteristic: int = 0

    def __post_init__(self):
        c = self.characteristic
        if c == 0:
            return
        if c < 2 or any(c % d == 0 for d in range(2, int(c**0.5) + 1)):
            raise ValueError(f"characteristic must be 0 or a prime, got {c}")


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex given by its facets; faces are implicitly closed downward."""

    n_vertices: int
    facets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        masks = [_mask_of(f) for f in self.facets]
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                if i != j and a & b == a:
                    raise ValueError(f"facet {self.facets[i]} contained in {self.facets[j]}")

    def faces_by_dim(self) -> dict[int, list[tuple[int, ...]]]:
        """All faces keyed by dimension (the empty face is left implicit)."""
        seen: set[int] = set()
        for f in self.facets:
            m = _mask_of(f)
            _close_down(m, seen)
        out: dict[int, list[tuple[int, ...]]] = {}
        for m in seen:
            d = m.bit_count() - 1
            out.setdefault(d, []).append(_tuple_of(m))
        for d in out:
            out[d].sort()
        return out


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
    witness_degree: int | None

    @property
    def reg_quotient(self) -> int:
        """Regularity of ``R/I(G)``: 0 in both degenerate cases."""
        return max(self.reg_star - 1, 0)

    @property
    def reg_ideal(self) -> int | None:
        """Regularity of the edge ideal; None when there is no edge."""
        return self.reg_star if self.witness_subset is not None else None


def independence_complex(g: Graph) -> SimplicialComplex:
    """The complex whose faces are the independent vertex sets of ``g``."""
    facets = []
    full = g.full_mask
    for mask in _independent_masks(g):
        maximal = True
        rest = full & ~mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if g.adj_mask(v) & mask == 0:
                maximal = False
                break
            rest ^= low
        if maximal:
            facets.append(_tuple_of(mask))
    facets.sort(key=lambda f: (len(f), f))
    return SimplicialComplex(g.n, tuple(facets))


def reduced_homology_dims(complex_: SimplicialComplex, field: FieldSpec) -> dict[int, int]:
    """Reduced homology dimensions by degree, from degree -1 upward.

    The empty complex (no vertices) has one-dimensional homology in degree
    -1; any nonempty complex has zero there.  An internal Euler
    characteristic cross-check guards every rank computation.
    """
    faces = complex_.faces_by_dim()
    if not faces:
        return {-1: 1}
    by_dim = [[_mask_of(f) for f in faces.get(d, [])] for d in range(max(faces) + 1)]
    dims = _homology_from_masks(by_dim, field.characteristic)
    out = {-1: 0}
    for t, d in enumerate(dims):
        out[t] = d
    return out


def regularity(g: Graph, field: FieldSpec = FieldSpec(0), cap: int = ORACLE_VERTEX_CAP) -> RegularityResult:
    """Exact regularity of the edge ideal over the given field."""
    if g.n > cap:
        raise CapExceeded(f"regularity sweep capped at {cap} vertices, got {g.n}")
    reg_q, witness, _ = _hochster_sweep(g, field.characteristic)
    if g.num_edges == 0:
        reg_star = 0 if g.n == 0 else 1
        return RegularityResult(reg_star, field.characteristic, None, None)
    w_subset, w_degree = witness
    return RegularityResult(
        reg_star=reg_q + 1,
        characteristic=field.characteristic,
        witness_subset=w_subset,
        witness_degree=w_degree,
    )


def betti_table(g: Graph, field: FieldSpec = FieldSpec(0), cap: int = ORACLE_VERTEX_CAP) -> BettiTable:
    """Full graded Betti table of ``R/I(G)`` over the given field."""
    if g.num_edges == 0:
        raise NotApplicable("Betti table requires at least one edge")
    if g.n > cap:
        raise CapExceeded(f"Betti sweep capped at {cap} vertices, got {g.n}")
    reg_q, _, betti = _hochster_sweep(g, field.characteristic)
    entries = dict(betti)
    entries[(0, 0)] = 1
    table = BettiTable(tuple(sorted(entries.items())), field.characteristic)
    if table.regularity_quotient() != reg_q:
        raise AssertionError("Betti table disagrees with the regularity sweep")
    return table


def reg_recursion_value(g: Graph, characteristic: int = 0) -> int:
    """Regularity in the uniform convention used by the deletion recursions.

    Equals ``reg I(G)`` when edges exist and 1 for edgeless graphs --
    including the empty graph, which the vertex/edge recursions require to
    count as 1 (its quotient ring is the field itself).
    """
    reg_q, _, _ = _hochster_sweep(g, characteristic)
    return reg_q + 1


# -- sweep internals ----------------------------------------------------------

_SWEEP_MEMO: dict = {}
_PIECE_MEMO: dict = {}


def _hochster_sweep(g: Graph, char: int):
    """Per-graph subset sweep: returns (reg_quotient, witness, betti entries)."""
    key = (g.n, g.edges, char)
    hit = _SWEEP_MEMO.get(key)
    if hit is not None:
        return hit
    n = g.n
    adj = [g.adj_mask(v) for v in range(n)]
    best: tuple[int, int, tuple[int, ...]] | None = None  # (-t, |W|, W)
    betti: dict[tuple[int, int], int] = {}
    for w_mask in range(1, 1 << n):
        pieces = _split_connected(adj, w_mask)
        if pieces is None:
            continue
        dims = None
        for piece_mask in pieces:
            piece_dims = _piece_dims(adj, piece_mask, char)
            dims = piece_dims if dims is None else _join_dims(dims, piece_dims)
            if not any(dims):
                break
        if dims is None or not any(dims):
            continue
        size = w_mask.bit_count()
        w_tuple = _tuple_of(w_mask)
        for t, d in enumerate(dims):
            if d:
                betti[(size - t - 1, size)] = betti.get((size - t - 1, size), 0) + d
                cand = (-t, size, w_tuple)
                if best is None or cand < best:
                    best = cand
    if best is None:
        result = (0, (None, None), {})
    else:
        t = -best[0]
        result = (t + 1, (best[2], t), betti)
    _SWEEP_MEMO[key] = result
    return result


def _split_connected(adj: list[int], w_mask: int) -> list[int] | None:
    """Connected pieces of the induced subgraph, or None if any vertex is
    isolated there (a cone factor kills all reduced homology)."""
    pieces = []
    rest = w_mask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        if adj[v] & w_mask == 0:
            return None
        seen = low
        frontier = low
        while frontier:
            nxt = 0
            m = frontier
            while m:
                lo = m & -m
                nxt |= adj[lo.bit_length() - 1]
                m ^= lo
            frontier = nxt & w_mask & ~seen
            seen |= frontier
        pieces.append(seen)
        rest &= ~seen
    return pieces


def _piece_dims(adj: list[int], piece_mask: int, char: int) -> tuple[int, ...]:
    """Homology dims of the independence complex of one connected piece,
    memoized on its order-preserving relabeled edge set."""
    verts = _tuple_of(piece_mask)
    k = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    ekey = 0
    local_adj = [0] * k
    for i, v in enumerate(verts):
        m = adj[v] & piece_mask
        while m:
            lo = m & -m
            j = index[lo.bit_length() - 1]
            m ^= lo
            local_adj[i] |= 1 << j
            if j > i:
                ekey |= 1 << (j * (j - 1) // 2 + i)
    mkey = (k, ekey, char)
    hit = _PIECE_MEMO.get(mkey)
    if hit is not None:
        return hit
    by_dim: list[list[int]] = [[] for _ in range(k)]
    for mask in range(1, 1 << k):
        ok = True
        m = mask
        while m:
            lo = m & -m
            if local_adj[lo.bit_length() - 1] & mask:
                ok = False
                break
            m ^= lo
        if ok:
            by_dim[mask.bit_count() - 1].append(mask)
    while by_dim and not by_dim[-1]:
        by_dim.pop()
    for faces in by_dim:
        faces.sort()
    dims = _homology_from_masks(by_dim, char)
    _PIECE_MEMO[mkey] = dims
    return dims


def _join_dims(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j + 1] += ai * bj
    return tuple(out)


def _homology_from_masks(by_dim: list[list[int]], char: int) -> tuple[int, ...]:
    """Reduced homology dims (degrees 0..maxdim) from faces given as masks.

    ``by_dim[d]`` lists the d-dimensional faces.  Raises if the alternating
    sum of the computed dims disagrees with the reduced Euler characteristic
    -- a built-in self-check on every evaluated complex.
    """
    if not by_dim or not by_dim[0]:
        return ()
    maxdim = len(by_dim) - 1
    ranks = [0] * (maxdim + 2)
    ranks[0] = 1  # the augmentation map onto the empty face
    for d in range(1, maxdim + 1):
        ranks[d] = _boundary_rank(by_dim[d - 1], by_dim[d], char)
    dims = tuple(
        len(by_dim[t]) - ranks[t] - ranks[t + 1] for t in range(maxdim + 1)
    )
    euler = sum((-1) ** t * len(by_dim[t]) for t in range(maxdim + 1)) - 1
    if sum((-1) ** t * v for t, v in enumerate(dims)) != euler:
        raise AssertionError("homology dims violate the Euler characteristic")
    if any(v < 0 for v in dims):
        raise AssertionError("negative homology dimension: rank bookkeeping broken")
    return dims


def _boundary_rank(rows_faces: list[int], cols_faces: list[int], char: int) -> int:
    row_index = {m: i for i, m in enumerate(rows_faces)}
    if char == 2:
        cols = []
        for face in cols_faces:
            vec = 0
            m = face
            while m:
                lo = m & -m
                vec |= 1 << row_index[face ^ lo]
                m ^= lo
            cols.append(vec)
        return _rank_gf2(cols)
    vectors = []
    for face in cols_faces:
        vec = [0] * len(rows_faces)
        sign = 1
        m = face
        # iterate vertices in ascending order to apply the alternating sign
        while m:
            lo = m & -m
            vec[row_index[face ^ lo]] = sign
            sign = -sign
            m ^= lo
        vectors.append(vec)
    if char == 0:
        return _rank_exact(vectors)
    return _rank_gfp(vectors, char)


def _rank_gf2(cols: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for vec in cols:
        v = vec
        while v:
            low = v.bit_length() - 1
            p = pivots.get(low)
            if p is None:
                pivots[low] = v
                rank += 1
                break
            v ^= p
    return rank


def _rank_gfp(rows: list[list[int]], p: int) -> int:
    mat = [[x % p for x in r] for r in rows]
    m = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, m):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pr = mat[rank]
        inv = pow(pr[col], p - 2, p)
        for r in range(rank + 1, m):
            mr = mat[r]
            if mr[col]:
                f = mr[col] * inv % p
                for c in range(col, ncols):
                    mr[c] = (mr[c] - f * pr[c]) % p
        rank += 1
        if rank == m:
            break
    return rank


def _rank_exact(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free integer elimination."""
    mat = [r[:] for r in rows]
    m = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, m):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pr = mat[rank]
        p = pr[col]
        for r in range(rank + 1, m):
            mr = mat[r]
            q = mr[col]
            for c in range(col + 1, ncols):
                mr[c] = (p * mr[c] - q * pr[c]) // prev
            mr[col] = 0
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


# -- small shared helpers -----------------------------------------------------


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _tuple_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _close_down(mask: int, seen: set[int]) -> None:
    if mask == 0 or mask in seen:
        return
    seen.add(mask)
    m = mask
    while m:
        low = m & -m
        _close_down(mask ^ low, seen)
        m ^= low


@lru_cache(maxsize=None)
def _independent_masks_cached(n: int, edges: tuple) -> tuple[int, ...]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    out = []
    for mask in range(1 << n):
        ok = True
        m = mask
        while m:
            lo = m & -m
            if adj[lo.bit_length() - 1] & mask:
                ok = False
                break
            m ^= lo
        if ok:
            out.append(mask)
    return tuple(out)


def _independent_masks(g: Graph) -> tuple[int, ...]:
    return _independent_masks_cached(g.n, g.edges)
