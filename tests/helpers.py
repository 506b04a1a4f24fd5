"""Shared graph builders and independent brute-force oracles.

Everything here but the last four sections is deliberately written
against the most naive definitions (subset enumeration, every vertex
order, dense Fraction elimination) with no code shared with the package
internals, so the tests exercise genuinely separate routes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from dataclasses import dataclass
from itertools import combinations, permutations

from eilab import classifier, graph_core, unions
from eilab.errors import CapExceeded
from eilab.formats_io import encode_graph6
from eilab.graph_core import Graph, _bits
from eilab.homology import homology_from_masks
from eilab.regularity_oracle import FieldSpec, _fill, _independent_masks


# -- builders -----------------------------------------------------------------


def cycle(k: int) -> Graph:
    return graph_core.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def path(k: int) -> Graph:
    return graph_core.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def complete(k: int) -> Graph:
    return graph_core.from_edges(k, list(combinations(range(k), 2)))


def star(leaves: int) -> Graph:
    return graph_core.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def edgeless(k: int) -> Graph:
    return graph_core.from_edges(k, [])


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Rebuild ``g`` with vertex ``v`` renamed to ``perm[v]``."""
    return graph_core.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def star_triangle(k: int) -> Graph:
    """``k`` triangles glued at vertex 0."""
    edges = []
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return graph_core.from_edges(2 * k + 1, edges)


def bipartite_pendant(rng: random.Random, n: int) -> Graph:
    """A seeded connected bipartite core on (X, Y), at least one leaf on
    every x and pendant triangles on some y's, with ``n`` vertices in all
    (``n >= 3``), randomly relabelled."""
    while True:  # |X| = a, |Y| = b, t triangles, the rest leaves (at least a)
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        if 2 * a + b <= n:
            break
    t = rng.randint(0, (n - 2 * a - b) // 2)
    leaves = n - a - b - 2 * t
    xs, ys = list(range(a)), list(range(a, a + b))
    edges = {(0, a)}  # a random spanning tree of the core, grown from x0-y0 ...
    placed_x, placed_y = [0], [a]
    rest = xs[1:] + ys[1:]
    rng.shuffle(rest)
    for u in rest:
        if u < a:
            edges.add((u, rng.choice(placed_y)))
            placed_x.append(u)
        else:
            edges.add((rng.choice(placed_x), u))
            placed_y.append(u)
    edges |= {(x, y) for x in xs for y in ys if rng.random() < 0.3}  # ... plus extra edges
    v = a + b
    for i in range(leaves):
        edges.add((xs[i] if i < a else rng.choice(xs), v))
        v += 1
    for _ in range(t):
        y = rng.choice(ys)
        edges |= {(y, v), (y, v + 1), (v, v + 1)}
        v += 2
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(graph_core.from_edges(n, sorted(edges)), perm)


def add_one_edge(rng: random.Random, g: Graph) -> Graph:
    """``g`` plus one seeded non-edge (``g`` must not be complete)."""
    missing = [e for e in combinations(range(g.n), 2) if not g.has_edge(*e)]
    return graph_core.from_edges(g.n, list(g.edges) + [rng.choice(missing)])


def subdivide_one_edge(rng: random.Random, g: Graph) -> Graph:
    """``g`` with one seeded edge replaced by a path through a new vertex."""
    u, v = rng.choice(g.edges)
    rest = [e for e in g.edges if e != (u, v)]
    return graph_core.from_edges(g.n + 1, rest + [(u, g.n), (v, g.n)])


# -- brute-force canonical labelling --------------------------------------------


def column_string(g: Graph, order=None) -> tuple[int, ...]:
    """The upper-triangle bits of ``g`` with its vertices taken in ``order``
    (the identity by default), column by column: x(0,1), x(0,2), x(1,2),
    x(0,3), ..., as graph6 orders them."""
    order = range(g.n) if order is None else order
    return tuple(int(g.has_edge(order[i], order[j])) for j in range(g.n) for i in range(j))


def brute_canonical_form(g: Graph) -> tuple[int, ...]:
    """The lexicographically least column string of ``g`` over all ``n!``
    vertex orders.  A column string determines its labelled graph, so two
    graphs are isomorphic exactly when these are equal."""
    adj = [[int(g.has_edge(u, v)) for v in range(g.n)] for u in range(g.n)]
    pairs = [(i, j) for j in range(g.n) for i in range(j)]
    return min(tuple(adj[p[i]][p[j]] for i, j in pairs) for p in permutations(range(g.n)))


# -- brute-force matching oracles ----------------------------------------------


def _is_matching(edges) -> bool:
    used = set()
    for u, v in edges:
        if u in used or v in used:
            return False
        used.update((u, v))
    return True


def brute_nu(g: Graph) -> int:
    best = 0
    for r in range(len(g.edges), 0, -1):
        for sub in combinations(g.edges, r):
            if _is_matching(sub):
                return r
    return best


def brute_nu0(g: Graph) -> int:
    best = 0
    for r in range(1, len(g.edges) + 1):
        for sub in combinations(g.edges, r):
            if not _is_matching(sub):
                continue
            span = {v for e in sub for v in e}
            extra = [
                e for e in g.edges if e not in sub and e[0] in span and e[1] in span
            ]
            if not extra:
                best = r
    return best


def brute_mm(g: Graph) -> int:
    best = None
    for r in range(0, len(g.edges) + 1):
        for sub in combinations(g.edges, r):
            if not _is_matching(sub):
                continue
            span = {v for e in sub for v in e}
            if all(u in span or v in span for u, v in g.edges):
                return r
    return best


def brute_contains_c5(g: Graph) -> bool:
    """Some five vertices carry a 5-cycle: every 5-subset, in every cyclic
    order starting at its smallest vertex."""
    for sub in combinations(range(g.n), 5):
        for perm in permutations(sub[1:]):
            cycle = (sub[0],) + perm
            if all(g.has_edge(cycle[i], cycle[(i + 1) % 5]) for i in range(5)):
                return True
    return False


def brute_middle_edges(g: Graph) -> list[tuple[int, int]]:
    """Edges, in edge order, that are the middle edge p1p2 of some path
    p0-p1-p2-p3 on four distinct vertices."""
    middle = {
        tuple(sorted(p[1:3]))
        for p in permutations(range(g.n), 4)
        if all(g.has_edge(p[i], p[i + 1]) for i in range(3))
    }
    return [e for e in g.edges if e in middle]


# -- brute-force chordality oracle ----------------------------------------------


def brute_has_chordless_cycle(g: Graph) -> bool:
    """Any vertex subset inducing a cycle of length >= 4?"""
    for k in range(4, g.n + 1):
        for sub in combinations(range(g.n), k):
            degs = [sum(1 for u in sub if u != v and g.has_edge(u, v)) for v in sub]
            if any(d != 2 for d in degs):
                continue
            # 2-regular induced subgraph; connected means a single cycle
            seen = {sub[0]}
            frontier = [sub[0]]
            while frontier:
                v = frontier.pop()
                for u in sub:
                    if u not in seen and g.has_edge(u, v):
                        seen.add(u)
                        frontier.append(u)
            if len(seen) == k:
                return True
    return False


def lex_bfs_order(adj: list[int], alive: int) -> list[int]:
    """Lexicographic BFS over the vertices of the mask ``alive``.

    A vertex's label lists the visit steps of its visited neighbours,
    counted down from the vertex count so that earlier visits weigh more;
    the largest label goes next (a label beats its own prefixes), the
    lowest index among equal labels.
    """
    verts = [v for v in range(len(adj)) if alive >> v & 1]
    label: dict[int, list[int]] = {v: [] for v in verts}
    order: list[int] = []
    while len(order) < len(verts):
        v = max((u for u in verts if u not in order), key=lambda u: (label[u], -u))
        order.append(v)
        for u in verts:
            if u not in order and adj[v] >> u & 1:
                label[u].append(len(verts) - len(order))
    return order


@lru_cache(maxsize=1 << 17)
def _chordal_on(adj: tuple[int, ...], alive: int) -> bool:
    """Chordality of the graph induced on the mask ``alive``, by deleting
    simplicial vertices (neighbourhood a clique) until none is left.

    ``adj`` must already be restricted to ``alive``, so that equal induced
    graphs share one cache entry: the cover search below asks about the
    same few small graphs many times over.
    """
    left = [v for v in range(len(adj)) if alive >> v & 1]
    while left:
        for v in left:
            nb = adj[v] & alive
            if all(nb & ~adj[u] & ~(1 << u) == 0 for u in left if nb >> u & 1):
                alive &= ~(1 << v)
                left.remove(v)
                break
        else:
            return False
    return True


def _chordal_induced(adj: list[int], alive: int) -> bool:
    return _chordal_on(tuple(a & alive for a in adj), alive)


def _peeled_cycle(adj: list[int], alive: int) -> int:
    """Vertex mask of a chordless cycle of the non-chordal graph on ``alive``:
    drop, in ascending order, each vertex whose removal keeps it non-chordal."""
    for v in range(len(adj)):
        if alive >> v & 1 and not _chordal_induced(adj, alive & ~(1 << v)):
            alive &= ~(1 << v)
    return alive


def reference_cochord_parts(g: Graph, cap: int = 4):
    """The first co-chordal edge cover found by the same search order as
    ``chordality.cochord_number``, with its pruning cycles taken from a
    vertex peel, or None past ``cap`` parts.

    Edges go in sorted order to the lowest-index part or the first empty
    one, for k = 1, 2, ... parts.  A failing part is dropped when no later
    edge has both ends on a chordless cycle of its complement.  Pruning
    only cuts branches that cannot succeed, whatever cycle it reads, so
    the first cover found does not depend on how the cycle is chosen.
    """
    edges = list(g.edges)
    m = len(edges)
    complements: dict[int, tuple[list[int], int] | None] = {}
    cycles: dict[int, int] = {}

    def failing(part: int) -> tuple[list[int], int] | None:
        """The complement of a part that is not co-chordal, with its support."""
        if part not in complements:
            adj = [0] * g.n
            for i in range(m):
                if part >> i & 1:
                    u, v = edges[i]
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            support = sum(1 << v for v in range(g.n) if adj[v])
            co_adj = [support & ~a & ~(1 << v) for v, a in enumerate(adj)]
            complements[part] = None if _chordal_induced(co_adj, support) else (co_adj, support)
        return complements[part]

    def fixable(part: int, idx: int) -> bool:
        co_adj, support = complements[part]
        later = [(u, v) for u, v in edges[idx + 1:] if support >> u & 1 and support >> v & 1]
        if not later:  # no later edge touches any cycle of this complement twice
            return False
        if part not in cycles:
            cycles[part] = _peeled_cycle(co_adj, support)
        cyc = cycles[part]
        return any(cyc >> u & 1 and cyc >> v & 1 for u, v in later)

    for k in range(1, cap + 1):
        parts = [0] * k

        def assign(idx: int, used: int) -> bool:
            if idx == m:
                return all(p == 0 or failing(p) is None for p in parts)
            for p in range(min(used + 1, k)):
                parts[p] |= 1 << idx
                if failing(parts[p]) is None or fixable(parts[p], idx):
                    if assign(idx + 1, max(used, p + 1)):
                        return True
                parts[p] &= ~(1 << idx)
            return False

        if assign(0, 0):
            return tuple(
                tuple(edges[i] for i in range(m) if p >> i & 1) for p in parts if p
            )
    return None


def sparse_random_graphs() -> list[Graph]:
    """40 seeded random graphs on 8 to 10 vertices with between n and 2n edges."""
    rng = random.Random(8)
    out = []
    for _ in range(40):
        n = rng.randint(8, 10)
        m = rng.randint(n, 2 * n)
        out.append(graph_core.from_edges(n, rng.sample(list(combinations(range(n), 2)), m)))
    return out


# -- independent homology oracle -------------------------------------------------


def seeded_matrices() -> list[tuple[int, list[dict[int, int]]]]:
    """600 seeded integer matrices of at most 6 x 6, each as its row count
    and its sparse columns ``{row: value}``: 300 with units among their
    entries and 300 with none."""
    rng = random.Random(31)
    out = []
    for entries in [(-3, -2, -1, 1, 2, 3)] * 300 + [(-6, -4, -3, -2, 2, 3, 4, 5, 6, 10)] * 300:
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
        out.append((n_rows, [
            {r: rng.choice(entries) for r in range(n_rows) if rng.random() < 0.5}
            for _ in range(n_cols)
        ]))
    return out


def brute_rank(mat: list[list[int]], char: int) -> int:
    """Rank of an integer matrix over Q (Fraction) or GF(char), dense."""
    if not mat or not mat[0]:
        return 0
    if char == 0:
        m = [[Fraction(x) for x in row] for row in mat]
    else:
        m = [[x % char for x in row] for row in mat]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        if char == 0:
            inv = 1 / m[r][c]
        else:
            inv = pow(m[r][c], char - 2, char)
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] * inv
                for cc in range(c, len(m[0])):
                    m[i][cc] -= f * m[r][cc]
                    if char:
                        m[i][cc] %= char
        r += 1
    return r


def brute_homology(facets: list[tuple[int, ...]], char: int) -> dict[int, int]:
    """Reduced homology dims by dense elimination over Fraction or GF(p)."""
    faces: set[tuple[int, ...]] = set()

    def close(f: tuple[int, ...]):
        if f in faces or not f:
            return
        faces.add(f)
        for i in range(len(f)):
            close(f[:i] + f[i + 1:])

    for f in facets:
        close(tuple(sorted(f)))
    if not faces:
        return {-1: 1}
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for lst in by_dim.values():
        lst.sort()
    maxdim = max(by_dim)

    def boundary_matrix(d: int):
        rows = by_dim.get(d - 1, [])
        cols = by_dim.get(d, [])
        idx = {f: i for i, f in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for j, f in enumerate(cols):
            for pos in range(len(f)):
                mat[idx[f[:pos] + f[pos + 1:]]][j] = (-1) ** pos
        return mat

    ranks = {0: 1 if by_dim.get(0) else 0}
    for d in range(1, maxdim + 1):
        ranks[d] = brute_rank(boundary_matrix(d), char)
    dims = {-1: 0}
    for t in range(maxdim + 1):
        dims[t] = len(by_dim.get(t, [])) - ranks.get(t, 0) - ranks.get(t + 1, 0)
    return dims


def brute_betti(g: Graph, char: int) -> dict[tuple[int, int], int]:
    """Graded Betti numbers of ``R/I(G)`` by Hochster's formula.

    ``beta_{i,j}`` sums ``dim H_{j-i-1}`` of the independence complex of
    ``G[W]`` over every ``W`` of size ``j``, cones and the empty set
    included; each complex is handed to ``brute_homology`` as the list of
    all its faces.
    """
    betti: dict[tuple[int, int], int] = {}
    for size in range(g.n + 1):
        for w in combinations(range(g.n), size):
            for t, d in brute_homology(_independent_faces(g, w), char).items():
                if d:
                    key = (size - t - 1, size)
                    betti[key] = betti.get(key, 0) + d
    return betti


def brute_witness(g: Graph, char: int) -> tuple[tuple[int, ...], int] | None:
    """The regularity witness ``(W, t)`` by its definition: the smallest
    ``(-t, |W|, W)`` over every nonempty ``W`` with ``dim H_t`` of the
    independence complex of ``G[W]`` nonzero, by ``brute_homology``."""
    best = None
    for size in range(1, g.n + 1):
        for w in combinations(range(g.n), size):
            for t, d in brute_homology(_independent_faces(g, w), char).items():
                if d and (best is None or (-t, size, w) < best):
                    best = (-t, size, w)
    return None if best is None else (best[2], -best[0])


def _independent_faces(g: Graph, w: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every nonempty independent subset of ``w``."""
    return [
        f
        for k in range(1, len(w) + 1)
        for f in combinations(w, k)
        if not any(g.has_edge(u, v) for u, v in combinations(f, 2))
    ]


# -- a flag triangulation of the real projective plane ---------------------------

# The six-vertex real projective plane (the hemi-icosahedron).  Its
# 1-skeleton is the complete graph, so ten of its vertex triples span
# empty triangles.
RP2_SIX = (
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
)


def _empty_triangle(n: int, triangles: set) -> tuple[int, int, int] | None:
    edges = {e for t in triangles for e in combinations(t, 2)}
    for t in combinations(range(n), 3):
        if t not in triangles and all(e in edges for e in combinations(t, 2)):
            return t
    return None


def _subdivide_edge(n: int, triangles: set, a: int, b: int) -> set:
    """Put new vertex ``n`` in the middle of edge ``ab``."""
    out = set()
    for t in triangles:
        if a in t and b in t:
            (c,) = set(t) - {a, b}
            out.add(tuple(sorted((a, c, n))))
            out.add(tuple(sorted((b, c, n))))
        else:
            out.add(t)
    return out


def flag_rp2() -> tuple[int, list[tuple[int, int, int]]]:
    """A flag triangulation of the real projective plane.

    Starting from ``RP2_SIX``, an edge of the first empty triangle is
    subdivided, depth first with backtracking, until no empty triangle is
    left.  Edge subdivision keeps the surface, so the result is still the
    projective plane.  Returns the vertex count and the sorted triangles.
    """
    max_vertices = 12  # the search finds nothing within 11

    def search(n: int, triangles: set):
        t = _empty_triangle(n, triangles)
        if t is None:
            return n, sorted(triangles)
        if n == max_vertices:
            return None
        for a, b in combinations(t, 2):
            found = search(n + 1, _subdivide_edge(n, triangles, a, b))
            if found is not None:
                return found
        return None

    found = search(6, set(RP2_SIX))
    if found is None:
        raise ValueError("no flag subdivision within the vertex bound")
    return found


def flag_rp2_complement() -> Graph:
    """The graph whose independence complex is the flag projective plane of
    ``flag_rp2``: the complement of its 1-skeleton."""
    n, triangles = flag_rp2()
    edges = {e for t in triangles for e in combinations(t, 2)}
    return graph_core.from_edges(n, [e for e in combinations(range(n), 2) if e not in edges])


# -- per-subset path through the package's homology kernel ------------------------
#
# The slow reference for the oracle's subset table: the independence complex
# of one graph, built from its facets, with its homology taken by the
# package's ``homology_from_masks`` (so this checks the table, not the rank
# code; ``brute_rank`` covers that).


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
            out.setdefault(d, []).append(tuple(_bits(m)))
        for d in out:
            out[d].sort()
        return out


def rp2_minus_vertex_and_edge() -> Graph:
    """The flag RP^2 graph without vertex 11 and edge (9, 10): 11 vertices,
    25 edges, still characteristic-dependent."""
    rp2 = flag_rp2_complement()
    return graph_core.from_edges(11, [e for e in rp2.edges if 11 not in e and e != (9, 10)])


def independence_complex(g: Graph) -> SimplicialComplex:
    """The complex whose faces are the independent vertex sets of ``g``."""
    adj = [g.adj_mask(v) for v in range(g.n)]
    facets = [
        tuple(_bits(mask))
        for mask in _independent_masks(adj, g.full_mask)
        if all(adj[v] & mask for v in _bits(g.full_mask & ~mask))
    ]
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
    dims, _ = homology_from_masks(by_dim, field.characteristic)
    out = {-1: 0}
    for t, d in enumerate(dims):
        out[t] = d
    return out


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _close_down(mask: int, seen: set[int]) -> None:
    if mask == 0 or mask in seen:
        return
    seen.add(mask)
    m = mask
    while m:
        low = m & -m
        _close_down(mask ^ low, seen)
        m ^= low


# -- the enumeration with every candidate keyed -----------------------------------
#
# The slow reference for ``harness._connected_levels``: the same vertex
# augmentation with no filter before the key.


def keyed_levels(max_n: int) -> list[tuple[Graph, ...]]:
    """The connected graphs on 1, 2, ..., ``max_n`` vertices, one level per
    vertex count.  Every graph of a level, attached by a new vertex to every
    nonempty subset of its vertices, is labelled by ``canonical_form``; the
    distinct forms make the level, sorted by graph6 string."""
    levels = [(graph_core.from_edges(1, []),)]
    for n in range(2, max_n + 1):
        seen: set[Graph] = set()
        for g in levels[-1]:
            for attach in range(1, 1 << (n - 1)):
                new_edges = [(v, n - 1) for v in range(n - 1) if attach >> v & 1]
                seen.add(graph_core.canonical_form(graph_core.from_edges(n, list(g.edges) + new_edges)))
        levels.append(tuple(sorted(seen, key=encode_graph6)))
    return levels


# -- a union's verdicts two ways, and a sweep's report by the plainest loop ------------


def pair_verdicts(graphs, total_cap: int, chars=(0, 2, 3)):
    """For each union of ``unions.union_index_pairs``, the verdicts read off
    its two graphs' records, made from one dict as the sweep makes them
    (``classifier._record``), and ``classify``'s on the union built."""
    known: dict = {}
    records = [classifier._record(g, known) for g in graphs]
    for i, j in unions.union_index_pairs(graphs, total_cap):
        union = graph_core.disjoint_union(graphs[i], graphs[j])
        yield classifier._verdicts(chars, records[i], records[j]), classifier.classify(union, chars)


def reference_report(check, graphs, chars):
    """``(checked, violations, skips)`` of ``check(g, chars)`` run on each
    graph in turn, with nothing shared between graphs: each detail string
    a violation and each ``CapExceeded`` a skip, named by graph6 and
    sorted, as a sweep's report is."""
    violations, skips = [], []
    for g in graphs:
        try:
            violations += [(encode_graph6(g), detail) for detail in check(g, chars)]
        except CapExceeded:
            skips.append(encode_graph6(g))
    return len(graphs), tuple(sorted(violations)), tuple(sorted(skips))


# -- the subset walk over every subset ------------------------------------------------
#
# The reference for ``regularity_oracle._walk_table``, which hands the kernel
# only the subsets with no isolated vertex: the same kernel over every
# nonempty subset, which writes each cone's 0 by its own test.


def all_subsets_walk(g: Graph, char: int) -> tuple[list[int], set[int]]:
    """The packed subset table of ``g`` at ``char`` and its torsion, from
    ``regularity_oracle._fill`` over every nonempty subset, ascending."""
    table = [0] * (1 << g.n)
    table[0] = 1  # the empty complex: dim 1 in degree -1
    torsion = _fill([g.adj_mask(v) for v in range(g.n)], range(1, 1 << g.n), table, char)
    return table, torsion
