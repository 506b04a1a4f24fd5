"""Recognition of Cameron-Walker graphs: matching number equal to the
induced matching number.

The structural route decides.  It tests the three connected shapes that
are known to be exactly these graphs (Cameron-Walker, Discrete Math. 2005):

* a star (all edges through one center; a single vertex or edge counts);
* a star triangle (finitely many triangles glued at one common vertex);
* a connected bipartite core on (X, Y) with at least one pendant leaf on
  every vertex of X and any number of pendant triangles hanging off
  vertices of Y.

The recognizer strips pendant triangles first, then treats the remaining
degree-one vertices as leaves -- except vertices anchoring a stripped
triangle, which must stay in the core.  Whatever survives must be a
connected bipartite core satisfying the attachment conditions.  Every test
is polynomial, so recognition has no vertex cap.

The invariant route, ``cw_by_invariants``, is the defining test
``nu == nu0`` by the NP-hard matching searches.  It is only the reference
that the ``CaWa`` lemma sweep and the tests compare the shapes against.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matchings
from .errors import NotConnected
from .graph_core import Graph


@dataclass(frozen=True)
class Star:
    center: int


@dataclass(frozen=True)
class StarTriangle:
    center: int
    triangles: tuple[tuple[int, int], ...]  # the two non-center vertices of each


@dataclass(frozen=True)
class BipartitePendant:
    side_x: tuple[int, ...]
    side_y: tuple[int, ...]
    core_edges: tuple[tuple[int, int], ...]
    leaf_map: tuple[tuple[int, tuple[int, ...]], ...]  # x -> its leaves
    triangle_map: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]  # y -> triangles


Shape = Star | StarTriangle | BipartitePendant


def cw_by_invariants(g: Graph) -> bool:
    """Defining test: matching number equals induced matching number."""
    return matchings.nu(g) == matchings.nu0(g)


def recognize_structural(g: Graph) -> Shape | None:
    """The shape of a connected graph, or None when it has none of the three."""
    _require_connected(g)
    return _try_star(g) or _try_star_triangle(g) or _try_bipartite_pendant(g)


def validate_decomposition(g: Graph, shape: Shape) -> bool:
    """Re-check a shape from scratch (attachments, bipartiteness, exact
    edge coverage) on a connected, nonempty graph."""
    _require_connected(g)
    if isinstance(shape, Star):
        return 0 <= shape.center < g.n and all(shape.center in e for e in g.edges)
    if isinstance(shape, StarTriangle):
        c = shape.center
        expect = set()
        seen: set[int] = set()
        for a, b in shape.triangles:
            if a in seen or b in seen or c in (a, b):
                return False
            seen.update((a, b))
            expect.update({_e(c, a), _e(c, b), _e(a, b)})
        return expect == set(g.edges) and seen | {c} == set(g.vertices)
    if isinstance(shape, BipartitePendant):
        return _validate_bipartite_pendant(g, shape)
    return False


def _require_connected(g: Graph) -> None:
    if g.n == 0 or not g.is_connected():
        raise NotConnected("structural recognition requires a connected, nonempty graph")


# -- shape tests ---------------------------------------------------------------


def _try_star(g: Graph) -> Star | None:
    if g.num_edges == 0:
        return Star(0) if g.n == 1 else None
    common = g.full_mask
    for u, v in g.edges:
        common &= 1 << u | 1 << v
        if not common:
            return None
    center = (common & -common).bit_length() - 1
    return Star(center)


def _try_star_triangle(g: Graph) -> StarTriangle | None:
    n = g.n
    if n < 3 or n % 2 == 0:
        return None
    for c in range(n):
        if g.degree(c) != n - 1:
            continue
        pairs = []
        rest = g.full_mask & ~(1 << c)
        ok = True
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            others = g.adj_mask(a) & ~(1 << c)
            if others.bit_count() != 1 or others & ~rest:
                ok = False
                break
            b = (others & -others).bit_length() - 1
            pairs.append((a, b))
            rest &= ~(1 << a | 1 << b)
        if ok and g.num_edges == (n - 1) + (n - 1) // 2:
            return StarTriangle(c, tuple(pairs))
    return None


def _try_bipartite_pendant(g: Graph) -> BipartitePendant | None:
    # Strip pendant triangles: both non-anchor vertices have degree two.
    triangle_map: dict[int, list[tuple[int, int]]] = {}
    stripped = 0
    for a, b in g.edges:
        if g.degree(a) != 2 or g.degree(b) != 2 or stripped & (1 << a | 1 << b):
            continue
        common = g.adj_mask(a) & g.adj_mask(b)
        if common:
            anchor = (common & -common).bit_length() - 1
            triangle_map.setdefault(anchor, []).append((a, b))
            stripped |= 1 << a | 1 << b

    remaining = [v for v in range(g.n) if not stripped >> v & 1]
    deg = {
        v: sum(1 for u in g.neighbors(v) if not stripped >> u & 1) for v in remaining
    }
    anchors_t = set(triangle_map)
    leaves = [v for v in remaining if deg[v] == 1 and v not in anchors_t]
    leaf_set = set(leaves)
    core = [v for v in remaining if v not in leaf_set]
    if not core:
        return None

    leaf_map: dict[int, list[int]] = {}
    for leaf in leaves:
        anchor = next(u for u in g.neighbors(leaf) if not stripped >> u & 1)
        if anchor in leaf_set:
            return None
        leaf_map.setdefault(anchor, []).append(leaf)

    sides = _bipartition(g, core)
    if sides is None:
        return None
    side_a, side_b = sides

    core_set = set(core)
    for x_side, y_side in ((side_a, side_b), (side_b, side_a)):
        if set(leaf_map) <= set(x_side) and anchors_t <= set(y_side) and all(
            x in leaf_map for x in x_side
        ):
            core_edges = tuple(
                (u, v) for u, v in g.edges if u in core_set and v in core_set
            )
            return BipartitePendant(
                side_x=tuple(sorted(x_side)),
                side_y=tuple(sorted(y_side)),
                core_edges=core_edges,
                leaf_map=tuple(
                    (x, tuple(sorted(leaf_map[x]))) for x in sorted(leaf_map)
                ),
                triangle_map=tuple(
                    (y, tuple(sorted(triangle_map[y]))) for y in sorted(triangle_map)
                ),
            )
    return None


def _bipartition(g: Graph, core: list[int]) -> tuple[list[int], list[int]] | None:
    """Two-color the (required connected) induced core; None if impossible.

    The side containing the smallest core vertex comes first, which makes
    the (X, Y) orientation tie-break deterministic.
    """
    core_set = set(core)
    color: dict[int, int] = {}
    start = min(core)
    color[start] = 0
    queue = [start]
    while queue:
        v = queue.pop()
        for u in g.neighbors(v):
            if u not in core_set:
                continue
            if u not in color:
                color[u] = color[v] ^ 1
                queue.append(u)
            elif color[u] == color[v]:
                return None
    if len(color) != len(core_set):
        return None  # disconnected core
    side0 = [v for v in core if color[v] == 0]
    side1 = [v for v in core if color[v] == 1]
    return side0, side1


def _validate_bipartite_pendant(g: Graph, shape: BipartitePendant) -> bool:
    x_set, y_set = set(shape.side_x), set(shape.side_y)
    if x_set & y_set:
        return False
    expect = set()
    claimed: set[int] = set(x_set | y_set)
    for u, v in shape.core_edges:
        if not ((u in x_set) ^ (u in y_set)) or not ((v in x_set) ^ (v in y_set)):
            return False
        if (u in x_set) == (v in x_set):
            return False
        expect.add(_e(u, v))
    leaf_map = dict(shape.leaf_map)
    if set(leaf_map) != x_set or any(not leaves for leaves in leaf_map.values()):
        return False
    for x, leaves in leaf_map.items():
        for leaf in leaves:
            if leaf in claimed or leaf not in g.vertices or g.degree(leaf) != 1:
                return False
            claimed.add(leaf)
            expect.add(_e(x, leaf))
    for y, triangles in shape.triangle_map:
        if y not in y_set:
            return False
        for a, b in triangles:
            if any(u in claimed or u not in g.vertices or g.degree(u) != 2 for u in (a, b)):
                return False
            claimed.update((a, b))
            expect.update({_e(y, a), _e(y, b), _e(a, b)})
    return expect == set(g.edges) and claimed == set(g.vertices)


def _e(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)
