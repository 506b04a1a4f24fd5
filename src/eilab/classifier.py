"""The headline equivalence, decided from both sides independently.

For any graph, the regularity of its edge ideal reaches the upper bound
``matching number + 1`` exactly when every connected component is either a
pentagon or a Cameron-Walker graph (equal matching and induced matching
numbers).  ``classify`` evaluates the structural side and the numeric side
separately and reports both; a disagreement is surfaced as-is, never
reconciled.  The structural side is the pentagon test and the polynomial
shape tests of ``cameron_walker``: no homology, no matching search and no
vertex cap.  The numeric side compares the homological oracle with the
matching number, summed over the components.  The field-free part
(shape and matching number of each component) is evaluated once per
distinct component of a graph, or of a whole sweep when the sweep hands
``_classify`` one dict for all its graphs, and ``regularity`` once per
characteristic; the oracle walks a graph again only at a characteristic
that divides its torsion.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cameron_walker, graph_core, matchings, regularity_oracle
from .errors import NotApplicable, NotConnected
from .graph_core import Graph, _bits
from .regularity_oracle import FieldSpec


@dataclass(frozen=True)
class ClassificationVerdict:
    structural: bool
    numeric: bool
    characteristic: int
    component_shapes: tuple[str, ...]
    agreement: bool
    reg_star: int  # the oracle's value that ``numeric`` compared


def pentagon_test(g: Graph) -> bool:
    """True exactly for the 5-cycle: 5 vertices, 5 edges, 2-regular."""
    if g.n == 0 or not g.is_connected():
        raise NotConnected("pentagon test requires a connected, nonempty graph")
    return g.n == 5 and g.num_edges == 5 and all(g.degree(v) == 2 for v in range(5))


def contains_c5_subgraph(g: Graph) -> bool:
    """Whether some five vertices carry a 5-cycle (chords allowed): a path
    a-b-c-d closed by a common neighbour of a and d other than b and c.
    Polynomial in the vertex count, so it has no cap."""
    adj = [g.adj_mask(v) for v in range(g.n)]
    for a in range(g.n):
        two_away = 0  # vertices sharing a neighbour with a
        for e in _bits(adj[a]):
            two_away |= adj[e]
        for b in _bits(adj[a]):
            for c in _bits(adj[b] & ~(1 << a)):
                for d in _bits(adj[c] & two_away & ~(1 << a | 1 << b)):
                    if adj[a] & adj[d] & ~(1 << b | 1 << c):
                        return True
    return False


def component_shape(comp: Graph) -> str:
    """Shape tag for one connected component."""
    if pentagon_test(comp):
        return "pentagon"
    shape = cameron_walker.recognize_structural(comp)
    if shape is None:
        return "not-cw"
    return {
        cameron_walker.Star: "star",
        cameron_walker.StarTriangle: "star-triangle",
        cameron_walker.BipartitePendant: "bipartite-pendant",
    }[type(shape)]


def classify(g: Graph, chars=(0,)) -> list[ClassificationVerdict]:
    """Evaluate both sides of the equivalence on one graph: one verdict per
    characteristic in ``chars``, in the order given, duplicates kept."""
    return _classify(g, chars, {})


def _classify(g: Graph, chars, facts: dict) -> list[ClassificationVerdict]:
    """``classify``, taking each component's ``(shape, nu)`` from
    ``facts`` and recording there those it computes.  A sweep passes one
    dict for all its graphs, so a component met again, as each corpus graph
    is inside its unions, is measured once."""
    if g.n == 0:
        raise NotApplicable("classification needs at least one vertex")
    regs = [(c, regularity_oracle.regularity(g, FieldSpec(c)).reg_star) for c in chars]
    parts = []
    for _, comp in graph_core.components(g):
        if comp not in facts:
            facts[comp] = (component_shape(comp), matchings.nu(comp))
        parts.append(facts[comp])
    shapes = tuple(shape for shape, _ in parts)
    structural = all(s in ("pentagon", "star", "star-triangle", "bipartite-pendant") for s in shapes)
    target = sum(nu for _, nu in parts) + 1  # nu adds over components
    return [
        ClassificationVerdict(
            structural=structural,
            numeric=reg == target,
            characteristic=c,
            component_shapes=shapes,
            agreement=structural == (reg == target),
            reg_star=reg,
        )
        for c, reg in regs
    ]
