"""The headline equivalence, decided from both sides independently.

For any graph, the regularity of its edge ideal reaches the upper bound
``matching number + 1`` exactly when every connected component is either a
pentagon or a Cameron-Walker graph (equal matching and induced matching
numbers).  ``classify`` evaluates the structural side and the numeric side
separately and reports both; a disagreement is surfaced as-is, never
reconciled.  The structural side is the pentagon test and the polynomial
shape tests of ``cameron_walker``: no homology, no matching search and no
vertex cap.  The numeric side compares the homological oracle with the
matching number, both summed over the components: ``reg - 1`` and ``nu``
add over them, and the oracle's ``union_reg_star`` is the one statement of
the first.  So a verdict is fixed by its components' records, and the code
says so in two steps: ``_parts`` measures each component's shape, matching
number and ``reg_star`` at each characteristic, and ``_verdicts`` reads the
verdicts off a list of such records.  ``classify`` is the two in turn.  A
sweep keeps each input graph's records and reads the verdicts of a union
of two inputs off their records joined, with no union graph built; it
hands ``_parts`` one dict for all its inputs, so a component met again is
measured once.  The regularities come from one subset walk of the
component (``regularity_oracle.subgraph_regularity``), read at each
characteristic by ``SubgraphRegularity.at``, which walks again only at a
characteristic that divides the walk's torsion.
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
    return _verdicts(_parts(g, chars, {}), chars)


def _parts(g: Graph, chars, measured: dict) -> list[tuple[str, int, dict[int, int]]]:
    """Each component's ``(shape, nu, regs)``, in component order, where
    ``regs`` maps each characteristic of ``chars`` to its ``reg_star``.
    Each is taken from ``measured``, keyed by the component, or measured
    and recorded there; a connected graph is its own component, so a
    sweep's dict is keyed by its input graphs."""
    if g.n == 0:
        raise NotApplicable("classification needs at least one vertex")
    regularity_oracle.refuse_past_cap(g)
    parts = []
    for _, comp in graph_core.components(g):
        if comp not in measured:
            sub = regularity_oracle.subgraph_regularity(comp)
            regs = {c: sub.at(FieldSpec(c)).whole() for c in dict.fromkeys(chars)}
            measured[comp] = (component_shape(comp), matchings.nu(comp), regs)
        parts.append(measured[comp])
    return parts


def _verdicts(parts, chars) -> list[ClassificationVerdict]:
    """The verdicts of a graph whose components have the given ``(shape,
    nu, regs)``: both sides of the equivalence add over the components,
    ``nu`` in the target and ``reg - 1`` in ``union_reg_star``."""
    shapes = tuple(shape for shape, _, _ in parts)
    structural = all(s in ("pentagon", "star", "star-triangle", "bipartite-pendant") for s in shapes)
    target = sum(nu for _, nu, _ in parts) + 1
    regs = [(c, regularity_oracle.union_reg_star(r[c] for _, _, r in parts)) for c in chars]
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
