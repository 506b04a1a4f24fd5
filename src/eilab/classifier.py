"""The headline equivalence, decided from both sides independently, and
the one per-graph record that every verdict and sweep reads.

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
the first.  So a verdict is fixed by its components' records, and
``_verdicts`` reads it off them.

A record (``_GraphFacts``) holds one graph's facts, each computed at its
first ask and kept in a slot of its own: the subgraph readings,
``reg_star`` at each characteristic, ``nu``, ``nu0``, ``mm`` and the
component shape.  The readings come from one subset walk of the graph
(``regularity_oracle.subgraph_regularity``), read at each characteristic
by ``SubgraphRegularity.at``, which walks again only at a characteristic
that divides the walk's torsion.  ``_record`` takes a graph's record from a
dict keyed by component: a connected graph's record is its own entry, and
a disconnected graph's holds its components' entries.  ``classify`` hands
it a fresh dict; the verify sweep (``harness.verify``) hands it one dict
for the sweep, so that the theorem, the lemma checks and Comp share each
component's walk, ``nu`` and ``nu0``, and a union's verdicts are read off
its two graphs' records with no union built.
"""

from __future__ import annotations

from dataclasses import dataclass

import copy

from . import cameron_walker, graph_core, matchings, regularity_oracle
from .errors import CapExceeded, NotApplicable, NotConnected
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
    return _verdicts(chars, _record(g, {}))


def _verdicts(chars, *records) -> list[ClassificationVerdict]:
    """``classify``'s verdicts on the disjoint union of the graphs of
    ``records`` (``_sides``)."""
    shapes, structural, target, regs = _sides(chars, *records)
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


def _sides(chars, *records):
    """Both sides of the equivalence on the disjoint union of the graphs of
    ``records``, read off their components' records: the shapes, whether
    all are pentagon or Cameron-Walker, the target ``nu + 1`` and each
    characteristic's ``reg_star``.  Both add over the components, ``nu`` in
    the target and ``reg - 1`` in ``union_reg_star``.  A graph with no
    vertex, or past the oracle's cap, is refused before any fact is asked."""
    parts = [part for record in records for _, part in record.components()]
    n = sum(part.graph.n for part in parts)
    if n == 0:
        raise NotApplicable("classification needs at least one vertex")
    regularity_oracle.refuse_past_cap(n)
    measured = [([part.reg(c) for c in chars], part.shape(), part.nu()) for part in parts]
    shapes = tuple(shape for _, shape, _ in measured)
    structural = all(s in ("pentagon", "star", "star-triangle", "bipartite-pendant") for s in shapes)
    target = sum(nu for _, _, nu in measured) + 1
    regs = [(c, regularity_oracle.union_reg_star(r[k] for r, _, _ in measured)) for k, c in enumerate(chars)]
    return shapes, structural, target, regs


# -- the one per-graph record ---------------------------------------------------


class _GraphFacts:
    """One graph's facts, each computed at its first ask and kept, and for a
    disconnected graph its components' records (``_record``).

    The char-0 readings are one walk of the graph; ``at(c)`` shares that
    table with every characteristic that divides none of its torsion.  A
    refusal is kept in place of its fact, so every reader of the fact is
    refused.  Each fact has a slot, ``None`` until its first ask; the
    readings and ``reg_star`` at each characteristic sit in flat tuples
    ``(c, fact, c', fact', ...)``.  ``drop_tables`` drops the readings, so
    a record kept for a union pass is a few words, with no dict."""

    __slots__ = ("graph", "_parts", "_readings", "_regs", "_nu", "_nu0", "_mm", "_shape")

    def __init__(self, g: Graph, parts=None):
        self.graph = g
        self._parts = parts
        self._readings = self._regs = ()
        self._nu = self._nu0 = self._mm = self._shape = None

    def components(self) -> list:
        """Each component's ``(vertex mask, record)``, in component order:
        the record itself for a connected graph."""
        return [(self.graph.full_mask, self)] if self._parts is None else self._parts

    def _fact(self, slot: str, compute, *args):
        """The fact in ``slot``, ``compute(*args)`` at the first ask; a
        kept refusal is raised again as a fresh copy."""
        value = getattr(self, slot)
        if value is None:
            value = _kept(compute, *args)
            setattr(self, slot, value)
        if isinstance(value, CapExceeded):
            raise copy.copy(value)
        return value

    def _at(self, slot: str, c: int, compute):
        """The fact at ``c`` in the flat tuple ``slot``, as ``_fact``."""
        pairs = getattr(self, slot)
        keys = pairs[::2]
        if c in keys:
            value = pairs[2 * keys.index(c) + 1]
        else:
            value = _kept(compute)
            setattr(self, slot, getattr(self, slot) + (c, value))  # compute may have added a pair
        if isinstance(value, CapExceeded):
            raise copy.copy(value)
        return value

    def readings(self, c: int) -> regularity_oracle.SubgraphRegularity:
        walk = regularity_oracle.subgraph_regularity
        return self._at("_readings", c, lambda: self.readings(0).at(FieldSpec(c)) if c else walk(self.graph))

    def reg(self, c: int) -> int:
        return self._at("_regs", c, lambda: self.readings(c).whole())

    def nu(self) -> int:
        return self._fact("_nu", matchings.nu, self.graph)

    def nu0(self) -> int:
        return self._fact("_nu0", matchings.nu0, self.graph)

    def mm(self) -> int:
        return self._fact("_mm", matchings.mm, self.graph)

    def shape(self) -> str:
        return self._fact("_shape", component_shape, self.graph)

    def drop_tables(self) -> None:
        """Drop the readings, and the components' readings, keeping the
        other facts: for a record kept past its graph's turn."""
        self._readings = ()
        for _, part in self._parts or ():
            part.drop_tables()


def _kept(compute, *args):
    """``compute(*args)``, or the refusal it raises as a copy with no
    traceback or context that could tie it back to a record."""
    try:
        return compute(*args)
    except CapExceeded as exc:
        return copy.copy(exc)


def _record(g: Graph, known: dict) -> _GraphFacts:
    """``g``'s record, from ``known``, a dict from each component to its
    record, where a component's record is made at its first ask: for a
    connected graph its own entry, for any other a new record holding its
    components' entries with their vertex masks."""
    if g.n and g.is_connected():
        record = known.get(g)
        if record is None:
            record = known[g] = _GraphFacts(g)
        return record
    parts = graph_core.components(g)
    return _GraphFacts(g, [(sum(1 << v for v in verts), _record(comp, known)) for verts, comp in parts])
