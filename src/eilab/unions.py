"""Two-component unions of a sweep's input graphs, read off their parts.

A sweep over a corpus also checks each disjoint union of two of its
graphs.  Such a union is a pair of indices into the corpus, ``(i, j)``
with ``i <= j`` (``union_index_pairs``), and is built only where a check
walks it or a report names it (``Inputs.graph``).  Each input graph gets
one record for the sweep, made at its first ask and kept
(``Inputs.records``); a refusal is kept in its place (``kept``), so every
union holding a refused graph is refused too.

Both sides of the paper's equivalence add over the components, so the
theorem sweep reads a union's verdicts off its two graphs' parts joined
(``theorem_verdicts``) and builds no union.  Comp checks that additivity
itself, so it walks each union; the components' vertex masks, ``nu`` and
``nu0`` come from its two graphs' records (``split``), so no union is
split.

This code is kept out of ``harness``, the package's largest module: a
process that imports the package from source compiles each module whole,
and the compile of the largest sets the memory high-water mark of a short
run.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from itertools import islice

from . import classifier, formats_io, graph_core, matchings
from .errors import CapExceeded, TooLarge
from .graph_core import Graph
from .regularity_oracle import ORACLE_VERTEX_CAP


def union_index_pairs(graphs, total_cap: int = 9):
    """The two-component disjoint unions of ``graphs`` (unordered, repeats
    allowed) with at most ``total_cap`` vertices, as an iterator of index
    pairs ``(i, j)`` with ``i <= j``, in order.  A cap past the graph6
    vertex limit is refused at the call: a sweep names each graph by its
    graph6 string."""
    if total_cap > formats_io.MAX_VERTICES:
        raise TooLarge(f"unions cap at {formats_io.MAX_VERTICES} vertices, got {total_cap}")
    sizes = [g.n for g in graphs]
    # limit -> the indices, ascending, of the graphs with at most that many vertices
    fits = {limit: [j for j, n in enumerate(sizes) if n <= limit] for limit in {total_cap - n for n in sizes}}
    return (
        (i, j)
        for i, n in enumerate(sizes)
        for j in islice(fits[total_cap - n], bisect_left(fits[total_cap - n], i), None)
    )


def kept(known: dict, key, compute):
    """``known[key]``, computed by ``compute()`` at the first ask and kept.
    A refusal is kept in place of its value, as a copy with no traceback or
    context that could tie it back to ``known``, and raised again, as a
    fresh copy, at every ask."""
    if key not in known:
        try:
            known[key] = compute()
        except CapExceeded as exc:
            known[key] = copy.copy(exc)
    value = known[key]
    if isinstance(value, CapExceeded):
        raise copy.copy(value)
    return value


class Inputs:
    """A union sweep's input graphs, each with one record kept for the
    sweep.  An item is a tuple of indices into ``graphs``: ``(i,)`` for a
    graph itself, ``(i, j)`` for the union of two.  ``graph(item)`` builds
    the item's graph.  ``records(item)`` gives each index's record, made by
    ``measure(graph)`` at its first ask."""

    __slots__ = ("graphs", "_measure", "_records")

    def __init__(self, graphs, measure):
        self.graphs = graphs
        self._measure = measure
        self._records: dict = {}

    def graph(self, item) -> Graph:
        first, *rest = item
        g = self.graphs[first]
        for k in rest:
            g = graph_core.disjoint_union(g, self.graphs[k])
        return g

    def records(self, item) -> list:
        return [kept(self._records, k, lambda: self._measure(self.graphs[k])) for k in item]


def theorem_inputs(graphs, chars) -> Inputs:
    """The theorem sweep's inputs: each graph's record is its parts
    (``classifier._parts``), measured at ``chars`` with one dict for the
    sweep, so a component that several inputs hold is measured once."""
    measured: dict = {}  # component -> (shape, nu, regs), for this sweep only
    return Inputs(graphs, lambda g: classifier._parts(g, chars, measured))


def theorem_verdicts(item, chars, inputs: Inputs) -> list[classifier.ClassificationVerdict]:
    """``classify``'s verdicts on the item's graph, read off its graphs'
    records, the parts of a union being those of its first graph and then
    its second (``classifier._verdicts``).  A union past the oracle cap is
    refused, as ``classify`` refuses it."""
    n = sum(inputs.graphs[k].n for k in item)
    if n > ORACLE_VERTEX_CAP:
        raise CapExceeded(f"regularity sweep capped at {ORACLE_VERTEX_CAP} vertices, got {n}")
    parts = [part for record in inputs.records(item) for part in record]
    return classifier._verdicts(parts, chars)


def split(g: Graph) -> list[tuple[int, int, int]]:
    """Comp's record of one input graph: each component's vertex mask,
    ``nu`` and ``nu0``."""
    return [
        (sum(1 << v for v in verts), matchings.nu(comp), matchings.nu0(comp))
        for verts, comp in graph_core.components(g)
    ]
