"""Two-component unions of a sweep's input graphs, read off their records.

A sweep over a corpus also checks each disjoint union of two of its
graphs.  Such a union is a pair of indices into the corpus, ``(i, j)``
with ``i <= j`` (``union_index_pairs``).  The sweep keeps each graph that
some union holds with its record (``classifier._GraphFacts``), its tables
dropped after its row, and hands a union's check the two records.  The
union itself is built only where a check walks it or a report names it.

Both sides of the paper's equivalence add over the components, so the
theorem reads a union's verdicts off its two graphs' component records
joined (``classifier._verdicts``), and builds no union.  Comp checks that
additivity itself (``check_comp``), so it walks each union; the
components' vertex masks, ``nu`` and ``nu0`` come from the two records, so
no union is split.

This code is kept out of ``harness``, the package's largest module: a
process that imports the package from source compiles each module whole,
and the compile of the largest sets the memory high-water mark of a short
run.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import islice

from . import formats_io, graph_core, matchings, regularity_oracle
from .errors import TooLarge
from .regularity_oracle import FieldSpec


def union_index_pairs(graphs, total_cap: int = 9):
    """The two-component disjoint unions of ``graphs`` (unordered, repeats
    allowed) with at most ``total_cap`` vertices, as an iterator of index
    pairs ``(i, j)`` with ``i <= j``, in order.  A cap past the graph6
    vertex limit is refused at the call: a sweep names each graph by its
    graph6 string."""
    if total_cap > formats_io.MAX_VERTICES:
        raise TooLarge(f"unions cap at {formats_io.MAX_VERTICES} vertices, got {total_cap}")
    sizes = [g.n for g in graphs]
    # limit -> the indices, ascending, of the graphs with at most that many
    # vertices, packed: a sweep holds them while its row pass runs
    fits = {limit: array("l", (j for j, n in enumerate(sizes) if n <= limit)) for limit in {total_cap - n for n in sizes}}
    return (
        (i, j)
        for i, n in enumerate(sizes)
        for j in islice(fits[total_cap - n], bisect_left(fits[total_cap - n], i), None)
    )


def check_comp(chars, first, second):
    """``reg``, ``nu`` and ``nu0`` add over the components of the union
    ``u`` of the graphs of two records.

    ``reg_star`` of the union is read off its whole subset table, which
    uses no product formula (an edgeless union has 1, from the empty
    complex): ``regularity`` would combine the components and compare
    their sum with itself.  Each component's ``reg_star`` is read off the
    same table as an induced subgraph, over the subsets of its own
    vertices alone (``induced_direct``, no pass over the union's whole
    table), which the walk fills as it would the component's own table.
    The char-0 table serves every characteristic that divides none of its
    torsion.  The components, their vertex masks, ``nu`` and ``nu0`` are
    the two records' (``components``), the second's masks shifted past the
    first's vertices, so the union is never split itself."""
    out = []
    u = graph_core.disjoint_union(first.graph, second.graph)
    base = regularity_oracle.subgraph_regularity(u)
    parts = first.components() + [(mask << first.graph.n, part) for mask, part in second.components()]
    for c in chars:
        sub = base.at(FieldSpec(c))
        reg = sub.whole()
        reg_sum = regularity_oracle.union_reg_star(sub.induced_direct(mask) for mask, _ in parts)
        if reg != reg_sum:
            out.append(f"char {c}: reg {reg} != component sum {reg_sum}")
    if matchings.nu(u) != sum(part.nu() for _, part in parts):
        out.append("matching number not additive over components")
    if matchings.nu0(u) != sum(part.nu0() for _, part in parts):
        out.append("induced matching number not additive over components")
    return out
