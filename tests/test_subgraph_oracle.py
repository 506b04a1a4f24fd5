"""The subgraph readings of ``regularity_oracle.subgraph_regularity``:
induced subgraphs and single-edge deletions read off one subset table."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from eilab import graph_core as gc
from eilab import regularity_oracle as ro
from eilab.errors import CapExceeded, InvalidSurgery
from eilab.regularity_oracle import FieldSpec

from helpers import cycle, flag_rp2_complement, path, rp2_minus_vertex_and_edge


def _surgery_readings(sub: ro.SubgraphRegularity, g: gc.Graph):
    """``reg_star`` of ``G``, then of ``G - x`` and ``G - N[x]`` for every
    vertex, then of ``G - e`` and ``G - N[e]`` for every edge, read off
    ``g``'s table."""
    full = g.full_mask
    out = [sub.induced(full)]
    for x in range(g.n):
        out += [sub.induced(full ^ 1 << x), sub.induced(full & ~(g.adj_mask(x) | 1 << x))]
    for u, v in g.edges:
        out += [sub.edge_deleted(u, v), sub.induced(full & ~(g.adj_mask(u) | g.adj_mask(v) | 1 << u | 1 << v))]
    return out


def _surgery_reference(g: gc.Graph, char: int):
    """The same values by building each subgraph as its own graph, with
    ``induced_subgraph`` or ``from_edges``, and walking it by ``regularity``."""

    def without(drop: int) -> gc.Graph:
        return gc.induced_subgraph(g, [y for y in range(g.n) if not drop >> y & 1])

    graphs = [g]
    for x in range(g.n):
        graphs += [without(1 << x), without(g.adj_mask(x) | 1 << x)]
    for u, v in g.edges:
        graphs += [
            gc.from_edges(g.n, [e for e in g.edges if e != (u, v)]),
            without(g.adj_mask(u) | g.adj_mask(v) | 1 << u | 1 << v),
        ]
    return [ro.regularity(h, FieldSpec(char)).reg_star for h in graphs]


def _seeded_graphs_9_to_14() -> list[gc.Graph]:
    """One seeded random graph on each of 9 to 14 vertices, with between
    2n and 3n edges."""
    rng = random.Random(2424)
    out = []
    for n in range(9, 15):
        pairs = list(combinations(range(n), 2))
        out.append(gc.from_edges(n, rng.sample(pairs, rng.randint(2 * n, 3 * n))))
    return out


def test_subgraph_regularity_matches_surgeries(corpus7):
    """Reading induced subgraphs off one table, and refilling only the
    subsets that hold both ends of a deleted edge, gives what building the
    graph and walking it gives: for the graph itself, ``G - x`` and
    ``G - N[x]`` at every vertex, ``G - e`` and ``G - N[e]`` at every edge.
    At char 0 on the n <= 7 corpus; at chars 0, 2 and 3 on seeded graphs
    on 9 to 14 vertices, on the flag RP^2 graph and on its 11-vertex
    relative.  The last two build pieces whose dims end in zeros, and
    their torsion 2 makes char 2 differ, so they are also read from the
    char-0 table by ``at``."""
    for g in corpus7:
        assert _surgery_readings(ro.subgraph_regularity(g), g) == _surgery_reference(g, 0), g.edges
    torsion = [flag_rp2_complement(), rp2_minus_vertex_and_edge()]
    for g in torsion + _seeded_graphs_9_to_14():
        base = ro.subgraph_regularity(g, FieldSpec(0))
        for char in (0, 2, 3):
            ref = _surgery_reference(g, char)
            assert _surgery_readings(ro.subgraph_regularity(g, FieldSpec(char)), g) == ref, (g.edges, char)
            if g in torsion:
                assert _surgery_readings(base.at(FieldSpec(char)), g) == ref, (g.edges, char)


def test_subgraph_regularity_shares_only_torsion_free_tables(monkeypatch):
    """``at`` reuses the char-0 table where the characteristic divides no
    torsion entry, and walks again where it divides one: the flag RP^2
    graph is walked at chars 0 and 2 only.  Past the cap it refuses as the
    walk does, and it refuses a vertex pair that is not an edge."""
    walks = []
    walk_table = ro._walk_table

    def counting(g, char):
        walks.append(char)
        return walk_table(g, char)

    monkeypatch.setattr(ro, "_walk_table", counting)
    rp2 = flag_rp2_complement()
    base = ro.subgraph_regularity(rp2)
    assert base.torsion == (2,)
    regs = {c: base.at(FieldSpec(c)).induced(rp2.full_mask) for c in (0, 2, 3, 5)}
    assert regs == {0: 3, 2: 4, 3: 3, 5: 3} and walks == [0, 2]
    with pytest.raises(CapExceeded, match="regularity sweep capped at 16 vertices, got 17"):
        ro.subgraph_regularity(path(17))
    with pytest.raises(InvalidSurgery):
        ro.subgraph_regularity(cycle(5)).edge_deleted(0, 2)


def test_submask_max_matches_brute_force():
    """The byte-level submask maximum against the maximum over every
    submask, on seeded values for 0 to 9 vertices."""
    rng = random.Random(2525)
    for n in range(10):
        values = [rng.randrange(n + 2) for _ in range(1 << n)]
        brute = [max(values[s] for s in range(1 << n) if s & w == s) for w in range(1 << n)]
        assert list(ro._submask_max(bytes(values), n)) == brute, n
