from __future__ import annotations

import gc as gc_module
import random
import weakref
from collections import Counter

import pytest

from eilab import formats_io as fio
from eilab import graph_core as gc
from eilab import cameron_walker, chordality, classifier, harness, matchings, unions
from eilab import regularity_oracle as ro
from eilab.errors import CapExceeded, TooLarge, UnknownProperty, WorkBoundExceeded
from eilab.regularity_oracle import ORACLE_VERTEX_CAP

from helpers import (
    brute_middle_edges,
    complete,
    cycle,
    flag_rp2_complement,
    keyed_levels,
    pair_verdicts,
    path,
    reference_report,
    rp2_minus_vertex_and_edge,
)


def test_enumeration_counts():
    for n, count in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]:
        assert len(harness.enumerate_connected(n).graphs) == count


def test_enumeration_no_duplicates():
    graphs = harness.enumerate_connected(5).graphs
    forms = {gc.canonical_form(g) for g in graphs}
    assert len(forms) == len(graphs)
    assert all(g.is_connected() for g in graphs)


def test_enumeration_matches_labeled_oracle():
    """Independent route: enumerate all labeled graphs, keep the connected
    ones, deduplicate by canonical form."""
    for n in range(1, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        seen = set()
        for mask in range(1 << len(pairs)):
            g = gc.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            if g.is_connected():
                seen.add(gc.canonical_form(g))
        mine = {gc.canonical_form(g) for g in harness.enumerate_connected(n).graphs}
        assert mine == seen


def test_enumeration_matches_external_atlas(fixtures_dir):
    """The networkx atlas fixtures describe the same isomorphism classes."""
    for n in range(1, 7):
        text = (fixtures_dir / f"connected_n{n}.g6").read_text()
        external = {
            gc.canonical_form(d.graph) for d in fio.read_graph6_lines(text)
        }
        mine = {gc.canonical_form(g) for g in harness.enumerate_connected(n).graphs}
        assert mine == external


def test_enumerate_all_counts():
    for n, count in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)]:
        assert len(harness.enumerate_all(n).graphs) == count


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        harness.enumerate_connected(9)


def test_union_pairs_cap():
    graphs = harness.corpus_up_to(3).graphs  # sizes 1, 2, 3, 3
    unions = harness.union_pairs(graphs, total_cap=4)
    assert all(u.n <= 4 for u in unions)
    # pairs: (1,1) (1,2) (1,3)x2 (2,2) = 5
    assert len(unions) == 5


def test_verify_theorem_small():
    rep = harness.verify_theorem(
        harness.corpus_up_to(4).graphs, chars=(0, 2), include_unions=True, union_total_cap=6
    )
    assert rep.passed and not rep.skips
    assert rep.checked > len(harness.corpus_up_to(4).graphs)


def test_verify_theorem_records_cap_skips():
    p17 = path(ORACLE_VERTEX_CAP + 1)
    rep = harness.verify_theorem([p17], chars=(0, 2), include_unions=False)
    assert rep.checked == 1
    assert rep.skips == (fio.encode_graph6(p17),)  # one skip, not one per char
    assert rep.passed  # skips are surfaced separately from violations


def test_verify_theorem_refuses_workers():
    """Sweeps run in one process; ``workers`` is accepted only as 1."""
    graphs = harness.corpus_up_to(3).graphs
    assert harness.verify_theorem(graphs, chars=(0,), workers=1).passed
    with pytest.raises(ValueError, match="workers must be 1"):
        harness.verify_theorem(graphs, chars=(0,), workers=2)


def _plain_theorem(g, chars):
    """The theorem's detail strings from ``classify`` on ``g`` itself."""
    return [
        f"char {v.characteristic}: structural={v.structural} "
        f"numeric={v.numeric} shapes={v.component_shapes}"
        for v in classifier.classify(g, chars)
        if not v.agreement
    ]


def test_theorem_sweep_measures_each_component_once(corpus5, monkeypatch):
    """The theorem sweep takes each distinct component's shape and ``nu``
    once, from one dict of records that lives as long as the sweep: a
    union's verdicts are read off its two corpus graphs' records, and a
    second sweep starts afresh, with no referrer to the first's dict left.
    Its report is the one that plain ``classify`` gives graph by graph,
    unions built."""
    graphs = list(corpus5) + harness.union_pairs(corpus5)
    reference = reference_report(_plain_theorem, graphs, (0, 2))
    measured = []
    stores = []
    shape, nu, record = classifier.component_shape, matchings.nu, classifier._record

    def counted_shape(comp):
        measured.append(("shape", comp))
        return shape(comp)

    def counted_nu(g):
        measured.append(("nu", g))
        return nu(g)

    def recorded(g, known):
        if not any(s is known for s in stores):
            stores.append(known)
        return record(g, known)

    monkeypatch.setattr(classifier, "component_shape", counted_shape)
    monkeypatch.setattr(matchings, "nu", counted_nu)
    monkeypatch.setattr(classifier, "_record", recorded)
    reports = []
    for _ in range(2):
        rep = harness.verify_theorem(corpus5, chars=(0, 2))
        assert (rep.checked, rep.violations, rep.skips) == reference
        assert Counter(measured) == Counter((what, g) for g in corpus5 for what in ("shape", "nu"))
        measured.clear()
        reports.append(rep)
    assert reports[0].violations == reports[1].violations and reports[0].checked == reports[1].checked
    assert len(stores) == 2 and all(set(store) == set(corpus5) for store in stores)
    assert [gc_module.get_referrers(store) for store in stores] == [[stores], [stores]]


def test_pair_verdicts_equal_classify_on_the_union(corpus6):
    """A union's verdicts, read off its parts' records, equal ``classify``
    on the union built, at chars 0, 2 and 3: on the unions of the n <= 6
    corpus up to 9 vertices, on those of every graph on 4 vertices, whose
    inputs are disconnected, and on ``JWaqbO\\euT?`` with a vertex and an
    edge, where char 2 reads one more than chars 0 and 3."""
    pairs = list(pair_verdicts(corpus6, 9))
    assert len(pairs) == len(harness.union_pairs(corpus6, 9)) == 713
    assert all(mine == reference for mine, reference in pairs)
    all4 = harness.enumerate_all(4).graphs
    pairs = list(pair_verdicts(all4, 9))
    assert len(pairs) == 66 and all(mine == reference for mine, reference in pairs)
    graphs = [gc.from_edges(1, []), complete(2), rp2_minus_vertex_and_edge()]
    pairs = list(pair_verdicts(graphs, 13))
    assert len(pairs) == 5 and all(mine == reference for mine, reference in pairs)
    with_rp2 = [mine for mine, _ in pairs if mine[0].component_shapes[-1:] == ("not-cw",)]
    assert [[v.reg_star for v in verdicts] for verdicts in with_rp2] == [[3, 4, 3], [4, 5, 4]]


def test_theorem_union_past_the_cap_is_a_skip():
    """A union past the oracle cap is a skip, named by its graph6 string,
    while its part under the cap is checked."""
    p9 = path(9)
    rep = harness.verify_theorem([p9], chars=(0, 2), union_total_cap=18)
    assert rep.checked == 2 and rep.passed
    assert rep.skips == (fio.encode_graph6(gc.disjoint_union(p9, p9)),)


def test_theorem_refused_part_skips_each_union_holding_it(corpus5, monkeypatch):
    """A graph whose shape is refused is a skip, and so is every union
    holding it, each named by its graph6 string.  The refusal is kept in
    place of the fact in the graph's record, so the shape is asked once."""
    triangle = complete(3)
    i = corpus5.index(triangle)
    asked = []
    shape = classifier.component_shape

    def refusing(g):
        if g == triangle:
            asked.append(g)
            raise CapExceeded("refused")
        return shape(g)

    monkeypatch.setattr(classifier, "component_shape", refusing)
    rep = harness.verify_theorem(corpus5, chars=(0, 2))
    holding = [gc.disjoint_union(corpus5[a], corpus5[b]) for a, b in unions.union_index_pairs(corpus5) if i in (a, b)]
    assert len(holding) == len(corpus5)
    assert rep.passed and rep.skips == tuple(sorted(fio.encode_graph6(g) for g in [triangle] + holding))
    assert asked == [triangle]


def test_theorem_sweep_builds_no_union(corpus5, monkeypatch):
    """A clean theorem sweep reads every union off its parts' records and
    builds none: a union is built only to name it in a report."""
    built = []
    union = gc.disjoint_union

    def counted(g1, g2):
        built.append((g1, g2))
        return union(g1, g2)

    monkeypatch.setattr(gc, "disjoint_union", counted)
    rep = harness.verify_theorem(corpus5, chars=(0, 2))
    assert rep.passed and not rep.skips
    assert rep.checked == len(corpus5) + sum(1 for _ in unions.union_index_pairs(corpus5))
    assert built == []


def test_verify_theorem_sweeps_graphs_not_graph6(monkeypatch):
    def refuse(text):
        raise AssertionError("the theorem sweep parsed graph6")

    monkeypatch.setattr(fio, "parse_graph6", refuse)
    graphs = harness.corpus_up_to(4).graphs
    rep = harness.verify_theorem(graphs, chars=(0, 2), include_unions=True, union_total_cap=6)
    assert rep.passed and not rep.skips
    assert rep.checked == len(graphs) + len(harness.union_pairs(graphs, 6))


def test_lemma_suite_small(corpus5):
    reports = harness.verify_lemma_suite(
        corpus5, ["UB", "FL1", "FL2", "FL3", "C1", "C1a", "C2", "CaWa", "Squeeze"]
    )
    assert all(rep.passed for rep in reports)
    assert [rep.property_name for rep in reports][0] == "UB"


def test_lemma_comp_on_unions(corpus5):
    (rep,) = harness.verify_lemma_suite(corpus5, ["Comp"], union_total_cap=8)
    assert rep.passed
    assert rep.checked > 0


def test_lemma_comp_records_cap_skips():
    (rep,) = harness.verify_lemma_suite([path(9)], ["Comp"], union_total_cap=18)
    assert rep.checked == 1
    assert rep.skips == (fio.encode_graph6(gc.disjoint_union(path(9), path(9))),)
    assert rep.passed


def test_lemma_comp_reads_whole_graph_walk(corpus5, monkeypatch):
    """Comp takes the union's regularity from the table over all its
    subsets, not from ``regularity``, which splits the union into its
    components.  Its reading, the digit count of the table's largest
    entry, is the whole-graph walk's ``reg_star``, and a table off by one
    on disconnected graphs is caught on every union, at every
    characteristic."""
    for u in harness.union_pairs(corpus5):
        for c in (0, 2, 3):
            betti = ro.subgraph_regularity(u, ro.FieldSpec(c)).betti()
            assert ro._digits(max(ro._walk_table(u, c)[0])) == max((j - i for i, j in betti), default=0) + 1
    walk_table = ro._walk_table

    def off_by_one(g, char):
        table, torsion = walk_table(g, char)
        if not g.is_connected():
            table[g.full_mask] = 1 << ro._WIDTH * ro._digits(max(table))
        return table, torsion

    monkeypatch.setattr(ro, "_walk_table", off_by_one)
    graphs = harness.corpus_up_to(4).graphs
    (rep,) = harness.verify_lemma_suite(graphs, ["Comp"], chars=(0, 2), union_total_cap=6)
    assert rep.checked == len(harness.union_pairs(graphs, 6))
    assert len(rep.violations) == 2 * rep.checked
    assert all("!= component sum" in detail for _, detail in rep.violations)


def _fl3_reference(g, chars):
    """FL3 with ``G - e`` refilled at every edge."""
    out = []
    full = g.full_mask
    for c in chars:
        sub = ro.subgraph_regularity(g, ro.FieldSpec(c))
        reg = max(sub.induced(full), 1)
        for e in g.edges:
            u, v = e
            minus = sub.edge_deleted(u, v)
            closed = max(sub.induced(full & ~(g.adj_mask(u) | g.adj_mask(v) | 1 << u | 1 << v)), 1)
            if reg > max(minus, closed + 1):
                out.append(f"char {c}: edge {e}: reg {reg} > max(del={minus}, closed+1={closed + 1})")
    return out


def _fl3_undecided(g, c):
    """The edges whose ``reg(G - e)`` FL3 needs: ``reg(G)`` exceeds both
    ``reg(G - N[e]) + 1`` and the larger of ``reg(G - u)`` and
    ``reg(G - v)``, which ``G - e`` shares."""
    sub = ro.subgraph_regularity(g, ro.FieldSpec(c))
    full = g.full_mask
    reg = max(sub.induced(full), 1)
    out = []
    for u, v in g.edges:
        closed = max(sub.induced(full & ~(g.adj_mask(u) | g.adj_mask(v) | 1 << u | 1 << v)), 1)
        shared = max(sub.induced(full ^ 1 << u), sub.induced(full ^ 1 << v))
        if reg > max(shared, closed + 1):
            out.append((g, c, (u, v)))
    return out


def test_fl3_refills_only_undecided_edges(corpus7, monkeypatch):
    """FL3 reports what refilling every edge reports, and refills only the
    edges that the subsets shared with ``G - e`` leave undecided: 222 of
    the 10,664 edges of the n <= 7 corpus at char 0 (190 of the 9,552 on
    7 vertices), and every edge of the two characteristic-dependent graphs
    at char 2 alone, where their regularity rises."""
    rp2, rp2_less = flag_rp2_complement(), rp2_minus_vertex_and_edge()
    runs = [(corpus7, (0,))] + [([g], (c,)) for g in (rp2, rp2_less) for c in (0, 2, 3)]
    for graphs, chars in runs:
        (rep,) = harness.verify_lemma_suite(graphs, ["FL3"], chars=chars)
        assert (rep.checked, rep.violations, rep.skips) == reference_report(_fl3_reference, graphs, chars)
    edge_deleted = ro.SubgraphRegularity.edge_deleted
    refilled = []

    def counted(self, u, v):
        refilled.append((self._graph, self.characteristic, (u, v)))
        return edge_deleted(self, u, v)

    monkeypatch.setattr(ro.SubgraphRegularity, "edge_deleted", counted)
    for graphs, (c,) in runs:
        refilled.clear()
        harness.verify_lemma_suite(graphs, ["FL3"], chars=(c,))
        assert refilled == [x for g in graphs for x in _fl3_undecided(g, c)]
        if graphs is corpus7:
            assert (len(refilled), sum(g.num_edges for g in graphs)) == (222, 10664)
            assert sum(g.n == 7 for g, _, _ in refilled) == 190
        else:
            assert len(refilled) == (graphs[0].num_edges if c == 2 else 0)


def test_lemma_cawa_reports_route_disagreement(monkeypatch):
    """A disagreement between the shape tests and the matching numbers is a
    violation of the graph, not an exception that ends the sweep; each
    graph gets one comparison of the matching numbers."""
    by_invariants = cameron_walker.cw_by_invariants
    calls = []

    def counted(g):
        calls.append(g)
        return by_invariants(g)

    def flipped(g):
        return not by_invariants(g)

    monkeypatch.setattr(cameron_walker, "cw_by_invariants", counted)
    graphs = harness.corpus_up_to(4).graphs
    (rep,) = harness.verify_lemma_suite(graphs, ["CaWa"])
    assert rep.passed and len(calls) == len(graphs)
    monkeypatch.setattr(cameron_walker, "cw_by_invariants", flipped)
    (rep,) = harness.verify_lemma_suite(graphs, ["CaWa"])
    assert len(rep.violations) == len(graphs)
    assert all("matching numbers" in detail for _, detail in rep.violations)


def test_lemma_checks_refuse_before_uncapped_nu(monkeypatch):
    """A graph past every cap is one skip per tag, and no matching-number
    search runs past its own cap, whatever order a check calls it in."""
    rng = random.Random(7)
    n = 30  # past NP_HARD_VERTEX_CAP, while its union with itself still has a graph6 string
    g = gc.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15])
    assert g.is_connected() and n > matchings.NP_HARD_VERTEX_CAP
    nu_of_mask_fn = matchings._nu_of_mask_fn

    def capped(h):
        if h.n > matchings.NP_HARD_VERTEX_CAP:
            raise AssertionError(f"uncapped nu search on {h.n} vertices")
        return nu_of_mask_fn(h)

    monkeypatch.setattr(matchings, "_nu_of_mask_fn", capped)
    reports = harness.verify_lemma_suite([g], harness.LEMMA_TAGS, chars=(0, 2), union_total_cap=2 * n)
    assert all(rep.checked == 1 and rep.passed for rep in reports)
    # C1 speaks only of C5-free graphs, and this one contains a pentagon.
    assert {rep.property_name: len(rep.skips) for rep in reports} == {
        tag: int(tag != "C1") for tag in harness.LEMMA_TAGS
    }
    monkeypatch.setattr(classifier, "contains_c5_subgraph", lambda h: False)
    (rep,) = harness.verify_lemma_suite([g], ["C1"], chars=(0, 2))
    assert rep.skips == (fio.encode_graph6(g),)


def test_subgraph_checks_build_no_surgery(corpus6, monkeypatch):
    """FL1, FL2, FL3 and C1a read every regularity off the graph's own
    table: with ``regularity`` and ``_drop_vertices`` refusing, they pass
    on the n <= 6 corpus at chars 0, 2 and 3 with no skip, so they build
    no subgraph, and they leave the oracle's one-graph record empty."""

    def refuse(*args, **kwargs):
        raise AssertionError("a subgraph check called regularity or _drop_vertices")

    monkeypatch.setattr(ro, "regularity", refuse)
    monkeypatch.setattr(gc, "_drop_vertices", refuse)
    ro._whole_graph.cache_clear()
    reports = harness.verify_lemma_suite(corpus6, ["FL1", "FL2", "FL3", "C1a"], chars=(0, 2, 3))
    assert [(rep.checked, rep.violations, rep.skips) for rep in reports] == [(len(corpus6), (), ())] * 4
    assert ro._whole_graph.cache_info().currsize == 0


def test_theorem_sweep_leaves_the_oracle_memo_empty(corpus5, monkeypatch):
    """The theorem sweep reads each component's regularity off its own
    subset walk: with ``regularity`` and the oracle's one-graph record
    refusing, it passes on the n <= 5 corpus and its unions at chars 0, 2
    and 3, and the record stays empty."""
    record = ro._whole_graph

    def refuse(*args, **kwargs):
        raise AssertionError("the theorem sweep asked the oracle's record")

    record.cache_clear()
    monkeypatch.setattr(ro, "regularity", refuse)
    monkeypatch.setattr(ro, "_whole_graph", refuse)
    rep = harness.verify_theorem(corpus5, chars=(0, 2, 3))
    assert rep.passed and not rep.skips and rep.checked == len(corpus5) + len(harness.union_pairs(corpus5))
    assert record.cache_info().currsize == 0


def test_sweeps_decode_no_witness_or_betti_entries(corpus5, monkeypatch):
    """The theorem sweep and the lemma suite read only digit counts off
    the subset tables: with the decoding of witnesses and Betti entries
    refusing, they pass on the n <= 5 corpus at chars 0, 2 and 3."""

    def refuse(self):
        raise AssertionError("a sweep decoded a witness or Betti entries")

    monkeypatch.setattr(ro.SubgraphRegularity, "_decode", refuse)
    rep = harness.verify_theorem(corpus5, chars=(0, 2, 3))
    assert rep.passed and not rep.skips
    reports = harness.verify_lemma_suite(corpus5, harness.LEMMA_TAGS, chars=(0, 2, 3))
    assert all(rep.passed and not rep.skips for rep in reports)


class _SkewedReadings:
    """A graph's subgraph readings with one of them wrong: ``method`` at
    ``arg`` returns ``value``.  Other characteristics share the skew, and
    ``queries`` records the masks that ``induced`` is asked for."""

    def __init__(self, real, method, arg, value, queries):
        self.real, self.method, self.arg, self.value, self.queries = real, method, arg, value, queries

    def induced(self, keep_mask):
        self.queries.append(keep_mask)
        if (self.method, self.arg) == ("induced", keep_mask):
            return self.value
        return self.real.induced(keep_mask)

    def edge_deleted(self, u, v):
        if (self.method, self.arg) == ("edge_deleted", (u, v)):
            return self.value
        return self.real.edge_deleted(u, v)

    def at(self, field):
        return _SkewedReadings(self.real.at(field), self.method, self.arg, self.value, self.queries)


def test_subgraph_checks_report_a_wrong_reading(monkeypatch):
    """One wrong reading of C5's table is a violation of the check that
    reads it, at each characteristic, with the check's detail string.  C5
    has reg 3 and nu 2; C5 minus a vertex or an edge is a path, with reg 2
    or 3; every edge of C5 is a middle edge.  FL3 must refill C5's edge
    (0, 1): ``reg 3`` exceeds both ``closed+1 = 2`` and the regularity 2
    of ``C5 - 0`` and ``C5 - 1``, which ``C5 - (0, 1)`` shares."""
    c5 = gc.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    name = fio.encode_graph6(c5)
    subgraph_regularity = ro.subgraph_regularity
    queries = []

    def skew(method, arg, value):
        def skewed(g, field=ro.FieldSpec(0)):
            return _SkewedReadings(subgraph_regularity(g, field), method, arg, value, queries)

        monkeypatch.setattr(ro, "subgraph_regularity", skewed)

    def violations(tag):
        (rep,) = harness.verify_lemma_suite([c5], [tag], chars=(0, 2))
        return rep.violations

    skew(None, None, None)
    assert violations("FL1") == ()
    sampled = [m for m in queries if m != c5.full_mask]  # at both characteristics
    w = [v for v in range(5) if sampled[0] >> v & 1]
    skew("induced", sampled[0], 4)
    assert violations("FL1") == tuple(
        (name, f"char {c}: induced {w} has reg 4 > 3") for c in (0, 2) for _ in range(sampled.count(sampled[0]) // 2)
    )
    skew("induced", 0b01100, 5)  # C5 - N[0] is the edge {2, 3}
    assert violations("FL2") == (
        (name, "char 0: vertex 0: reg 3 not in {del=2, closed+1=6}"),
        (name, "char 2: vertex 0: reg 3 not in {del=2, closed+1=6}"),
    )
    skew("edge_deleted", (0, 1), 1)
    assert violations("FL3") == (
        (name, "char 0: edge (0, 1): reg 3 > max(del=1, closed+1=2)"),
        (name, "char 2: edge (0, 1): reg 3 > max(del=1, closed+1=2)"),
    )
    skew("edge_deleted", (0, 1), 2)
    assert violations("C1a") == (
        (name, "char 0: middle edge (0, 1): expected reg and nu preserved, got reg 2 (was 3), nu 2 (was 2)"),
        (name, "char 2: middle edge (0, 1): expected reg and nu preserved, got reg 2 (was 3), nu 2 (was 2)"),
    )


def test_squeeze_capped_search_decides_the_cochord_bound(corpus7, monkeypatch):
    """Squeeze's capped search decides ``reg <= cochord_number(g).k + 1``
    at every characteristic, on true readings and on readings raised by one
    at char 2 (which turns every equality into a violation there).  At
    char 0 with true readings, 599 graphs search at cap 1 and 4 at cap 2."""
    chars = (0, 2, 3)
    graphs = [g for g in corpus7 if g.num_edges]
    exact = [chordality.cochord_number(g).k for g in graphs]
    regs = [[ro.regularity(g, ro.FieldSpec(c)).reg_star for c in chars] for g in graphs]
    reg_star = classifier._GraphFacts.reg
    cochord_number = chordality.cochord_number
    caps = Counter()

    def counted(g, cap=4):
        caps[cap] += 1
        return cochord_number(g, cap)

    monkeypatch.setattr(chordality, "cochord_number", counted)
    for shift in (0, 1):
        monkeypatch.setattr(classifier._GraphFacts, "reg", lambda facts, c: reg_star(facts, c) + shift * (c == 2))
        (rep,) = harness.verify_lemma_suite(graphs, ["Squeeze"], chars=chars)
        expected = {
            (fio.encode_graph6(g), f"char {c}: reg {r + shift * (c == 2)} > cochord+1 = {k + 1}")
            for g, k, rs in zip(graphs, exact, regs)
            for c, r in zip(chars, rs)
            if r + shift * (c == 2) > k + 1
        }
        assert {v for v in rep.violations if "cochord" in v[1]} == expected
        assert rep.skips == ()
        assert bool(expected) == bool(shift)
    monkeypatch.setattr(classifier._GraphFacts, "reg", reg_star)
    caps.clear()
    (rep,) = harness.verify_lemma_suite(graphs, ["Squeeze"], chars=(0,))
    assert rep.passed and not rep.skips
    assert caps == {1: 599, 2: 4}


def test_squeeze_reports_a_wrong_reading(monkeypatch):
    """A ``reg`` read too high where the cover search then finds a cover
    is a violation with the exact detail string, at each characteristic
    whose reading exceeds the cover number plus one.  K4 has reg 2,
    cochord 1 and mm 2; C5 has reg 3, cochord 2 and mm 2.  Raised by one
    at char 2, K4's reading breaks only the bound, at cap 1, and C5's
    breaks both, at cap 2.  Raised by one at char 0 and by two at char 2,
    K4's search runs at cap 2 and finds its one-part cover, so both
    characteristics break the bound."""
    k4, c5 = complete(4), cycle(5)
    reg_star = classifier._GraphFacts.reg

    def violations(graphs, skew):
        monkeypatch.setattr(classifier._GraphFacts, "reg", lambda facts, c: reg_star(facts, c) + skew.get(c, 0))
        (rep,) = harness.verify_lemma_suite(graphs, ["Squeeze"], chars=(0, 2))
        assert rep.skips == ()
        return rep.violations

    assert violations([k4, c5], {2: 1}) == tuple(
        sorted(
            [
                (fio.encode_graph6(k4), "char 2: reg 3 > cochord+1 = 2"),
                (fio.encode_graph6(c5), "char 2: chain broken: 2 <= 4 <= 3 <= 3"),
                (fio.encode_graph6(c5), "char 2: reg 4 > cochord+1 = 3"),
            ]
        )
    )
    assert violations([k4], {0: 1, 2: 2}) == (
        (fio.encode_graph6(k4), "char 0: reg 3 > cochord+1 = 2"),
        (fio.encode_graph6(k4), "char 2: chain broken: 2 <= 4 <= 3 <= 3"),
        (fio.encode_graph6(k4), "char 2: reg 4 > cochord+1 = 2"),
    )


def test_squeeze_refusals(monkeypatch):
    """The work bound is a skip at any cap, since it is a refusal, not an
    answer.  So is the cap of 4 below ``need - 1``; at ``need - 1`` it is
    the bound holding.  A graph with ``need <= 1`` runs no search."""
    c5 = cycle(5)
    name = fio.encode_graph6(c5)
    caps = []

    def refuse(error):
        def search(g, cap=4):
            caps.append(cap)
            raise error("refused", best_bound=3)

        monkeypatch.setattr(chordality, "cochord_number", search)

    def report(reg):
        monkeypatch.setattr(classifier._GraphFacts, "reg", lambda facts, c: reg)
        (rep,) = harness.verify_lemma_suite([c5], ["Squeeze"], chars=(0,))
        return [v for _, v in rep.violations if "cochord" in v], rep.skips

    refuse(WorkBoundExceeded)
    assert report(3) == ([], (name,))
    refuse(CapExceeded)
    assert report(3) == ([], ())
    assert report(6) == ([], ())
    assert report(7) == ([], (name,))
    assert caps == [1, 1, 4, 4]
    assert report(2) == ([], ()) and len(caps) == 4


def test_squeeze_pinned_flag_reports():
    """The capped search decides where the full one hit its work bound.
    ``JWaqbO\\euT?`` has reg 3, 4, 3 at chars 0, 2, 3: at cap 2 and at cap
    1 the search refuses at its cap, so both reports pass.  RP² has the
    same readings; at cap 2 it still hits the work bound, a skip, and at
    cap 1 it refuses at the cap and passes."""
    j = rp2_minus_vertex_and_edge()
    rp2 = flag_rp2_complement()
    assert (fio.encode_graph6(j), fio.encode_graph6(rp2)) == ("JWaqbO\\euT?", "KWaqbO\\euTz[")

    def outcome(g, chars):
        (rep,) = harness.verify_lemma_suite([g], ["Squeeze"], chars=chars)
        assert rep.violations == ()
        return "skip" if rep.skips else "pass"

    assert [outcome(g, chars) for g in (j, rp2) for chars in ((0, 2, 3), (0, 3))] == [
        "pass",
        "pass",
        "skip",
        "pass",
    ]


def test_comp_walks_once_per_union(corpus5, monkeypatch):
    """Comp walks each union once, at char 0, and reads that table at every
    characteristic that divides none of its torsion.  ``JWaqbO\\euT?`` has
    torsion 2, so its union with a vertex is walked again at char 2 only,
    and reads reg 3, 4, 3 at chars 0, 2, 3, as its components sum to."""
    walks = []
    walk_table = ro._walk_table

    def counted(g, char):
        walks.append(char)
        return walk_table(g, char)

    monkeypatch.setattr(ro, "_walk_table", counted)
    (rep,) = harness.verify_lemma_suite(corpus5, ["Comp"], chars=(0, 2, 3))
    assert rep.passed and not rep.skips
    assert walks == [0] * rep.checked
    walks.clear()
    first, second = (classifier._record(g, {}) for g in (rp2_minus_vertex_and_edge(), gc.from_edges(1, [])))
    assert unions.check_comp((0, 2, 3), first, second) == []
    assert walks == [0, 2]


def test_lemma_suite_walks_each_graph_once(corpus6, monkeypatch):
    """The graph-major suite makes one char-0 walk per graph, shared by
    FL1, FL2, FL3 and C1a, and by UB, C1, C2 and Squeeze as well, at every
    characteristic that divides none of its torsion (the corpus has
    none)."""
    walks = []
    walk_table = ro._walk_table

    def counted(g, char):
        walks.append((g, char))
        return walk_table(g, char)

    monkeypatch.setattr(ro, "_walk_table", counted)
    tags = ["FL1", "FL2", "FL3", "C1a"]
    for tags, chars in ((tags, (0,)), (tags, (0, 2, 3)), (tags + ["UB", "C1", "C2", "Squeeze"], (0, 2, 3))):
        walks.clear()
        reports = harness.verify_lemma_suite(corpus6, tags, chars=chars)
        assert all(rep.passed and not rep.skips for rep in reports)
        assert walks == [(g, 0) for g in corpus6], (tags, chars)


def test_joint_pass_shares_each_graphs_record(corpus7, monkeypatch):
    """The theorem and every lemma tag over the n <= 7 corpus, at chars 0
    and 2, in one pass: its reports are those of the theorem sweep and the
    lemma suite run apart, and it makes 3,415 whole-table walks, one per
    corpus graph (996) and one per Comp union (2,419), where the two run
    apart make 4,411.  ``edge_deleted``'s refills for FL3 and C1a walk no
    whole table.  The theorem sweep alone asks 996 ``nu`` and 996
    ``component_shape``, one per corpus graph, and no ``nu0`` or ``mm``."""
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    for owner, name in ((ro, "_walk_table"), (matchings, "nu"), (matchings, "nu0"), (matchings, "mm"), (classifier, "component_shape")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    chars = (0, 2)
    joint = harness.verify(corpus7, ["main-theorem", *harness.LEMMA_TAGS], chars)
    assert calls["_walk_table"] == 3415
    assert all(rep.passed and not rep.skips for rep in joint)
    assert {rep.property_name: rep.checked for rep in joint} == {
        "main-theorem": 3415, "Comp": 2419, **{tag: 996 for tag in harness.LEMMA_TAGS if tag != "Comp"}
    }
    calls.clear()
    apart = [harness.verify_theorem(corpus7, chars)]
    assert {name: calls[name] for name in ("nu", "component_shape", "nu0", "mm")} == {
        "nu": 996, "component_shape": 996, "nu0": 0, "mm": 0
    }
    apart += harness.verify_lemma_suite(corpus7, harness.LEMMA_TAGS, chars)
    assert calls["_walk_table"] == 4411

    def summary(reports):
        return [(rep.property_name, rep.checked, rep.violations, rep.skips) for rep in reports]

    assert summary(joint) == summary(apart)


def test_lemma_suite_repeats_its_reports(corpus6):
    """Two identical lemma sweeps in one process give equal reports: no
    fact carries over from one sweep, or one graph, to the next."""

    def summary():
        reports = harness.verify_lemma_suite(corpus6, harness.LEMMA_TAGS, chars=(0, 2), union_total_cap=8)
        return [(rep.property_name, rep.checked, rep.violations, rep.skips) for rep in reports]

    first = summary()
    assert [name for name, *_ in first] == list(harness.LEMMA_TAGS)
    assert summary() == first


def test_lemma_records_die_with_their_graph(corpus5, monkeypatch):
    """With the cycle collector off, each graph's record, and every
    subgraph reading made for it, is freed by reference counting before
    the next graph's record is made; a refusal the record keeps (the
    17-vertex path, past the oracle's cap) holds no traceback or context."""
    records, readings = [], []
    record, reading = classifier._GraphFacts, ro.SubgraphRegularity

    class Record(record):
        __slots__ = ("__weakref__",)

        def __init__(self, g, parts=None):
            assert all(ref() is None for ref in records + readings), "a record outlived its graph"
            super().__init__(g, parts)
            records.append(weakref.ref(self))

    class Reading(reading):
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            readings.append(weakref.ref(self))

    monkeypatch.setattr(ro, "SubgraphRegularity", Reading)
    p17 = path(ORACLE_VERTEX_CAP + 1)
    graphs = list(corpus5) + [p17]
    tags = [tag for tag in harness.LEMMA_TAGS if tag != "Comp"]
    gc_module.disable()
    try:
        monkeypatch.setattr(classifier, "_GraphFacts", Record)
        reports = harness.verify_lemma_suite(graphs, tags, chars=(0, 2, 3))
        assert all(ref() is None for ref in records + readings)
        assert len(records) == len(graphs) and len(readings) > len(corpus5)
        kept = Record(p17)
        for _ in range(2):
            with pytest.raises(CapExceeded, match="capped at 16 vertices"):
                kept.reg(2)
        refusal = kept._readings[1]
        assert (refusal.__traceback__, refusal.__context__) == (None, None)
        del kept, refusal
        assert records[-1]() is None
    finally:
        gc_module.enable()
    # P17 has no pentagon, so C2 passes it; CaWa has no cap.
    skipped = {rep.property_name for rep in reports if rep.skips == (fio.encode_graph6(p17),)}
    assert skipped == {"UB", "FL1", "FL2", "FL3", "C1", "C1a", "Squeeze"}


def test_union_pass_keeps_only_small_facts(corpus5, monkeypatch):
    """The joint pass keeps each corpus graph's record for the union pass
    with its tables dropped: when the first union is checked, every
    subgraph reading made for a corpus graph is freed, and each record
    holds no readings, its other facts in slots of their own.  With the
    cycle collector off, the records are freed by reference counting when
    the sweep returns."""
    readings, records, seen = [], [], []
    record, reading = classifier._GraphFacts, ro.SubgraphRegularity
    check_theorem, check_comp = harness._CHECKS["main-theorem"][1], harness._CHECKS["Comp"][1]

    class Record(record):
        __slots__ = ("__weakref__",)

        def __init__(self, g, parts=None):
            super().__init__(g, parts)
            records.append(weakref.ref(self))

    class Reading(reading):
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            readings.append(weakref.ref(self))

    def watched(check):
        def on_union(chars, first, second):
            if not seen:
                assert all(ref() is None for ref in readings), "a row's reading outlived its row"
            seen.append((first.graph, second.graph))
            for facts in (first, second):
                assert facts.graph in corpus5
                assert facts._readings == () and not hasattr(facts, "__dict__")
            return check(chars, first, second)

        return on_union

    monkeypatch.setattr(ro, "SubgraphRegularity", Reading)
    monkeypatch.setattr(classifier, "_GraphFacts", Record)
    monkeypatch.setitem(harness._CHECKS, "main-theorem", (harness._CHECKS["main-theorem"][0], watched(check_theorem)))
    monkeypatch.setitem(harness._CHECKS, "Comp", (None, watched(check_comp)))
    gc_module.disable()
    try:
        reports = harness.verify(corpus5, ["main-theorem", *harness.LEMMA_TAGS], (0, 2))
        assert all(ref() is None for ref in records + readings)
    finally:
        gc_module.enable()
    assert all(rep.passed and not rep.skips for rep in reports)
    assert len(records) == len(corpus5) and len(seen) == 2 * len(harness.union_pairs(corpus5))


def test_comp_reads_components_off_the_union_table(corpus5):
    """Comp reads each component's ``reg_star`` off the union's table, at
    the subsets of the component's vertices.  That equals the component's
    own walk, on the unions of the n <= 5 corpus and on seeded
    relabellings where the components interleave.  Comp passes each of
    them united with a vertex, its masks read off its own record, at chars
    0, 2 and 3."""
    rng = random.Random(2828)
    built = harness.union_pairs(corpus5, 8)
    shuffled = []
    for u in rng.sample(built, 40):
        perm = list(range(u.n))
        rng.shuffle(perm)
        shuffled.append(gc.from_edges(u.n, [(perm[a], perm[b]) for a, b in u.edges]))
    interleaved = 0
    for u in built + shuffled:
        table, _ = ro._walk_table(u, 0)
        sub = ro.subgraph_regularity(u)
        for verts, comp in gc.components(u):
            mask = sum(1 << v for v in verts)
            submasks = [w for w in range(1 << u.n) if w & mask == w]
            assert sub.induced(mask) == ro._digits(max(table[w] for w in submasks))
            assert sub.induced(mask) == ro.subgraph_regularity(comp).whole()
            assert sub.induced_direct(mask) == sub.induced(mask)
            interleaved += verts != tuple(range(verts[0], verts[-1] + 1))
        first, second = (classifier._record(g, {}) for g in (u, gc.from_edges(1, [])))
        assert unions.check_comp((0, 2, 3), first, second) == []
    assert interleaved > 20


def test_comp_reads_only_each_components_submasks(corpus6, monkeypatch):
    """Comp reads each component over its own submasks, never through the
    submask maximum of the union's whole table, and its report over the
    unions of the n <= 6 corpus is unchanged by that."""

    def refuse(*args):
        raise AssertionError("Comp built the union's submask maximum")

    monkeypatch.setattr(ro, "_submask_max", refuse)
    (rep,) = harness.verify_lemma_suite(corpus6, ["Comp"], chars=(0, 2))
    assert (rep.checked, rep.violations, rep.skips) == (713, (), ())


def test_comp_splits_each_graph_once(corpus5, monkeypatch):
    """A sweep takes each union's components off its two graphs' records,
    and splits no union itself: Comp alone and the joint pass alike.  A
    connected graph is its own one component, so only a disconnected input
    is split, once per sweep when its record is made."""
    split = []
    components = gc.components

    def counted(g):
        split.append(g)
        return components(g)

    apart = gc.disjoint_union(gc.from_edges(2, [(0, 1)]), gc.from_edges(1, []))
    graphs = list(corpus5) + [apart]
    monkeypatch.setattr(gc, "components", counted)
    for tags in (["Comp"], ["Comp"], ["main-theorem", *harness.LEMMA_TAGS]):
        reports = harness.verify(graphs, tags, chars=(0, 2))
        assert all(rep.passed and not rep.skips for rep in reports)
        assert reports[tags.index("Comp")].checked == len(harness.union_pairs(graphs))
        assert split == [apart]
        split.clear()


def test_sweep_names_each_graph(corpus5, monkeypatch):
    """A check returns bare detail strings; the sweep pairs each with the
    graph6 string of its graph, and sorts the pairs."""
    monkeypatch.setitem(harness._CHECKS, "UB", (lambda g, chars, facts: ["b", "a"] if g.n == 3 else [], None))
    (rep,) = harness.verify_lemma_suite(corpus5, ["UB"])
    names = sorted(fio.encode_graph6(g) for g in corpus5 if g.n == 3)
    assert rep.violations == tuple((name, d) for name in names for d in ("a", "b"))


def test_union_cap_past_graph6_limit_refused(monkeypatch):
    """A union cap past the graph6 vertex limit is refused before any union
    is built and before any sweep runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("built a union or ran a sweep before the cap check")

    g40 = path(40)
    monkeypatch.setattr(gc, "disjoint_union", refuse)
    monkeypatch.setattr(classifier, "_record", refuse)
    for tags in (["Comp"], ["UB", "Comp"]):
        with pytest.raises(TooLarge, match="unions cap at 62 vertices"):
            harness.verify_lemma_suite([g40], tags, union_total_cap=80)
    with pytest.raises(TooLarge):
        harness.verify_theorem([g40], union_total_cap=80)
    with pytest.raises(TooLarge):
        harness.union_pairs([g40], fio.MAX_VERTICES + 1)
    monkeypatch.undo()
    (u,) = harness.union_pairs([path(31)], fio.MAX_VERTICES)
    assert u.n == fio.MAX_VERTICES


def test_middle_edges_match_path_search(corpus7):
    for g in corpus7:
        assert list(harness._middle_edges(g)) == brute_middle_edges(g), g


def test_lemma_tags_in_report_order():
    assert harness.LEMMA_TAGS == ("UB", "FL1", "FL2", "FL3", "Comp", "C1", "C1a", "C2", "CaWa", "Squeeze")


def test_unknown_lemma_tag(corpus5, monkeypatch):
    def refuse(g, chars, facts):
        raise AssertionError("a sweep ran before the tags were checked")

    monkeypatch.setitem(harness._CHECKS, "UB", (refuse, None))
    with pytest.raises(UnknownProperty, match="unknown lemma tag 'FL9'"):
        harness.verify_lemma_suite(corpus5, ["FL9"])
    with pytest.raises(UnknownProperty):
        harness.verify_lemma_suite(corpus5, ["UB", "FL9"])
    with pytest.raises(UnknownProperty, match="unknown lemma tag 'main-theorem'"):
        harness.verify_lemma_suite(corpus5, ["UB", "main-theorem"])
    with pytest.raises(UnknownProperty, match="unknown tag 'FL9'; known: main-theorem, UB"):
        harness.verify(corpus5, ["main-theorem", "UB", "FL9"], (0,))


def test_corpus_from_graph6(fixtures_dir):
    text = (fixtures_dir / "connected_n5.g6").read_text()
    corpus = harness.corpus_from_graph6(text)
    assert len(corpus.graphs) == 21


def test_sweep_reports_are_deterministic(corpus5):
    a = harness.verify_theorem(corpus5, chars=(0,), include_unions=False)
    b = harness.verify_theorem(corpus5, chars=(0,), include_unions=False)
    assert a.violations == b.violations and a.checked == b.checked


def test_enumerate_all_order():
    """Each graph is a union of canonically labelled connected graphs in
    (vertex count, graph6) order, and the corpus is sorted by that
    component sequence."""
    graphs = harness.enumerate_all(6).graphs
    seqs = []
    for g in graphs:
        seq = [(comp.n, fio.encode_graph6(gc.canonical_form(comp))) for _, comp in gc.components(g)]
        assert seq == sorted(seq)
        rebuilt = fio.parse_graph6(seq[0][1])
        for _, form in seq[1:]:
            rebuilt = gc.disjoint_union(rebuilt, fio.parse_graph6(form))
        assert rebuilt == g
        seqs.append(seq)
    assert seqs == sorted(seqs) and len(set(map(tuple, seqs))) == len(seqs) == 156


def test_connected_graphs_lex_min_once_per_class(monkeypatch):
    """The augmentation filters leave 1,353 of the 7,815 candidates up to
    n = 7, and each is labelled by ``canonical_form`` once: the labelled
    forms are deduplicated."""
    calls = []
    lex_min = gc.canonical_form

    def counted(g):
        calls.append(g.n)
        return lex_min(g)

    monkeypatch.setattr(gc, "canonical_form", counted)
    assert len(harness.connected_graphs(7)) == 853
    assert len(calls) == 1353


def test_enumeration_equals_keying_every_candidate(corpus7):
    """The filtered enumeration equals the loop that keys every candidate
    (``helpers.keyed_levels``), level by level and graph by graph, labels
    and order included."""
    reference = keyed_levels(7)
    assert list(harness._connected_levels(7)) == reference
    assert corpus7 == tuple(g for level in reference for g in level)
