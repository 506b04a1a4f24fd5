from __future__ import annotations

import gc as gc_module
import random
import weakref
from collections import Counter

import pytest

from eilab import formats_io as fio
from eilab import graph_core as gc
from eilab import cameron_walker, chordality, classifier, harness, matchings, subgraph_oracle
from eilab import regularity_oracle as ro
from eilab.errors import CapExceeded, TooLarge, UnknownProperty, WorkBoundExceeded
from eilab.regularity_oracle import ORACLE_VERTEX_CAP

from helpers import brute_middle_edges, complete, cycle, flag_rp2_complement, path, rp2_minus_vertex_and_edge


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


def test_theorem_sweep_measures_each_component_once(corpus5, monkeypatch):
    """The theorem sweep takes each distinct component's shape and ``nu``
    once, from one dict that lives as long as the sweep: a union's
    components are corpus graphs, and a second sweep starts afresh.  Its
    report is the one that plain ``classify`` gives graph by graph."""

    def plain(g, chars, facts):
        return [
            f"char {v.characteristic}: structural={v.structural} "
            f"numeric={v.numeric} shapes={v.component_shapes}"
            for v in classifier.classify(g, chars)
            if not v.agreement
        ]

    graphs = list(corpus5) + harness.union_pairs(corpus5)
    (reference,) = harness._sweeps({"main-theorem": plain}, graphs, (0, 2), lambda g: None)
    measured = []
    stores = []
    shape, nu, classify = classifier.component_shape, matchings.nu, classifier._classify

    def counted_shape(comp):
        measured.append(("shape", comp))
        return shape(comp)

    def counted_nu(g):
        measured.append(("nu", g))
        return nu(g)

    def recorded(g, chars, facts):
        if not any(s is facts for s in stores):
            stores.append(facts)
        return classify(g, chars, facts)

    monkeypatch.setattr(classifier, "component_shape", counted_shape)
    monkeypatch.setattr(matchings, "nu", counted_nu)
    monkeypatch.setattr(classifier, "_classify", recorded)
    reports = []
    for _ in range(2):
        rep = harness.verify_theorem(corpus5, chars=(0, 2))
        assert (rep.property_name, rep.checked, rep.violations, rep.skips) == (
            reference.property_name, reference.checked, reference.violations, reference.skips
        )
        assert Counter(measured) == Counter((what, g) for g in corpus5 for what in ("shape", "nu"))
        measured.clear()
        reports.append(rep)
    assert reports[0].violations == reports[1].violations and reports[0].checked == reports[1].checked
    assert len(stores) == 2 and all(set(store) == set(corpus5) for store in stores)
    assert [gc_module.get_referrers(store) for store in stores] == [[stores], [stores]]


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
            assert ro._digits(max(ro._walk_table(u, c)[0])) == ro._subset_walk(u, c)[0] + 1
    walk_table = subgraph_oracle._walk_table

    def off_by_one(g, char):
        table, torsion = walk_table(g, char)
        if not g.is_connected():
            table[g.full_mask] = 1 << ro._WIDTH * ro._digits(max(table))
        return table, torsion

    monkeypatch.setattr(subgraph_oracle, "_walk_table", off_by_one)
    graphs = harness.corpus_up_to(4).graphs
    (rep,) = harness.verify_lemma_suite(graphs, ["Comp"], chars=(0, 2), union_total_cap=6)
    assert rep.checked == len(harness.union_pairs(graphs, 6))
    assert len(rep.violations) == 2 * rep.checked
    assert all("!= component sum" in detail for _, detail in rep.violations)


def _fl3_reference(g, chars, facts):
    """FL3 with ``G - e`` refilled at every edge."""
    out = []
    full = g.full_mask
    for c in chars:
        sub = subgraph_oracle.subgraph_regularity(g, ro.FieldSpec(c))
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
    sub = subgraph_oracle.subgraph_regularity(g, ro.FieldSpec(c))
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
        (reference,) = harness._sweeps({"FL3": _fl3_reference}, graphs, chars, lambda g: None)
        (rep,) = harness.verify_lemma_suite(graphs, ["FL3"], chars=chars)
        assert (rep.checked, rep.violations, rep.skips) == (reference.checked, reference.violations, reference.skips)
    edge_deleted = subgraph_oracle.SubgraphRegularity.edge_deleted
    refilled = []

    def counted(self, u, v):
        refilled.append((self._graph, self.characteristic, (u, v)))
        return edge_deleted(self, u, v)

    monkeypatch.setattr(subgraph_oracle.SubgraphRegularity, "edge_deleted", counted)
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
    table: with ``regularity`` and ``apply_surgery`` refusing, they pass on
    the n <= 6 corpus at chars 0, 2 and 3 with no skip, as they did when
    they walked each surgery, and they leave the oracle's memo empty."""

    def refuse(*args, **kwargs):
        raise AssertionError("a subgraph check called regularity or apply_surgery")

    monkeypatch.setattr(ro, "regularity", refuse)
    monkeypatch.setattr(gc, "apply_surgery", refuse)
    monkeypatch.setattr(ro, "_SWEEP_MEMO", {})
    reports = harness.verify_lemma_suite(corpus6, ["FL1", "FL2", "FL3", "C1a"], chars=(0, 2, 3))
    assert [(rep.checked, rep.violations, rep.skips) for rep in reports] == [(len(corpus6), (), ())] * 4
    assert ro._SWEEP_MEMO == {}


def test_theorem_sweep_leaves_the_oracle_memo_empty(corpus5, monkeypatch):
    """The theorem sweep reads each component's regularity off its own
    subset walk: with ``regularity`` and the memoized sweep refusing, it
    passes on the n <= 5 corpus and its unions at chars 0, 2 and 3, and
    the oracle's memo stays empty."""

    def refuse(*args, **kwargs):
        raise AssertionError("the theorem sweep asked the memoized oracle")

    monkeypatch.setattr(ro, "regularity", refuse)
    monkeypatch.setattr(ro, "_hochster_sweep", refuse)
    monkeypatch.setattr(ro, "_SWEEP_MEMO", {})
    rep = harness.verify_theorem(corpus5, chars=(0, 2, 3))
    assert rep.passed and not rep.skips and rep.checked == len(corpus5) + len(harness.union_pairs(corpus5))
    assert ro._SWEEP_MEMO == {}


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
    subgraph_regularity = subgraph_oracle.subgraph_regularity
    queries = []

    def skew(method, arg, value):
        def skewed(g, field=ro.FieldSpec(0)):
            return _SkewedReadings(subgraph_regularity(g, field), method, arg, value, queries)

        monkeypatch.setattr(subgraph_oracle, "subgraph_regularity", skewed)

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
    reg_star = harness._GraphFacts.reg
    cochord_number = chordality.cochord_number
    caps = Counter()

    def counted(g, cap=4):
        caps[cap] += 1
        return cochord_number(g, cap)

    monkeypatch.setattr(chordality, "cochord_number", counted)
    for shift in (0, 1):
        monkeypatch.setattr(harness._GraphFacts, "reg", lambda facts, c: reg_star(facts, c) + shift * (c == 2))
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
    monkeypatch.setattr(harness._GraphFacts, "reg", reg_star)
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
    reg_star = harness._GraphFacts.reg

    def violations(graphs, skew):
        monkeypatch.setattr(harness._GraphFacts, "reg", lambda facts, c: reg_star(facts, c) + skew.get(c, 0))
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
        monkeypatch.setattr(harness._GraphFacts, "reg", lambda facts, c: reg)
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
    walk_table = subgraph_oracle._walk_table

    def counted(g, char):
        walks.append(char)
        return walk_table(g, char)

    monkeypatch.setattr(subgraph_oracle, "_walk_table", counted)
    (rep,) = harness.verify_lemma_suite(corpus5, ["Comp"], chars=(0, 2, 3))
    assert rep.passed and not rep.skips
    assert walks == [0] * rep.checked
    walks.clear()
    u = gc.disjoint_union(rp2_minus_vertex_and_edge(), gc.from_edges(1, []))
    assert harness._check_comp(u, (0, 2, 3), {}) == []
    assert walks == [0, 2]


def test_lemma_suite_walks_each_graph_once(corpus6, monkeypatch):
    """The graph-major suite makes one char-0 walk per graph, shared by
    FL1, FL2, FL3 and C1a, and by UB, C1, C2 and Squeeze as well, at every
    characteristic that divides none of its torsion (the corpus has
    none)."""
    walks = []
    walk_table = subgraph_oracle._walk_table

    def counted(g, char):
        walks.append((g, char))
        return walk_table(g, char)

    monkeypatch.setattr(subgraph_oracle, "_walk_table", counted)
    tags = ["FL1", "FL2", "FL3", "C1a"]
    for tags, chars in ((tags, (0,)), (tags, (0, 2, 3)), (tags + ["UB", "C1", "C2", "Squeeze"], (0, 2, 3))):
        walks.clear()
        reports = harness.verify_lemma_suite(corpus6, tags, chars=chars)
        assert all(rep.passed and not rep.skips for rep in reports)
        assert walks == [(g, 0) for g in corpus6], (tags, chars)


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
    record, reading = harness._GraphFacts, subgraph_oracle.SubgraphRegularity

    class Record(record):
        __slots__ = ("__weakref__",)

        def __init__(self, g):
            assert all(ref() is None for ref in records + readings), "a record outlived its graph"
            super().__init__(g)
            records.append(weakref.ref(self))

    class Reading(reading):
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            readings.append(weakref.ref(self))

    monkeypatch.setattr(subgraph_oracle, "SubgraphRegularity", Reading)
    p17 = path(ORACLE_VERTEX_CAP + 1)
    graphs = list(corpus5) + [p17]
    tags = [tag for tag in harness.LEMMA_TAGS if tag != "Comp"]
    gc_module.disable()
    try:
        monkeypatch.setattr(harness, "_GraphFacts", Record)
        reports = harness.verify_lemma_suite(graphs, tags, chars=(0, 2, 3))
        assert all(ref() is None for ref in records + readings)
        assert len(records) == len(graphs) and len(readings) > len(corpus5)
        kept = Record(p17)
        for _ in range(2):
            with pytest.raises(CapExceeded, match="capped at 16 vertices"):
                kept.reg(2)
        refusal = kept._known[("readings", 0)]
        assert (refusal.__traceback__, refusal.__context__) == (None, None)
        del kept, refusal
        assert records[-1]() is None
    finally:
        gc_module.enable()
    # P17 has no pentagon, so C2 passes it; CaWa has no cap.
    skipped = {rep.property_name for rep in reports if rep.skips == (fio.encode_graph6(p17),)}
    assert skipped == {"UB", "FL1", "FL2", "FL3", "C1", "C1a", "Squeeze"}


def test_comp_reads_components_off_the_union_table(corpus5):
    """Comp reads each component's ``reg_star`` off the union's table, at
    the subsets of the component's vertices.  That equals the component's
    own walk, on the unions of the n <= 5 corpus and on seeded
    relabellings where the components interleave, and Comp passes them
    all at chars 0, 2 and 3."""
    rng = random.Random(2828)
    unions = harness.union_pairs(corpus5, 8)
    shuffled = []
    for u in rng.sample(unions, 40):
        perm = list(range(u.n))
        rng.shuffle(perm)
        shuffled.append(gc.from_edges(u.n, [(perm[a], perm[b]) for a, b in u.edges]))
    interleaved = 0
    for u in unions + shuffled:
        table, _ = ro._walk_table(u, 0)
        sub = subgraph_oracle.subgraph_regularity(u)
        for verts, comp in gc.components(u):
            mask = sum(1 << v for v in verts)
            submasks = [w for w in range(1 << u.n) if w & mask == w]
            assert sub.induced(mask) == ro._digits(max(table[w] for w in submasks))
            assert sub.induced(mask) == ro._subset_walk(comp, 0)[0] + 1
            interleaved += verts != tuple(range(verts[0], verts[-1] + 1))
        assert harness._check_comp(u, (0, 2, 3), {}) == []
    assert interleaved > 20


def test_sweep_names_each_graph(corpus5, monkeypatch):
    """A check returns bare detail strings; the sweep pairs each with the
    graph6 string of its graph, and sorts the pairs."""
    monkeypatch.setitem(
        harness._LEMMA_CHECKS, "UB", lambda g, chars, facts: ["b", "a"] if g.n == 3 else []
    )
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
    monkeypatch.setattr(harness, "_sweeps", refuse)
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

    monkeypatch.setitem(harness._LEMMA_CHECKS, "UB", refuse)
    with pytest.raises(UnknownProperty):
        harness.verify_lemma_suite(corpus5, ["FL9"])
    with pytest.raises(UnknownProperty):
        harness.verify_lemma_suite(corpus5, ["UB", "FL9"])


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
    calls = []
    lex_min = gc.canonical_form

    def counted(g):
        calls.append(g.n)
        return lex_min(g)

    monkeypatch.setattr(gc, "canonical_form", counted)
    assert len(harness.connected_graphs(7)) == 853
    assert len(calls) == sum(harness.CONNECTED_COUNTS[n] for n in range(2, 8)) == 995
