from __future__ import annotations

import random

import pytest

from eilab import formats_io as fio
from eilab import graph_core as gc
from eilab import cameron_walker, classifier, harness, matchings, subgraph_oracle
from eilab import regularity_oracle as ro
from eilab.errors import TooLarge, UnknownProperty
from eilab.regularity_oracle import ORACLE_VERTEX_CAP

from helpers import brute_middle_edges, path


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


def test_lemma_comp_reads_whole_graph_walk(monkeypatch):
    """Comp takes the union's regularity from the walk over all its
    subsets, not from ``regularity``, which splits the union into its
    components: a walk off by one on disconnected graphs is caught on
    every union, at every characteristic."""
    walk = ro._subset_walk

    def off_by_one(g, char):
        reg_q, *rest = walk(g, char)
        return (reg_q + (not g.is_connected()), *rest)

    monkeypatch.setattr(ro, "_subset_walk", off_by_one)
    graphs = harness.corpus_up_to(4).graphs
    (rep,) = harness.verify_lemma_suite(graphs, ["Comp"], chars=(0, 2), union_total_cap=6)
    assert rep.checked == len(harness.union_pairs(graphs, 6))
    assert len(rep.violations) == 2 * rep.checked
    assert all("!= component sum" in detail for _, detail in rep.violations)


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
    or 3; every edge of C5 is a middle edge."""
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


def test_sweep_names_each_graph(corpus5, monkeypatch):
    """A check returns bare detail strings; the sweep pairs each with the
    graph6 string of its graph, and sorts the pairs."""
    monkeypatch.setitem(
        harness._LEMMA_CHECKS, "UB", lambda g, chars: ["b", "a"] if g.n == 3 else []
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
    monkeypatch.setattr(harness, "_sweep", refuse)
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
    def refuse(g, chars):
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
