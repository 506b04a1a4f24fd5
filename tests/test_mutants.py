"""Mutants that the reference comparisons must catch.

Each test patches one fault into the package in process, with
``monkeypatch``, and names the reference comparison that detects it.  The
same comparison is run on the unmutated code first and must pass there, so
a later change that weakens the comparison, or the code path it covers,
shows up here.
"""

from __future__ import annotations

import inspect
import random
import textwrap
from itertools import combinations_with_replacement
from math import comb

import pytest

from eilab import bounds_engine, chordality, classifier, graph_core, harness, homology, matchings, unions
from eilab import regularity_oracle as ro
from eilab.errors import CapExceeded, WorkBoundExceeded
from eilab.formats_io import encode_graph6, parse_graph6
from eilab.regularity_oracle import ORACLE_VERTEX_CAP, FieldSpec

from helpers import (
    all_subsets_walk,
    brute_betti,
    brute_canonical_form,
    brute_rank,
    column_string,
    complete,
    cycle,
    flag_rp2_complement,
    keyed_levels,
    pair_verdicts,
    path,
    reference_report,
    relabel,
    rp2_minus_vertex_and_edge,
    seeded_matrices,
)


@pytest.fixture(scope="module")
def flag_relative():
    """``JWaqbO\\euT?``, with its char-0 Betti table by Hochster's formula
    (``helpers.brute_betti``).  It has a subset that no vertex splits."""
    g = rp2_minus_vertex_and_edge()
    assert encode_graph6(g) == "JWaqbO\\euT?"
    return g, brute_betti(g, 0)


def _betti_fresh(g) -> dict:
    """The char-0 Betti table, with the oracle's one-graph record emptied
    first so that no earlier walk answers."""
    ro._whole_graph.cache_clear()
    return ro.betti_table(g, FieldSpec(0)).as_dict()


def _set_width(monkeypatch, width: int) -> None:
    """Patch the digit width and every mask derived from it."""
    ones = sum(1 << width * k for k in range(ORACLE_VERTEX_CAP + 1))
    monkeypatch.setattr(ro, "_WIDTH", width)
    monkeypatch.setattr(ro, "_DIGIT", (1 << width) - 1)
    monkeypatch.setattr(ro, "_ONES", ones)
    monkeypatch.setattr(ro, "_HIGH", ones << width - 1)
    monkeypatch.setattr(ro, "_MID", (ones << width - 1) - ones)


def test_split_without_its_condition(flag_relative, monkeypatch):
    """With ``_HIGH`` zero the split's test never sees a degree nonzero in
    both ``W - v`` and ``W - N[v]``, so every subset splits at its lowest
    vertex.  Caught by the Betti table of ``JWaqbO\\euT?`` against
    ``helpers.brute_betti``.  First recorded with the split itself
    (``fc200a9`` in CHANGES.md)."""
    g, reference = flag_relative
    assert _betti_fresh(g) == reference
    monkeypatch.setattr(ro, "_HIGH", 0)
    assert _betti_fresh(g) != reference


def test_digit_narrower_than_its_entries(flag_relative, monkeypatch):
    """The derived width leaves each digit's top bit clear for any face
    count under the cap.  No single dim under the cap comes near that
    bound, so a digit one bit narrower than the derived width gives the
    same tables; the mutant narrows it to one bit less than the named
    graph's largest entry needs.  The largest dim in any subset of
    ``JWaqbO\\euT?`` is 3, which needs a width of 3 to keep the top bit
    clear; at width 2 a 3 sets its digit's top bit, and the split's test
    is no longer carry-free.  Caught by the Betti table against
    ``helpers.brute_betti``."""
    faces = comb(ORACLE_VERTEX_CAP, ORACLE_VERTEX_CAP // 2)
    assert ro._WIDTH == faces.bit_length() + 1 and faces < 1 << ro._WIDTH - 1
    g, reference = flag_relative
    table, _ = ro._walk_table(g, 0)
    largest = 0
    for value in table:
        while value:
            largest = max(largest, value & ro._DIGIT)
            value >>= ro._WIDTH
    assert largest == 3
    assert _betti_fresh(g) == reference
    _set_width(monkeypatch, largest.bit_length())
    assert _betti_fresh(g) != reference


class _ReferenceFacts:
    """Every fact computed afresh by its own route, nothing kept: a walk
    at each characteristic, ``regularity`` for ``reg_star``, and the
    matching searches."""

    def __init__(self, g):
        self.graph = g

    def readings(self, c):
        return ro.subgraph_regularity(self.graph, FieldSpec(c))

    def reg(self, c):
        return ro.regularity(self.graph, FieldSpec(c)).reg_star

    def nu(self):
        return matchings.nu(self.graph)

    def nu0(self):
        return matchings.nu0(self.graph)

    def mm(self):
        return matchings.mm(self.graph)


def test_record_leaking_into_the_next_graph(corpus6, monkeypatch):
    """The graph-major suite with one record kept from the first graph on
    reads that graph's ``reg``, ``nu``, ``nu0`` and ``mm`` everywhere.
    Caught by comparing each report with its tag's check run graph by graph
    on ``_ReferenceFacts`` (``helpers.reference_report``) on the n <= 6
    corpus.  Only tags that read those four facts run: the leaked subgraph
    readings would index past the first graph's table instead of reading
    wrong."""
    tags = ("UB", "C1", "C2", "Squeeze")
    chars = (0, 2)

    def fresh(tag):
        check = harness._CHECKS[tag][0]
        return (tag, *reference_report(lambda g, chars: check(g, chars, _ReferenceFacts(g)), corpus6, chars))

    def summary(reports):
        return [(r.property_name, r.checked, r.violations, r.skips) for r in reports]

    reference = [fresh(tag) for tag in tags]
    assert summary(harness.verify_lemma_suite(corpus6, tags, chars=chars)) == reference
    record = classifier._record
    kept = []

    def leaky(g, known):
        if not kept:
            kept.append(record(g, known))
        return kept[0]

    monkeypatch.setattr(classifier, "_record", leaky)
    assert summary(harness.verify_lemma_suite(corpus6, tags, chars=chars)) != reference


def _rewrite(monkeypatch, owner, name: str, old: str, new: str) -> None:
    """Patch ``owner.name``, a function of a module or a method of a class,
    with the function compiled from its own source, ``old`` (which must
    occur exactly once) replaced by ``new``, in its module's globals."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, old
    module = inspect.getmodule(owner)
    namespace: dict = {}
    exec(compile(source.replace(old, new), module.__file__, "exec"), module.__dict__, namespace)
    monkeypatch.setattr(owner, name, namespace[name])


_NON_CUT = "if _reach(adj, 1 << v, full ^ 1 << x) == full ^ 1 << x:"
_INVARIANT_TIE = "sorted(cand_deg[y] for y in _bits(adj[x])) <= mine:"


@pytest.mark.parametrize(
    "old, new",
    [(_NON_CUT, "if True:"), (_INVARIANT_TIE, _INVARIANT_TIE.replace("<=", "<"))],
    ids=["without-non-cut", "index-tie-break"],
)
def test_augmentation_filter_losing_classes(old, new, monkeypatch):
    """Filter (b) of ``harness._connected_levels`` skips a candidate when a
    non-cut vertex beats the new vertex on ``(degree, sorted neighbour
    degrees)``.  Two mutants lose classes: one skips for any vertex that
    beats it, cut vertex or not, and so loses the path on three vertices,
    whose middle vertex beats both ends and cuts it; one breaks a tie on
    the invariant by vertex index, against the new vertex, and so loses
    every graph from ``K_2`` on, whose two vertices tie.  Caught by the
    counts of ``CONNECTED_COUNTS`` and, with them emptied, by the loop
    that keys every candidate (``helpers.keyed_levels``) at n <= 6.  First
    recorded with the filters (the enumeration-pruning entry in
    CHANGES.md)."""
    reference = keyed_levels(6)
    assert list(harness._connected_levels(6)) == reference
    _rewrite(monkeypatch, harness, "_connected_levels", old, new)
    with pytest.raises(AssertionError, match="enumeration found"):
        harness.connected_graphs(6)
    monkeypatch.setattr(harness, "CONNECTED_COUNTS", {})
    assert list(harness._connected_levels(6)) != reference


@pytest.fixture(scope="module")
def relabelled6(corpus6):
    """A seeded relabelling of each graph of ``corpus_up_to(6)``, with its
    least column string over every vertex order
    (``helpers.brute_canonical_form``)."""
    rng = random.Random(2930)
    graphs = []
    for g in corpus6:
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(relabel(g, perm))
    return graphs, [brute_canonical_form(g) for g in graphs]


def _lex_min_forms(graphs):
    return [column_string(graph_core.canonical_form(g)) for g in graphs]


def test_lex_min_search_staying_below_after_an_improvement(relabelled6, monkeypatch):
    """``canonical_form`` holds whether its string is below the best string
    or equal to it; once a child improves the best, the string equals the
    new best.  A mutant that stays below takes every later leaf under that
    node as an improvement, whatever its string.  Caught by
    ``helpers.brute_canonical_form`` (every vertex order) on a seeded
    relabelling of each graph of ``corpus_up_to(6)``.  First recorded with
    the incremental search (the enumeration-pruning entry in CHANGES.md),
    and kept by the search over cells."""
    graphs, reference = relabelled6
    assert _lex_min_forms(graphs) == reference
    _rewrite(monkeypatch, graph_core, "canonical_form", "below = False  # the new best extends this prefix", "pass")
    assert _lex_min_forms(graphs) != reference


_SEED = "descend(alpha, [seed], full ^ seed, best is None)"
_SPLIT = "(cell & ~nb, cell & nb)"


@pytest.mark.parametrize(
    "old, new",
    [(_SEED, _SEED + "; break"), (_SPLIT, "(cell & nb, cell & ~nb)")],
    ids=["first-seed-only", "neighbours-first"],
)
def test_lex_min_search_over_cells_mutants(old, new, relabelled6, monkeypatch):
    """``canonical_form`` searches from every maximum independent set, up
    to twins, and a placed vertex splits each cell into its non-neighbours
    and then its neighbours, the order its column is read in.  One mutant
    searches from the first maximum independent set only, and so misses the
    least string when another set starts it.  One splits the neighbours
    first, so the cells no longer match the columns recorded for them.
    Each is caught by ``helpers.brute_canonical_form`` on a seeded
    relabelling of each graph of ``corpus_up_to(6)``.  First recorded with
    the search over cells (its entry in CHANGES.md)."""
    graphs, reference = relabelled6
    assert _lex_min_forms(graphs) == reference
    _rewrite(monkeypatch, graph_core, "canonical_form", old, new)
    assert _lex_min_forms(graphs) != reference


@pytest.mark.parametrize(
    "owner, name, old, new, caught_on",
    [
        (matchings, "mm", "k - size_fn(cover)", "k - size_fn(full)", path(2)),
        (
            graph_core,
            "maximal_independent_sets",
            "cand & closed[u] for u",
            "cand & closed[u] & ~(1 << u) for u",
            path(3),
        ),
    ],
    ids=["nu-of-whole-graph", "pivot-left-out"],
)
def test_mm_cover_formula_mutants(owner, name, old, new, caught_on, corpus6, monkeypatch):
    """``matchings.mm`` takes the least ``|C| - nu(G[C])`` over the
    complements ``C`` of the maximal independent sets that Bron-Kerbosch
    lists (``graph_core.maximal_independent_sets``).  One mutant reads
    ``nu(G)`` in place of ``nu(G[C])``, and so gives 0 on ``K_2``.  One
    leaves the pivot out of the lister's branch set, and so misses the
    independent sets holding it: on ``P_3`` it lists only the middle
    vertex, and ``mm`` reads 2 against 1.  Each is caught by the reference
    comparison with the branching search
    (``test_mm_cover_formula_matches_search``), first on the named graph in
    corpus order, where the unmutated code passes.  First recorded with the
    cover formula (the minimum-maximal-matching entry in CHANGES.md)."""

    def first_mismatch():
        return next((g for g in corpus6 if matchings.mm(g) != len(matchings._min_maximal_edges(g))), None)

    assert matchings.mm(caught_on) == len(matchings._min_maximal_edges(caught_on))
    assert first_mismatch() is None
    _rewrite(monkeypatch, owner, name, old, new)
    # matchings holds its own reference to the lister.
    monkeypatch.setattr(matchings, "maximal_independent_sets", graph_core.maximal_independent_sets)
    caught = first_mismatch()
    assert caught is not None
    assert graph_core.canonical_form(caught) == graph_core.canonical_form(caught_on)
    assert matchings.mm(caught_on) != len(matchings._min_maximal_edges(caught_on))


_NEAR = "near = [0] * g.n\n    for u, v in g._edges:\n        near[u] |= has[v]\n        near[v] |= has[u]"


@pytest.mark.parametrize(
    "old, new, caught_on",
    [
        (_NEAR, _NEAR.replace("[0]", "[-1]").replace("|=", "&="), path(3)),
        ("compress(range(size),", "compress(range(size - 1),", path(2)),
    ],
    ids=["any-neighbour-absent", "full-mask-left-out"],
)
def test_isolated_vertex_selector_mutants(old, new, caught_on, corpus5, monkeypatch):
    """The walk hands its kernel only the masks that
    ``graph_core.masks_without_isolated_vertex`` lists; every other entry
    keeps the 0 of a cone.  One mutant clears a mask when any neighbour of
    one of its vertices is absent, not when all are, and so leaves an end
    and the middle vertex of ``P_3``, two points, at 0.  One never lists
    the full mask,
    and so leaves the edge of ``K_2`` at 0.  Each is caught by the
    comparison with ``helpers.all_subsets_walk``
    (``test_walk_matches_all_subsets_walk``), first on the named graph in
    corpus order.  First recorded with the selector (its entry in
    CHANGES.md)."""

    def first_mismatch():
        return next((g for g in corpus5 if ro._walk_table(g, 0) != all_subsets_walk(g, 0)), None)

    assert first_mismatch() is None
    _rewrite(monkeypatch, graph_core, "masks_without_isolated_vertex", old, new)
    # The walk holds its own reference to the selector.
    monkeypatch.setattr(ro, "masks_without_isolated_vertex", graph_core.masks_without_isolated_vertex)
    caught = first_mismatch()
    assert caught is not None
    assert graph_core.canonical_form(caught) == graph_core.canonical_form(caught_on)


def test_bounds_memo_keyed_by_the_labelled_graph(monkeypatch):
    """``bounds_engine._refine`` keys its memo by ``canonical_form``, so
    every isomorphic subgraph the vertex recursion reaches is one hit.  A
    mutant that keys it by the labelled graph misses the hits between
    relabelled copies and spends more of the node budget: on ``G?LTE?`` at
    budget 5 it runs out, though the interval stays [3, 4].  Caught by the
    flag, which the sha256 of ``eilab bounds`` over the connected 8-vertex
    graphs at ``--budget 5`` pins as well."""
    g = parse_graph6("G?LTE?")

    def refined():
        iv = bounds_engine.refine_bounds(g, budget=5)
        return iv.lo, iv.hi, iv.budget_exhausted

    assert refined() == (3, 4, False)
    _rewrite(monkeypatch, bounds_engine, "_refine", "key = graph_core.canonical_form(g)", "key = g")
    assert refined() == (3, 4, True)


def test_vertex_recursion_cutting_only_the_neighbours(monkeypatch):
    """``bounds_engine._refine`` cuts ``G - x`` as
    ``_drop_vertices(g, 1 << x)``.  A mutant that drops ``N(x)`` there in
    place of ``x`` narrows the interval of ``F?NF_`` past its regularity,
    3, and the refinement finds it empty.  Caught by
    ``test_soundness_against_oracle``, whose first failing graph in the
    n <= 7 corpus it is."""
    g = parse_graph6("F?NF_")
    assert ro.regularity(g, FieldSpec(0)).reg_star == 3
    iv = bounds_engine.refine_bounds(g)
    assert (iv.lo, iv.hi, iv.budget_exhausted) == (3, 3, False)
    _rewrite(monkeypatch, bounds_engine, "_refine", "_drop_vertices(g, 1 << x)", "_drop_vertices(g, g.adj_mask(x))")
    with pytest.raises(AssertionError, match="refinement produced an empty interval"):
        bounds_engine.refine_bounds(g)


def _split_and_whole(g, char: int):
    """``reg_star`` from ``regularity``, which combines the components'
    readings, and from the walk over every subset of the whole graph."""
    ro._whole_graph.cache_clear()
    return ro.regularity(g, FieldSpec(char)).reg_star, ro.subgraph_regularity(g, FieldSpec(char)).whole()


def test_component_rule_taking_the_largest_component(monkeypatch):
    """``union_reg_star`` adds ``reg - 1`` over the components.  A mutant
    that takes the largest in place of the sum gives C5 + C5 the ``reg_star``
    3 of one C5.  Caught by the whole-graph walk, the reference of
    ``test_component_split_matches_whole_graph_walk``, which reads 5."""
    c5c5 = graph_core.disjoint_union(cycle(5), cycle(5))
    assert _split_and_whole(c5c5, 0) == (5, 5)
    _rewrite(monkeypatch, ro, "union_reg_star", "1 + sum(reg - 1 for reg in regs)", "1 + max(reg - 1 for reg in regs)")
    assert _split_and_whole(c5c5, 0) == (3, 5)


def test_torsion_rule_reusing_the_char0_table_everywhere(monkeypatch):
    """``SubgraphRegularity.at`` reuses a char-0 table only at a
    characteristic that divides none of its torsion.  A mutant that reuses
    it at every characteristic reads the flag RP^2 graph at char 2 off its
    char-0 table, ``reg_star`` 3.  Caught by the walk at char 2 itself, the
    reference of ``test_torsion_fallback_flag_rp2``, which reads 4."""
    rp2 = flag_rp2_complement()
    assert _split_and_whole(rp2, 2) == (4, 4)
    _rewrite(monkeypatch, ro.SubgraphRegularity, "at", "not any(p % c == 0 for p in self.torsion)", "True")
    assert _split_and_whole(rp2, 2) == (3, 4)


def test_diagonal_leaving_a_pivot_before_its_row_and_column_clear(monkeypatch):
    """``homology._diagonal`` records a pivot only once Euclid has cleared
    its row and column; otherwise a smaller remainder becomes the next
    pivot.  A mutant that records every pivot at once drops the remainders
    and reads wrong ranks.  Caught by the rank comparison with
    ``helpers.brute_rank`` on the seeded matrices, the reference of
    ``test_unit_elimination_keeps_rank``.  First run on a scratch copy with
    the one exact rank path (its entry in CHANGES.md)."""

    def mismatches():
        return sum(
            sum(1 for p in homology._diagonal([dict(col) for col in cols]) if char == 0 or p % char)
            != brute_rank([[col.get(r, 0) for r in range(n_rows)] for col in cols], char)
            for n_rows, cols in seeded_matrices()
            for char in (0, 2, 3, 5)
        )

    assert mismatches() == 0
    _rewrite(monkeypatch, homology, "_diagonal", "if clear:", "if True:")
    assert mismatches() > 0


def test_rank_counting_every_diagonal_entry_at_a_prime(monkeypatch):
    """``homology_from_masks`` counts a diagonal entry towards the rank at
    characteristic ``c`` only if ``c`` does not divide it.  A mutant that
    counts every entry reads the flag RP^2 graph's char-2 walk as its
    char-0 one, ``reg_star`` 3.  Caught by the field dependence that
    ``test_characteristic_dependence_flag_rp2`` pins, 4 at char 2.  First
    run on a scratch copy with the one exact rank path (its entry in
    CHANGES.md)."""
    rp2 = flag_rp2_complement()
    assert _split_and_whole(rp2, 2) == (4, 4)
    _rewrite(monkeypatch, homology, "homology_from_masks", "if char == 0 or p % char", "")
    # The walk holds its own reference to the kernel.
    monkeypatch.setattr(ro, "homology_from_masks", homology.homology_from_masks)
    assert _split_and_whole(rp2, 2) == (3, 3)


def test_union_verdict_read_off_the_first_part_only(corpus5, monkeypatch):
    """The theorem sweep reads a union's verdicts off the records of both
    its graphs.  A mutant that reads the first graph's alone gives C5 + C5
    the ``reg_star`` 3 of one C5, and every union the shapes of its first
    part.  Caught by ``classify`` on each union built
    (``test_pair_verdicts_equal_classify_on_the_union``) on the unions of
    the n <= 5 corpus."""

    def mismatches():
        return sum(mine != reference for mine, reference in pair_verdicts(corpus5, 9))

    assert mismatches() == 0
    _rewrite(monkeypatch, classifier, "_sides", "for record in records for _, part", "for record in records[:1] for _, part")
    assert mismatches() == sum(1 for _ in unions.union_index_pairs(corpus5, 9))


def test_pair_loop_dropping_the_repeated_graph(corpus5, monkeypatch):
    """``unions.union_index_pairs`` yields ``(i, j)`` with ``i <= j``, so each
    graph is also united with itself.  A mutant that starts ``j`` past
    ``i`` drops those unions.  Caught by the pairs of every two indices
    with repeats (``itertools.combinations_with_replacement``) that fit
    the cap, and by the theorem sweep's count, which the ``tier1`` CI job
    pins at 3,415 for the n <= 7 corpus."""
    sizes = [g.n for g in corpus5]
    reference = [(i, j) for i, j in combinations_with_replacement(range(len(sizes)), 2) if sizes[i] + sizes[j] <= 9]

    def pairs_and_count():
        pairs = list(unions.union_index_pairs(corpus5, 9))
        return pairs, harness.verify_theorem(corpus5, chars=(0,)).checked

    assert pairs_and_count() == (reference, len(corpus5) + len(reference))
    _rewrite(monkeypatch, unions, "union_index_pairs", "bisect_left(fits[total_cap - n], i)", "bisect_left(fits[total_cap - n], i + 1)")
    pairs, checked = pairs_and_count()
    assert pairs == [(i, j) for i, j in reference if i != j]
    assert checked == len(corpus5) + len(pairs) < len(corpus5) + len(reference)


def _shapes_per_sweep(corpus5, monkeypatch) -> list[int]:
    """The ``component_shape`` calls of each of two theorem sweeps in a row
    over the n <= 5 corpus and its unions."""
    shape = classifier.component_shape
    measured = []

    def counted(comp):
        measured.append(comp)
        return shape(comp)

    monkeypatch.setattr(classifier, "component_shape", counted)
    counts = []
    for _ in range(2):
        harness.verify_theorem(corpus5, chars=(0,))
        counts.append(len(measured))
        measured.clear()
    return counts


def test_module_global_theorem_dict(corpus5, monkeypatch):
    """The sweep's dict from each component to its record lives as long as
    the sweep.  A mutant that keeps one dict in the module answers a second
    sweep from the first, measuring nothing.  Caught by counting
    ``component_shape`` calls per sweep, as
    ``test_theorem_sweep_measures_each_component_once`` does.  First
    recorded with the per-sweep dict (the CHANGES.md entry on verify
    sweeps that keep what they already hold)."""
    assert _shapes_per_sweep(corpus5, monkeypatch) == [len(corpus5)] * 2
    monkeypatch.setattr(harness, "_RECORDS", {}, raising=False)
    _rewrite(monkeypatch, harness, "verify", "records: dict = {}", "records: dict = _RECORDS")
    assert _shapes_per_sweep(corpus5, monkeypatch) == [len(corpus5), 0]


def test_record_dict_keyed_by_vertex_count(corpus5, monkeypatch):
    """The sweep's dict is keyed by component.  A mutant that keys it by
    the component's vertex count hands every graph the record of the first
    graph of its size, so the sweep measures one shape per vertex count and
    reads other graphs' verdicts.  Caught by counting ``component_shape``
    calls per sweep (``test_theorem_sweep_measures_each_component_once``),
    and by ``classify`` on each union built
    (``test_pair_verdicts_equal_classify_on_the_union``)."""

    def mismatches():
        return sum(mine != reference for mine, reference in pair_verdicts(corpus5, 9, (0,)))

    assert _shapes_per_sweep(corpus5, monkeypatch) == [len(corpus5)] * 2
    assert mismatches() == 0
    _rewrite(
        monkeypatch,
        classifier,
        "_record",
        "record = known.get(g)\n        if record is None:\n            record = known[g] = _GraphFacts(g)",
        "record = known.get(g.n)\n        if record is None:\n            record = known[g.n] = _GraphFacts(g)",
    )
    assert _shapes_per_sweep(corpus5, monkeypatch) == [len({g.n for g in corpus5})] * 2
    assert mismatches() > 0


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("whole", "_digits(max(self._table))", "_digits(max(self._table[1:]))"),
        ("induced_direct", "top = max(top, table[sub])", "top = max(top, table[sub]) if sub else top"),
    ],
    ids=["union-reading", "component-reading"],
)
def test_comp_reading_without_the_empty_complex(name, old, new, corpus5, monkeypatch):
    """Comp reads ``reg_star`` of a union, and of each of its components,
    as the digit count of the largest entry over the subsets, the empty
    one included: ``table[0] = 1`` is the empty complex, so an edgeless
    graph reads 1.  One mutant drops ``table[0]`` from the union's reading,
    and so reads 0 on the edgeless union of two vertices; one drops it from
    each component's, and so reads 0 on every isolated vertex.  Each is
    caught by ``test_lemma_comp_on_unions``, Comp over the unions of the
    n <= 5 corpus.  First recorded with Comp's table reading (the
    CHANGES.md entry on verify sweeps that keep what they already hold)."""

    def comp():
        (rep,) = harness.verify_lemma_suite(corpus5, ["Comp"], union_total_cap=8)
        return rep

    assert comp().passed
    _rewrite(monkeypatch, ro.SubgraphRegularity, name, old, new)
    violations = comp().violations
    assert violations and all("!= component sum" in detail for _, detail in violations)


def _rewrite_check(monkeypatch, tag: str, name: str, old: str, new: str) -> None:
    """``_rewrite`` of a row check of ``harness``, and its entry in the
    check table, which holds the function itself."""
    _rewrite(monkeypatch, harness, name, old, new)
    monkeypatch.setitem(harness._CHECKS, tag, (getattr(harness, name), None))


def _fl3_refills(corpus6, monkeypatch) -> int:
    """The ``edge_deleted`` refills of the FL3 sweep over the n <= 6 corpus
    at char 0, whose report must pass."""
    edge_deleted = ro.SubgraphRegularity.edge_deleted
    refilled = []

    def counted(self, u, v):
        refilled.append((u, v))
        return edge_deleted(self, u, v)

    monkeypatch.setattr(ro.SubgraphRegularity, "edge_deleted", counted)
    (rep,) = harness.verify_lemma_suite(corpus6, ["FL3"], chars=(0,))
    assert (rep.checked, rep.violations, rep.skips) == (len(corpus6), (), ())
    return len(refilled)


_FL3_PRUNE = "if reg <= max(shared, closed + 1):"
_FL3_SHARED = "shared = max(sub.induced(full ^ 1 << u), sub.induced(full ^ 1 << v))"


@pytest.mark.parametrize(
    "old, new",
    [(_FL3_PRUNE, "if True:"), (_FL3_SHARED, _FL3_SHARED.replace("max", "min", 1))],
    ids=["prune-every-edge", "min-shared-bound"],
)
def test_fl3_refill_bound_mutants(old, new, corpus6, monkeypatch):
    """FL3 refills ``G - e`` only where ``reg(G)`` exceeds both
    ``reg(G - N[e]) + 1`` and the larger of ``reg(G - u)`` and
    ``reg(G - v)``.  One mutant prunes every edge, and so refills none and
    can miss a violation; one takes the smaller of the two, a weaker bound,
    and so refills more edges than needed.  The reports still pass on true
    readings; each is caught by the count of refilled edges that
    ``test_fl3_refills_only_undecided_edges`` pins: 32 on the n <= 6
    corpus at char 0 (its 222 up to 7 vertices less the 190 on 7).  First
    recorded with FL3's bound (the FL3 refill entry in CHANGES.md)."""
    assert _fl3_refills(corpus6, monkeypatch) == 32
    _rewrite_check(monkeypatch, "FL3", "_check_fl3", old, new)
    assert _fl3_refills(corpus6, monkeypatch) != 32


def _squeeze_outcomes(monkeypatch):
    """Squeeze's reports, and the caps of its cover searches, on four
    planted cases at chars 0 and 2 (``test_squeeze_refusals``,
    ``test_squeeze_reports_a_wrong_reading``): C5 (reg 3, need 2) with a
    search refusing at its work bound; C5 read 7 (need 6, cap 4) with a
    search refusing at its cap; K4 read 3 and 4 (need 3, cap 2), where the
    search finds its one-part cover; and K4 as it is (reg 2, need 1), with
    a search that would refuse."""
    reg_star = classifier._GraphFacts.reg
    cochord_number = chordality.cochord_number
    caps = []

    def report(g, skew, error=None):
        def search(h, cap=4):
            caps.append(cap)
            if error:
                raise error("refused", best_bound=3)
            return cochord_number(h, cap)

        monkeypatch.setattr(chordality, "cochord_number", search)
        monkeypatch.setattr(classifier._GraphFacts, "reg", lambda facts, c: reg_star(facts, c) + skew.get(c, 0))
        (rep,) = harness.verify_lemma_suite([g], ["Squeeze"], chars=(0, 2))
        return rep.violations, rep.skips

    c5, k4 = cycle(5), complete(4)
    outcomes = [
        report(c5, {}, WorkBoundExceeded),
        report(c5, {0: 4, 2: 4}, CapExceeded),
        report(k4, {0: 1, 2: 2}),
        report(k4, {}, CapExceeded),
    ]
    monkeypatch.setattr(classifier._GraphFacts, "reg", reg_star)
    monkeypatch.setattr(chordality, "cochord_number", cochord_number)
    return outcomes, caps


@pytest.mark.parametrize(
    "old, new",
    [
        ("    except WorkBoundExceeded:\n        raise\n", ""),
        ("for c, reg in regs if reg > k + 1)", "for c, reg in regs if reg > need)"),
        ("if need <= 1:", "if need < 1:"),
        ("        if cap < need - 1:\n            raise\n", ""),
    ],
    ids=["work-bound-passes", "need-for-cover", "search-at-need-1", "cap-4-passes"],
)
def test_squeeze_capped_search_mutants(old, new, monkeypatch):
    """Squeeze asks the cover search only whether a cover with fewer than
    ``need = max(reg) - 1`` parts exists.  Four mutants: one lets the work
    bound through as the bound holding; one compares each ``reg`` with
    ``need`` instead of the cover number plus one; one searches at ``need
    == 1``, where the bound already holds; one passes a refusal at cap 4
    below ``need - 1``.  Each is caught by the planted cases of
    ``test_squeeze_refusals`` and ``test_squeeze_reports_a_wrong_reading``
    (``_squeeze_outcomes``).  First recorded with the capped search (the
    Squeeze entry in CHANGES.md)."""
    c5, k4 = (encode_graph6(g) for g in (cycle(5), complete(4)))
    chain = "chain broken: 2 <= 4 <= 3 <= 3"
    reference = (
        [
            ((), (c5,)),
            ((), (c5,)),
            (
                (
                    (k4, "char 0: reg 3 > cochord+1 = 2"),
                    (k4, "char 2: " + chain),
                    (k4, "char 2: reg 4 > cochord+1 = 2"),
                ),
                (),
            ),
            ((), ()),
        ],
        [1, 4, 2],
    )
    assert _squeeze_outcomes(monkeypatch) == reference
    _rewrite_check(monkeypatch, "Squeeze", "_check_squeeze", old, new)
    assert _squeeze_outcomes(monkeypatch) != reference
