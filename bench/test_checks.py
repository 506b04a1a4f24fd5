"""The benchmark's checkers accept correct outputs and reject corrupted ones.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py

Each corruption is one a real fault could produce: a Betti entry off by
one, a regularity off by one, a cover part that is not co-chordal, a corpus
graph missing or repeated, a bounds interval that misses the value, a sweep
that skipped a graph.
"""

from __future__ import annotations

import pytest

import checks
from eilab import chordality, graph_core, harness, matchings
from eilab.harness import SweepReport
from eilab.regularity_oracle import FieldSpec, betti_table, regularity


def cycle(n):
    return graph_core.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return graph_core.from_edges(n, [(i, i + 1) for i in range(n - 1)])


@pytest.fixture(scope="module")
def corpus6():
    return list(harness.corpus_up_to(6).graphs)


def test_union_count_matches_enumeration(corpus6):
    counts = {n: c for n, c in checks.A001349.items() if n <= 6}
    assert checks.union_count(counts, 9) == len(harness.union_pairs(corpus6, 9))


def test_corpus_accepted(corpus6):
    assert checks.check_corpus(corpus6, 6) == []


def test_corpus_missing_graph_rejected(corpus6):
    assert checks.check_corpus(corpus6[:-1], 6)


def test_corpus_repeated_graph_rejected(corpus6):
    repeated = corpus6[:-1] + [corpus6[-2]]
    assert checks.check_corpus(repeated, 6)


def test_independence_polynomial_of_a_path():
    # P4 (0-1-2-3): 1 empty set, 4 singletons, 3 non-adjacent pairs.
    assert checks.independence_polynomial(path(4)) == [1, 4, 3, 0, 0]


@pytest.mark.parametrize("g", [cycle(5), cycle(6), path(5), graph_core.from_edges(4, [(0, 1), (2, 3)])])
@pytest.mark.parametrize("char", [0, 2, 3])
def test_betti_accepted(g, char):
    table = betti_table(g, FieldSpec(char)).as_dict()
    assert checks.check_betti(g, table) == []
    assert checks.check_reg_matches_betti(regularity(g, FieldSpec(char)).reg_star, table) == []


@pytest.mark.parametrize("g", [cycle(5), cycle(6), path(5)])
def test_betti_entry_off_by_one_rejected(g):
    table = betti_table(g, FieldSpec(0)).as_dict()
    for key in table:
        if key in ((0, 0), (1, 2)):
            continue
        corrupt = dict(table)
        corrupt[key] += 1
        assert checks.check_betti(g, corrupt), key


def test_beta_12_off_by_one_rejected():
    g = cycle(5)
    table = betti_table(g, FieldSpec(0)).as_dict()
    table[1, 2] += 1
    assert checks.check_betti(g, table)


def test_regularity_off_by_one_rejected():
    g = cycle(6)
    table = betti_table(g, FieldSpec(0)).as_dict()
    reg = regularity(g, FieldSpec(0)).reg_star
    assert checks.check_known_reg("cycle", 6, reg) == []
    for wrong in (reg - 1, reg + 1):
        assert checks.check_known_reg("cycle", 6, wrong)
        assert checks.check_reg_matches_betti(wrong, table)


@pytest.mark.parametrize("n", range(3, 10))
def test_closed_forms_agree_with_oracle_on_small_cases(n):
    assert checks.check_known_reg("cycle", n, regularity(cycle(n)).reg_star) == []
    assert checks.check_known_reg("path", n, regularity(path(n)).reg_star) == []


def test_dominance_rejects_a_smaller_entry():
    rational = {(0, 0): 1, (1, 2): 5, (2, 4): 3}
    assert checks.check_dominance(2, dict(rational), rational) == []
    assert checks.check_dominance(2, {(0, 0): 1, (1, 2): 5, (2, 4): 2}, rational)


def test_interval_must_contain_reg():
    assert checks.check_interval(3, 4, 3) == []
    assert checks.check_interval(4, 5, 3)
    assert checks.check_interval(2, 2, 3)


def test_matching_number_checked_against_networkx():
    g = cycle(7)
    assert checks.check_matching_number(g, matchings.nu(g)) == []
    assert checks.check_matching_number(g, matchings.nu(g) + 1)


def test_cover_accepted_and_corruptions_rejected():
    g = cycle(6)
    cover = chordality.cochord_number(g, cap=4)
    assert checks.check_cover(g, cover.parts) == []
    # 2K2 is not co-chordal: its complement is the 4-cycle.
    assert checks.check_cover(g, [((0, 1), (3, 4))] + [(e,) for e in g.edges])
    assert checks.check_cover(g, cover.parts[:-1])
    assert checks.check_cover(g, cover.parts + (((0, 3),),))


def test_sweep_report_with_skip_or_wrong_count_rejected():
    ok = SweepReport("FL2", 853, (), (), 1.0)
    assert checks.check_reports([ok], [("FL2", 853)]) == []
    assert checks.check_reports([SweepReport("FL2", 853, (), ("F?",), 1.0)], [("FL2", 853)])
    assert checks.check_reports([SweepReport("FL2", 853, (("F?", "x"),), (), 1.0)], [("FL2", 853)])
    assert checks.check_reports([SweepReport("FL2", 852, (), (), 1.0)], [("FL2", 853)])
