"""Mutants that the reference comparisons must catch.

Each test patches one fault into the package in process, with
``monkeypatch``, and names the reference comparison that detects it.  The
same comparison is run on the unmutated code first and must pass there, so
a later change that weakens the comparison, or the code path it covers,
shows up here.
"""

from __future__ import annotations

from math import comb

import pytest

from eilab import harness, matchings, subgraph_oracle
from eilab import regularity_oracle as ro
from eilab.formats_io import encode_graph6
from eilab.regularity_oracle import ORACLE_VERTEX_CAP, FieldSpec

from helpers import brute_betti, rp2_minus_vertex_and_edge


@pytest.fixture(scope="module")
def flag_relative():
    """``JWaqbO\\euT?``, with its char-0 Betti table by Hochster's formula
    (``helpers.brute_betti``).  It has a subset that no vertex splits."""
    g = rp2_minus_vertex_and_edge()
    assert encode_graph6(g) == "JWaqbO\\euT?"
    return g, brute_betti(g, 0)


def _betti_fresh(g, monkeypatch) -> dict:
    monkeypatch.setattr(ro, "_SWEEP_MEMO", {})
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
    assert _betti_fresh(g, monkeypatch) == reference
    monkeypatch.setattr(ro, "_HIGH", 0)
    assert _betti_fresh(g, monkeypatch) != reference


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
    assert _betti_fresh(g, monkeypatch) == reference
    _set_width(monkeypatch, largest.bit_length())
    assert _betti_fresh(g, monkeypatch) != reference


class _ReferenceFacts:
    """Every fact computed afresh by its own route, nothing kept: a walk
    at each characteristic, ``regularity`` for ``reg_star``, and the
    matching searches."""

    def __init__(self, g):
        self.graph = g

    def readings(self, c):
        return subgraph_oracle.subgraph_regularity(self.graph, FieldSpec(c))

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
    Caught by comparing each report with a sweep of its tag alone over
    ``_ReferenceFacts`` on the n <= 6 corpus.  Only tags that read those
    four facts run: the leaked subgraph readings would index past the
    first graph's table instead of reading wrong."""
    tags = ("UB", "C1", "C2", "Squeeze")
    chars = (0, 2)

    def fresh(tag):
        check = harness._LEMMA_CHECKS[tag]
        (report,) = harness._sweeps({tag: check}, corpus6, chars, _ReferenceFacts)
        return report

    def summary(reports):
        return [(r.property_name, r.checked, r.violations, r.skips) for r in reports]

    reference = summary(fresh(tag) for tag in tags)
    assert summary(harness.verify_lemma_suite(corpus6, tags, chars=chars)) == reference
    record = harness._GraphFacts
    kept = []

    def leaky(g):
        if not kept:
            kept.append(record(g))
        return kept[0]

    monkeypatch.setattr(harness, "_GraphFacts", leaky)
    assert summary(harness.verify_lemma_suite(corpus6, tags, chars=chars)) != reference
