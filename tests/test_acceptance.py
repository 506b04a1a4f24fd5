"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.  Every tolerance here is zero: the checked statements
are exact equivalences and inequalities on finite corpora.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from eilab import cameron_walker as cw
from eilab import chordality as ch
from eilab import formats_io as fio
from eilab import graph_core as gc
from eilab import harness
from eilab import matchings as M
from eilab.regularity_oracle import FieldSpec, betti_table, regularity

from helpers import brute_homology, cycle, independence_complex, reduced_homology_dims


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_main_theorem_exhaustive(corpus7):
    rep = harness.verify_theorem(
        corpus7, chars=(0, 2), include_unions=True, union_total_cap=9
    )
    _verdict(
        1,
        rep.passed and not rep.skips,
        f"main theorem on {rep.checked} graphs (connected n<=7 plus 2-component "
        f"unions n<=9) over char 0 and 2: {len(rep.violations)} violations, "
        f"{len(rep.skips)} skips [{rep.seconds:.1f}s]",
    )


def test_criterion_2_pentagon_values():
    failures = []
    for char in (0, 2, 3):
        got = regularity(cycle(5), FieldSpec(char)).reg_star
        if got != 3 or got != M.nu(cycle(5)) + 1:
            failures.append(f"reg(C5) char {char} = {got}")
    base = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    chords = [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    for chord in chords:
        g = gc.from_edges(5, base + [chord])
        got = regularity(g, FieldSpec(0)).reg_star
        if got != 2:
            failures.append(f"reg(C5+{chord}) = {got}")
    _verdict(
        2,
        not failures,
        "reg(C5) = 3 = nu+1 over char 0/2/3 and reg(C5 + one chord) = 2 "
        f"for all 5 chords{': ' + '; '.join(failures) if failures else ''}",
    )


def test_criterion_3_squeeze_chain(corpus7):
    reports = harness.verify_lemma_suite(corpus7, ["Squeeze"], chars=(0,))
    rep = reports[0]
    _verdict(
        3,
        rep.passed and not rep.skips,
        f"nu0+1 <= reg <= mm+1 <= nu+1 and reg <= cochord+1 on {rep.checked} "
        f"corpus graphs: {len(rep.violations)} violations [{rep.seconds:.1f}s]",
    )


def test_criterion_4_cameron_walker_equivalence(corpus7):
    violations = []
    checked = 0
    for g in corpus7:
        checked += 1
        shape = cw.recognize_structural(g)
        valid = shape is None or cw.validate_decomposition(g, shape)
        if (shape is not None) != cw.cw_by_invariants(g) or not valid:
            violations.append(fio.encode_graph6(g))
    _verdict(
        4,
        not violations,
        f"structural recognizer vs nu=nu0 on {checked} connected graphs n<=7: "
        f"{len(violations)} violations",
    )


def test_criterion_5_lemma_suite(corpus6):
    t0 = time.monotonic()
    tags = ["FL1", "FL2", "FL3", "C1", "C1a", "C2", "UB"]
    reports = harness.verify_lemma_suite(corpus6, tags, chars=(0,))
    reports += harness.verify_lemma_suite(corpus6, ["Comp"], union_total_cap=9)
    g7 = harness.connected_graphs(7)
    budget_start = time.monotonic()
    reports += harness.verify_lemma_suite(g7, ["FL2", "FL3"], chars=(0,))
    within_budget = time.monotonic() - budget_start < 1800
    bad = [rep.property_name for rep in reports if not rep.passed or rep.skips]
    _verdict(
        5,
        not bad and within_budget,
        f"lemma sweeps {[r.property_name for r in reports]} on n<=6 corpora "
        f"plus FL2/FL3 at n=7: failures={bad or 'none'} "
        f"[{time.monotonic() - t0:.1f}s, n=7 part within 30min: {within_budget}]",
    )


def test_criterion_6_oracle_self_consistency(corpus7):
    failures = []
    # Euler-characteristic self-check runs inside every homology evaluation
    # and raises on mismatch; exercise it independently on sampled complexes.
    rng = random.Random(0xE1AB)
    sample = rng.sample(list(corpus7), 40)
    for g in sample:
        comp = independence_complex(g)
        dims = reduced_homology_dims(comp, FieldSpec(0))
        faces = comp.faces_by_dim()
        euler = sum((-1) ** d * len(fs) for d, fs in faces.items()) - 1
        alt = sum((-1) ** t * v for t, v in dims.items() if t >= 0) - dims[-1]
        if alt != euler:
            failures.append(f"euler mismatch on {fio.encode_graph6(g)}")
    # Betti table consistency with the regularity value on 200 samples.
    with_edges = [g for g in corpus7 if g.num_edges]
    for g in rng.sample(with_edges, 200):
        table = betti_table(g, FieldSpec(0))
        if table.regularity_ideal() != regularity(g, FieldSpec(0)).reg_star:
            failures.append(f"betti/reg mismatch on {fio.encode_graph6(g)}")
    # Field independence across Q, GF(2), GF(3) on the whole corpus.
    diffs = 0
    for g in corpus7:
        regs = {c: regularity(g, FieldSpec(c)).reg_star for c in (0, 2, 3)}
        if len(set(regs.values())) != 1:
            diffs += 1
            failures.append(f"field dependence on {fio.encode_graph6(g)}: {regs}")
    _verdict(
        6,
        not failures,
        f"Euler check on 40 sampled complexes, Betti-vs-regularity on 200 "
        f"samples, field independence Q/GF(2)/GF(3) on {len(corpus7)} graphs: "
        f"{len(failures)} failures",
    )


def test_criterion_7_characteristic_dependence_gated(fixtures_dir):
    payload = json.loads((fixtures_dir / "katzman_g2.json").read_text())
    if payload["n"] == 0:
        print(
            "ACCEPTANCE 7: SKIP - characteristic-dependence fixture "
            "katzman_g2.json not transcribed (see instructions inside the "
            "fixture); the multi-field code path is exercised by criterion 6"
        )
        pytest.skip("katzman_g2.json fixture not transcribed; see its instructions")
    g = fio.parse_edge_list(payload)
    failures = []
    if regularity(g, FieldSpec(0)).reg_star != 3:
        failures.append("reg at char 0 != 3")
    if regularity(g, FieldSpec(3)).reg_star != 3:
        failures.append("reg at char 3 != 3")
    if regularity(g, FieldSpec(2)).reg_star != 4:
        failures.append("reg at char 2 != 4")
    if M.nu0(g) != 2:
        failures.append("nu0 != 2")
    if ch.cochord_number(g, cap=4).k != 3:
        failures.append("cochord != 3")
    _verdict(7, not failures, f"characteristic dependence: {failures or 'all hold'}")


def test_criterion_8_graph6_roundtrip(corpus7):
    failures = 0
    for g in corpus7:
        if fio.parse_graph6(fio.encode_graph6(g)) != g:
            failures += 1
    rng = random.Random(0x6A6)
    for _ in range(1000):
        n = rng.randint(0, 20)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice((0.15, 0.4, 0.75))
        ]
        g = gc.from_edges(n, edges)
        if fio.parse_graph6(fio.encode_graph6(g)) != g:
            failures += 1
    golden = (
        fio.encode_graph6(cycle(5)) == "Dhc"
        and fio.parse_graph6("Dhc") == cycle(5)
        and fio.encode_graph6(gc.from_edges(2, [(0, 1)])) == "A_"
        and fio.parse_graph6("A_") == gc.from_edges(2, [(0, 1)])
    )
    _verdict(
        8,
        failures == 0 and golden,
        f"graph6 round-trip on {len(corpus7)} corpus graphs + 1000 random "
        f"n<=20 graphs, golden pairs Dhc/A_: {failures} failures",
    )
