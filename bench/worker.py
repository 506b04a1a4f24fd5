"""One round of one workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED MODE SPAWNED

MODE is ``run`` (set up, measure, check), ``trace`` (the same with every
layer wrapped by the tracer) or ``setup`` (set up only).  SPAWNED is the
parent's ``time.monotonic()`` when it started this process, so ``setup_s``
counts interpreter start-up, the import and building the inputs.  The
module-global memos of eilab are therefore cold in every round, as they
are for every ``eilab`` command.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import random
import resource
import signal
import sys
import time

# Per-call deadline of the bounds phase of oracle-n14.  refine_bounds on the
# dense graph G14m45 does not end (its node budget does not bound the
# co-chordal cover search of static_bounds); the other graphs end in under
# 1 s, also when traced.
REFINE_DEADLINE_S = 3.0

LEMMA_TAGS = ["FL1", "FL2", "FL3", "C1", "C1a", "C2", "UB"]


# -- corpus workloads ------------------------------------------------------------


def setup_corpus(seed: int):
    """Every connected graph on at most 7 vertices, in an order set by the seed."""
    from eilab import harness

    corpus = list(harness.corpus_up_to(7).graphs)
    random.Random(seed).shuffle(corpus)
    return corpus


def run_verify(corpus, tracer):
    """The theorem sweep (acceptance 1), then the lemma suite (acceptance 5)
    and CaWa, as one single-worker process runs them."""
    from eilab import harness

    corpus6 = [g for g in corpus if g.n <= 6]
    corpus7 = [g for g in corpus if g.n == 7]
    reports = [harness.verify_theorem(corpus, chars=(0, 2), include_unions=True, union_total_cap=9, workers=1)]
    reports += harness.verify_lemma_suite(corpus6, LEMMA_TAGS, chars=(0,))
    reports += harness.verify_lemma_suite(corpus6, ["Comp"], union_total_cap=9)
    reports += harness.verify_lemma_suite(corpus7, ["FL2", "FL3"], chars=(0,))
    reports += harness.verify_lemma_suite(corpus6, ["CaWa"])
    return reports, sum(r.checked for r in reports), 0


def check_verify(corpus, reports, seed):
    import checks
    from eilab.regularity_oracle import FieldSpec, betti_table, regularity

    upto6 = {n: c for n, c in checks.A001349.items() if n <= 6}
    n6 = sum(upto6.values())
    expected = [("main-theorem", sum(checks.A001349.values()) + checks.union_count(checks.A001349, 9))]
    expected += [(tag, n6) for tag in LEMMA_TAGS]
    expected += [("Comp", checks.union_count(upto6, 9))]
    expected += [("FL2", checks.A001349[7]), ("FL3", checks.A001349[7]), ("CaWa", n6)]
    problems = checks.check_reports(reports, expected)
    problems += checks.check_corpus(corpus, 7)
    rng = random.Random(seed)
    for g in rng.sample([g for g in corpus if g.num_edges], 40):
        tables = {c: betti_table(g, FieldSpec(c)).as_dict() for c in (0, 2)}
        k_poly = checks.k_polynomial(g)
        for c, table in tables.items():
            problems += checks.check_betti(g, table, k_poly)
            problems += checks.check_reg_matches_betti(regularity(g, FieldSpec(c)).reg_star, table)
        problems += checks.check_dominance(2, tables[2], tables[0])
    return problems


def run_squeeze(corpus, tracer):
    """The squeeze chain and the co-chordal bound (acceptance 3) at char 0."""
    from eilab import harness

    reports = harness.verify_lemma_suite(corpus, ["Squeeze"], chars=(0,))
    return reports, sum(r.checked for r in reports), 0


def check_squeeze(corpus, reports, seed):
    import checks
    from eilab import chordality, matchings

    problems = checks.check_reports(reports, [("Squeeze", sum(checks.A001349.values()))])
    problems += checks.check_corpus(corpus, 7)
    rng = random.Random(seed)
    for g in rng.sample([g for g in corpus if g.num_edges], 30):
        problems += checks.check_matching_number(g, matchings.nu(g))
        cover = chordality.cochord_number(g, cap=4)
        problems += checks.check_cover(g, cover.parts)
        if cover.k != len(cover.parts):
            problems.append(f"cover of size {cover.k} has {len(cover.parts)} parts")
    return problems


# -- oracle-n14 ----------------------------------------------------------------------


def _random_graph(n: int, m: int, seed: int):
    from eilab import graph_core

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return graph_core.from_edges(n, random.Random(seed).sample(pairs, m))


def setup_oracle(seed: int):
    """Fixed graphs for the bounds phase, and for the oracle phase the same
    graphs with their vertices relabeled by the seed."""
    from eilab import graph_core

    fixed = {
        "C13": graph_core.from_edges(13, [(i, (i + 1) % 13) for i in range(13)]),
        "C14": graph_core.from_edges(14, [(i, (i + 1) % 14) for i in range(14)]),
        "P14": graph_core.from_edges(14, [(i, i + 1) for i in range(13)]),
        "G14m20": _random_graph(14, 20, 1),
        "G14m45": _random_graph(14, 45, 3),
    }
    rng = random.Random(seed)
    relabeled = {}
    for name, g in fixed.items():
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled[name] = graph_core.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    return fixed, relabeled


class DeadlineExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise DeadlineExceeded


def _with_deadline(fn, arg, seconds: float):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(arg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_oracle(inputs, tracer):
    """Betti table and regularity over Q, GF(2) and GF(3) on each relabeled
    graph, then refine_bounds on each fixed graph under a deadline."""
    from eilab import bounds_engine, regularity_oracle
    from eilab.regularity_oracle import FieldSpec

    fixed, relabeled = inputs
    results: dict = {"oracle": {}, "bounds": {}}
    attempted = failed = 0
    for name, g in relabeled.items():
        for c in (0, 2, 3):
            table = regularity_oracle.betti_table(g, FieldSpec(c)).as_dict()
            reg = regularity_oracle.regularity(g, FieldSpec(c)).reg_star
            results["oracle"][name, c] = (table, reg)
            attempted += 2
    for name, g in fixed.items():
        attempted += 1
        try:
            iv = _with_deadline(bounds_engine.refine_bounds, g, REFINE_DEADLINE_S)
        except DeadlineExceeded:
            failed += 1
            if tracer is not None:
                tracer.unwind()
            continue
        results["bounds"][name] = (iv.lo, iv.hi)
    return results, attempted, failed


def check_oracle(inputs, results, seed):
    import checks

    _, relabeled = inputs
    known = {"C13": "cycle", "C14": "cycle", "P14": "path"}
    problems = []
    for name, g in relabeled.items():
        k_poly = checks.k_polynomial(g)
        rational = results["oracle"][name, 0][0]
        for c in (0, 2, 3):
            table, reg = results["oracle"][name, c]
            problems += checks.check_betti(g, table, k_poly)
            problems += checks.check_reg_matches_betti(reg, table)
            if c:
                problems += checks.check_dominance(c, table, rational)
            if name in known:
                problems += checks.check_known_reg(known[name], g.n, reg)
            if name in results["bounds"]:
                problems += checks.check_interval(*results["bounds"][name], reg)
    return problems


WORKLOADS = {
    "verify-n7": (setup_corpus, run_verify, check_verify),
    "squeeze-n7": (setup_corpus, run_squeeze, check_squeeze),
    "oracle-n14": (setup_oracle, run_oracle, check_oracle),
}


def main(argv: list[str]) -> int:
    workload, seed, mode, spawned = argv[1], int(argv[2]), argv[3], float(argv[4])
    setup, run, check = WORKLOADS[workload]
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = setup(seed)
    out: dict = {"setup_s": time.monotonic() - spawned}
    if mode != "setup":
        t0 = time.perf_counter()
        outputs, attempted, failed = run(inputs, tracer)
        out["run_s"] = time.perf_counter() - t0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["attempted"], out["failed"] = attempted, failed
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            out["spans"] = tracer.span_table()
        out["problems"] = check(inputs, outputs, seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
