"""Reference figures: one timed run of each part, each in a fresh interpreter.

    python3 bench/reference.py              # every part (about 15 minutes)
    python3 bench/reference.py oracle c16   # chosen parts

These are one-off figures for bench/README.md, not gated metrics.  Some
parts are too slow to repeat in every benchmark run: the ROADMAP targets
(C16 and a random 16-vertex graph at char 0, enumeration of the 8-vertex
connected graphs, the tier-1 suite) and refine_bounds on the m=30 graph.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFINE_LIMIT_S = 300.0


def _graphs():
    import worker

    fixed, _ = worker.setup_oracle(0)
    fixed["G14m30"] = worker._random_graph(14, 30, 2)
    return fixed


def part_verify():
    t0 = time.perf_counter()
    from eilab import harness

    corpus = list(harness.corpus_up_to(7).graphs)
    out = {"setup_s": time.perf_counter() - t0}
    t = time.perf_counter()
    harness.verify_theorem(corpus, chars=(0, 2), include_unions=True, union_total_cap=9, workers=1)
    out["theorem_s"] = time.perf_counter() - t
    import worker

    t = time.perf_counter()
    corpus6 = [g for g in corpus if g.n <= 6]
    harness.verify_lemma_suite(corpus6, worker.LEMMA_TAGS, chars=(0,))
    harness.verify_lemma_suite(corpus6, ["Comp"], union_total_cap=9)
    harness.verify_lemma_suite([g for g in corpus if g.n == 7], ["FL2", "FL3"], chars=(0,))
    harness.verify_lemma_suite(corpus6, ["CaWa"])
    out["lemmas_s"] = time.perf_counter() - t
    return out


def part_squeeze():
    from eilab import harness

    corpus = list(harness.corpus_up_to(7).graphs)
    t = time.perf_counter()
    harness.verify_lemma_suite(corpus, ["Squeeze"], chars=(0,))
    return {"squeeze_s": time.perf_counter() - t}


def part_oracle():
    from eilab.regularity_oracle import FieldSpec, betti_table

    out = {}
    for name, g in _graphs().items():
        for c in (0, 2, 3):
            t = time.perf_counter()
            betti_table(g, FieldSpec(c))
            out[f"{name}.char{c}_s"] = time.perf_counter() - t
    return out


def part_refine():
    import worker
    from eilab import bounds_engine

    out = {}
    for name, g in _graphs().items():
        t = time.perf_counter()
        try:
            iv = worker._with_deadline(bounds_engine.refine_bounds, g, REFINE_LIMIT_S)
            out[f"{name}.interval"] = [iv.lo, iv.hi]
        except worker.DeadlineExceeded:
            out[f"{name}.interval"] = f"no result within {REFINE_LIMIT_S:.0f} s"
        out[f"{name}.refine_s"] = time.perf_counter() - t
    return out


def _oracle_char0(g):
    from eilab.regularity_oracle import FieldSpec, regularity

    t = time.perf_counter()
    reg = regularity(g, FieldSpec(0)).reg_star
    return {"reg": reg, "char0_s": time.perf_counter() - t}


def part_c16():
    from eilab import graph_core

    return _oracle_char0(graph_core.from_edges(16, [(i, (i + 1) % 16) for i in range(16)]))


def part_random16():
    import worker

    return _oracle_char0(worker._random_graph(16, 43, 16))


def part_enumerate8():
    from eilab import harness

    harness.connected_graphs(7)
    t = time.perf_counter()
    harness.connected_graphs(8)
    return {"n8_enumeration_s": time.perf_counter() - t}


def part_tier1():
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
    )
    return {"tier1_s": time.perf_counter() - t, "summary": proc.stdout.strip().splitlines()[-1]}


PARTS = {
    "verify": part_verify,
    "squeeze": part_squeeze,
    "oracle": part_oracle,
    "refine": part_refine,
    "c16": part_c16,
    "random16": part_random16,
    "enumerate8": part_enumerate8,
    "tier1": part_tier1,
}


def _env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("EILAB_THREADS", None)
    return env


def main(argv: list[str]) -> int:
    if argv[:1] == ["--part"]:
        out = PARTS[argv[1]]()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(out))
        return 0
    unknown = [p for p in argv if p not in PARTS]
    if unknown:
        print(f"unknown parts {unknown}; known: {', '.join(PARTS)}", file=sys.stderr)
        return 2
    for part in argv or PARTS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--part", part],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(part, json.dumps({k: round(v, 2) if isinstance(v, float) else v for k, v in result.items()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
