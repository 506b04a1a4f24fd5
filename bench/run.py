"""Benchmark of eilab: cold-process workloads, checked outputs, per-layer trace.

    python3 bench/run.py --workload verify-n7 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Run from the root of a source checkout (``src/eilab`` is imported from
there; nothing is installed).  Each round of a workload runs in a fresh
interpreter, one process at a time, single-worker.  Rounds repeat until
``--seconds`` have passed (at least one round), and each metric is the
median over rounds.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` pairs every untraced round with a traced one and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("verify-n7", "squeeze-n7", "oracle-n14")

# Every run must end within 180 s: no round starts that is expected to end
# later than this, and a round that overruns it is killed.
RUN_BUDGET_S = 150.0
ROUND_TIMEOUT_S = 170.0
# A cheap set-up is repeated, in set-up-only processes, until this many
# samples exist.  The corpus set-up (about 4 s) is sampled once per round:
# repeating it would push the driver's 70 runs past their time limit.
SETUP_SAMPLES = 5
CHEAP_SETUP_S = 1.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


class RoundFailed(Exception):
    pass


def _round(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("EILAB_THREADS", None)
    timeout = min(ROUND_TIMEOUT_S, deadline - time.monotonic())
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), mode]
    try:
        proc = subprocess.run(
            cmd + [repr(time.monotonic())],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload} {mode} round did not end within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{workload} {mode} round exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + ROUND_TIMEOUT_S
    modes = ("run", "trace") if trace else ("run",)
    rounds: dict[str, list[dict]] = {mode: [] for mode in modes}
    while True:
        t0 = time.monotonic()
        for mode in modes:
            rounds[mode].append(_round(workload, seed, mode, deadline))
        now = time.monotonic()
        print(f"{workload}: round {len(rounds['run'])} took {now - t0:.1f} s", file=sys.stderr)
        if now - start >= seconds or now + (now - t0) - start > RUN_BUDGET_S:
            break
    setups = [r["setup_s"] for r in rounds["run"]]
    if not trace:
        while len(setups) < SETUP_SAMPLES and max(setups) < CHEAP_SETUP_S:
            setups.append(_round(workload, seed, "setup", deadline)["setup_s"])

    done = [r for mode in modes for r in rounds[mode]]
    problems = [p for r in done for p in r["problems"]]
    for p in problems[:20]:
        print(f"{workload}: WRONG: {p}", file=sys.stderr)
    def median(key: str, rs: list[dict]) -> float:
        return statistics.median(r[key] for r in rs)

    if trace:
        traced = rounds["trace"]
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced), "unit": _layer_unit(name)}
            for name in traced[0]["layers"]
        }
        metrics["trace_overhead_s"] = {
            "value": median("run_s", traced) - median("run_s", rounds["run"]),
            "unit": "s",
        }
        _write_spans(workload, seed, traced[-1]["spans"])
    else:
        values = {"setup_s": statistics.median(setups), "run_s": median("run_s", done), "peak_rss_mb": median("peak_rss_mb", done)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": metrics,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _write_spans(workload: str, seed: int, spans: list[dict]) -> None:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps(spans, indent=1) + "\n")
    print(f"{workload}: span table written to {path.relative_to(ROOT)}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "eilab" / "__init__.py").is_file():
        print(f"eilab sources not found under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except RoundFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
