"""Command-line surface tying the modules together.

Subcommands: ``invariants``, ``reg``, ``classify``, ``bounds``, ``verify``
and ``enumerate``.  Graphs come from graph6 files (``-`` for stdin) or
edge-list JSON documents; tabular results go to stdout as CSV or JSON.
Exit status: 0 on success or an all-pass sweep, 1 on any violation or bad
input data, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds_engine, chordality, classifier, formats_io, harness, matchings
from .errors import CapExceeded, EilabError, MalformedDocument, NotApplicable, WorkBoundExceeded
from .formats_io import GraphDocument, ReportRow
from .regularity_oracle import FieldSpec, regularity


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EilabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eilab",
        description="Edge-ideal regularity lab: exact invariants, "
        "classification and verification sweeps on small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(p):
        p.add_argument("--g6", metavar="FILE", help="graph6 file, '-' for stdin")
        p.add_argument("--json", metavar="FILE", help="edge-list JSON file, '-' for stdin")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("invariants", help="matching and cover invariants per graph")
    add_inputs(p)
    p.add_argument("--cochord-cap", type=_at_least(1), default=4)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("reg", help="regularity of the edge ideal per graph")
    add_inputs(p)
    p.add_argument("--char", type=_characteristic, action="append", default=None)
    p.set_defaults(func=_cmd_reg)

    p = sub.add_parser("classify", help="structural vs numeric classification")
    add_inputs(p)
    p.add_argument("--char", type=_characteristic, action="append", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bounds", help="certified regularity interval, no homology")
    add_inputs(p)
    p.add_argument("--budget", type=_at_least(0), default=bounds_engine.DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="exhaustive theorem/lemma verification sweeps")
    p.add_argument("--max-n", type=_at_least(1), default=5)
    p.add_argument("--lemmas", type=_lemma_tags, help="comma list of lemma tags, or 'all'")
    p.add_argument(
        "--chars",
        type=_characteristics,
        default="0,2",
        help="comma list of field characteristics",
    )
    p.add_argument("--allow-skips", action="store_true")
    p.add_argument("--no-unions", action="store_true")
    p.add_argument("--from-file", metavar="FILE", help="graph6 corpus instead of enumeration")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="enumerate small graphs up to isomorphism")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--connected", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    return parser


def _characteristic(text: str) -> int:
    """Argument type: a field characteristic, 0 or a prime below ``2**31``."""
    try:
        return FieldSpec(int(text)).characteristic
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"characteristic must be 0 or a prime below 2**31, got {text!r}"
        ) from None


def _at_least(least: int):
    """Argument type: an integer of at least ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return value

    return parse


def _characteristics(text: str) -> tuple[int, ...]:
    """Argument type: a nonempty comma list of field characteristics."""
    chars = tuple(_characteristic(c) for c in text.split(",") if c != "")
    if not chars:
        raise argparse.ArgumentTypeError("at least one characteristic is required")
    return chars


def _lemma_tags(text: str) -> tuple[str, ...]:
    """Argument type: a nonempty comma list of lemma tags (checked by the sweep), or ``all``."""
    if text == "all":
        return harness.LEMMA_TAGS
    tags = tuple(t.strip() for t in text.split(",") if t.strip())
    if not tags:
        raise argparse.ArgumentTypeError("at least one lemma tag is required")
    return tags


# -- input plumbing -----------------------------------------------------------


def _read(path: str) -> str:
    """The text of ``path`` (``-`` for stdin); a file that cannot be opened
    or is not UTF-8 is bad input data, not a crash."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:
        reason = str(exc)
    raise EilabError(f"cannot read {path}: {reason}")


def _load_documents(args) -> tuple[list[GraphDocument], str | None]:
    """Parse inputs; on bad data, return the documents read so far plus the
    error text, so commands can flush partial results before failing."""
    if bool(args.g6) == bool(args.json):
        raise MalformedDocument("exactly one of --g6 or --json is required")
    if args.g6:
        return formats_io.read_graph6_lines_lenient(_read(args.g6))
    text = _read(args.json)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [], f"invalid JSON: line {exc.lineno}: {exc.msg}"
    docs: list[GraphDocument] = []
    entries = payload if isinstance(payload, list) else [payload]
    for i, entry in enumerate(entries):
        try:
            g = formats_io.parse_edge_list(entry)
        except (MalformedDocument, EilabError) as exc:
            return docs, f"document {i}: {exc}"
        name = entry.get("name") if isinstance(entry, dict) else None
        docs.append(GraphDocument("edgelist-json", json.dumps(entry), g, name))
    return docs, None


def _row_id(doc: GraphDocument, idx: int) -> str:
    if doc.name:
        return doc.name
    if doc.fmt == "graph6":
        return doc.raw
    return f"g{idx}"


def _chars(args) -> tuple[int, ...]:
    return tuple(args.char) if args.char else (0,)


# -- subcommands ---------------------------------------------------------------


def _per_graph(args, fill) -> int:
    """Print one report row per input graph, filled in by ``fill(g, row)``.

    ``fill`` returns a true value to flag its graph, which makes the exit
    status 1.  On bad input data, or an ``EilabError`` raised for a graph,
    the rows computed so far are printed first, then the error on stderr
    naming the failing row, and the exit status is 1.
    """
    docs, error = _load_documents(args)
    rows = []
    flagged = False
    for idx, doc in enumerate(docs):
        g = doc.graph
        row = ReportRow(_row_id(doc, idx), g.n, g.num_edges)
        try:
            flagged |= bool(fill(g, row))
        except EilabError as exc:
            error = f"{row.id}: {exc}"
            break
        rows.append(row)
    print(formats_io.write_report(rows, args.format), end="")
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 1 if flagged else 0


def _cmd_invariants(args) -> int:
    def fill(g, row):
        if not g.num_edges:
            row.nu = row.nu0 = row.mm = 0
            return
        row.nu0 = matchings.nu0(g)
        row.mm = matchings.mm(g)
        row.nu = matchings.nu(g)
        try:
            row.cochord = chordality.cochord_number(g, cap=args.cochord_cap).k
        except WorkBoundExceeded as exc:
            row.certificate = f"cochord past work bound (bound <= {exc.best_bound})"
        except CapExceeded as exc:
            row.certificate = f"cochord > cap (bound <= {exc.best_bound})"

    return _per_graph(args, fill)


def _cmd_reg(args) -> int:
    def fill(g, row):
        for c in _chars(args):
            res = regularity(g, FieldSpec(c))
            row.reg[c] = res.reg_star
            if res.witness_subset is not None:
                row.certificate = (
                    f"witness W={res.witness_subset} degree={res.witness_degree}"
                )

    return _per_graph(args, fill)


def _cmd_classify(args) -> int:
    def fill(g, row):
        verdicts = classifier.classify(g, _chars(args))
        row.nu = matchings.nu(g)
        row.nu0 = matchings.nu0(g)
        for v in verdicts:
            row.reg[v.characteristic] = v.reg_star
        agree = all(v.agreement for v in verdicts)
        row.verdict = (
            f"structural={verdicts[0].structural} "
            f"numeric={'/'.join(str(v.numeric) for v in verdicts)} "
            f"{'agree' if agree else 'DISAGREE'}"
        )
        row.certificate = ",".join(verdicts[0].component_shapes)
        return not agree

    return _per_graph(args, fill)


def _cmd_bounds(args) -> int:
    def fill(g, row):
        try:
            iv = bounds_engine.refine_bounds(g, budget=args.budget)
        except NotApplicable:
            row.verdict = "edgeless"
            return
        row.nu = matchings.nu(g)
        row.nu0 = matchings.nu0(g)
        row.mm = matchings.mm(g)
        flag = " (budget exhausted)" if iv.budget_exhausted else ""
        row.verdict = f"reg in [{iv.lo},{iv.hi}]{flag}"
        row.certificate = "; ".join(f"{rule}:{contrib}" for rule, _, contrib in iv.trace)

    return _per_graph(args, fill)


def _cmd_verify(args) -> int:
    chars = args.chars
    if args.from_file:
        graphs = harness.corpus_from_graph6(_read(args.from_file)).graphs
        if not graphs:
            raise EilabError(f"no graphs in {args.from_file}")
    else:
        graphs = harness.corpus_up_to(args.max_n).graphs
    reports = []
    if args.lemmas:
        reports.extend(harness.verify_lemma_suite(graphs, args.lemmas, chars=chars))
    else:
        reports.append(
            harness.verify_theorem(graphs, chars=chars, include_unions=not args.no_unions)
        )
    failed = False
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        skipinfo = f", {len(rep.skips)} skipped" if rep.skips else ""
        print(
            f"{status} {rep.property_name}: {rep.checked} graphs checked"
            f"{skipinfo} [{rep.seconds:.2f}s]"
        )
        for g6, detail in rep.violations:
            print(f"  violation {g6}: {detail}")
        if not rep.passed or (rep.skips and not args.allow_skips):
            failed = True
    return 1 if failed else 0


def _cmd_enumerate(args) -> int:
    corpus = (
        harness.enumerate_connected(args.n)
        if args.connected
        else harness.enumerate_all(args.n)
    )
    for g in corpus.graphs:
        print(formats_io.encode_graph6(g))
    return 0


if __name__ == "__main__":
    sys.exit(main())
