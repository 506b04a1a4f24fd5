"""Bit-exact graph6 and edge-list JSON ingestion, plus result reports.

graph6 support is deliberately limited to the short form (one-byte vertex
count, n <= 62): nothing in this package ever goes near the multi-byte
encodings, and edge-list documents share the same vertex cap.  Parsing is
strict -- wrong byte count, out-of-range bytes and nonzero padding bits
are all rejected, as are edge-list fields of the wrong type.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from . import graph_core
from .errors import MalformedDocument, MalformedGraph6, TooLarge
from .graph_core import Graph

GRAPH6_HEADER = ">>graph6<<"
MAX_VERTICES = 62  # the graph6 short form's one-byte vertex count


@dataclass(frozen=True)
class GraphDocument:
    """One parsed graph together with where it came from."""

    fmt: str  # "graph6" | "edgelist-json"
    raw: str
    graph: Graph
    name: str | None = None


def parse_graph6(line: str) -> Graph:
    """Decode one short-form graph6 line into a graph."""
    text = line.strip()
    if text.startswith(GRAPH6_HEADER):
        text = text[len(GRAPH6_HEADER):]
    if not text:
        raise MalformedGraph6("empty graph6 line")
    for ch in text:
        if not 63 <= ord(ch) <= 126:
            raise MalformedGraph6(f"character {ch!r} outside graph6 range 63..126")
    data = text.encode("ascii")
    n = data[0] - 63
    if n == 63:
        raise MalformedGraph6("multi-byte vertex counts (n > 62) not supported")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[1:]
    if len(body) != nbytes:
        raise MalformedGraph6(
            f"n={n} needs {nbytes} data bytes, got {len(body)}"
        )
    bits = 0
    for b in body:
        bits = bits << 6 | (b - 63)
    pad = nbytes * 6 - nbits
    if pad and bits & ((1 << pad) - 1):
        raise MalformedGraph6("nonzero padding bits")
    bits >>= pad
    edges = []
    pos = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if bits >> pos & 1:
                edges.append((i, j))
            pos -= 1
    return graph_core.from_edges(n, edges)


def encode_graph6(g: Graph) -> str:
    """Standard minimal graph6 encoding (no header)."""
    if g.n > MAX_VERTICES:
        raise TooLarge(f"graph6 short form caps at {MAX_VERTICES} vertices, got {g.n}")
    n = g.n
    bits = 0
    nbits = n * (n - 1) // 2
    pos = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if g.has_edge(i, j):
                bits |= 1 << pos
            pos -= 1
    nbytes = (nbits + 5) // 6
    bits <<= nbytes * 6 - nbits
    chars = [chr(n + 63)]
    for k in range(nbytes - 1, -1, -1):
        chars.append(chr((bits >> 6 * k & 63) + 63))
    return "".join(chars)


def parse_edge_list(doc: str | dict) -> Graph:
    """Parse an edge-list document ``{"name"?, "n", "edges"}``; other keys
    are ignored.  A ``name``, unless null, must be a string."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"invalid JSON: {exc}") from exc
        except ValueError as exc:  # an integer past Python's digit limit
            raise MalformedDocument("invalid JSON: number too long") from exc
        except RecursionError as exc:
            raise MalformedDocument("invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("edge-list document must be a JSON object")
    if "n" not in doc or "edges" not in doc:
        raise MalformedDocument("edge-list document needs 'n' and 'edges' fields")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise MalformedDocument("'name' must be a string")
    n = doc["n"]
    edges = doc["edges"]
    if not _is_int(n) or not isinstance(edges, list):
        raise MalformedDocument("'n' must be an integer and 'edges' a list")
    if n > MAX_VERTICES:
        raise TooLarge(f"edge-list documents cap at {MAX_VERTICES} vertices, got {n}")
    pairs = []
    for i, e in enumerate(edges):
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise MalformedDocument(f"edge {i} is not a 2-element list")
        u, v = e
        if not _is_int(u) or not _is_int(v):
            raise MalformedDocument(f"edge {i} has non-integer endpoints")
        pairs.append((u, v))
    return graph_core.from_edges(n, pairs)


def _is_int(value) -> bool:
    """True for a JSON integer; ``true`` and ``false`` load as bools, which
    Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def read_graph6_lines(text: str) -> list[GraphDocument]:
    """Parse a whole graph6 file, reporting the line number on failure."""
    docs, error = read_graph6_lines_lenient(text)
    if error is not None:
        raise MalformedGraph6(error)
    return docs


def read_graph6_lines_lenient(text: str) -> tuple[list[GraphDocument], str | None]:
    """Parse up to the first malformed line; return what was read and the
    error (with its line number), so callers can flush partial results."""
    docs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            g = parse_graph6(line)
        except MalformedGraph6 as exc:
            return docs, f"line {lineno}: {exc}"
        docs.append(GraphDocument("graph6", line, g))
    return docs, None


@dataclass
class ReportRow:
    """One output record of the CLI and verification sweeps."""

    id: str
    n: int
    m: int
    nu: int | None = None
    nu0: int | None = None
    mm: int | None = None
    cochord: int | None = None
    reg: dict[int, int] = field(default_factory=dict)  # characteristic -> value
    verdict: str = ""
    certificate: str = ""


def report_columns(rows: list[ReportRow]) -> list[str]:
    chars = sorted({c for row in rows for c in row.reg})
    cols = ["id", "n", "m", "nu", "nu0", "mm", "cochord"]
    cols += [f"reg_char{c}" for c in chars]
    cols += ["verdict", "certificate"]
    return cols


def write_report(rows: list[ReportRow], fmt: str = "csv") -> str:
    """Render rows as CSV (RFC 4180) or JSON, with a fixed column order."""
    cols = report_columns(rows)
    records = []
    for row in rows:
        rec = {
            "id": row.id,
            "n": row.n,
            "m": row.m,
            "nu": row.nu,
            "nu0": row.nu0,
            "mm": row.mm,
            "cochord": row.cochord,
        }
        for col in cols:
            if col.startswith("reg_char"):
                rec[col] = row.reg.get(int(col[len("reg_char"):]))
        rec["verdict"] = row.verdict
        rec["certificate"] = row.certificate
        records.append(rec)
    if fmt == "json":
        return json.dumps(records, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\r\n")
        writer.writeheader()
        for rec in records:
            writer.writerow({k: ("" if v is None else v) for k, v in rec.items()})
        return buf.getvalue()
    raise MalformedDocument(f"unknown report format {fmt!r}")
