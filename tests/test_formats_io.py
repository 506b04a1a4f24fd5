from __future__ import annotations

import json
import random

import pytest

from eilab import formats_io as fio
from eilab import graph_core as gc
from eilab.errors import InvalidVertex, MalformedDocument, MalformedGraph6, TooLarge
from eilab.formats_io import ReportRow

from helpers import cycle, edgeless


def test_parse_golden_pairs():
    assert fio.parse_graph6("A_") == gc.from_edges(2, [(0, 1)])
    assert fio.parse_graph6("Dhc") == cycle(5)
    assert fio.parse_graph6("@") == edgeless(1)


def test_encode_golden_pairs():
    assert fio.encode_graph6(gc.from_edges(2, [(0, 1)])) == "A_"
    assert fio.encode_graph6(cycle(5)) == "Dhc"
    assert fio.encode_graph6(edgeless(1)) == "@"


def test_parse_header_stripped():
    assert fio.parse_graph6(">>graph6<<A_") == gc.from_edges(2, [(0, 1)])


def test_parse_malformed():
    with pytest.raises(MalformedGraph6):
        fio.parse_graph6("D?")  # truncated bit vector
    with pytest.raises(MalformedGraph6):
        fio.parse_graph6("D???")  # extra bytes
    with pytest.raises(MalformedGraph6):
        fio.parse_graph6("A" + chr(20))  # byte below 63
    with pytest.raises(MalformedGraph6):
        fio.parse_graph6("")
    with pytest.raises(MalformedGraph6):
        fio.parse_graph6("~~~")  # multi-byte count unsupported
    with pytest.raises(MalformedGraph6):
        fio.parse_graph6("A" + chr(95 + 16))  # nonzero padding bits
    with pytest.raises(MalformedGraph6):
        fio.parse_graph6("Dh€")  # non-ASCII, not read as "?"
    with pytest.raises(MalformedGraph6):
        fio.parse_graph6("D?é")


def test_roundtrip_corpus(corpus6):
    for g in corpus6:
        assert fio.parse_graph6(fio.encode_graph6(g)) == g


def test_roundtrip_random_graphs():
    rng = random.Random(98123)
    for _ in range(300):
        n = rng.randint(0, 20)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        ]
        g = gc.from_edges(n, edges)
        assert fio.parse_graph6(fio.encode_graph6(g)) == g


def test_encode_too_large():
    with pytest.raises(TooLarge):
        fio.encode_graph6(edgeless(63))


def test_external_generator_fixtures(fixtures_dir):
    """Lines produced by an external graph6 writer parse and round-trip."""
    for n in range(1, 8):
        text = (fixtures_dir / f"connected_n{n}.g6").read_text()
        docs = fio.read_graph6_lines(text)
        for doc in docs:
            assert doc.graph.n == n
            assert doc.graph.is_connected()
            assert fio.encode_graph6(doc.graph) == doc.raw


def test_external_generator_fixtures_n8(fixtures_dir):
    docs = fio.read_graph6_lines((fixtures_dir / "random_n8.g6").read_text())
    assert len(docs) == 100
    for doc in docs:
        assert doc.graph.n == 8
        assert fio.encode_graph6(doc.graph) == doc.raw


def test_read_graph6_lines_error_carries_line_number():
    with pytest.raises(MalformedGraph6, match="line 2"):
        fio.read_graph6_lines("A_\nD?\n")


def test_parse_edge_list():
    g = fio.parse_edge_list('{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[4,0]]}')
    assert g == cycle(5)
    assert fio.parse_edge_list('{"n":2,"edges":[]}') == edgeless(2)
    with pytest.raises(InvalidVertex):
        fio.parse_edge_list('{"n":2,"edges":[[0,2]]}')


def test_parse_edge_list_ignores_labels():
    """A ``labels`` key is read like any other unknown key: not at all, even
    when its length does not match ``n``."""
    plain = fio.parse_edge_list('{"n":3,"edges":[[0,1],[1,2]]}')
    for labels in ('["a","b","c"]', '["a"]', "7"):
        doc = '{"n":3,"edges":[[0,1],[1,2]],"labels":%s}' % labels
        assert fio.parse_edge_list(doc) == plain


def test_parse_edge_list_schema_errors():
    with pytest.raises(MalformedDocument):
        fio.parse_edge_list("[1,2,3]")
    with pytest.raises(MalformedDocument):
        fio.parse_edge_list('{"edges":[]}')
    with pytest.raises(MalformedDocument):
        fio.parse_edge_list('{"n":2,"edges":[[0]]}')
    with pytest.raises(MalformedDocument):
        fio.parse_edge_list("{not json")
    with pytest.raises(MalformedDocument):
        fio.parse_edge_list('{"n":true,"edges":[]}')
    with pytest.raises(MalformedDocument):
        fio.parse_edge_list('{"n":2,"edges":[[0,true]]}')
    with pytest.raises(TooLarge, match="62"):
        fio.parse_edge_list('{"n":63,"edges":[]}')
    assert fio.parse_edge_list('{"n":62,"edges":[]}') == edgeless(62)


def test_write_report_csv_golden():
    row = ReportRow("Dhc", 5, 5, nu=2, nu0=1, mm=2, cochord=2, reg={0: 3}, verdict="agree")
    out = fio.write_report([row], "csv")
    lines = out.split("\r\n")
    assert lines[0] == "id,n,m,nu,nu0,mm,cochord,reg_char0,verdict,certificate"
    assert lines[1] == "Dhc,5,5,2,1,2,2,3,agree,"


def test_write_report_empty_csv():
    out = fio.write_report([], "csv")
    assert out.strip() == "id,n,m,nu,nu0,mm,cochord,verdict,certificate"


def test_write_report_json():
    row = ReportRow("x", 2, 1, nu=1, nu0=1, mm=1, reg={0: 2, 2: 2})
    data = json.loads(fio.write_report([row], "json"))
    assert data == [
        {
            "id": "x",
            "n": 2,
            "m": 1,
            "nu": 1,
            "nu0": 1,
            "mm": 1,
            "cochord": None,
            "reg_char0": 2,
            "reg_char2": 2,
            "verdict": "",
            "certificate": "",
        }
    ]


def test_csv_escaping():
    row = ReportRow('we,"ird', 1, 0, verdict='say "hi"')
    out = fio.write_report([row], "csv")
    assert '"we,""ird"' in out and '"say ""hi"""' in out
