from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations

import pytest

import eilab
from eilab import cli, formats_io, harness
from eilab import graph_core as gc

from helpers import cycle, path


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reg_from_stdin(capsys, monkeypatch):
    code, out, _ = run(
        capsys, ["reg", "--g6", "-", "--char", "0", "--char", "2"], "Dhc\n", monkeypatch
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0].startswith("id,n,m,nu,nu0,mm,cochord,reg_char0,reg_char2")
    assert lines[1].startswith("Dhc,5,5,,,,,3,3")


def test_classify_pentagon_json(capsys, tmp_path):
    doc = {"name": "pentagon", "n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["classify", "--json", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "structural=True" in out and "agree" in out
    assert "pentagon" in out


def test_invariants_csv(capsys, monkeypatch):
    code, out, _ = run(capsys, ["invariants", "--g6", "-"], "Dhc\n", monkeypatch)
    assert code == 0
    assert out.strip().split("\r\n")[1].startswith("Dhc,5,5,2,1,2,2")


def test_invariants_cochord_work_bound(capsys, monkeypatch):
    """A cover search stopped by its work bound is reported as such, not as
    a cover past the size cap, and the row is still written."""
    from eilab import chordality

    monkeypatch.setattr(chordality, "COCHORD_WORK_BOUND", 10)
    g6 = formats_io.encode_graph6(cycle(7))
    code, out, err = run(capsys, ["invariants", "--g6", "-"], g6 + "\n", monkeypatch)
    assert code == 0 and err == ""
    row = out.strip().split("\r\n")[1]
    assert row == f"{g6},7,7,3,2,3,,,cochord past work bound (bound <= 4)"
    assert "cochord > cap" not in out


def test_bounds(capsys, monkeypatch):
    code, out, _ = run(capsys, ["bounds", "--g6", "-"], "Dhc\n", monkeypatch)
    assert code == 0
    assert "reg in [3,3]" in out


def test_verify_small_pass(capsys):
    code = cli.main(["verify", "--max-n", "3", "--lemmas", "FL2", "--chars", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS FL2")


def test_verify_theorem_small(capsys):
    code = cli.main(["verify", "--max-n", "3", "--chars", "0,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS main-theorem" in out


def test_verify_unknown_lemma(capsys):
    code = cli.main(["verify", "--max-n", "2", "--lemmas", "FL9"])
    assert code == 1
    assert "unknown lemma tag" in capsys.readouterr().err


@pytest.mark.parametrize("lemmas", [",", " ", ""])
def test_verify_empty_lemma_list_is_usage_error(capsys, lemmas):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--max-n", "2", "--lemmas", lemmas])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "at least one lemma tag" in err
    assert "Traceback" not in err


def test_verify_all_lemmas(capsys):
    """``--lemmas all`` runs every tag, in the harness's order."""
    code = cli.main(["verify", "--max-n", "4", "--lemmas", "all", "--chars", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line.split(":")[0] for line in lines] == [f"PASS {tag}" for tag in harness.LEMMA_TAGS]
    assert lines[4].startswith("PASS Comp: 55 graphs checked [")  # the unions of 10 graphs


def test_verify_violation_exits_1(capsys, monkeypatch):
    """A violation prints a FAIL line and one line naming each graph."""
    monkeypatch.setitem(harness._CHECKS, "UB", (lambda g, chars, facts: ["planted"] if g.n == 3 else [], None))
    code = cli.main(["verify", "--max-n", "3", "--lemmas", "UB", "--chars", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL UB: 4 graphs checked [")
    assert out.splitlines()[1:] == ["  violation BW: planted", "  violation Bw: planted"]


def test_invalid_json_is_bad_data(capsys, monkeypatch):
    code, out, err = run(capsys, ["invariants", "--json", "-"], '[{"n": 2,\n "edges": [[0 1]]}]', monkeypatch)
    assert code == 1
    assert out == "id,n,m,nu,nu0,mm,cochord,verdict,certificate\r\n"
    assert err == "error: invalid JSON: line 2: Expecting ',' delimiter\n"


def test_edgeless_graph_rows(capsys, monkeypatch):
    code, out, _ = run(capsys, ["invariants", "--g6", "-"], "B?\n", monkeypatch)
    assert code == 0
    assert out.split("\r\n")[1] == "B?,3,0,0,0,0,,,"
    code, out, _ = run(capsys, ["bounds", "--g6", "-"], "B?\n", monkeypatch)
    assert code == 0
    assert out.split("\r\n")[1] == "B?,3,0,,,,,edgeless,"


def test_invariants_cochord_past_cap(capsys, monkeypatch):
    """C5 needs two co-chordal parts; past a cap of one the row carries the
    greedy bound instead."""
    code, out, err = run(capsys, ["invariants", "--g6", "-", "--cochord-cap", "1"], "Dhc\n", monkeypatch)
    assert code == 0 and err == ""
    assert out.split("\r\n")[1] == "Dhc,5,5,2,1,2,,,cochord > cap (bound <= 3)"


def test_enumerate(capsys):
    code = cli.main(["enumerate", "--n", "4", "--connected"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.strip().splitlines()) == 6
    code = cli.main(["enumerate", "--n", "4"])
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 11


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (["--n", "7", "--connected"], 853, "f39a11e21a91db326d834f8e3bf6d5ae85c0f04d6077d08cfbaeecbc572b0a93"),
        (["--n", "7"], 1044, "1ef1f2a77c942f3bfd37a1b8cb1ffa2df7443ab2a5e14d4fad84bf93d22a6e96"),
    ],
)
def test_enumerate_bytes_pinned(capsys, argv, lines, digest):
    """The graphs, their labelling and their order are pinned by the SHA-256
    of stdout."""
    code = cli.main(["enumerate"] + argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["reg", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["reg", "--g6", "-", "--char", "4"],
        ["verify", "--chars", "x"],
        ["verify", "--chars", "4"],
        ["verify", "--chars", ","],
        ["reg", "--g6", "-", "--char", "1000000000000000003"],
        ["verify", "--chars", "0,2147483659"],
    ],
)
def test_bad_characteristic_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "characteristic" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--g6", "-", "--cochord-cap", "0"],
        ["enumerate", "--n", "0"],
        ["enumerate", "--n", "-3"],
        ["enumerate", "--n", "x"],
        ["verify", "--max-n", "0"],
        ["bounds", "--g6", "-", "--budget", "-1"],
    ],
)
def test_bad_integer_option_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected an integer" in err
    assert "Traceback" not in err


def test_verify_empty_file_is_error(capsys, tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("# no graphs\n")
    code = cli.main(["verify", "--from-file", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: no graphs in ")


def test_missing_input_is_error(capsys):
    code = cli.main(["reg"])
    assert code == 1
    assert "exactly one of" in capsys.readouterr().err


def test_malformed_graph6_reports_line_and_flushes_partials(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("A_\nD?\n")
    code = cli.main(["reg", "--g6", str(path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "line 2" in captured.err
    assert "A_,2,1" in captured.out  # the good line still produced its row


def test_per_graph_error_flushes_earlier_rows(capsys, tmp_path):
    pentagon = formats_io.encode_graph6(cycle(5))
    too_big = formats_io.encode_graph6(path(17))  # past the oracle's vertex cap
    f = tmp_path / "two.g6"
    f.write_text(f"{pentagon}\n{too_big}\n")
    code = cli.main(["reg", "--g6", str(f)])
    assert code == 1
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\r\n")
    assert len(lines) == 2 and lines[1].startswith(f"{pentagon},5,5,,,,,3")
    assert captured.err.startswith(f"error: {too_big}: ")


def test_json_format_output(capsys, monkeypatch):
    code, out, _ = run(
        capsys, ["reg", "--g6", "-", "--format", "json"], "A_\n", monkeypatch
    )
    assert code == 0
    data = json.loads(out)
    assert data[0]["reg_char0"] == 2


def test_json_array_input(capsys, tmp_path):
    docs = [
        {"name": "edge", "n": 2, "edges": [[0, 1]]},
        {"n": 3, "edges": [[0, 1], [1, 2]]},
    ]
    path = tmp_path / "two.json"
    path.write_text(json.dumps(docs))
    code = cli.main(["invariants", "--json", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[1].startswith("edge,2,1") and lines[2].startswith("g1,3,2")


def test_json_string_entry_is_a_document(capsys, tmp_path):
    """An array entry may itself be a JSON string holding a document; its
    row id is its index."""
    path = tmp_path / "nested.json"
    path.write_text(json.dumps([json.dumps({"n": 2, "edges": []})]))
    code = cli.main(["invariants", "--json", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.strip().split("\r\n")[1].startswith("g0,2,0")


def test_deeply_nested_json_is_no_traceback():
    """JSON nested past the parser's recursion limit, or holding an integer
    past Python's 4,300-digit limit, is bad data: exit 1, one error line
    and no traceback."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eilab.__file__)))
    long_int = b'{"n": 3, "edges": [[0, 1' + b"1" * 5000 + b"]]}"
    for data, message in [
        (b"[" * 100_000, b"error: invalid JSON: nested too deeply\n"),
        (long_int, b"error: invalid JSON: number too long\n"),
    ]:
        done = subprocess.run(
            [sys.executable, "-m", "eilab.cli", "reg", "--json", "-"],
            input=data, capture_output=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert b"Traceback" not in done.stderr
        assert done.stderr == message


def _invariants_with_bad_second_document(capsys, tmp_path, bad):
    c5 = {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}
    path = tmp_path / "two.json"
    path.write_text(json.dumps([c5, bad]))
    code = cli.main(["invariants", "--json", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.out.strip().split("\r\n")
    assert len(lines) == 2 and lines[1].startswith("g0,5,5,2,1,2,2")
    assert "Traceback" not in captured.err
    return captured.err


def test_oversized_document_flushes_earlier_rows(capsys, tmp_path):
    """A vertex count past the 62-vertex cap is bad data, not a crash deep
    in the matching search."""
    err = _invariants_with_bad_second_document(capsys, tmp_path, {"n": 3000, "edges": []})
    assert err == "error: document 1: edge-list documents cap at 62 vertices, got 3000\n"


def test_long_edge_entry_error_names_its_index(capsys, tmp_path):
    """An edge entry that is not a pair is named by its index, so a long
    entry does not come back in the error line."""
    bad = {"n": 3, "edges": [[0, 1], list(range(100_000))]}
    err = _invariants_with_bad_second_document(capsys, tmp_path, bad)
    assert err == "error: document 1: edge 1 is not a 2-element list\n"
    assert len(err) < 200


def test_non_string_name_flushes_earlier_rows(capsys, tmp_path):
    """A ``name`` that is not a string is bad data, not a row id."""
    err = _invariants_with_bad_second_document(capsys, tmp_path, {"name": {"a": 1}, "n": 3, "edges": [[0, 1]]})
    assert err == "error: document 1: 'name' must be a string\n"


@pytest.mark.parametrize(
    "command, message",
    [
        ("invariants", "induced matching number refuses graphs beyond n=24"),
        ("classify", "regularity sweep capped at 16 vertices, got 40"),
    ],
)
def test_large_graph_refused_before_matching_number(capsys, tmp_path, command, message):
    """A 40-vertex graph is refused at once, and each command names the
    first search that refuses it."""
    rng = random.Random(40)
    g = gc.from_edges(40, [e for e in combinations(range(40), 2) if rng.random() < 0.15])
    path = tmp_path / "big.g6"
    path.write_text(formats_io.encode_graph6(g) + "\n")
    start = time.monotonic()
    code = cli.main([command, "--g6", str(path)])
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert code == 1
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert elapsed < 10


def test_bounds_on_large_clique_refused(capsys, tmp_path):
    """Froberg's test closes the interval of K40 at once; the matching
    numbers the row reports then refuse, in well under a second."""
    path = tmp_path / "k40.g6"
    path.write_text(formats_io.encode_graph6(gc.from_edges(40, combinations(range(40), 2))) + "\n")
    start = time.monotonic()
    code = cli.main(["bounds", "--g6", str(path)])
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert code == 1
    assert "matching number refuses graphs beyond n=24 (got n=40)" in captured.err
    assert "Traceback" not in captured.err
    assert elapsed < 10


def test_verify_large_c5_free_graph(capsys, tmp_path):
    """On a C5-free 40-vertex graph C1 records a skip at the matching
    number's cap, and C2 passes: the C5 search itself has no cap."""
    rng = random.Random(40)
    g = gc.from_edges(40, [(u, v) for u in range(20) for v in range(20, 40) if rng.random() < 0.3])
    assert g.is_connected()  # bipartite, so without a 5-cycle
    path = tmp_path / "bipartite.g6"
    path.write_text(formats_io.encode_graph6(g) + "\n")
    start = time.monotonic()
    code = cli.main(["verify", "--from-file", str(path), "--lemmas", "C1,C2", "--chars", "0"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 1  # a skip fails the sweep without --allow-skips
    assert out.startswith("PASS C1: 1 graphs checked, 1 skipped [")
    assert "\nPASS C2: 1 graphs checked [" in out
    assert elapsed < 10


def test_verify_from_file(capsys, fixtures_dir):
    code = cli.main(
        ["verify", "--from-file", str(fixtures_dir / "connected_n4.g6"), "--chars", "0", "--no-unions"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS main-theorem: 6 graphs" in out


# Golden stdout of four per-graph commands on tests/fixtures/connected_n6.g6.
GOLDEN_ARGV = {
    "invariants.csv": ["invariants"],
    "reg.csv": ["reg", "--char", "0", "--char", "2", "--char", "3"],
    "classify.csv": ["classify", "--char", "0", "--char", "2"],
    "bounds.csv": ["bounds"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_stdout_matches_golden(capsys, fixtures_dir, name):
    """Stdout bytes and exit code are pinned against ``tests/fixtures/cli/``.

    Regenerate a file from the root of a source checkout with, e.g.

        PYTHONPATH=src python -m eilab.cli reg --char 0 --char 2 --char 3 \\
            --g6 tests/fixtures/connected_n6.g6 > tests/fixtures/cli/reg.csv

    Regenerating a file changes what ``eilab`` prints, so it is a visible
    output change, and CHANGES.md must report it.
    """
    code = cli.main(GOLDEN_ARGV[name] + ["--g6", str(fixtures_dir / "connected_n6.g6")])
    assert code == 0
    assert capsys.readouterr().out.encode() == (fixtures_dir / "cli" / name).read_bytes()


def test_non_ascii_graph6_is_bad_data(capsys, monkeypatch):
    code, out, err = run(capsys, ["invariants", "--g6", "-"], "A_\nDh€\n", monkeypatch)
    assert code == 1
    assert out.strip().split("\r\n")[1].startswith("A_,2,1")
    assert err.startswith("error: line 2: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "case", ["missing g6", "json directory", "missing corpus", "0xff in file", "0xff on stdin"]
)
def test_unreadable_input_is_bad_data(capsys, monkeypatch, tmp_path, case):
    """Input that cannot be read, or is not UTF-8, exits 1 with one error
    line and no traceback."""
    import io

    missing = str(tmp_path / "nonexistent")
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"A_\n\xff\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"A_\n\xff\n"), encoding="utf-8"))
    argv = {
        "missing g6": ["reg", "--g6", missing],
        "json directory": ["reg", "--json", str(tmp_path)],
        "missing corpus": ["verify", "--from-file", missing],
        "0xff in file": ["reg", "--g6", str(bad)],
        "0xff on stdin": ["reg", "--g6", "-"],
    }[case]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {argv[-1]}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["enumerate", "--n", "5", "--connected"], ["verify", "--max-n", "3"]])
def test_closed_stdout_is_no_traceback(argv):
    """A reader that closes the pipe first (``| head``) ends the run with
    exit 1 and nothing on stderr, whichever subcommand was writing."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eilab.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "eilab.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""
