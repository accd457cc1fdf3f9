import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from gcanon.canon import canonize
from gcanon.cli import run
from gcanon.generate import all_nonisomorphic
from gcanon.graph import Graph, apply_permutation, Permutation
from gcanon.graph6 import STREAM_HEADER, decode_graph6, encode_graph6
from gcanon import ramsey, sat

from .reference_graphs import CYCLE5_ATOM, CYCLE5_MATRIX, TWELVE_CYCLE_ATOMS


def cli(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CANON_FMTS = ["graph6", "adj-matrix", "adj-list", "edge-list"]

# every graph on 5 vertices, relabeled so that few are canonical as given
FIVE_VERTEX_INPUTS = [apply_permutation(g, Permutation((3, 0, 4, 1, 2)))
                      for g in all_nonisomorphic(5)]


def graph_text(fmt, g):
    """g as one graph of a --fmt stream, written without the library's
    converters."""
    rows = [[v for v in range(g.n) if g.rows[u] >> v & 1] for u in range(g.n)]
    if fmt == "graph6":
        return encode_graph6(g) + "\n"
    if fmt == "adj-matrix":
        return "".join("".join("1" if v in r else "0" for v in range(g.n))
                       + "\n" for r in rows) + "\n"
    if fmt == "adj-list":
        return json.dumps(rows) + "\n"
    return json.dumps([[u, v] for u, r in enumerate(rows)
                       for v in r if u < v]) + "\n"


def read_canon_output(fmt, n, with_perm, out):
    """The (graph, permutation or None) pairs of a canon --fmt stream."""
    lines = iter(out.splitlines())
    found = []
    for line in lines:
        perm = None
        if fmt == "graph6":
            if with_perm:
                line, perm = line.split("\t")
            g = decode_graph6(line)
        else:
            if with_perm:
                assert line.startswith("perm ")
                perm, line = line[len("perm "):], next(lines)
            if fmt == "adj-matrix":
                rows = [line] + [next(lines) for _ in range(n - 1)]
                assert next(lines) == ""
                g = Graph.from_edges(n, [(u, v) for u, r in enumerate(rows)
                                         for v, c in enumerate(r) if c == "1"])
            elif fmt == "adj-list":
                g = Graph.from_edges(n, [(u, v) for u, vs in
                                         enumerate(json.loads(line))
                                         for v in vs])
            else:
                g = Graph.from_edges(n, [tuple(e) for e in json.loads(line)])
        if perm is not None:
            perm = Permutation(tuple(int(i) - 1 for i in perm.split()))
        found.append((g, perm))
    return found


class TestConvert:
    def test_graph6_to_adj_matrix(self, capsys, monkeypatch):
        code, out, _ = cli(capsys, monkeypatch,
                           ["convert", "--n", "5", "--from", "graph6",
                            "--to", "adj-matrix"],
                           stdin=CYCLE5_ATOM + "\n")
        assert code == 0
        rows = [[int(c) for c in ln] for ln in out.split() if ln]
        assert rows == CYCLE5_MATRIX

    def test_matrix_to_graph6(self, capsys, monkeypatch):
        text = "\n".join("".join(str(x) for x in row)
                         for row in CYCLE5_MATRIX) + "\n"
        code, out, _ = cli(capsys, monkeypatch,
                           ["convert", "--n", "5", "--from", "adj-matrix",
                            "--to", "graph6"], stdin=text)
        assert code == 0
        assert out == CYCLE5_ATOM + "\n"

    def test_edge_list_json(self, capsys, monkeypatch):
        code, out, _ = cli(capsys, monkeypatch,
                           ["convert", "--n", "5", "--from", "graph6",
                            "--to", "edge-list"], stdin=CYCLE5_ATOM + "\n")
        assert code == 0
        assert json.loads(out) == [[0, 1], [0, 2], [1, 3], [2, 4], [3, 4]]

    def test_multiple_lines(self, capsys, monkeypatch):
        stdin = "\n".join(TWELVE_CYCLE_ATOMS) + "\n"
        code, out, _ = cli(capsys, monkeypatch,
                           ["convert", "--n", "5", "--from", "graph6",
                            "--to", "adj-list"], stdin=stdin)
        assert code == 0
        assert len(out.splitlines()) == 12

    def test_bad_input_exits_1(self, capsys, monkeypatch):
        code, _, err = cli(capsys, monkeypatch,
                           ["convert", "--n", "5", "--from", "graph6",
                            "--to", "adj-matrix"], stdin="Dq\n")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("argv,stdin", [
        (["convert", "--from", "edge-list", "--to", "graph6"], "[[0,1,2]]"),
        (["convert", "--from", "edge-list", "--to", "graph6"], '{"a":1}'),
        (["convert", "--from", "edge-list", "--to", "graph6"], "[5]"),
        (["convert", "--from", "adj-list", "--to", "adj-matrix"],
         "[[1],[],[]]"),
        (["canon", "--fmt", "adj-list"], "[[1],[0],5]"),
        (["convert", "--from", "adj-matrix", "--to", "graph6"],
         "01x\n101\n010"),
        (["convert", "--from", "adj-list", "--to", "edge-list"],
         "[" * 100000 + "]" * 100000),
        (["convert", "--from", "adj-list", "--to", "edge-list"], "1" * 5000),
        (["canon", "--fmt", "edge-list"], "[[0,1],"),
    ], ids=["edge-triple", "edge-dict", "edge-int", "adj-asymmetric",
            "adj-int", "matrix-char", "json-deep", "json-long-int",
            "json-truncated"])
    def test_malformed_input_is_one_error_line(self, capsys, monkeypatch,
                                               argv, stdin):
        code, out, err = cli(capsys, monkeypatch, argv + ["--n", "3"],
                             stdin=stdin + "\n")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    def test_zero_vertex_graph_round_trips_through_adj_matrix(
            self, capsys, monkeypatch):
        code, matrix, _ = cli(capsys, monkeypatch,
                              ["convert", "--n", "0", "--from", "graph6",
                               "--to", "adj-matrix"], stdin="?\n")
        assert code == 0
        assert matrix == "\n"
        code, out, _ = cli(capsys, monkeypatch,
                           ["convert", "--n", "0", "--from", "adj-matrix",
                            "--to", "graph6"], stdin=matrix)
        assert (code, out) == (0, "?\n")


class TestCanon:
    def test_empty_adj_matrix_stdin_with_zero_vertices(self, capsys,
                                                       monkeypatch):
        code, out, err = cli(capsys, monkeypatch,
                             ["canon", "--n", "0", "--fmt", "adj-matrix"])
        assert (code, out, err) == (0, "", "")

    def test_all_five_cycles_map_to_one_atom(self, capsys, monkeypatch):
        stdin = "\n".join(TWELVE_CYCLE_ATOMS) + "\n"
        code, out, _ = cli(capsys, monkeypatch,
                           ["canon", "--n", "5"], stdin=stdin)
        assert code == 0
        assert len(set(out.splitlines())) == 1

    def test_perm_output_is_valid_witness(self, capsys, monkeypatch):
        code, out, _ = cli(capsys, monkeypatch,
                           ["canon", "--n", "5", "--perm"],
                           stdin=CYCLE5_ATOM + "\n")
        assert code == 0
        atom, perm_text = out.strip().split("\t")
        perm = Permutation(tuple(int(i) - 1 for i in perm_text.split()))
        g = decode_graph6(CYCLE5_ATOM)
        assert apply_permutation(g, perm) == decode_graph6(atom)

    @pytest.mark.parametrize("with_perm", [False, True], ids=["plain", "perm"])
    @pytest.mark.parametrize("fmt", CANON_FMTS)
    def test_every_fmt_writes_the_canonical_form(self, capsys, monkeypatch,
                                                 fmt, with_perm):
        stdin = "".join(graph_text(fmt, g) for g in FIVE_VERTEX_INPUTS)
        code, out, err = cli(capsys, monkeypatch,
                             ["canon", "--n", "5", "--fmt", fmt]
                             + ["--perm"] * with_perm, stdin=stdin)
        assert (code, err) == (0, "")
        found = read_canon_output(fmt, 5, with_perm, out)
        assert len(found) == len(FIVE_VERTEX_INPUTS)
        for g, (h, perm) in zip(FIVE_VERTEX_INPUTS, found):
            assert h == canonize(g).canonic
            if with_perm:
                assert apply_permutation(g, perm) == h
            else:
                assert perm is None

    @pytest.mark.parametrize("fmt,calls", [
        ("graph6", 0), ("adj-list", 0), ("edge-list", 0), ("adj-matrix", 1)])
    def test_one_parse_and_one_render_per_input(self, capsys, monkeypatch,
                                                fmt, calls):
        stdin = "".join(graph_text(fmt, g) for g in FIVE_VERTEX_INPUTS)
        counts = Counter()
        from_matrix, to_matrix = Graph.from_matrix, Graph.to_matrix

        def counted_from_matrix(matrix):
            counts["from_matrix"] += 1
            return from_matrix(matrix)

        def counted_to_matrix(g):
            counts["to_matrix"] += 1
            return to_matrix(g)

        monkeypatch.setattr(Graph, "from_matrix",
                            staticmethod(counted_from_matrix))
        monkeypatch.setattr(Graph, "to_matrix", counted_to_matrix)
        code, _, _ = cli(capsys, monkeypatch,
                         ["canon", "--n", "5", "--fmt", fmt], stdin=stdin)
        assert code == 0
        per_input = calls * len(FIVE_VERTEX_INPUTS)
        assert counts == Counter(from_matrix=per_input, to_matrix=per_input)


class TestIso:
    def test_isomorphic_pair_prints_witness(self, capsys, monkeypatch):
        a1, a2 = "DRo", "Dbg"
        code, out, _ = cli(capsys, monkeypatch, ["iso", "--n", "5", a1, a2])
        assert code == 0
        perm = Permutation(tuple(int(i) - 1 for i in out.split()))
        assert apply_permutation(decode_graph6(a1), perm) == decode_graph6(a2)

    def test_non_isomorphic_pair_exits_1(self, capsys, monkeypatch):
        path4 = "Ch"  # any 4-vertex atom differing from the empty graph
        code, out, _ = cli(capsys, monkeypatch, ["iso", "--n", "4",
                                                 "C?", path4])
        assert code == 1
        assert out == ""

    def test_size_mismatch_error(self, capsys, monkeypatch):
        code, _, err = cli(capsys, monkeypatch,
                           ["iso", "--n", "4", CYCLE5_ATOM, CYCLE5_ATOM])
        assert code == 1
        assert "error:" in err


class TestGeneration:
    def test_geng_counts(self, capsys, monkeypatch):
        code, out, _ = cli(capsys, monkeypatch, ["geng", "5"])
        assert code == 0
        assert len(out.splitlines()) == 34

    def test_geng_stats_rows(self, capsys, monkeypatch):
        code, out, _ = cli(capsys, monkeypatch, ["geng", "5", "--stats"])
        assert code == 0
        rows = [ln.split("\t") for ln in out.splitlines()]
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
        assert [int(r[1]) for r in rows] == [1, 2, 4, 11, 34]
        assert all(len(r) == 4 for r in rows)

    @pytest.mark.parametrize("n", ["10", "-1"])
    def test_geng_stats_out_of_range_exits_1(self, capsys, monkeypatch, n):
        code, out, err = cli(capsys, monkeypatch, ["geng", n, "--stats"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_shortg_reduces_cycles(self, capsys, monkeypatch):
        stdin = "\n".join(TWELVE_CYCLE_ATOMS) + "\n"
        code, out, _ = cli(capsys, monkeypatch, ["shortg"], stdin=stdin)
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_geng_then_shortg_is_idempotent(self, capsys, monkeypatch):
        _, generated, _ = cli(capsys, monkeypatch, ["geng", "5"])
        code, out, _ = cli(capsys, monkeypatch, ["shortg"], stdin=generated)
        assert code == 0
        assert out == generated


class TestRamsey:
    def test_gt_unique_solution(self, capsys, monkeypatch):
        code, out, _ = cli(capsys, monkeypatch, ["ramsey", "gt", "3", "3", "5"])
        assert code == 0
        atoms = out.splitlines()
        assert len(atoms) == 1
        assert decode_graph6(atoms[0]).num_edges() == 5

    def test_gt_empty_at_six_still_exits_0(self, capsys, monkeypatch):
        code, out, _ = cli(capsys, monkeypatch, ["ramsey", "gt", "3", "3", "6"])
        assert code == 0
        assert out == ""

    def test_gt_and_cg_byte_identical(self, capsys, monkeypatch):
        _, gt_out, _ = cli(capsys, monkeypatch, ["ramsey", "gt", "3", "4", "5"])
        code, cg_out, _ = cli(capsys, monkeypatch,
                              ["ramsey", "cg", "3", "4", "5"])
        assert code == 0
        assert cg_out == gt_out

    def test_cnf_output_parses_and_solves(self, capsys, monkeypatch):
        code, out, _ = cli(capsys, monkeypatch,
                           ["ramsey", "cnf", "3", "3", "5"])
        assert code == 0
        f = sat.from_dimacs(out)
        assert sat.solve(f) is not None

    def test_gt_stats_rows(self, capsys, monkeypatch):
        code, out, _ = cli(capsys, monkeypatch,
                           ["ramsey", "gt", "3", "3", "6", "--stats"])
        assert code == 0
        rows = [ln.split("\t") for ln in out.splitlines()]
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5, 6]
        assert [int(r[1]) for r in rows] == [1, 2, 2, 3, 1, 0]
        assert all(len(r) == 4 for r in rows)

    def test_cg_stats_rows(self, capsys, monkeypatch):
        code, out, _ = cli(capsys, monkeypatch,
                           ["ramsey", "cg", "3", "3", "5", "--stats"])
        assert code == 0
        rows = [ln.split("\t") for ln in out.splitlines()]
        assert [int(r[1]) for r in rows] == [1, 2, 2, 3, 1]

    def test_3_5_stats_tables(self, capsys, monkeypatch):
        # The (3,5;n) class-count tables of both pipelines.
        _, gt_out, _ = cli(capsys, monkeypatch,
                           ["ramsey", "gt", "3", "5", "6", "--stats"])
        code, cg_out, _ = cli(capsys, monkeypatch,
                              ["ramsey", "cg", "3", "5", "5", "--stats"])
        assert code == 0
        tables = [[int(ln.split("\t")[1]) for ln in out.splitlines()]
                  for out in (gt_out, cg_out)]
        assert tables == [[1, 2, 3, 7, 13, 32], [1, 2, 3, 7, 13]]

    def test_invalid_instance_exits_1(self, capsys, monkeypatch):
        code, _, err = cli(capsys, monkeypatch,
                           ["ramsey", "gt", "0", "3", "4"])
        assert code == 1
        assert "error:" in err

    def test_cg_above_the_vertex_cap_is_one_error_line(self, capsys,
                                                       monkeypatch):
        code, out, err = cli(capsys, monkeypatch,
                             ["ramsey", "cg", "2", "100", "65"])
        assert (code, out) == (1, "")
        assert err == "error: n=65 exceeds vertex cap 64\n"

    @pytest.mark.parametrize("argv", [["3", "5", "65"],
                                      ["2", "100", "65", "--stats"]],
                             ids="-".join)
    def test_gt_above_the_vertex_cap_is_one_error_line(self, capsys,
                                                       monkeypatch, argv):
        # (3,5;n) levels are empty from n = 14 on, and (2,100;n) is K_n,
        # whose levels double in time up to the cap.
        code, out, err = cli(capsys, monkeypatch, ["ramsey", "gt"] + argv)
        assert (code, out) == (1, "")
        assert err == "error: n=65 exceeds vertex cap 64\n"

    def test_cg_stats_checks_the_cap_before_any_size(self, capsys,
                                                     monkeypatch):
        calls = []
        monkeypatch.setattr(ramsey, "gen_ramsey_cg",
                            lambda *a, **kw: calls.append(a))
        code, out, err = cli(capsys, monkeypatch,
                             ["ramsey", "cg", "3", "5", "65", "--stats"])
        assert (code, out, calls) == (1, "", [])
        assert err == "error: n=65 exceeds vertex cap 64\n"


@pytest.mark.parametrize("argv", [
    ["shortg"],
    ["canon", "--n", "5"],
    ["convert", "--n", "5", "--from", "graph6", "--to", "edge-list"],
])
def test_stream_header_line_is_skipped(capsys, monkeypatch, argv):
    body = "\n".join(TWELVE_CYCLE_ATOMS) + "\n"
    plain = cli(capsys, monkeypatch, argv, stdin=body)
    headed = cli(capsys, monkeypatch, argv, stdin=STREAM_HEADER + "\n" + body)
    assert plain[0] == 0 and plain[1]
    assert headed == plain


@pytest.mark.parametrize("argv,message", [
    (["canon", "--n", "-1"], "negative vertex count"),
    (["canon", "--n", "65"], "n=65 exceeds vertex cap 64"),
    (["canon", "--n", "100000000000", "--fmt", "adj-matrix"],
     "n=100000000000 exceeds vertex cap 64"),
    (["convert", "--n", "-3", "--from", "graph6", "--to", "adj-list"],
     "negative vertex count"),
    (["convert", "--n", "-3", "--from", "adj-matrix", "--to", "graph6"],
     "negative vertex count"),
], ids=["canon-negative", "canon-65", "canon-huge-matrix",
        "convert-negative", "convert-negative-matrix"])
def test_bad_n_is_rejected_before_stdin_is_read(capsys, monkeypatch, argv,
                                                message):
    # empty stdin: no input graph would ever check n
    code, out, err = cli(capsys, monkeypatch, argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["geng", "x"], "argument n: invalid int value: 'x'"),
    (["geng", "2.5"], "argument n: invalid int value: '2.5'"),
    (["nosuch"], "argument cmd: invalid choice: 'nosuch'"),
    (["ramsey", "gt", "3", "5"], "the following arguments are required: n"),
], ids=["geng-x", "geng-float", "no-such-command", "ramsey-missing-n"])
def test_usage_error_is_one_error_line(capsys, monkeypatch, argv, message):
    code, out, err = cli(capsys, monkeypatch, argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: " + message)


def test_help_still_exits_0(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        cli(capsys, monkeypatch, ["geng", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gcanon geng")


SIX_VERTEX_ATOMS = "".join(encode_graph6(g) + "\n"
                           for g in all_nonisomorphic(6))


@pytest.mark.parametrize("argv", [
    ["geng", "6"],
    ["canon", "--n", "6"],
    ["convert", "--n", "6", "--from", "graph6", "--to", "adj-matrix"],
    ["iso", "--n", "5", CYCLE5_ATOM, CYCLE5_ATOM],
], ids=["geng", "canon", "convert", "iso"])
def test_closed_stdout_pipe_exits_1_quietly(argv):
    # The reader has gone before the first write (geng, canon, convert)
    # or before the flush at exit (iso's one line): exit 1, no traceback.
    src = Path(__file__).resolve().parent.parent / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "gcanon",
             *argv],
            input=SIX_VERTEX_ATOMS, stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")
