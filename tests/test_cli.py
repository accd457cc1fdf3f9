import io
import json

import pytest

from gcanon.cli import run
from gcanon.graph import Graph, apply_permutation, Permutation
from gcanon.graph6 import STREAM_HEADER, decode_graph6
from gcanon import sat

from .reference_graphs import CYCLE5_ATOM, CYCLE5_MATRIX, TWELVE_CYCLE_ATOMS


def cli(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
