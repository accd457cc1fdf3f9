"""Boundary fuzzing: every parser and the public Graph constructor either
return a valid value or raise the library's own typed error, never a bare
TypeError, AttributeError or IndexError; the CLI on any stdin exits 0, or
exits 1 with one error line."""

import contextlib
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from gcanon import sat
from gcanon.cli import FMT_NAMES, run
from gcanon.graph import FORMATS, Graph, GraphError, graph_convert
from gcanon.graph6 import Graph6Error, decode_graph6

FUZZ = settings(max_examples=150, deadline=None)

json_like = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2) | st.integers(0, 3), inner,
                      max_size=3),
    max_leaves=12)

# text that is mostly in the graph6 byte range, plus atoms whose size
# header and body length agree, so that a good share of draws decodes
graph6_text = st.text(alphabet=st.characters(min_codepoint=32,
                                             max_codepoint=130), max_size=12)


def graph6_atom(n):
    size = (n * (n - 1) // 2 + 5) // 6
    return st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126),
                   min_size=size, max_size=size).map(
        lambda body: chr(n + 63) + body)


graph6_atoms = st.integers(0, 7).flatmap(graph6_atom)

dimacs_text = st.lists(
    st.sampled_from(["p", "cnf", "c", "0", "1", "-1", "2", "-2", "3", "x",
                     "-", "\n", " ", "\t"]) | st.text(max_size=3),
    max_size=20).map("".join)


def is_symmetric(g):
    return all((g.rows[u] >> v & 1) == (g.rows[v] >> u & 1)
               for u in range(g.n) for v in range(g.n))


@FUZZ
@given(st.one_of(graph6_atoms, graph6_text, st.text()))
def test_decode_graph6_returns_graph_or_graph6_error(text):
    try:
        g = decode_graph6(text)
    except Graph6Error:
        return
    assert isinstance(g, Graph) and is_symmetric(g)


@FUZZ
@given(st.one_of(dimacs_text, st.text()))
def test_from_dimacs_returns_formula_or_sat_error(text):
    try:
        f = sat.from_dimacs(text)
    except sat.SatError:
        return
    assert isinstance(f, sat.CnfFormula)


@FUZZ
@given(st.integers(-1, 4), st.sampled_from(sorted(FORMATS)),
       st.sampled_from(sorted(FORMATS)), json_like)
def test_graph_convert_returns_value_or_graph_error(n, src, dst, value):
    try:
        graph_convert(n, src, dst, value)
    except GraphError:
        pass


# rows that fit n, so that most draws reach the symmetry check, plus loose
# draws of any shape
fitting_rows = st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=n,
                         max_size=n)))
loose_rows = st.tuples(st.integers(-1, 5),
                       st.lists(st.integers(-2, 40), max_size=6))


@FUZZ
@given(st.one_of(fitting_rows, loose_rows))
def test_graph_constructor_validates(n_rows):
    n, rows = n_rows
    try:
        g = Graph(n, tuple(rows))
    except GraphError:
        return
    assert all(not g.rows[u] >> u & 1 for u in range(g.n))
    assert is_symmetric(g)


# stdin for the CLI at --n n: free text, or lines of one kind (JSON values,
# 0/1 matrix rows, graph6 atoms), most of them sized for n, so that every
# reader is reached and a good share of draws converts
def cli_stdin(n):
    k = max(n, 0)
    vertex = st.integers(-1, k)
    kinds = [
        json_like.map(json.dumps),
        st.lists(st.lists(vertex, min_size=2, max_size=2)
                 | st.lists(vertex, max_size=3), max_size=5).map(json.dumps),
        st.text(alphabet="01", min_size=k, max_size=k),
        st.text(alphabet="01 x", max_size=5),
        graph6_atom(k), graph6_atoms]
    return st.one_of([st.text(max_size=40)] + [
        st.lists(kind, max_size=2 * k + 1).map("\n".join) for kind in kinds])


def cli_case(n):
    fmt = st.sampled_from(sorted(FMT_NAMES))
    at_n = ["--n", str(n)]
    argv = st.one_of(
        st.tuples(fmt, fmt).map(
            lambda f: ["convert", "--from", f[0], "--to", f[1]] + at_n),
        st.tuples(st.sampled_from([[], ["--perm"]]), fmt).map(
            lambda a: ["canon", *a[0], "--fmt", a[1]] + at_n),
        st.just(["shortg"]))
    return st.tuples(argv, cli_stdin(n))


def run_cli(argv, text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 5).flatmap(cli_case))
def test_cli_exits_0_or_1_with_one_error_line(case):
    argv, text = case
    code, _, err = run_cli(argv, text)
    if code == 0:
        assert err == ""
    else:
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
