"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
"ACCEPT <name>: pass" line on success (failures surface as ordinary
assertion errors).  The external-tool cross-validation is skipped, not
failed, when the binaries are absent.
"""

import itertools
import random

import pytest

from gcanon.canon import canonical_form, canonize, isomorphic
from gcanon.generate import all_nonisomorphic, dedup_canonical
from gcanon.graph import Graph, Permutation, apply_permutation
from gcanon.graph6 import decode_graph6, encode_graph6
from gcanon.gtools import ToolSpec, ToolUnavailable, exec_stream, find_binary
from gcanon.ramsey import (
    RamseyInstance,
    _extension_keep,
    gen_ramsey_cg,
    gen_ramsey_gt,
)
from gcanon import sat

from .conftest import all_graphs, brute_force_isomorphism, labelled_graphs
from .reference_graphs import (
    CANON_EXAMPLE_INPUT,
    CANON_EXAMPLE_OUTPUT,
    CYCLE5_ATOM,
    CYCLE5_MATRIX,
    ISO_PAIR_A,
    ISO_PAIR_B,
    NONISO_PAIR_A,
    NONISO_PAIR_B,
    R35_CLASS_COUNTS,
    TWELVE_CYCLE_ATOMS,
)


def accept(name):
    print(f"ACCEPT {name}: pass")


def test_01_graph6_fidelity(graphs5):
    assert decode_graph6(CYCLE5_ATOM).to_matrix() == CYCLE5_MATRIX
    assert encode_graph6(Graph.from_matrix(CYCLE5_MATRIX)) == CYCLE5_ATOM
    for g in graphs5:
        assert decode_graph6(encode_graph6(g)) == g
    for n in range(5):
        for g in all_graphs(n):
            assert decode_graph6(encode_graph6(g)) == g
    accept("graph6 fidelity")


def test_02_canonization_oracle_equivalence(graphs5):
    assert len({canonical_form(g) for g in graphs5}) == 34
    rng = random.Random(0)
    pairs = list(itertools.combinations(range(6), 2))
    def rand6():
        return Graph.from_edges(6, [p for p in pairs if rng.random() < .5])
    for _ in range(1000):
        g1, g2 = rand6(), rand6()
        same = canonical_form(g1) == canonical_form(g2)
        assert same == (brute_force_isomorphism(g1, g2) is not None)
    accept("canonization oracle equivalence")


def test_03_worked_canonization_example():
    g = Graph.from_matrix(CANON_EXAMPLE_INPUT)
    expected = Graph.from_matrix(CANON_EXAMPLE_OUTPUT)
    assert canonical_form(g) == canonical_form(expected)
    r = canonize(g)
    canonic = r.canonic.to_matrix()
    for u in range(5):
        for v in range(5):
            assert canonic[r.permutation.map[u]][r.permutation.map[v]] == \
                CANON_EXAMPLE_INPUT[u][v]
    accept("worked canonization example")


def test_04_isomorphism_examples():
    g1, g2 = Graph.from_matrix(ISO_PAIR_A), Graph.from_matrix(ISO_PAIR_B)
    found = isomorphic(5, g1, g2)
    assert found is not None
    p, _ = found
    assert apply_permutation(g1, p) == g2
    h1 = Graph.from_matrix(NONISO_PAIR_A)
    h2 = Graph.from_matrix(NONISO_PAIR_B)
    assert isomorphic(5, h1, h2) is None
    accept("isomorphism examples")


def test_05_party_problem():
    assert len(gen_ramsey_gt(RamseyInstance(3, 3, 5))) == 1
    assert gen_ramsey_gt(RamseyInstance(3, 3, 6)) == []
    # The labelled (3,3;5) colorings, the classes and the labelled graphs
    # on five vertices.
    assert len(labelled_graphs(5, _extension_keep(3, 3))) == 12
    assert len(all_nonisomorphic(5)) == 34
    assert len(labelled_graphs(5)) == 1024
    accept("party problem")


def test_06_generate_test_reduce_table():
    counts = [len(gen_ramsey_gt(RamseyInstance(3, 5, n)))
              for n in range(1, 15)]
    assert counts == R35_CLASS_COUNTS
    accept("generate-test-reduce (3,5) table")


def test_07_constrain_generate_table():
    counts = [len(gen_ramsey_cg(RamseyInstance(3, 5, n)))
              for n in range(1, 12)]
    assert counts == R35_CLASS_COUNTS[:11]
    accept("constrain-generate (3,5) table")


def test_08_pipeline_equivalence():
    def lines(graphs):
        return [encode_graph6(g) for g in graphs]

    for n in range(1, 7):
        inst = RamseyInstance(3, 3, n)
        assert lines(gen_ramsey_gt(inst)) == lines(gen_ramsey_cg(inst))
    for n in range(1, 10):
        inst = RamseyInstance(3, 5, n)
        assert lines(gen_ramsey_gt(inst)) == lines(gen_ramsey_cg(inst))
    accept("pipeline equivalence")


def test_09_sat_completeness():
    rng = random.Random(42)
    for _ in range(200):
        nv = rng.randint(3, 12)
        nc = rng.randint(1, 4 * nv)
        clauses = []
        for _ in range(nc):
            vs = rng.sample(range(1, nv + 1), min(3, nv))
            clauses.append([v if rng.random() < .5 else -v for v in vs])
        f = sat.CnfFormula(nv, clauses)
        proj = sorted(rng.sample(range(1, nv + 1), rng.randint(1, nv)))
        truth = set()
        for bits in itertools.product([False, True], repeat=nv):
            value = {v: bits[v - 1] for v in range(1, nv + 1)}
            if all(any(value[abs(lit)] == (lit > 0) for lit in c)
                   for c in f.clauses):
                truth.add(tuple(value[v] for v in proj))
        assert bool(sat.solve_all(f, ())) == bool(truth)
        models = sat.solve_all(f, proj)
        got = [tuple(m[v - 1] for v in proj) for m in models]
        assert len(set(got)) == len(got)
        assert set(got) == truth
    accept("sat completeness")


def test_10_dedup():
    graphs = [decode_graph6(a) for a in TWELVE_CYCLE_ATOMS]
    out = dedup_canonical(graphs)
    assert len(out) == 1
    assert out[0] == canonical_form(decode_graph6("DqK"))
    accept("dedup")


def test_11_external_tool_cross_validation():
    try:
        geng = find_binary(ToolSpec("geng"))
        shortg = find_binary(ToolSpec("shortg"))
    except ToolUnavailable:
        pytest.skip("gtools binaries not installed")
    for n in range(1, 9):
        theirs = list(exec_stream(ToolSpec("geng", ("-q", str(n)))))
        assert len(theirs) == len(all_nonisomorphic(n))
    rng = random.Random(7)
    for _ in range(5):
        pairs = list(itertools.combinations(range(6), 2))
        graphs = [Graph.from_edges(6, [p for p in pairs if rng.random() < .5])
                  for _ in range(30)]
        atoms = [encode_graph6(g) for g in graphs]
        theirs = list(exec_stream(ToolSpec("shortg", ("-q",)), atoms))
        assert len(theirs) == len(dedup_canonical(graphs))
    accept("external tool cross-validation")
