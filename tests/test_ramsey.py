import itertools
import math

import pytest

from gcanon.canon import canonical_form, canonize
from gcanon.generate import (
    Stats,
    all_nonisomorphic,
    dedup_canonical,
    extend_and_reduce,
    grow,
)
from gcanon.graph import (
    Graph,
    GraphError,
    Permutation,
    VertexCapExceeded,
    apply_permutation,
    extensions,
)
from gcanon.ramsey import (
    EdgeVarMap,
    RamseyInstance,
    _extension_keep,
    _first_degree_at_most_mean,
    _may_be_lex_least,
    _new_vertex_max_degree,
    decode_model,
    encode_ramsey,
    gen_ramsey_cg,
    gen_ramsey_gt,
    is_ramsey,
)
from gcanon import generate, ramsey, sat

from .conftest import all_graphs, labelled_graphs
from .reference_graphs import (
    CYCLE5_MATRIX,
    R35_CLASS_COUNTS,
    R36_CLASS_COUNTS,
    R44_CLASS_COUNTS,
)

C5 = Graph.from_matrix(CYCLE5_MATRIX)


class LevelSink(Stats):
    """A Stats sink that also keeps every level, the empty graph first."""

    def __init__(self):
        super().__init__(lambda *row: None)
        self.levels = [[Graph.empty(0)]]

    def level(self, n, graphs):
        self.levels.append(graphs)
        super().level(n, graphs)


class TestIsRamsey:
    def test_c5_is_a_33_coloring(self):
        assert is_ramsey(RamseyInstance(3, 3, 5), C5)

    def test_triangle_fails_clique_side(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert not is_ramsey(RamseyInstance(3, 3, 3), g)

    def test_empty_triple_fails_independent_side(self):
        assert not is_ramsey(RamseyInstance(3, 3, 3), Graph.empty(3))

    def test_sides_are_asymmetric(self):
        # K3 has a 3-clique but no independent pair beyond size 1
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert is_ramsey(RamseyInstance(2, 4, 3), g)
        assert not is_ramsey(RamseyInstance(4, 2, 3), g)

    def test_size_mismatch(self):
        with pytest.raises(GraphError):
            is_ramsey(RamseyInstance(3, 3, 4), C5)

    @pytest.mark.parametrize("s, t, n", [
        (3.0, 3, 5), (3, "3", 5), (3, 3, 5.0), (True, 3, 5)])
    def test_instance_rejects_non_int(self, s, t, n):
        with pytest.raises(GraphError):
            RamseyInstance(s, t, n)

    def test_twelve_labeled_33_colorings_on_five(self):
        inst = RamseyInstance(3, 3, 5)
        sols = [g for g in all_graphs(5) if is_ramsey(inst, g)]
        assert len(sols) == 12
        assert len(dedup_canonical(sols)) == 1

    def test_hereditary_under_vertex_deletion(self):
        inst = RamseyInstance(3, 4, 6)
        sub = RamseyInstance(3, 4, 5)
        for g in gen_ramsey_gt(inst):
            for v in range(6):
                rest = [(a - (a > v), b - (b > v)) for a, b in g.edges()
                        if v not in (a, b)]
                assert is_ramsey(sub, Graph.from_edges(5, rest))


class TestGenerateTestReduce:
    @pytest.mark.parametrize("s,t", [(1, 3), (2, 3), (3, 2), (3, 3), (3, 4),
                                     (4, 3), (3, 5), (2, 5), (5, 2), (4, 4),
                                     (3, 6)])
    def test_extension_filter_matches_is_ramsey(self, s, t):
        # s - 1 and t - 1 of 0 and 2 take the shortcuts of _has_clique,
        # 1, 3 and 4 its loop, on the clique and the independent side.
        # The degree bound cuts on both sides for (2,5), (5,2), (3,3),
        # (3,4) and (4,3), on the non-neighbour side for (3,5) and (3,6),
        # and nowhere for (4,4), whose bound C(5,2) = 10 needs n >= 11.
        keep = _extension_keep(s, t)
        for n in range(1, 9 if {s, t} == {3, 4} else 8):
            inst = RamseyInstance(s, t, n)
            for g in gen_ramsey_gt(RamseyInstance(s, t, n - 1)):
                for h in extensions(g):
                    assert keep(h) == is_ramsey(inst, h), (s, t, h)

    @pytest.mark.parametrize("s, t, parent, mask", [
        (3, 5, C5, 0b00000),  # 5 non-neighbours >= C(5,1)
        (5, 3, C5, 0b11111),  # 5 neighbours >= C(5,1)
        (2, 5, Graph.from_edges(4, itertools.combinations(range(4), 2)),
         0b1111),  # 4 neighbours >= C(4,3)
        (5, 2, Graph.empty(4), 0b0000),  # 4 non-neighbours >= C(4,3)
    ], ids=["3-5-few", "5-3-many", "2-5-many", "5-2-few"])
    def test_degree_bound_rejects_before_any_clique_search(
            self, monkeypatch, s, t, parent, mask):
        class CliqueSearch(Exception):
            pass

        def search(*args):
            raise CliqueSearch

        h = list(extensions(parent))[mask]
        assert not is_ramsey(RamseyInstance(s, t, h.n), h)
        keep = _extension_keep(s, t)
        monkeypatch.setattr(ramsey, "_has_clique", search)
        assert not keep(h)
        # the patch is live: a (3,5) child whose degree is in range, 2
        # neighbours and 3 non-neighbours, is searched
        with pytest.raises(CliqueSearch):
            _extension_keep(3, 5)(list(extensions(C5))[0b00101])

    def test_gt_rejects_n_above_the_vertex_cap_before_extending(
            self, monkeypatch):
        monkeypatch.setattr(generate, "extensions", None)
        for s, t in [(3, 5), (2, 100)]:
            with pytest.raises(VertexCapExceeded):
                gen_ramsey_gt(RamseyInstance(s, t, 65))

    @pytest.mark.parametrize("s, t, n", [(3, 3, 6), (3, 4, 9), (4, 3, 9),
                                         (3, 5, 14), (4, 4, 7), (3, 6, 8)])
    def test_levels_match_full_dedup(self, s, t, n):
        # Only children whose new vertex has maximum degree are canonized;
        # each level must still be the dedup of every Ramsey extension of
        # the level before it.
        sink = LevelSink()
        gen_ramsey_gt(RamseyInstance(s, t, n), stats=sink)
        keep = _extension_keep(s, t)
        for prev, level in zip(sink.levels, sink.levels[1:]):
            assert level == extend_and_reduce(prev, keep), (s, t, len(prev))

    def test_unfiltered_levels_are_all_graphs(self):
        # The max-degree rule with no Ramsey test, on the shared level
        # loop, loses no class of any graph.
        sink = LevelSink()
        grow(7, _new_vertex_max_degree, sink)
        assert sink.levels == [all_nonisomorphic(n) for n in range(8)]

    @pytest.mark.parametrize("s, t, counts", [(3, 6, R36_CLASS_COUNTS),
                                              (4, 4, R44_CLASS_COUNTS)])
    def test_published_class_counts(self, s, t, counts):
        rows = []
        gen_ramsey_gt(RamseyInstance(s, t, len(counts)),
                      stats=Stats(lambda *row: rows.append(row)))
        assert [r[:2] for r in rows] == list(enumerate(counts, start=1))

    def test_party_problem_boundary(self):
        assert len(gen_ramsey_gt(RamseyInstance(3, 3, 5))) == 1
        assert gen_ramsey_gt(RamseyInstance(3, 3, 6)) == []

    def test_unique_five_vertex_solution_is_c5(self):
        [g] = gen_ramsey_gt(RamseyInstance(3, 3, 5))
        assert g == canonical_form(C5)

    def test_labelled_and_class_counts_on_five_vertices(self):
        # The labelled (3,3;5) colorings, the classes and the labelled
        # graphs on five vertices.
        assert len(labelled_graphs(5, _extension_keep(3, 3))) == 12
        assert len(all_nonisomorphic(5)) == 34
        assert len(labelled_graphs(5)) == 1024

    def test_brute_force_agreement_small(self):
        for n in range(1, 6):
            for s, t in [(3, 3), (3, 4), (2, 3)]:
                inst = RamseyInstance(s, t, n)
                expected = dedup_canonical(
                    [g for g in all_graphs(n) if is_ramsey(inst, g)])
                assert gen_ramsey_gt(inst) == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_35_class_counts(self, n):
        assert len(gen_ramsey_gt(RamseyInstance(3, 5, n))) == \
            R35_CLASS_COUNTS[n - 1]

    def test_outputs_are_ramsey_and_canonical(self):
        inst = RamseyInstance(3, 5, 7)
        out = gen_ramsey_gt(inst)
        assert all(is_ramsey(inst, g) for g in out)
        assert all(canonical_form(g) == g for g in out)

    def test_trace_matches_direct_run(self):
        rows = []
        out = gen_ramsey_gt(RamseyInstance(3, 5, 6),
                            stats=Stats(lambda *row: rows.append(row)))
        assert [r[0] for r in rows] == [1, 2, 3, 4, 5, 6]
        assert [r[1] for r in rows] == R35_CLASS_COUNTS[:6]
        assert out == gen_ramsey_gt(RamseyInstance(3, 5, 6))

    @pytest.mark.parametrize("n,labelled", enumerate(
        [1, 2, 7, 41, 387, 5617, 113949], start=1))
    def test_35_labelled_count_identity(self, n, labelled):
        # Each class of order |Aut| has n!/|Aut| labelled members, and
        # together the classes hold every labelled (3,5;n) graph.
        inst = RamseyInstance(3, 5, n)
        assert len(labelled_graphs(n, _extension_keep(3, 5))) == labelled
        assert sum(math.factorial(n) // canonize(g).group_size
                   for g in gen_ramsey_gt(inst)) == labelled


    @pytest.mark.parametrize("n,labelled", [(7, 13842), (8, 17640)])
    def test_34_labelled_count_matches_unbroken_cnf(self, n, labelled):
        # Without the row-lex clauses, the models on the edge variables
        # are all labelled (3,4;n) graphs.  Every class of order |Aut|
        # has n!/|Aut| of them, and |Aut| counts the leaves whose
        # certificates equal the first one's: a wrong certificate shows.
        inst = RamseyInstance(3, 4, n)
        evm = EdgeVarMap(n)
        clauses = [[evm[p] for p in itertools.combinations(vs, 2)]
                   for vs in itertools.combinations(range(n), 3)]
        clauses += [[-evm[p] for p in itertools.combinations(vs, 2)]
                    for vs in itertools.combinations(range(n), 4)]
        f = sat.CnfFormula(evm.num_edge_vars, clauses)
        models = sat.solve_all(f, range(1, evm.num_edge_vars + 1))
        assert len(models) == labelled
        for gen in (gen_ramsey_gt, gen_ramsey_cg):
            assert sum(math.factorial(n) // canonize(g).group_size
                       for g in gen(inst)) == labelled


class TestEncoding:
    def test_edge_var_map_layout(self):
        evm = EdgeVarMap(5)
        assert evm[(0, 1)] == 1
        assert evm[(1, 0)] == 1
        assert evm[(0, 4)] == 4
        assert evm[(1, 2)] == 5
        assert evm[(3, 4)] == 10
        assert evm.num_edge_vars == 10

    @pytest.mark.parametrize("n", range(13))
    def test_edge_var_map_is_row_major(self, n):
        evm = EdgeVarMap(n)
        pairs = list(itertools.combinations(range(n), 2))
        assert evm.pairs == tuple(pairs)
        for i, (u, v) in enumerate(pairs, 1):
            assert evm[(u, v)] == evm[(v, u)] == i
            assert evm.pairs[evm[(u, v)] - 1] == (u, v)
        for pair in [(0, 0), (0, n), (-1, 0)]:
            with pytest.raises(KeyError):
                evm[pair]

    @pytest.mark.parametrize("key", [
        (0, 2.0), (0, True), (False, 1), (0,), (0, 1, 2), 5, (0, "a"), "ab",
        None, {0: 1, 1: 2}], ids=repr)
    def test_edge_var_map_key_is_a_pair_of_distinct_vertices(self, key):
        with pytest.raises(KeyError):
            EdgeVarMap(4)[key]

    @pytest.mark.parametrize("n", [-1, 2.5, True, "5", None])
    def test_edge_var_map_rejects_bad_vertex_count(self, n):
        with pytest.raises(GraphError):
            EdgeVarMap(n)

    def test_subset_clauses_present(self):
        evm, f = encode_ramsey(RamseyInstance(3, 3, 5))
        ints = [sorted(c) for c in f.clauses]
        a, b, e = evm[(0, 1)], evm[(0, 2)], evm[(1, 2)]
        # triple {0,1,2}: at least one edge, at least one non-edge
        assert sorted([a, b, e]) in ints
        assert sorted([-a, -b, -e]) in ints

    def test_lex_break_leading_clause(self):
        # rows 0 and 1 compared with columns 0,1 removed: first positions
        # are edge {0,2} vs edge {1,2}, giving the clause (not x) or y
        evm, f = encode_ramsey(RamseyInstance(3, 3, 5))
        ints = [list(c) for c in f.clauses]
        assert [-evm[(0, 2)], evm[(1, 2)]] in ints

    @pytest.mark.parametrize("s,t,n", [
        (3, 5, 10), (3, 5, 11), (4, 4, 8), (3, 6, 9), (3, 3, 5), (1, 3, 4),
        (2, 2, 3), (1, 1, 3), (3, 5, 0), (3, 5, 1)])
    def test_encoder_clauses_need_no_normalizing(self, s, t, n):
        # the encoder skips CnfFormula's checks: its clauses must already
        # be what they would make of them, the unsatisfiable branch included
        _, f = encode_ramsey(RamseyInstance(s, t, n))
        assert f == sat.CnfFormula(f.num_vars, f.clauses)

    def test_unsatisfiable_corner(self):
        # s = 1 forbids every single vertex: no coloring exists for n >= 1
        evm, f = encode_ramsey(RamseyInstance(1, 3, 2))
        assert sat.solve_all(f, ()) == []

    def test_decode_model_round_trip(self):
        evm, f = encode_ramsey(RamseyInstance(3, 3, 5))
        models = sat.solve_all(f, range(1, evm.num_edge_vars + 1))
        for m in models:
            g = decode_model(evm, m)
            assert all(m[evm[(u, v)] - 1] == g.rows[u] >> v & 1
                       for u, v in itertools.combinations(range(5), 2))

    def test_decode_model_matches_from_edges(self):
        evm, f = encode_ramsey(RamseyInstance(3, 5, 8))
        models = sat.solve_all(f, range(1, evm.num_edge_vars + 1))
        assert models
        for m in models:
            edges = [pair for pair, bit in zip(evm.pairs, m) if bit]
            assert decode_model(evm, m) == Graph.from_edges(evm.n, edges)

    @pytest.mark.parametrize("n, values", [
        (5, b"\x01"), (5, b"\x01" * 9), (2, b"")])
    def test_decode_model_rejects_short_models(self, n, values):
        # compress would stop at the end of a short model, leaving out
        # the edges of the pairs past it
        with pytest.raises(sat.SatError):
            decode_model(EdgeVarMap(n), values)

    def test_symmetry_break_soundness(self):
        # dropping the lex constraints must not lose any canonical class
        for n in range(1, 6):
            inst = RamseyInstance(3, 4, n)
            evm, f = encode_ramsey(inst)
            models = sat.solve_all(f, range(1, evm.num_edge_vars + 1))
            graphs = [decode_model(evm, m) for m in models]
            assert all(is_ramsey(inst, g) for g in graphs)
            assert dedup_canonical(graphs) == gen_ramsey_gt(inst)


class TestConstrainGenerateReduce:
    @pytest.mark.parametrize("n", [5, 6])
    def test_stats_row_matches_direct_run(self, n):
        inst = RamseyInstance(3, 4, n)
        rows = []
        out = gen_ramsey_cg(inst, stats=Stats(lambda *row: rows.append(row)))
        [(row_n, classes, seconds, canon_seconds)] = rows
        assert row_n == n
        assert classes == len(out)
        assert 0 <= canon_seconds <= seconds
        assert out == gen_ramsey_cg(inst)

    def test_rejects_n_above_the_vertex_cap_before_encoding(self,
                                                            monkeypatch):
        # (2,100;65) has one class, K65, which no Graph may hold.
        monkeypatch.setattr(ramsey, "encode_ramsey", None)
        with pytest.raises(VertexCapExceeded):
            gen_ramsey_cg(RamseyInstance(2, 100, 65))


def _least_labelling(g):
    """The least labelling of g's class, upper triangle read row by row,
    non-edge first, over all n! relabelings."""
    return min((apply_permutation(g, Permutation(p))
                for p in itertools.permutations(range(g.n))),
               key=lambda h: [h.rows[u] >> v & 1 for u in range(h.n)
                              for v in range(u + 1, h.n)])


class TestLexLeast:
    @pytest.mark.parametrize("n", range(7))
    def test_least_labelling_of_every_class_passes(self, n):
        for g in all_nonisomorphic(n):
            assert _may_be_lex_least(_least_labelling(g)), g

    def test_rejects_row_not_sorted_within_a_cell(self):
        # 2K2 with every degree 1, so only the order within a cell fails:
        # row 0 is (1, 0, 0) on the one cell {1, 2, 3}.  SAT models never
        # fail this way, since the row-lex clauses already forbid it.
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not _may_be_lex_least(g)
        assert _may_be_lex_least(_least_labelling(g))

    def test_rejects_cell_mate_with_smaller_counts(self):
        # row 0 is (0, 1), sorted, but vertex 1 has degree 0 < deg(0)
        assert not _may_be_lex_least(Graph.from_edges(3, [(0, 2)]))

    @pytest.mark.parametrize("s, t, n, dropped", [
        (3, 5, 10, 1956), (4, 4, 8, None), (3, 6, 8, None)])
    def test_degree_test_drops_no_model_lex_least_keeps(self, s, t, n,
                                                        dropped):
        evm, f = encode_ramsey(RamseyInstance(s, t, n))
        models = sat.solve_all(f, range(1, evm.num_edge_vars + 1))
        failed = [m for m in models
                  if not _first_degree_at_most_mean(n, m)]
        assert failed
        assert dropped is None or len(failed) == dropped
        assert not any(_may_be_lex_least(decode_model(evm, m))
                       for m in failed)

    @pytest.mark.parametrize("n", range(6))
    def test_degree_test_drops_no_labelling_lex_least_keeps(self, n):
        # the row-major bytes of every labelled graph, with trailing
        # bytes as a model's auxiliary variables would give
        kept = 0
        for g in labelled_graphs(n):
            values = bytes(g.rows[u] >> v & 1 for u, v in
                           itertools.combinations(range(n), 2)) + b"\x01\x00"
            if _first_degree_at_most_mean(n, values):
                kept += 1
            else:
                assert not _may_be_lex_least(g), g
        # below 3 vertices every graph is regular, so none is dropped
        assert (kept < 2 ** math.comb(n, 2)) == (n >= 3)


class TestPipelineEquivalence:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_33_pipelines_agree(self, n):
        inst = RamseyInstance(3, 3, n)
        assert gen_ramsey_cg(inst) == gen_ramsey_gt(inst)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_35_pipelines_agree(self, n):
        inst = RamseyInstance(3, 5, n)
        assert gen_ramsey_cg(inst) == gen_ramsey_gt(inst)

    def test_34_pipelines_agree(self):
        inst = RamseyInstance(3, 4, 6)
        assert gen_ramsey_cg(inst) == gen_ramsey_gt(inst)

    @pytest.mark.parametrize("s, t", itertools.product(range(1, 5), repeat=2))
    def test_small_instances_agree(self, s, t):
        # n = 0 and 1, and the unsatisfiable s = 1 or t = 1 corner
        for n in range(8):
            inst = RamseyInstance(s, t, n)
            assert gen_ramsey_cg(inst) == gen_ramsey_gt(inst), inst

    @pytest.mark.parametrize("s, t, n", [(4, 4, 8), (3, 6, 8)])
    def test_eight_vertex_pipelines_agree(self, s, t, n):
        inst = RamseyInstance(s, t, n)
        assert gen_ramsey_cg(inst) == gen_ramsey_gt(inst)
