import random

import pytest

from gcanon.canon import canonical_form
from gcanon.generate import (
    Stats,
    all_nonisomorphic,
    dedup_canonical,
    extend_and_reduce,
    reduce_classes,
)
from gcanon.graph import Graph, GraphError, Permutation, apply_permutation
from gcanon.graph6 import decode_graph6, encode_graph6

from .conftest import all_graphs
from .reference_graphs import TWELVE_CYCLE_ATOMS


def brute_force_class_count(n):
    return len({canonical_form(g) for g in all_graphs(n)})


class TestExtendAndReduce:
    def test_empty_input(self):
        assert extend_and_reduce([]) == []

    def test_single_vertex_parent(self):
        out = extend_and_reduce([Graph.empty(1)])
        assert len(out) == 2

    def test_five_rounds_from_empty(self):
        acc = [Graph.empty(0)]
        for _ in range(5):
            acc = extend_and_reduce(acc)
        assert len(acc) == 34

    def test_outputs_are_canonical(self):
        out = extend_and_reduce([Graph.empty(2)])
        assert all(canonical_form(g) == g for g in out)

    def test_keep_filter_applied(self):
        out = extend_and_reduce([Graph.empty(2)],
                                keep=lambda h: not h.edges())
        assert out == [Graph.empty(3)]

    def test_relabelled_input_gives_the_same_classes(self):
        # Every child is canonized, so non-canonical parents are fine.
        rng = random.Random(59)
        parents = []
        for g in all_nonisomorphic(5):
            perm = list(range(5))
            rng.shuffle(perm)
            parents.append(apply_permutation(g, Permutation(tuple(perm))))
        assert any(canonical_form(g) != g for g in parents)
        assert extend_and_reduce(parents) == all_nonisomorphic(6)


class TestAllNonisomorphic:
    @pytest.mark.parametrize("n,count",
                             [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11),
                              (5, 34), (6, 156), (7, 1044)])
    def test_known_counts(self, n, count):
        assert len(all_nonisomorphic(n)) == count

    @pytest.mark.parametrize("n", range(7))
    def test_matches_brute_force_class_count(self, n):
        assert len(all_nonisomorphic(n)) == brute_force_class_count(n)

    def test_outputs_canonical_and_sorted(self):
        out = all_nonisomorphic(5)
        atoms = [encode_graph6(g) for g in out]
        assert atoms == sorted(atoms)
        assert all(canonical_form(g) == g for g in out[::5])

    def test_beyond_limit(self):
        with pytest.raises(GraphError):
            all_nonisomorphic(10)

    def test_stats_rows_match_direct_run(self):
        rows = []
        out = all_nonisomorphic(5, Stats(lambda *row: rows.append(row)))
        assert [(n, classes) for n, classes, _, _ in rows] == [
            (1, 1), (2, 2), (3, 4), (4, 11), (5, 34)]
        assert all(0 <= canon_s <= s for _, _, s, canon_s in rows)
        assert out == all_nonisomorphic(5)


class TestDedupCanonical:
    def test_twelve_cycles_collapse_to_one(self):
        graphs = [decode_graph6(a) for a in TWELVE_CYCLE_ATOMS]
        out = dedup_canonical(graphs)
        assert len(out) == 1
        assert out[0] == canonical_form(decode_graph6("DqK"))

    def test_empty(self):
        assert dedup_canonical([]) == []

    def test_duplicate_input(self):
        g = decode_graph6("DqK")
        assert dedup_canonical([g, g]) == [canonical_form(g)]

    def test_mixed_sizes_rejected(self):
        with pytest.raises(GraphError):
            dedup_canonical([Graph.empty(2), Graph.empty(3)])

    def test_idempotent_and_order_insensitive(self, graphs5):
        rng = random.Random(1)
        sample = rng.sample(graphs5, 80)
        once = dedup_canonical(sample)
        assert dedup_canonical(once) == once
        shuffled = sample[:]
        rng.shuffle(shuffled)
        assert dedup_canonical(shuffled) == once

    def test_agrees_with_generation(self, graphs5):
        assert dedup_canonical(graphs5) == all_nonisomorphic(5)


class TestReduceClasses:
    def test_relabelled_copies_collapse_to_one_canonical_graph(self):
        rng = random.Random(24)
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4),
                                 (4, 5), (5, 6)])
        copies = []
        for _ in range(6):
            perm = list(range(g.n))
            rng.shuffle(perm)
            copies.append(apply_permutation(g, Permutation(tuple(perm))))
        assert len(set(copies)) > 1
        assert reduce_classes(copies) == [canonical_form(g)]

    def test_drops_exact_duplicates(self, graphs5):
        g, h = canonical_form(graphs5[100]), canonical_form(graphs5[3])
        assert reduce_classes([g, g, h]) == sorted({g, h}, key=encode_graph6)

    def test_accepts_graphs_built_from_list_rows(self):
        g = Graph(2, [2, 1])
        assert g.rows == (2, 1) and g == Graph(2, (2, 1))
        assert reduce_classes([g, Graph(1, [0]), g]) == [Graph(1, (0,)), g]

    def test_sink_gives_the_same_classes_and_times_them(self, graphs5):
        rows = []
        sink = Stats(lambda *row: rows.append(row))
        out = reduce_classes(graphs5, sink)
        sink.level(5, out)
        assert out == reduce_classes(graphs5) == all_nonisomorphic(5)
        [(n, classes, seconds, canon_seconds)] = rows
        assert (n, classes) == (5, 34)
        assert 0 < canon_seconds <= seconds
