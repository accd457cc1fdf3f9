import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcanon.generate import all_nonisomorphic
from gcanon.graph import (
    ADJ_LIST,
    ADJ_MATRIX,
    EDGE_LIST,
    FORMATS,
    GRAPH6_ATOM,
    Graph,
    GraphError,
    OrderedPartition,
    Permutation,
    VertexCapExceeded,
    apply_permutation,
    extensions,
    graph_convert,
)

from .conftest import all_graphs
from .reference_graphs import CYCLE5_ATOM, CYCLE5_MATRIX


def graphs(max_n=7):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.booleans(),
                           min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2).map(
            lambda bits: Graph.from_edges(
                n, [p for p, b in
                    zip(itertools.combinations(range(n), 2), bits) if b])))


def permutations_of(n):
    return st.permutations(list(range(n))).map(lambda m: Permutation(tuple(m)))


class TestGraphValue:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(2, (1, 2))
        with pytest.raises(GraphError, match="self loop"):
            Graph.from_edges(2, [(1, 1)])

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(GraphError):
            Graph(2, (4, 0))

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(GraphError):
            Graph.from_matrix([[0, 1], [0, 0]])

    @pytest.mark.parametrize("rows", [(2, 0, 0), (0, 0, 2), (6, 1, 0)])
    def test_rejects_asymmetric_rows(self, rows):
        with pytest.raises(GraphError, match="asymmetric"):
            Graph(3, rows)

    def test_rejects_above_cap(self):
        with pytest.raises(VertexCapExceeded):
            Graph.empty(65)

    @pytest.mark.parametrize("n, rows", [
        (2, (2.0, 1.0)), ("2", (0, 0)), (2.0, (0, 0)), (2, None),
        (True, (0,)), (2, (2, True))])
    def test_rejects_non_int_values(self, n, rows):
        with pytest.raises(GraphError):
            Graph(n, rows)

    @pytest.mark.parametrize("n, edges", [
        (3, [(0, 1.0)]), (3, [(0, "1")]), (3, [(0, None)]), (3.0, [(0, 1)]),
        (True, []), (3, [(0, 1, 2)]), (3, [(0,)]), (3, None),
        (3, [(True, 2)]), (3, [(2, True)])])
    def test_from_edges_rejects_non_int_values(self, n, edges):
        with pytest.raises(GraphError):
            Graph.from_edges(n, edges)

    @pytest.mark.parametrize("matrix", [
        5, None, [[0, 1], 5], [[0, 1.0], [1.0, 0]]])
    def test_from_matrix_rejects_malformed(self, matrix):
        with pytest.raises(GraphError):
            Graph.from_matrix(matrix)

    @pytest.mark.parametrize("n, matrix", [
        (2.0, [[0, 0], [0, 0]]), ("2", [[0, 0], [0, 0]]), (True, [[0]])])
    def test_convert_rejects_non_int_n(self, n, matrix):
        with pytest.raises(GraphError):
            graph_convert(n, ADJ_MATRIX, GRAPH6_ATOM, matrix)

    def test_from_edges_rejects_int_like_vertices(self):
        np = pytest.importorskip("numpy")
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(0, np.int64(1))])

    def test_from_edges_graph_is_symmetric(self):
        g = Graph.from_edges(4, [(0, 1), (3, 1), (2, 0), (1, 0)])
        assert g == Graph(4, g.rows)
        assert g.rows == (0b0110, 0b1001, 0b0001, 0b0010)


class TestConvert:
    def test_graph6_to_matrix_known_atom(self):
        assert graph_convert(5, GRAPH6_ATOM, ADJ_MATRIX, CYCLE5_ATOM) == \
            CYCLE5_MATRIX

    def test_identity_conversion(self):
        assert graph_convert(5, ADJ_MATRIX, ADJ_MATRIX, CYCLE5_MATRIX) == \
            CYCLE5_MATRIX

    def test_matrix_to_edge_list_and_back(self):
        edges = graph_convert(5, ADJ_MATRIX, EDGE_LIST, CYCLE5_MATRIX)
        assert edges == [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]
        assert graph_convert(5, EDGE_LIST, ADJ_MATRIX, edges) == CYCLE5_MATRIX

    def test_adj_list(self):
        adj = graph_convert(5, ADJ_MATRIX, ADJ_LIST, CYCLE5_MATRIX)
        assert adj == [[1, 2], [0, 3], [0, 4], [1, 4], [2, 3]]
        assert graph_convert(5, ADJ_LIST, GRAPH6_ATOM, adj) == CYCLE5_ATOM

    def test_n_mismatch(self):
        with pytest.raises(GraphError):
            graph_convert(4, GRAPH6_ATOM, ADJ_MATRIX, CYCLE5_ATOM)
        with pytest.raises(GraphError):
            graph_convert(4, ADJ_MATRIX, EDGE_LIST, CYCLE5_MATRIX)

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphError):
            graph_convert(3, EDGE_LIST, ADJ_MATRIX, [(0, 5)])

    def test_asymmetric_adj_list_rejected(self):
        with pytest.raises(GraphError):
            graph_convert(3, ADJ_LIST, ADJ_MATRIX, [[1], [], []])

    @pytest.mark.parametrize("fmt, value", [
        (ADJ_MATRIX, [1, 0]),
        (ADJ_MATRIX, {0: 1, 1: 2}),
        (ADJ_MATRIX, None),
        (GRAPH6_ATOM, 5),
        (GRAPH6_ATOM, ["A_"]),
        (ADJ_MATRIX, [[0, 1.0], [1.0, 0]]),
    ])
    def test_mistyped_value_is_graph_error(self, fmt, value):
        with pytest.raises(GraphError):
            graph_convert(2, fmt, ADJ_MATRIX, value)

    def test_huge_n_rejected_before_allocation(self):
        with pytest.raises(VertexCapExceeded):
            graph_convert(2 ** 70, EDGE_LIST, ADJ_MATRIX, [])
        with pytest.raises(VertexCapExceeded):
            Graph.empty(2 ** 70)
        with pytest.raises(VertexCapExceeded):
            Graph.from_edges(2 ** 70, [])

    def test_unknown_format(self):
        with pytest.raises(GraphError):
            graph_convert(3, "dot", ADJ_MATRIX, "")

    @pytest.mark.parametrize("f1", sorted(FORMATS))
    @pytest.mark.parametrize("f2", sorted(FORMATS))
    def test_round_trip_all_pairs_small(self, f1, f2):
        for n in range(6):
            for g in all_graphs(n):
                start = graph_convert(n, ADJ_MATRIX, f1, g.to_matrix())
                there = graph_convert(n, f1, f2, start)
                back = graph_convert(n, f2, f1, there)
                assert back == start

    def test_round_trip_sampled_n6(self):
        import random
        rng = random.Random(0)
        pairs = list(itertools.combinations(range(6), 2))
        for _ in range(50):
            g = Graph.from_edges(6, [p for p in pairs if rng.random() < .5])
            for f1 in FORMATS:
                for f2 in FORMATS:
                    start = graph_convert(6, ADJ_MATRIX, f1, g.to_matrix())
                    assert graph_convert(
                        6, f2, f1, graph_convert(6, f1, f2, start)) == start


class TestApplyPermutation:
    def test_identity(self):
        g = Graph.from_matrix(CYCLE5_MATRIX)
        assert apply_permutation(g, Permutation(range(5))) == g

    def test_k2_swap(self):
        k2 = Graph.from_edges(2, [(0, 1)])
        assert apply_permutation(k2, Permutation((1, 0))) == k2

    def test_length_mismatch(self):
        with pytest.raises(GraphError):
            apply_permutation(Graph.empty(3), Permutation((0, 1)))

    @pytest.mark.parametrize("p,q", [((0, 1, 2), (1, 0)),
                                     ((1, 0), (0, 1, 2))])
    def test_compose_length_mismatch(self, p, q):
        with pytest.raises(GraphError):
            Permutation(p).compose(Permutation(q))

    @pytest.mark.parametrize("bad", [(0, "a"), (0, None), ("a", "b"),
                                     (0, 0), (1, 2), 5, None, ([0], 1),
                                     (0, 1.0), (0, True), (False, 1)])
    def test_not_a_bijection(self, bad):
        with pytest.raises(GraphError):
            Permutation(bad)

    def test_list_map_stored_as_tuple(self):
        p = Permutation([1, 0])
        assert p.map == (1, 0)
        assert hash(p) == hash(Permutation((1, 0)))

    def test_mapping_direction(self):
        g = Graph.from_edges(3, [(0, 1)])
        p = Permutation((2, 0, 1))
        h = apply_permutation(g, p)
        assert h.rows[p.map[0]] >> p.map[1] & 1
        assert h.edges() == [(0, 2)]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_composition(self, data):
        g = data.draw(graphs())
        p = data.draw(permutations_of(g.n))
        q = data.draw(permutations_of(g.n))
        assert apply_permutation(apply_permutation(g, p), q) == \
            apply_permutation(g, q.compose(p))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_degree_multiset_preserved(self, data):
        g = data.draw(graphs())
        p = data.draw(permutations_of(g.n))
        h = apply_permutation(g, p)
        assert sorted(r.bit_count() for r in g.rows) == \
            sorted(r.bit_count() for r in h.rows)


class TestExtensions:
    def test_from_empty(self):
        out = list(extensions(Graph.empty(0)))
        assert out == [Graph.empty(1)]

    def test_from_k1(self):
        out = list(extensions(Graph.empty(1)))
        assert out == [Graph.empty(2), Graph.from_edges(2, [(0, 1)])]

    def test_five_rounds_give_all_labeled_graphs(self):
        acc = [Graph.empty(0)]
        for _ in range(5):
            acc = [h for g in acc for h in extensions(g)]
        assert len(acc) == 1024
        assert len(set(acc)) == 1024

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=6))
    def test_count_and_restriction(self, g):
        out = list(extensions(g))
        assert len(out) == 2 ** g.n
        assert len(set(out)) == len(out)
        for h in out:
            assert Graph.from_edges(g.n, [
                e for e in h.edges() if g.n not in e]) == g

    def test_matches_naive_definition_in_mask_order(self):
        # n = 0..11 crosses the width of the row table; the first 600
        # children of a 40-vertex graph cross two blocks of 256 masks
        rng = random.Random(7)

        def random_graph(n):
            return Graph.from_edges(n, [p for p in itertools.combinations(
                range(n), 2) if rng.random() < 0.5])

        cases = [(random_graph(n), 1 << n) for n in range(12)]
        cases.append((random_graph(40), 600))
        for g, count in cases:
            newbit = 1 << g.n
            out = list(itertools.islice(extensions(g), count))
            assert len(out) == count
            for mask, h in enumerate(out):
                assert h.n == g.n + 1
                assert h.rows == tuple(
                    r | newbit if mask >> u & 1 else r
                    for u, r in enumerate(g.rows)) + (mask,)
                assert Graph(h.n, h.rows) == h

    def test_cap(self):
        with pytest.raises(VertexCapExceeded):
            next(iter(extensions(Graph.empty(64))))


@pytest.mark.parametrize("make", [OrderedPartition.unit, all_nonisomorphic])
@pytest.mark.parametrize("n", [2.0, True, "2", None, -1, 65])
def test_entry_points_check_vertex_count(make, n):
    with pytest.raises(GraphError):
        make(n)


class TestOrderedPartition:
    def test_rejects_overlap(self):
        with pytest.raises(GraphError):
            OrderedPartition(((0, 1), (1, 2)))

    def test_rejects_empty_cell(self):
        with pytest.raises(GraphError):
            OrderedPartition(((0,), ()))

    @pytest.mark.parametrize("bad", [5, None, (0, 1), ((0,), (True,)),
                                     ((0,), (1.0,)), ((0,), ("1",))])
    def test_rejects_non_int_cells(self, bad):
        with pytest.raises(GraphError):
            OrderedPartition(bad)

    def test_lists_stored_as_tuples(self):
        p = OrderedPartition([[1, 0], [2]])
        assert p.cells == ((1, 0), (2,))
        assert hash(p) == hash(OrderedPartition(((1, 0), (2,))))

    def test_unit(self):
        assert OrderedPartition.unit(3).cells == ((0, 1, 2),)
        assert OrderedPartition.unit(0).cells == ()
