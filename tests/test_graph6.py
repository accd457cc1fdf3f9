import pytest

from gcanon.graph import Graph
from gcanon.graph6 import (
    Graph6Error,
    decode_graph6,
    encode_graph6,
    read_graph6_lines,
    write_graph6_lines,
)

from .conftest import all_graphs
from .reference_graphs import CYCLE5_ATOM, CYCLE5_MATRIX, TWELVE_CYCLE_ATOMS


def test_known_atom_decodes():
    assert decode_graph6(CYCLE5_ATOM).to_matrix() == CYCLE5_MATRIX


def test_known_atom_encodes():
    assert encode_graph6(Graph.from_matrix(CYCLE5_MATRIX)) == CYCLE5_ATOM


def test_single_vertex():
    assert encode_graph6(Graph.empty(1)) == "@"
    assert decode_graph6("@") == Graph.empty(1)


def test_k2():
    assert encode_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"


def test_twelve_cycle_atoms():
    for atom, matrix in TWELVE_CYCLE_ATOMS.items():
        assert decode_graph6(atom).to_matrix() == matrix
        assert encode_graph6(Graph.from_matrix(matrix)) == atom


@pytest.mark.parametrize("n", range(6))
def test_exhaustive_round_trip(n):
    for g in all_graphs(n):
        atom = encode_graph6(g)
        assert decode_graph6(atom) == g
        assert encode_graph6(decode_graph6(atom)) == atom


@pytest.mark.parametrize("n", [0, 1, 2, 5, 13, 30, 62])
def test_encoded_length_formula(n):
    atom = encode_graph6(Graph.empty(n))
    assert len(atom) == 1 + (n * (n - 1) // 2 + 5) // 6


def test_lex_order_matches_bit_order(graphs5):
    keyed = [(g.upper_triangle_bits(), encode_graph6(g)) for g in graphs5]
    by_bits = [a for _, a in sorted(keyed)]
    by_atom = sorted(a for _, a in keyed)
    assert by_bits == by_atom


def test_rejects_large_n():
    with pytest.raises(Graph6Error):
        encode_graph6(Graph.empty(63))
    with pytest.raises(Graph6Error):
        decode_graph6(chr(63 + 63))


def test_rejects_bad_length():
    with pytest.raises(Graph6Error):
        decode_graph6("Dq")
    with pytest.raises(Graph6Error):
        decode_graph6("DqKK")


def test_rejects_out_of_range_character():
    with pytest.raises(Graph6Error):
        decode_graph6("D\x20K")


def test_rejects_nonzero_padding_strict():
    # 2 vertices: single adjacency bit, 5 padding bits
    bad = "A" + chr(63 + 1)  # padding bit set
    with pytest.raises(Graph6Error):
        decode_graph6(bad)


def test_stream_header_tolerated_on_input():
    assert decode_graph6(">>graph6<<DqK").to_matrix() == CYCLE5_MATRIX


def test_line_round_trip(graphs5):
    text = write_graph6_lines(graphs5[:20])
    assert text.endswith("\n") and " " not in text
    assert list(read_graph6_lines(text)) == graphs5[:20]


def test_line_reader_skips_blank_and_header_lines():
    k2 = Graph.from_edges(2, [(0, 1)])
    assert list(read_graph6_lines("A_\r\n>>graph6<<\n\nA_")) == [k2, k2]


@pytest.mark.parametrize("sep", ["\x0b", "\x1c", "\x85", "\u2028"])
def test_line_reader_splits_at_newlines_only(sep):
    with pytest.raises(Graph6Error):
        list(read_graph6_lines("A_" + sep + "A_\n"))
