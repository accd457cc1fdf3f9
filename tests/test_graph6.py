import itertools
import random

import pytest

from gcanon.graph import (
    Graph,
    VertexCapExceeded,
    _relabel_rows,
    _upper_bits,
)
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
    # n = 65 in the long size header, with a body of the right length
    body = "?" * ((65 * 64 // 2 + 5) // 6)
    with pytest.raises(VertexCapExceeded):
        decode_graph6("~?@@" + body)
    with pytest.raises(VertexCapExceeded):
        Graph.empty(65)
    with pytest.raises(Graph6Error):
        decode_graph6("~")


def test_long_size_header():
    # formats.txt: n = 63 is "~??~", then 326 body bytes
    atom = encode_graph6(Graph.empty(63))
    assert atom == "~??~" + "?" * 326
    assert decode_graph6(atom) == Graph.empty(63)
    assert encode_graph6(Graph.empty(64))[:4] == "~?@?"


@pytest.mark.parametrize("atom", [
    "~??}" + "?" * 316,   # n = 62 in the long form
    "~???",               # n = 0 in the long form
    "~", "~?", "~??", "~~",  # truncated headers
])
def test_rejects_long_header_for_small_or_truncated(atom):
    with pytest.raises(Graph6Error, match="size header"):
        decode_graph6(atom)


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


def per_bit_upper(rows, order):
    """Reference packing: one shift of the result per bit."""
    bits = 0
    for j in range(1, len(order)):
        for i in range(j):
            bits = bits << 1 | (rows[order[i]] >> order[j] & 1)
    return bits


def per_bit_relabel(rows, pos):
    """Reference relabeling: one adjacency bit at a time."""
    n = len(rows)
    out = [0] * n
    for u in range(n):
        for v in range(n):
            if rows[u] >> v & 1:
                out[pos[u]] |= 1 << pos[v]
    return tuple(out)


def seeded_graphs(density, seed):
    """One seeded graph of the given edge density for each n = 0..64."""
    rng = random.Random(seed)
    for n in range(65):
        yield Graph.from_edges(n, [
            e for e in itertools.combinations(range(n), 2)
            if rng.random() < density])


def per_group_encode(g):
    """Reference encoder: the size header of formats.txt, then one Python
    step per 6-bit group of the per-bit packing."""
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~", chr((n >> 12) + 63), chr((n >> 6 & 0x3F) + 63),
               chr((n & 0x3F) + 63)]
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    bits = per_bit_upper(g.rows, range(n)) << pad
    for shift in range(nbits + pad - 6, -1, -6):
        out.append(chr((bits >> shift & 0x3F) + 63))
    return "".join(out)


# densities 0 and 1 give the empty and complete graphs
DENSITIES = [0, 0.05, 0.5, 0.95, 1]


@pytest.mark.parametrize("density", DENSITIES)
def test_packing_kernels_match_per_bit_reference(density):
    rng = random.Random(71)
    for g in seeded_graphs(density, 73):
        assert g.upper_triangle_bits() == per_bit_upper(g.rows, range(g.n))
        assert g.upper_triangle_bits() == _upper_bits(g.rows, range(g.n))
        assert encode_graph6(g) == per_group_encode(g)
        labeling = list(range(g.n))
        rng.shuffle(labeling)
        assert (_upper_bits(g.rows, labeling)
                == per_bit_upper(g.rows, labeling))
        assert (_relabel_rows(g.rows, labeling)
                == per_bit_relabel(g.rows, labeling))
        assert decode_graph6(encode_graph6(g)) == g


@pytest.mark.parametrize("density", DENSITIES)
def test_encoding_matches_networkx(density):
    nx = pytest.importorskip("networkx")
    for g in seeded_graphs(density, 79):
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges())
        assert (encode_graph6(g).encode() + b"\n"
                == nx.to_graph6_bytes(G, header=False))
