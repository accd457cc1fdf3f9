import itertools
import random
import re

import pytest

from gcanon.graph import (
    Graph,
    VertexCapExceeded,
    _packing,
    _relabel_rows,
    _transpose,
    _upper_bits,
)
from gcanon.graph6 import (
    Graph6Error,
    _read_size,
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


# n(n-1)/2 mod 6 is 0, 1, 3 or 4: 0, 5, 3 or 2 padding bits
@pytest.mark.parametrize("n,pad", [
    (5, 2), (8, 2), (3, 3), (6, 3), (63, 3), (2, 5), (11, 5), (14, 5)])
def test_rejects_each_padding_bit(n, pad):
    assert -(n * (n - 1) // 2) % 6 == pad
    for g in (Graph.empty(n), Graph.from_edges(
            n, itertools.combinations(range(n), 2))):
        atom = encode_graph6(g)
        assert decode_graph6(atom) == g
        for b in range(pad):
            bad = atom[:-1] + chr(63 + ((ord(atom[-1]) - 63) | 1 << b))
            with pytest.raises(Graph6Error, match="nonzero padding bits"):
                decode_graph6(bad)


@pytest.mark.parametrize("bad", ["\u00e9", "\u0100", "\ud800", "\x01", "\x7f"],
                         ids=ascii)
def test_bad_character_error_names_the_first(bad):
    # after a valid prefix, and ahead of a second bad character
    message = re.escape(f"character {bad!r} outside graph6 byte range")
    for atom in ["DqK" + bad, "Dq" + bad + "K", "D" + bad + "\x01K",
                 ">>graph6<<" + bad + "\u00e9"]:
        with pytest.raises(Graph6Error, match=message):
            decode_graph6(atom)


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


def per_bit_transpose(rows):
    """Reference transpose: row v of the result is column v of rows."""
    n = len(rows)
    return [sum((rows[u] >> v & 1) << u for u in range(n)) for v in range(n)]


def per_bit_decode(atom):
    """Reference decoder body: one shift per character, then one step per
    bit of each column; the atom is well formed."""
    n, start = _read_size(atom)
    nbits = n * (n - 1) // 2
    bits = 0
    for ch in atom[start:]:
        bits = bits << 6 | (ord(ch) - 63)
    bits >>= -nbits % 6
    rows = [0] * n
    pos = nbits
    for v in range(1, n):
        # column v holds (0,v) .. (v-1,v), (v-1,v) in its lowest bit
        pos -= v
        col = bits >> pos
        bits ^= col << pos
        u = v
        while col:
            u -= 1
            if col & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            col >>= 1
    return Graph(n, tuple(rows))


def test_transpose_matches_per_bit_reference():
    # matrices that are not symmetric, past 64 rows: no size has a cap
    rng = random.Random(83)
    for n in range(131):
        offsets, mask, swaps = _packing(n)
        rows = [rng.getrandbits(n) for _ in range(n)]
        packed = sum(r << off for r, off in zip(rows, offsets))
        assert _transpose(packed, swaps) == sum(
            r << off for r, off in zip(per_bit_transpose(rows), offsets))


@pytest.mark.parametrize("density", [0, 0.5, 1])
def test_relabel_kernels_match_per_bit_reference_to_130(density):
    # raw symmetric rows, the empty and complete graphs included, in
    # shuffled orders: one code path for every n, under and over the cap
    rng = random.Random(101)
    for n in range(131):
        rows = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < density:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        order = list(range(n))
        rng.shuffle(order)
        assert _upper_bits(rows, order) == per_bit_upper(rows, order)
        assert _relabel_rows(rows, order) == per_bit_relabel(rows, order)


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
        atom = encode_graph6(g)
        assert decode_graph6(atom) == per_bit_decode(atom) == g


@pytest.mark.parametrize("density", DENSITIES)
def test_decoding_matches_networkx(density):
    nx = pytest.importorskip("networkx")
    for g in seeded_graphs(density, 97):
        G = nx.from_graph6_bytes(encode_graph6(g).encode())
        assert sorted(G.nodes) == list(range(g.n))
        assert decode_graph6(encode_graph6(g)) == Graph.from_edges(
            g.n, G.edges)


@pytest.mark.parametrize("density", DENSITIES)
def test_encoding_matches_networkx(density):
    nx = pytest.importorskip("networkx")
    for g in seeded_graphs(density, 79):
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges())
        assert (encode_graph6(g).encode() + b"\n"
                == nx.to_graph6_bytes(G, header=False))
