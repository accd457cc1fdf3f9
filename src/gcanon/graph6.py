"""Bit-exact graph6 encoder/decoder (short size header, n <= 62).

The body packs the upper adjacency triangle in column order
(0,1),(0,2),(1,2),(0,3),... into big-endian 6-bit groups, each offset by 63.
Line streams are newline-terminated bare atoms, byte-compatible with the
gtools geng/shortg programs.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph import Graph, GraphError

STREAM_HEADER = ">>graph6<<"
MAX_GRAPH6_N = 62


class Graph6Error(GraphError):
    """Malformed graph6 text."""


def encode_graph6(g: Graph) -> str:
    if g.n > MAX_GRAPH6_N:
        raise Graph6Error(
            f"n={g.n}: only the single-byte size header (n <= 62) is supported")
    out = [chr(g.n + 63)]
    nbits = g.n * (g.n - 1) // 2
    bits = g.upper_triangle_bits()
    pad = -nbits % 6
    bits <<= pad
    for shift in range(nbits + pad - 6, -1, -6):
        out.append(chr((bits >> shift & 0x3F) + 63))
    return "".join(out)


def decode_graph6(atom: str) -> Graph:
    if atom.startswith(STREAM_HEADER):
        atom = atom[len(STREAM_HEADER):]
    if not atom:
        raise Graph6Error("empty graph6 atom")
    for ch in atom:
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"character {ch!r} outside graph6 byte range")
    n = ord(atom[0]) - 63
    if n > MAX_GRAPH6_N:
        raise Graph6Error(
            f"size header {atom[0]!r}: multi-byte headers (n > 62) unsupported")
    nbits = n * (n - 1) // 2
    body = atom[1:]
    if len(body) != (nbits + 5) // 6:
        raise Graph6Error(
            f"body length {len(body)}, expected {(nbits + 5) // 6} for n={n}")
    bits = 0
    for ch in body:
        bits = bits << 6 | (ord(ch) - 63)
    pad = -nbits % 6
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    bits >>= pad
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
    return Graph._trusted(n, tuple(rows))


def write_graph6_lines(graphs: Iterable[Graph]) -> str:
    """One atom per line, newline-terminated, no stream header."""
    return "".join(encode_graph6(g) + "\n" for g in graphs)


def read_graph6_lines(text: str) -> Iterator[Graph]:
    """Graphs of a newline-separated stream, blank and header lines skipped.
    Split at newlines only: a control character in an atom is an error."""
    for line in text.split("\n"):
        line = line.strip()
        if not line or line == STREAM_HEADER:
            continue
        yield decode_graph6(line)
