"""Bit-exact graph6 encoder/decoder for every n a Graph holds (n <= 64).

The size header is one byte n + 63 for n <= 62, and "~" plus three bytes
(big-endian 6-bit groups, each offset by 63) for 63 <= n <= 258047.  The
body packs the upper adjacency triangle in column order
(0,1),(0,2),(1,2),(0,3),... into big-endian 6-bit groups, each offset by
63: base64 with another alphabet, so the encoder turns the bits into
characters with one binascii call and one translation table.
Line streams are newline-terminated bare atoms, byte-compatible with the
gtools geng/shortg programs.
"""

from __future__ import annotations

from binascii import b2a_base64
from typing import Iterable, Iterator

from .graph import DEFAULT_VERTEX_CAP, Graph, GraphError, VertexCapExceeded

STREAM_HEADER = ">>graph6<<"

# base64 digit i -> graph6 character 63 + i
_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)))


class Graph6Error(GraphError):
    """Malformed graph6 text."""


def encode_graph6(g: Graph) -> str:
    n = g.n
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    # whole bytes that hold the nchars 6-bit groups, the bits left-aligned
    nbytes = (6 * nchars + 7) >> 3
    raw = (g.upper_triangle_bits() << (8 * nbytes - nbits)).to_bytes(
        nbytes, "big")
    body = b2a_base64(raw, newline=False)[:nchars].translate(_TO_GRAPH6)
    if n <= 62:
        header = chr(n + 63)
    else:
        header = "~" + "".join(chr((n >> s & 0x3F) + 63) for s in (12, 6, 0))
    return header + body.decode("ascii")


def _read_size(atom: str) -> tuple[int, int]:
    """(n, header length) of an atom of graph6 characters."""
    if atom[0] != "~":
        return ord(atom[0]) - 63, 1
    if len(atom) < 4:
        raise Graph6Error(f"truncated size header {atom!r}")
    n = 0
    for ch in atom[1:4]:
        n = n << 6 | (ord(ch) - 63)
    if n < 63:
        raise Graph6Error(f"long size header for n={n}, which takes one byte")
    return n, 4


def decode_graph6(atom: str) -> Graph:
    if atom.startswith(STREAM_HEADER):
        atom = atom[len(STREAM_HEADER):]
    if not atom:
        raise Graph6Error("empty graph6 atom")
    for ch in atom:
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"character {ch!r} outside graph6 byte range")
    n, start = _read_size(atom)
    nbits = n * (n - 1) // 2
    body = atom[start:]
    if len(body) != (nbits + 5) // 6:
        raise Graph6Error(
            f"body length {len(body)}, expected {(nbits + 5) // 6} for n={n}")
    # Graph._trusted below does not check n.  Malformed text, whatever
    # its n, is a Graph6Error from the checks above.
    if n > DEFAULT_VERTEX_CAP:
        raise VertexCapExceeded(
            f"n={n} exceeds vertex cap {DEFAULT_VERTEX_CAP}")
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
