"""Bit-exact graph6 encoder/decoder for every n a Graph holds (n <= 64).

The size header is one byte n + 63 for n <= 62, and "~" plus three bytes
(big-endian 6-bit groups, each offset by 63) for 63 <= n <= 258047.  The
body packs the upper adjacency triangle in column order
(0,1),(0,2),(1,2),(0,3),... into big-endian 6-bit groups, each offset by
63: base64 with another alphabet, so the encoder turns the bits into
characters with one binascii call and one translation table, and the
decoder reads them back the same way.  The decoder reverses the bits of
each byte once, so graph6 bit i is bit i of one int; it places column v,
v's lower neighbours, at row v of a packed bit matrix and ORs in the
transpose (graph._transpose) for the upper ones.
Line streams are newline-terminated bare atoms, byte-compatible with the
gtools geng/shortg programs.
"""

from __future__ import annotations

import re
from binascii import a2b_base64, b2a_base64
from typing import Iterable, Iterator

from .graph import (
    Graph,
    GraphError,
    _REV8,
    _check_vertex_count,
    _packing,
    _transpose,
)

STREAM_HEADER = ">>graph6<<"

# base64 digit i <-> graph6 character 63 + i
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_FROM_GRAPH6 = bytes.maketrans(bytes(range(63, 127)), _BASE64)

# the first character of a str that is not a graph6 character
_NOT_GRAPH6 = re.compile(r"[^?-~]").search


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
    bad = _NOT_GRAPH6(atom)
    if bad:
        raise Graph6Error(
            f"character {bad.group()!r} outside graph6 byte range")
    n, start = _read_size(atom)
    nbits = n * (n - 1) // 2
    body = atom[start:]
    if len(body) != (nbits + 5) // 6:
        raise Graph6Error(
            f"body length {len(body)}, expected {(nbits + 5) // 6} for n={n}")
    # Graph._trusted below does not check n.  Malformed text, whatever
    # its n, is a Graph6Error from the checks above.
    _check_vertex_count(n)
    # the body's bits, graph6 bit i at bit i: base64 digits, each byte's
    # bits reversed and the bytes read least significant first
    raw = a2b_base64(body.encode().translate(_FROM_GRAPH6)
                     + b"A" * (-len(body) % 4))
    bits = int.from_bytes(raw.translate(_REV8), "little")
    if bits >> nbits:
        raise Graph6Error("nonzero padding bits")
    # column v holds (0,v) .. (v-1,v) from bit v(v-1)/2 up: as packed row
    # v it is v's lower neighbours, and the transpose adds the upper ones
    offsets, mask, swaps = _packing(n)
    lower = 0
    for v, off in enumerate(offsets):
        lower |= (bits & ((1 << v) - 1)) << off
        bits >>= v
    x = lower | _transpose(lower, swaps)
    return Graph._trusted(n, tuple([x >> off & mask for off in offsets]))


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
