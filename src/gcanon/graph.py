"""Core graph values: dense bit-matrix graphs, permutations, ordered partitions,
and conversions between the supported text/term representations.

Graphs are simple and undirected.  Adjacency is stored as one integer bitmask
per vertex, which keeps neighbourhood operations cheap for the search code.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

DEFAULT_VERTEX_CAP = 64

ADJ_MATRIX = "adj_matrix"
ADJ_LIST = "adj_list"
EDGE_LIST = "edge_list"
GRAPH6_ATOM = "graph6_atom"

FORMATS = frozenset({ADJ_MATRIX, ADJ_LIST, EDGE_LIST, GRAPH6_ATOM})


# _REV8[b] is the byte b with its 8 bits in reverse order.
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class GraphError(ValueError):
    """Malformed graph data: bad shape, asymmetry, self loop, index range."""


class VertexCapExceeded(GraphError):
    """Vertex count above the configured cap (default 64)."""


def _check_vertex_count(n: int) -> None:
    """Reject an n that is not an int, is negative or is above the cap,
    before n rows exist."""
    if type(n) is not int:
        raise GraphError(f"vertex count {n!r} is not an int")
    if n < 0:
        raise GraphError("negative vertex count")
    if n > DEFAULT_VERTEX_CAP:
        raise VertexCapExceeded(
            f"n={n} exceeds vertex cap {DEFAULT_VERTEX_CAP}")


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1, one bitmask row per vertex."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        _check_vertex_count(self.n)
        try:
            rows = tuple(self.rows)
        except TypeError:
            raise GraphError("graph rows are not a sequence") from None
        if not set(map(type, rows)) <= {int}:
            raise GraphError("graph rows are not all int bitmasks")
        object.__setattr__(self, "rows", rows)
        if len(self.rows) != self.n:
            raise GraphError("row count does not match vertex count")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.rows):
            if row & ~full:
                raise GraphError(f"row {u} has bits outside [0,{self.n})")
            if row >> u & 1:
                raise GraphError(f"self loop at vertex {u}")
            while row:
                v = (row & -row).bit_length() - 1
                row &= row - 1
                if not self.rows[v] >> u & 1:
                    raise GraphError(f"asymmetric adjacency at ({u},{v})")

    @staticmethod
    def _trusted(n: int, rows: tuple[int, ...]) -> "Graph":
        """Graph from rows derived from a valid graph, without the checks
        of __post_init__, which cost more than the construction on the hot
        path.  The two slots are set through their descriptors, as
        extensions does for each child."""
        g = object.__new__(Graph)
        _set_n(g, n)
        _set_rows(g, rows)
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[_check_vertex(self.n, u)]
                    >> _check_vertex(self.n, v) & 1)

    def degree(self, u: int) -> int:
        return self.rows[_check_vertex(self.n, u)].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n)
                for v in range(u + 1, self.n) if self.rows[u] >> v & 1]

    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def to_matrix(self) -> list[list[int]]:
        return [[self.rows[u] >> v & 1 for v in range(self.n)]
                for u in range(self.n)]

    def upper_triangle_bits(self) -> int:
        """Upper-triangle adjacency packed as an integer, graph6 bit order
        (column by column), first bit most significant.  Total order key on
        graphs of equal n.

        Bit i of rows[j], i < j, is entry (i, j).  Each column's bits go in
        least significant first, so the whole string comes out reversed;
        one byte-wise table lookup in C reverses it, and the Python loop
        makes one shift per column, not per bit."""
        rev = pos = 0
        for j, row in enumerate(self.rows):
            rev |= (row & ((1 << j) - 1)) << pos
            pos += j
        k = (pos + 7) >> 3
        return int.from_bytes(
            rev.to_bytes(k, "little").translate(_REV8), "big") >> (8 * k - pos)

    def delete_vertex(self, v: int) -> "Graph":
        """Induced subgraph on the other n-1 vertices, order preserved.
        v must be an int vertex of the graph; each row keeps its bits
        below v and shifts those above v down by one."""
        low = (1 << _check_vertex(self.n, v)) - 1
        return Graph._trusted(self.n - 1, tuple(
            (r & low) | (r >> 1 & ~low)
            for u, r in enumerate(self.rows) if u != v))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph.from_edges(n, ())

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        _check_vertex_count(n)
        rows = [0] * n
        try:
            for u, v in edges:
                if not (type(u) is int and type(v) is int
                        and 0 <= u < n and 0 <= v < n):
                    raise GraphError(
                        f"edge ({u!r},{v!r}) out of range for n={n}")
                if u == v:
                    raise GraphError(f"self loop at vertex {u}")
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        except GraphError:
            raise
        except (TypeError, ValueError):  # not an iterable of pairs
            raise GraphError("edges are not pairs of int vertices") from None
        # each edge sets both of its bits: symmetric by construction
        return Graph._trusted(n, tuple(rows))

    @staticmethod
    def from_matrix(matrix: Sequence[Sequence[int]]) -> "Graph":
        """Graph of n rows of n entries, each an int or bool 0 or 1; the
        matrix and its rows are lists or tuples."""
        if not isinstance(matrix, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in matrix):
            raise GraphError("adjacency matrix is not a list of rows")
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise GraphError("adjacency matrix is not square")
        rows = []
        for u in range(n):
            row = 0
            for v in range(n):
                x = matrix[u][v]
                if type(x) not in (int, bool) or x not in (0, 1):
                    raise GraphError(f"non-boolean entry at ({u},{v})")
                if x:
                    row |= 1 << v
            rows.append(row)
        return Graph(n, tuple(rows))


_set_n = Graph.n.__set__
_set_rows = Graph.rows.__set__


def _derived(cls, value):
    """Unchecked cls(value), for a value derived from checked ones."""
    obj = object.__new__(cls)
    object.__setattr__(obj, cls.__match_args__[0], value)
    return obj


@dataclass(frozen=True, slots=True)
class Permutation:
    """Bijection on [0,n) in one-line notation: map[i] is the image of i."""

    map: tuple[int, ...]

    def __post_init__(self):
        try:
            m = tuple(self.map)
        except TypeError:
            raise GraphError("permutation map is not a sequence") from None
        if not set(map(type, m)) <= {int} or set(m) != set(range(len(m))):
            raise GraphError("permutation is not a bijection on [0,n)")
        object.__setattr__(self, "map", m)

    def __len__(self) -> int:
        return len(self.map)

    def __call__(self, i: int) -> int:
        return self.map[_check_vertex(len(self.map), i)]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if len(other.map) != len(self.map):
            raise GraphError("permutation lengths differ")
        return _derived(Permutation, tuple(self.map[j] for j in other.map))

    def one_based(self) -> list[int]:
        return [i + 1 for i in self.map]

    @staticmethod
    def identity(n: int) -> "Permutation":
        _check_vertex_count(n)
        return _derived(Permutation, tuple(range(n)))


@dataclass(frozen=True, slots=True)
class OrderedPartition:
    """Ordered sequence of disjoint non-empty vertex cells covering [0,n)."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            cells = tuple(map(tuple, self.cells))
            # read in order, the cells list each vertex once: a permutation
            Permutation(itertools.chain.from_iterable(cells))
        except (TypeError, GraphError):
            raise GraphError("not an ordered partition of [0,n)") from None
        if not all(cells):
            raise GraphError("empty cell in partition")
        object.__setattr__(self, "cells", cells)

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.cells)

    @staticmethod
    def unit(n: int) -> "OrderedPartition":
        _check_vertex_count(n)
        return _derived(OrderedPartition, (tuple(range(n)),) if n else ())


def apply_permutation(g: Graph, p: Permutation) -> Graph:
    """Relabel g by p: result.adj[p(u)][p(v)] = g.adj[u][v]."""
    if len(p) != g.n:
        raise GraphError("permutation length does not match vertex count")
    return Graph._trusted(g.n, _relabel_rows(g.rows, p.map))


def _relabel_rows(rows, pos) -> tuple[int, ...]:
    """Adjacency rows with vertex u moved to position pos[u].

    Row u is placed at position pos[u], and the placed rows are packed
    last first by Horner's rule, x = x << W | row, so position p sits at
    packed row p.  One transpose turns column v, the positions of v's
    neighbours, into packed row v.  That is v's relabelled row only
    because the rows are symmetric: it is stored at pos[v]."""
    n = len(rows)
    offsets, mask, swaps = _packing(n)
    w = mask.bit_length()
    placed = [0] * n
    for u, p in enumerate(pos):
        placed[p] = rows[u]
    x = 0
    for row in reversed(placed):
        x = x << w | row
    x = _transpose(x, swaps)
    out = [0] * n
    for p, off in zip(pos, offsets):
        out[p] = x >> off & mask
    return tuple(out)


@functools.cache
def _packing(n: int):
    """(offsets, row mask, swaps) of an n-row bit matrix packed in one int,
    row r at bit offsets[r] = r*W, W the least power of two >= n.

    The W x W matrix is tiled by 2s x 2s blocks, and each swap (s, m)
    exchanges the top-right and bottom-left s x s quarters of every tile:
    m marks the top-right bits, and each one's partner lies s*(W-1) bits
    above it.  Built on first use, for any n."""
    w = 1 << max(n - 1, 0).bit_length()
    swaps = []
    s = w >> 1
    while s:
        right = sum(1 << c for c in range(w) if c & s)
        swaps.append((s * (w - 1),
                      sum(right << r * w for r in range(w) if not r & s)))
        s >>= 1
    return tuple(range(0, n * w, w)), (1 << w) - 1, tuple(swaps)


def _transpose(x: int, swaps) -> int:
    """The packed W x W bit matrix x transposed, by log2(W) delta swaps
    (Warren, Hacker's Delight, 2nd ed., section 7-3)."""
    for s, m in swaps:
        t = ((x >> s) ^ x) & m
        x ^= t ^ (t << s)
    return x


def _upper_bits(rows, order) -> int:
    """Upper-triangle bits of the graph relabeled so order[i] sits at
    position i, in graph6 order, first bit most significant.

    The rows are packed in order by Horner's rule, x = x << W | row, so
    row order[i] sits at packed row n-1-i.  One transpose then makes each
    packed row v the relabelled row of v, mirrored: its neighbour at
    position i is at bit n-1-i.  Column j, entries (0,j) .. (j-1,j), is
    the top j of the n bits of packed row order[j], and the big int
    shifts once per column.

    It serves the canonizer's leaf certificates and memo keys, which need
    an order; graph6 and Graph.upper_triangle_bits read the rows as they
    are, without it."""
    n = len(order)
    offsets, mask, swaps = _packing(n)
    w = mask.bit_length()
    x = 0
    for v in order:
        x = x << w | rows[v]
    x = _transpose(x, swaps)
    bits = 0
    for j in range(1, n):
        bits = bits << j | (x >> offsets[order[j]] & mask) >> (n - j)
    return bits


def extensions(g: Graph) -> Iterator[Graph]:
    """All 2^n one-vertex extensions of g, the new vertex appended last.

    Ordered by the new vertex's adjacency bitmask, 0 .. 2^n - 1.  The rows
    of the first min(n, 8) vertices come from one table, an entry for each
    subset of them; the rows of the others are built once per block of the
    2^min(n, 8) masks that share them.
    """
    n = g.n
    _check_vertex_count(n + 1)
    n1 = n + 1
    newbit = 1 << n
    w = min(n, 8)
    low = [()]  # low[m]: the rows of vertices 0..w-1 under low mask m
    for r in g.rows[:w]:
        low = [lo + (r,) for lo in low] + [lo + (r | newbit,) for lo in low]
    high = g.rows[w:]
    new, set_n, set_rows = object.__new__, _set_n, _set_rows
    for block in range(1 << (n - w)):
        rest = tuple(r | newbit if block >> j & 1 else r
                     for j, r in enumerate(high))
        base = block << w
        for i, lo in enumerate(low):
            h = new(Graph)  # Graph._trusted, without a frame per child
            set_n(h, n1)
            set_rows(h, lo + rest + (base | i,))
            yield h


def k_subsets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All size-k subsets of [0,n) in lexicographic order."""
    _check_vertex_count(n)
    if type(k) is not int:
        raise GraphError(f"subset size {k!r} is not an int")
    if k < 0:
        raise GraphError("negative subset size")
    return itertools.combinations(range(n), k)


def _check_vertex(n: int, v) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
        raise GraphError(f"vertex {v!r} out of range for n={n}")
    return v


def _from_adj_list(n: int, value) -> Graph:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise GraphError(f"adjacency list is not a list of {n} vertex lists")
    rows = [0] * n
    for u, nbrs in enumerate(value):
        if not isinstance(nbrs, (list, tuple)):
            raise GraphError(f"neighbours of vertex {u} are not a list")
        for v in nbrs:
            rows[u] |= 1 << _check_vertex(n, v)
    return Graph(n, tuple(rows))


def _from_edge_list(n: int, value) -> Graph:
    if not isinstance(value, (list, tuple)):
        raise GraphError("edge list is not a list of vertex pairs")
    for e in value:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise GraphError(f"edge {e!r} is not a vertex pair")
    return Graph.from_edges(n, value)


def graph_convert(n: int, from_fmt: str, to_fmt: str, value):
    """Convert a graph between representations; lossless on the edge set.

    adj_list and edge_list outputs are normalized (sorted, deduplicated);
    converting any representation to itself yields the normalized value.
    """
    for fmt in (from_fmt, to_fmt):
        if fmt not in FORMATS:
            raise GraphError(f"unknown graph format {fmt!r}")
    return _render_graph(to_fmt, _parse_graph(n, from_fmt, value))


def _parse_graph(n: int, fmt: str, value) -> Graph:
    """The graph on n vertices that a caller's value holds in format fmt,
    a member of FORMATS, checked in full."""
    _check_vertex_count(n)
    if fmt == ADJ_MATRIX:
        g = Graph.from_matrix(value)
    elif fmt == ADJ_LIST:
        g = _from_adj_list(n, value)
    elif fmt == EDGE_LIST:
        g = _from_edge_list(n, value)
    else:
        if not isinstance(value, str):
            raise GraphError("graph6 atom is not a string")
        from . import graph6
        g = graph6.decode_graph6(value)
    if g.n != n:
        raise GraphError(f"input graph has {g.n} vertices, expected {n}")
    return g


def _render_graph(fmt: str, g: Graph):
    """g in format fmt, a member of FORMATS, with adj_list and edge_list
    sorted and deduplicated."""
    if fmt == ADJ_MATRIX:
        return g.to_matrix()
    if fmt == ADJ_LIST:
        return [[v for v in range(g.n) if row >> v & 1] for row in g.rows]
    if fmt == EDGE_LIST:
        return g.edges()
    from . import graph6
    return graph6.encode_graph6(g)
