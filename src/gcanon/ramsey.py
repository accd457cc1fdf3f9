"""Ramsey coloring search: the property test, the generate-test-reduce
pipeline, and the constrain-generate-reduce pipeline over a CNF encoding
with lexicographic symmetry breaking; both can report levels to a Stats sink.

Generate-test-reduce canonizes a Ramsey child only when its new vertex has
maximum degree.  Every level is complete and the property is hereditary,
so each class still arises: delete a vertex of maximum degree.

Constrain-generate-reduce canonizes only the models that may be the least
labelling of their class, upper triangle read row by row, non-edge first:
each row k has its edges at the top of the cells that rows 0..k-1 cannot
tell apart, and no cell-mate of k has smaller per-cell neighbour counts.
The least labelling meets both and satisfies the row-lex clauses, so it
is a model and every class still arises.  The models stay the solver's
0/1 bytes up to decode_model, where a caller's model bytes are checked.

Convention (matching the generate-side code): an edge is color 1.  A graph
is a Ramsey (s,t;n) coloring when no s vertices are pairwise non-adjacent
(independent set) and no t vertices are pairwise adjacent (clique).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from . import sat
from .generate import Stats, grow, reduce_classes
from .graph import Graph, GraphError, _check_vertex_count, k_subsets

# Not called here: perfbench/tracer.py wraps these names in this module.
from .canon import canonical_form
from .generate import extend_and_reduce
from .graph import extensions
from .graph6 import encode_graph6


@dataclass(frozen=True)
class RamseyInstance:
    s: int  # forbidden independent-set size
    t: int  # forbidden clique size
    n: int

    def __post_init__(self):
        if not {type(self.s), type(self.t), type(self.n)} <= {int}:
            raise GraphError("s, t and n must be int")
        if self.s < 1 or self.t < 1 or self.n < 0:
            raise GraphError("require s >= 1, t >= 1, n >= 0")


@dataclass(frozen=True)
class EdgeVarMap:
    """Bijection between vertex pairs {u,v} and CNF variables 1..C(n,2):
    variable i is pairs[i - 1], the pairs (u, v), u < v, in lexicographic
    order, so the first C(n,2) bytes of a model are the upper triangle read
    row by row.  The diagonal is constant false."""

    n: int
    pairs: tuple[tuple[int, int], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.n) is not int or self.n < 0:
            raise GraphError(f"vertex count {self.n!r} is not an int >= 0")
        object.__setattr__(
            self, "pairs", tuple(itertools.combinations(range(self.n), 2)))

    def __getitem__(self, pair: tuple[int, int]) -> int:
        match pair:
            case (u, v) if type(u) is int and type(v) is int:  # not bool
                if u > v:
                    u, v = v, u
                if 0 <= u < v < self.n:
                    # (n-1) + ... + (n-u) pairs in rows 0..u-1, then v - u
                    return u * (2 * self.n - u - 1) // 2 + v - u
        raise KeyError(pair)

    @property
    def num_edge_vars(self) -> int:
        return self.n * (self.n - 1) // 2


def is_ramsey(inst: RamseyInstance, g: Graph) -> bool:
    """True iff g has no independent set of size s and no clique of size t."""
    if g.n != inst.n:
        raise GraphError("graph size does not match instance")
    for vs in k_subsets(g.n, inst.s):
        if all(not g.rows[u] >> v & 1 for u, v in itertools.combinations(vs, 2)):
            return False
    for vs in k_subsets(g.n, inst.t):
        if all(g.rows[u] >> v & 1 for u, v in itertools.combinations(vs, 2)):
            return False
    return True


def _has_clique(rows, cand: int, k: int, flip: int = 0) -> bool:
    """Is there a k-clique inside the candidate bitmask, in the graph with
    adjacency rows[v] ^ flip?  With flip the mask of a vertex set that
    holds cand, that graph is the complement on that set."""
    if k == 0:
        return True
    if k == 2:
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if cand & (rows[v] ^ flip):
                return True
        return False
    while cand.bit_count() >= k:
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        if _has_clique(rows, cand & (rows[v] ^ flip), k - 1, flip):
            return True
    return False


def _extension_keep(s: int, t: int):
    """Ramsey check for a one-vertex extension of an already-Ramsey parent:
    only subsets through the new (last) vertex can violate the property, so
    the old vertices are searched for an independent (s-1)-set among the
    new vertex's non-neighbours and a (t-1)-clique among its neighbours.

    The new vertex's degree is checked first.  By the Erdos-Szekeres bound
    R(a,b) <= C(a+b-2, a-1), any few = C(s+t-3, s-2) >= R(s-1,t) vertices
    hold an independent (s-1)-set or a t-clique, and any many =
    C(s+t-3, t-2) >= R(s,t-1) vertices an independent s-set or a
    (t-1)-clique.  The parent has no t-clique and no independent s-set,
    so a child whose new vertex has at least few old non-neighbours or at
    least many neighbours fails a search below, and is rejected without
    one.  For s = 1 or t = 1 every child fails, and both numbers are 0."""
    few = many = 0
    if s > 1 and t > 1:
        few = math.comb(s + t - 3, s - 2)
        many = math.comb(s + t - 3, t - 2)

    def keep(h: Graph) -> bool:
        rows = h.rows
        nbrs = rows[-1]
        d = nbrs.bit_count()
        if d >= many or h.n - 1 - d >= few:
            return False
        old = (1 << (h.n - 1)) - 1
        if _has_clique(rows, old & ~nbrs, s - 1, old):
            return False
        if _has_clique(rows, nbrs, t - 1):
            return False
        return True

    return keep


def _new_vertex_max_degree(h: Graph) -> bool:
    """Is the degree of h's new (last) vertex the maximum degree of h?"""
    rows = h.rows
    return max(map(int.bit_count, rows)) == rows[-1].bit_count()


def gen_ramsey_gt(inst: RamseyInstance, *,
                  stats: Optional[Stats] = None) -> list[Graph]:
    """Generate-test-reduce: grow from the empty graph one vertex at a time,
    keeping Ramsey extensions and reducing to canonical representatives.
    A stats sink gets one row per vertex count 1..n.

    Only a child whose new vertex has maximum degree is canonized, as in
    step 1 of McKay's canonical deletion; the dedup stays.  No class is
    lost, because each level is complete: a graph G of the next level and
    a vertex v of maximum degree give G - v, of this level by heredity,
    and the extension of its representative by v's neighbourhood is a copy
    of G whose new vertex has maximum degree.  The rule needs complete
    levels, which extend_and_reduce does not assume of its input, so it
    joins the Ramsey test in the keep that gt gives grow.
    """
    _check_vertex_count(inst.n)
    keep = _extension_keep(inst.s, inst.t)
    return grow(inst.n, lambda h: keep(h) and _new_vertex_max_degree(h),
                stats)


def _lex_leq(xs, ys, next_var: int, clauses) -> int:
    """CNF for xs <=lex ys via chained prefix-equality auxiliaries.

    Auxiliary e_k is defined (both directions) as 'first k positions equal',
    so the auxiliaries are functions of the compared variables.
    """
    m = len(xs)
    if m == 0:
        return next_var
    clauses.append([-xs[0], ys[0]])
    prev = None
    for k in range(1, m):
        next_var += 1
        e = next_var
        x, y = xs[k - 1], ys[k - 1]
        if prev is None:
            clauses += [[-e, -x, y], [-e, x, -y], [e, x, y], [e, -x, -y]]
        else:
            clauses += [[-e, prev], [-e, -x, y], [-e, x, -y],
                        [e, -prev, x, y], [e, -prev, -x, -y]]
        clauses.append([-e, -xs[k], ys[k]])
        prev = e
    return next_var


def encode_ramsey(inst: RamseyInstance) -> tuple[EdgeVarMap, sat.CnfFormula]:
    """CNF whose models (projected on edge variables) are the labeled Ramsey
    colorings surviving the lex symmetry break.

    Constraints: adjacency rows pairwise lexicographically ordered (columns
    of the compared pair removed), at least one edge in every s-subset, at
    least one non-edge in every t-subset.
    """
    n, s, t = inst.n, inst.s, inst.t
    evm = EdgeVarMap(n)
    clauses: list[list[int]] = []
    next_var = evm.num_edge_vars
    for i in range(n):
        for j in range(i + 1, n):
            xs = [evm[(i, k)] for k in range(n) if k != i and k != j]
            ys = [evm[(j, k)] for k in range(n) if k != i and k != j]
            next_var = _lex_leq(xs, ys, next_var, clauses)
    for vs in itertools.combinations(range(n), s):
        clauses.append([evm[p] for p in itertools.combinations(vs, 2)])
    for vs in itertools.combinations(range(n), t):
        clauses.append([-evm[p] for p in itertools.combinations(vs, 2)])
    if any(not c for c in clauses):
        # a size-0 or size-1 forbidden subset is unavoidable; the formula
        # must be unsatisfiable, expressed with one throwaway variable
        next_var += 1
        clauses = [c for c in clauses if c] + [[next_var], [-next_var]]
    # no clause is empty or names a variable twice: of() would keep them
    return evm, sat.CnfFormula._trusted(max(next_var, 1),
                                        tuple(map(tuple, clauses)))


def decode_model(evm: EdgeVarMap, values: bytes) -> Graph:
    """Graph with edge {u,v} present iff its variable's byte in the model
    values is 1.  Here a caller's model enters the library, so anything
    but bytes of only 0 and 1, at least num_edge_vars long, is a SatError:
    a byte 2 would read as true, and a short model would lose edges."""
    if (type(values) is not bytes or values.translate(None, b"\x00\x01")
            or len(values) < evm.num_edge_vars):
        raise sat.SatError(f"model {values!r} is not {evm.num_edge_vars} "
                           f"or more 0/1 bytes")
    rows = [0] * evm.n
    for u, v in itertools.compress(evm.pairs, values):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._trusted(evm.n, tuple(rows))


def _may_be_lex_least(g: Graph) -> bool:
    """Two necessary conditions for g to be the least labelling of its class
    in the order of the upper triangle read row by row, non-edge first.

    Position k = 0..n-2 is checked against the cells of positions >= k that
    rows 0..k-1 cannot tell apart, ascending intervals.  Swapping k with a
    cell-mate, or reordering a cell, leaves rows 0..k-1 as they are, so
    the least labelling needs (1) no vertex of k's cell with a
    lexicographically smaller vector of per-cell neighbour counts than k,
    and (2) row k's edges at the highest positions of each cell."""
    rows, n = g.rows, g.n
    cells = [(1 << n) - 1]
    for k in range(n - 1):
        if len(cells) == n - k:
            return True  # every cell is one vertex: nothing can fail now
        row = rows[k]
        mates = cells[0] & ~(1 << k)
        if mates:
            counts = [(row & c).bit_count() for c in cells]
            while mates:
                v = mates & -mates
                mates ^= v
                vrow = rows[v.bit_length() - 1]
                if [(vrow & c).bit_count() for c in cells] < counts:
                    return False
        cells[0] &= ~(1 << k)
        split = []
        for c in cells:
            edges = row & c
            if edges != c & -(edges & -edges):
                return False
            if edges != c:
                split.append(c ^ edges)
            if edges:
                split.append(edges)
        cells = split
    return True


def _first_degree_at_most_mean(n: int, values: bytes) -> bool:
    """Is vertex 0's degree at most the mean degree, read off the model
    bytes of an n-vertex graph before any decode?

    Its first n - 1 bytes are vertex 0's row and its first C(n,2) the
    upper triangle, so the test is n * deg(0) <= 2 * |E|.  A model that
    fails it fails _may_be_lex_least: at k = 0 that drops every labelling
    whose vertex 0 is not of minimum degree, and the minimum degree is at
    most the mean.  For n <= 1 both sides are 0 and every model is kept."""
    return (n * values[:n - 1].count(1)
            <= 2 * values[:n * (n - 1) // 2].count(1))


def gen_ramsey_cg(inst: RamseyInstance, *,
                  stats: Optional[Stats] = None) -> list[Graph]:
    """Constrain-generate-reduce: encode, enumerate all models projected on
    the edge variables, decode, canonize, sort, dedup.  Agrees with
    gen_ramsey_gt as a set.  A stats sink gets one row, for n.

    Only a model that passes _may_be_lex_least is canonized: row k's edges
    at the top of each cell of positions >= k that rows 0..k-1 cannot tell
    apart, and no cell-mate of k with smaller per-cell neighbour counts.
    No class is lost: the least labelling x of a class meets both, and it
    is a model, since the row-lex clauses say x <=lex (i j)x for every
    transposition (i j), which the least x satisfies.

    Before decode, _first_degree_at_most_mean drops, from its bytes, a
    model whose vertex 0 has more than the mean degree: that vertex 0 is
    not of minimum degree, so _may_be_lex_least would drop it at k = 0."""
    n = inst.n
    _check_vertex_count(n)
    evm, formula = encode_ramsey(inst)
    models = sat.solve_all(formula, range(1, evm.num_edge_vars + 1))
    decoded = (decode_model(evm, m) for m in models
               if _first_degree_at_most_mean(n, m))
    graphs = reduce_classes(filter(_may_be_lex_least, decoded), stats)
    if stats is not None:
        stats.level(n, graphs)
    return graphs
