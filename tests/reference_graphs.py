"""Hand-checked reference values used across the test modules.

TWELVE_CYCLE_ATOMS are twelve graph6 encodings of (isomorphic) 5-cycles,
paired with their adjacency matrices; each pairing was verified by hand
against the graph6 bit layout.

large_graphs() builds graphs on up to 62 vertices, most of them highly
symmetric, each with the order of its automorphism group where a closed
form is known.
"""

import itertools
import random
from math import factorial

from gcanon.graph import Graph

CYCLE5_ATOM = "DqK"
CYCLE5_MATRIX = [
    [0, 1, 1, 0, 0],
    [1, 0, 0, 1, 0],
    [1, 0, 0, 0, 1],
    [0, 1, 0, 0, 1],
    [0, 0, 1, 1, 0],
]

TWELVE_CYCLE_ATOMS = {
    "DRo": [[0, 0, 1, 0, 1], [0, 0, 0, 1, 1], [1, 0, 0, 1, 0],
            [0, 1, 1, 0, 0], [1, 1, 0, 0, 0]],
    "Dbg": [[0, 1, 0, 0, 1], [1, 0, 0, 1, 0], [0, 0, 0, 1, 1],
            [0, 1, 1, 0, 0], [1, 0, 1, 0, 0]],
    "DdW": [[0, 1, 0, 1, 0], [1, 0, 0, 0, 1], [0, 0, 0, 1, 1],
            [1, 0, 1, 0, 0], [0, 1, 1, 0, 0]],
    "DLo": [[0, 0, 0, 1, 1], [0, 0, 1, 0, 1], [0, 1, 0, 1, 0],
            [1, 0, 1, 0, 0], [1, 1, 0, 0, 0]],
    "D[S": [[0, 0, 1, 1, 0], [0, 0, 1, 0, 1], [1, 1, 0, 0, 0],
            [1, 0, 0, 0, 1], [0, 1, 0, 1, 0]],
    "DpS": [[0, 1, 1, 0, 0], [1, 0, 0, 0, 1], [1, 0, 0, 1, 0],
            [0, 0, 1, 0, 1], [0, 1, 0, 1, 0]],
    "DYc": [[0, 0, 1, 0, 1], [0, 0, 1, 1, 0], [1, 1, 0, 0, 0],
            [0, 1, 0, 0, 1], [1, 0, 0, 1, 0]],
    "DqK": CYCLE5_MATRIX,
    "DMg": [[0, 0, 0, 1, 1], [0, 0, 1, 1, 0], [0, 1, 0, 0, 1],
            [1, 1, 0, 0, 0], [1, 0, 1, 0, 0]],
    "DkK": [[0, 1, 0, 1, 0], [1, 0, 1, 0, 0], [0, 1, 0, 0, 1],
            [1, 0, 0, 0, 1], [0, 0, 1, 1, 0]],
    "Dhc": [[0, 1, 0, 0, 1], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0],
            [0, 0, 1, 0, 1], [1, 0, 0, 1, 0]],
    "DUW": [[0, 0, 1, 1, 0], [0, 0, 0, 1, 1], [1, 0, 0, 0, 1],
            [1, 1, 0, 0, 0], [0, 1, 1, 0, 0]],
}

# Worked canonization example: a 5-vertex path-with-chord graph, its
# canonical relabeling (1-based permutation) and relabeled matrix, verified
# edge by edge.
CANON_EXAMPLE_INPUT = [
    [0, 1, 0, 0, 0],
    [1, 0, 1, 0, 1],
    [0, 1, 0, 1, 0],
    [0, 0, 1, 0, 1],
    [0, 1, 0, 1, 0],
]
CANON_EXAMPLE_OUTPUT = [
    [0, 0, 0, 0, 1],
    [0, 0, 0, 1, 1],
    [0, 0, 0, 1, 1],
    [0, 1, 1, 0, 0],
    [1, 1, 1, 0, 0],
]
CANON_EXAMPLE_PERM_1BASED = [1, 5, 2, 4, 3]

# Isomorphism-test examples: one isomorphic pair (with a known witness
# permutation) and one non-isomorphic pair.
ISO_PAIR_A = [
    [0, 1, 0, 1, 1], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0],
    [1, 0, 1, 0, 1], [1, 0, 0, 1, 0],
]
ISO_PAIR_B = [
    [0, 1, 0, 1, 1], [1, 0, 1, 0, 0], [0, 1, 0, 0, 1],
    [1, 0, 0, 0, 1], [1, 0, 1, 1, 0],
]
ISO_WITNESS_1BASED = [1, 2, 3, 5, 4]

NONISO_PAIR_A = [
    [0, 1, 1, 0, 1], [1, 0, 0, 0, 1], [1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0], [1, 1, 0, 0, 0],
]
NONISO_PAIR_B = [
    [0, 1, 0, 0, 1], [1, 0, 1, 1, 0], [0, 1, 0, 0, 1],
    [0, 1, 0, 0, 1], [1, 0, 1, 1, 0],
]

# Known non-isomorphic Ramsey coloring counts: no independent 3-set, no
# 5-clique, for n = 1..14.
R35_CLASS_COUNTS = [1, 2, 3, 7, 13, 32, 71, 179, 290, 313, 105, 12, 1, 0]

# Published (3,6;n) counts for n = 1..9 and (4,4;n) counts for n = 1..8
# (Radziszowski, "Small Ramsey Numbers", Electron. J. Combin. DS1).
R36_CLASS_COUNTS = [1, 2, 3, 7, 14, 37, 100, 356, 1407]
R44_CLASS_COUNTS = [1, 2, 4, 9, 24, 84, 362, 2079]


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(m):
    return Graph.from_edges(2 * m, [(u, m + v) for u in range(m)
                                    for v in range(m)])


def petersen():
    return Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                            + [(i, 5 + i) for i in range(5)])


def hypercube(d):
    n = 1 << d
    return Graph.from_edges(n, [(u, u ^ 1 << b) for u in range(n)
                                for b in range(d) if u < u ^ 1 << b])


def paley(q):
    """Paley graph on Z_q, q prime and 1 mod 4: u ~ v iff v - u is a
    nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(q, [(u, v) for u in range(q)
                                for v in range(u + 1, q)
                                if (v - u) % q in squares])


def disjoint_copies(k, g):
    return Graph.from_edges(k * g.n, [(i * g.n + u, i * g.n + v)
                                      for i in range(k)
                                      for u, v in g.edges()])


def gnp(n, seed):
    rng = random.Random(seed)
    return Graph.from_edges(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n)
                                if rng.random() < 0.5])


def cfi(n, edges, twisted):
    """Cai-Furer-Immerman graph over the base graph (n, edges).

    Each base vertex v of degree d becomes 2^(d-1) middle vertices, one
    per even-size subset S of its edges, and two end vertices (v, e, 0)
    and (v, e, 1) per edge e at v; a middle vertex is adjacent to
    (v, e, 1) for e in S and to (v, e, 0) otherwise.  Each base edge
    {u, v} joins (u, e, i) to (v, e, i), except that the twisted graph
    crosses the first edge: (u, e, i) to (v, e, 1 - i).  Over a connected
    base graph the two are not isomorphic, yet refinement cannot tell
    them apart (Cai, Furer & Immerman, Combinatorica 12, 1992)."""
    at = [[e for e in edges if v in e] for v in range(n)]
    index = {}
    pairs = []
    for v in range(n):
        for e in at[v]:
            for i in (0, 1):
                index[v, e, i] = len(index)
        for bits in itertools.product((0, 1), repeat=len(at[v])):
            if sum(bits) % 2 == 0:
                m = len(index)
                index[v, bits] = m
                pairs += [(m, index[v, e, b]) for e, b in zip(at[v], bits)]
    for k, e in enumerate(edges):
        u, v = e
        for i in (0, 1):
            j = 1 - i if twisted and k == 0 else i
            pairs.append((index[u, e, i], index[v, e, j]))
    return Graph.from_edges(len(index), pairs)


def large_graphs():
    """(name, graph, |Aut| or None) on 8 to 62 vertices.  The group orders
    are closed forms: n! for empty and complete graphs, 2(m!)^2 for K_{m,m},
    |Aut(H)|^k k! for k disjoint copies of a connected H, 2n for C_n, 120
    for Petersen, 2^d d! for Q_d, q(q-1)/2 for Paley(q) with q prime."""
    kmm = 2 * factorial(5) ** 2
    graphs = [
        ("empty62", Graph.empty(62), factorial(62)),
        ("K62", complete(62), factorial(62)),
        ("K31,31", complete_bipartite(31), 2 * factorial(31) ** 2),
        ("6xK5,5", disjoint_copies(6, complete_bipartite(5)),
         kmm ** 6 * factorial(6)),
        ("3xPetersen", disjoint_copies(3, petersen()),
         120 ** 3 * factorial(3)),
        ("Petersen", petersen(), 120),
        ("C20", cycle(20), 40),
        ("C62", cycle(62), 124),
        ("Paley29", paley(29), 29 * 14),
        ("Paley61", paley(61), 61 * 30),
    ]
    graphs += [(f"Q{d}", hypercube(d), 2 ** d * factorial(d))
               for d in (3, 4, 5)]
    graphs += [(f"G({n},1/2)", gnp(n, 2000 + n), None) for n in (20, 41, 62)]
    return graphs
