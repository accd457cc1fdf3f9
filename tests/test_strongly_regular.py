"""Strongly regular graphs that share their parameters: an oracle corpus of
inputs that refinement cannot split.

The unit partition of a strongly regular graph is equitable, and two
graphs with the same parameters look alike to refinement, so only the
search tells them apart.  Two parameter sets, each with graphs of known
automorphism group order (Brouwer & Van Maldeghem, "Strongly Regular
Graphs", 2022):
- srg(16, 6, 2, 2): the 4x4 rook's graph, |Aut| = 2 (4!)^2 = 1152, and
  the Shrikhande graph, |Aut| = 192;
- srg(28, 12, 6, 4): the triangular graph T(8), |Aut| = 8! = 40320, and
  the three Chang graphs, |Aut| = 384, 360 and 96 (Chang, 1959).
"""

import itertools
import random

import pytest

from gcanon.canon import CanonOptions, canonize
from gcanon.graph import Graph, OrderedPartition, Permutation, \
    apply_permutation


def rook(m):
    """The m x m rook's graph: cells of an m x m board, adjacent when they
    share a row or a column."""
    return Graph.from_edges(m * m, [
        (u, v) for u, v in itertools.combinations(range(m * m), 2)
        if u // m == v // m or u % m == v % m])


def shrikhande():
    """The Cayley graph on Z4 x Z4 with connection set {±(1,0), ±(0,1),
    ±(1,1)}, vertex (a, b) numbered 4a + b."""
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return Graph.from_edges(16, [
        (u, v) for u, v in itertools.combinations(range(16), 2)
        if ((v // 4 - u // 4) % 4, (v - u) % 4) in steps])


PAIRS_OF_8 = list(itertools.combinations(range(8), 2))


def triangular_switched(switch=()):
    """T(8), whose vertices are the 28 edges of K8, adjacent when they
    share an end, Seidel-switched on the edge set switch: adjacency
    between switch and the other vertices is complemented."""
    inside = [e in set(switch) for e in PAIRS_OF_8]
    return Graph.from_edges(28, [
        (u, v) for u, v in itertools.combinations(range(28), 2)
        if bool(set(PAIRS_OF_8[u]) & set(PAIRS_OF_8[v]))
        != (inside[u] != inside[v])])


def cycle_edges(vertices):
    return [tuple(sorted((a, vertices[(i + 1) % len(vertices)])))
            for i, a in enumerate(vertices)]


# (name, graph, parameters (n, k, lambda, mu), |Aut|)
CORPUS = [
    ("rook4x4", rook(4), (16, 6, 2, 2), 1152),
    ("Shrikhande", shrikhande(), (16, 6, 2, 2), 192),
    ("T8", triangular_switched(), (28, 12, 6, 4), 40320),
    ("Chang-4K2",
     triangular_switched([(0, 1), (2, 3), (4, 5), (6, 7)]),
     (28, 12, 6, 4), 384),
    ("Chang-C3+C5",
     triangular_switched(cycle_edges([0, 1, 2])
                         + cycle_edges([3, 4, 5, 6, 7])),
     (28, 12, 6, 4), 360),
    ("Chang-C8",
     triangular_switched(cycle_edges(list(range(8)))),
     (28, 12, 6, 4), 96),
]
IDS = [name for name, *_ in CORPUS]


def relabelings(g, seed, count=3):
    """count seeded relabellings of g, each with its 2-cell colouring: the
    image of the cell of vertices below n/2, then of the rest."""
    rng = random.Random(seed)
    half = set(range(g.n // 2))
    for _ in range(count):
        p = list(range(g.n))
        rng.shuffle(p)
        cells = (tuple(sorted(p[v] for v in half)),
                 tuple(sorted(p[v] for v in range(g.n) if v not in half)))
        yield (apply_permutation(g, Permutation(tuple(p))),
               OrderedPartition(cells))


@pytest.mark.parametrize("name, g, params, aut", CORPUS, ids=IDS)
def test_strongly_regular_with_known_group_order(name, g, params, aut):
    n, k, lam, mu = params
    assert g.n == n
    assert all(r.bit_count() == k for r in g.rows)
    for u, v in itertools.combinations(range(n), 2):
        common = (g.rows[u] & g.rows[v]).bit_count()
        assert common == (lam if g.rows[u] >> v & 1 else mu)
    result = canonize(g)
    assert result.partition.cells == (tuple(range(n)),)
    assert result.group_size == aut


@pytest.mark.parametrize("name, g, params, aut", CORPUS, ids=IDS)
def test_relabelings_agree_plain_and_coloured(name, g, params, aut):
    plain = canonize(g)
    coloured = None
    for h, cells in relabelings(g, seed=params[0] * 7 + aut):
        r = canonize(h)
        assert (r.canonic, r.group_size) == (plain.canonic, aut)
        rc = canonize(h, CanonOptions(initial_coloring=cells))
        assert apply_permutation(h, rc.permutation) == rc.canonic
        if coloured is None:
            coloured = rc
        assert (rc.canonic, rc.group_size) == (coloured.canonic,
                                               coloured.group_size)


@pytest.mark.parametrize("n", [16, 28])
def test_forms_differ_within_a_parameter_set(n):
    forms = {canonize(g).canonic for _, g, params, _ in CORPUS
             if params[0] == n}
    assert len(forms) == {16: 2, 28: 4}[n]


@pytest.mark.parametrize("name, g", [(name, g) for name, g, *_ in CORPUS
                                     if g.n == 16], ids=IDS[:2])
@pytest.mark.parametrize("coloured", [False, True])
def test_orbits_and_group_order_match_vf2(name, g, coloured):
    # VF2 lists every automorphism in well under a second at n = 16; at
    # n = 28 it takes minutes on T(8), so the larger set is not run here.
    nx = pytest.importorskip("networkx")
    h, cells = next(relabelings(g, seed=16))
    H = nx.Graph()
    for c, cell in enumerate(cells.cells):
        H.add_nodes_from(cell, c=c if coloured else 0)
    H.add_edges_from(h.edges())
    autos = list(nx.algorithms.isomorphism.GraphMatcher(
        H, H, node_match=lambda a, b: a["c"] == b["c"]).isomorphisms_iter())
    result = canonize(h, CanonOptions(cells if coloured else None))
    assert result.group_size == len(autos)
    assert result.orbits == tuple(min(a[v] for a in autos)
                                  for v in range(h.n))
