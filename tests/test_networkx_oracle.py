"""networkx as an independent oracle for canonical forms, graph6 and
isomorphism.  Skipped where networkx is not installed; it is never a
runtime dependency of gcanon."""

import itertools
import random
from collections import Counter

import pytest

from gcanon.canon import canonical_form, canonize, isomorphic
from gcanon.generate import Stats
from gcanon.graph import Graph, Permutation, apply_permutation
from gcanon.graph6 import encode_graph6
from gcanon.ramsey import RamseyInstance, gen_ramsey_gt, is_ramsey

from .reference_graphs import cfi, gnp

nx = pytest.importorskip("networkx")

# Non-isomorphic graphs on n = 0..7 vertices; the atlas holds one of each.
ATLAS_CLASS_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044]


def from_nx(G):
    """The gcanon graph of G, its vertices numbered in G's node order."""
    index = {v: i for i, v in enumerate(G)}
    return Graph.from_edges(len(index),
                            [(index[u], index[v]) for u, v in G.edges()])


@pytest.fixture(scope="module")
def atlas():
    return nx.graph_atlas_g()


def test_atlas_class_counts(atlas):
    graphs = Counter(G.number_of_nodes() for G in atlas)
    classes = Counter(g.n for g in {canonical_form(from_nx(G))
                                    for G in atlas})
    counts = [classes[n] for n in range(8)]
    assert counts == [graphs[n] for n in range(8)] == ATLAS_CLASS_COUNTS


@pytest.mark.parametrize("s, t", [(3, 4), (4, 3), (3, 5), (4, 4)])
def test_atlas_ramsey_class_counts(atlas, s, t):
    # One atlas graph per class, so its Ramsey members count the classes
    # that each level of generate-test-reduce must hold.
    classes = Counter(G.number_of_nodes() for G in atlas
                      if is_ramsey(RamseyInstance(s, t, G.number_of_nodes()),
                                   from_nx(G)))
    rows = []
    gen_ramsey_gt(RamseyInstance(s, t, 7),
                  stats=Stats(lambda *row: rows.append(row)))
    assert [r[:2] for r in rows] == [(n, classes[n]) for n in range(1, 8)]


def test_seven_vertex_automorphisms_match_vf2(atlas):
    # |Aut| and the orbits of each 7-vertex class, in a seeded relabeling,
    # against every automorphism networkx's VF2 matcher lists.
    rng = random.Random(71)
    classes = [G for G in atlas if G.number_of_nodes() == 7]
    assert len(classes) == ATLAS_CLASS_COUNTS[7]
    for G in classes:
        perm = list(range(7))
        rng.shuffle(perm)
        g = apply_permutation(from_nx(G), Permutation(tuple(perm)))
        H = to_nx(g)
        autos = list(nx.algorithms.isomorphism.GraphMatcher(H, H)
                     .isomorphisms_iter())
        result = canonize(g)
        assert result.group_size == len(autos)
        assert result.orbits == tuple(min(a[v] for a in autos)
                                      for v in range(7))


def test_graph6_matches_networkx(atlas):
    for G in atlas:
        if G.number_of_nodes() >= 1:
            assert (encode_graph6(from_nx(G)) + "\n").encode() == \
                nx.to_graph6_bytes(G, header=False)


def toggle(rows, u, v):
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u


def isomorphism_pairs():
    """Seeded pairs at n = 20..40: a graph with a relabeling of itself,
    of itself with one vertex pair flipped, and of itself with one edge
    moved to a non-edge (so the edge count agrees)."""
    rng = random.Random(53)
    for n in range(20, 41, 4):
        g = gnp(n, 3000 + n)
        for kind in ("same", "flip", "move"):
            rows = list(g.rows)
            if kind == "flip":
                toggle(rows, *rng.sample(range(n), 2))
            elif kind == "move":
                edges = g.edges()
                non_edges = [(u, v) for u in range(n)
                             for v in range(u + 1, n) if (u, v) not in edges]
                toggle(rows, *rng.choice(edges))
                toggle(rows, *rng.choice(non_edges))
            perm = list(range(n))
            rng.shuffle(perm)
            h = apply_permutation(Graph(n, tuple(rows)),
                                  Permutation(tuple(perm)))
            yield pytest.param(g, h, id=f"n{n}-{kind}")


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


@pytest.mark.parametrize("g,h", isomorphism_pairs())
def test_isomorphic_agrees_with_networkx(g, h):
    expected = nx.is_isomorphic(to_nx(g), to_nx(h))
    result = isomorphic(g.n, g, h)
    assert (result is not None) == expected
    if result is not None:
        assert apply_permutation(g, result[0]) == h


def test_cfi_pair_over_k4_is_not_isomorphic():
    # canonize tells the pair apart (tests/test_canon.py); VF2 agrees
    k4 = list(itertools.combinations(range(4), 2))
    untwisted, twisted = (cfi(4, k4, t) for t in (False, True))
    assert isomorphic(40, untwisted, twisted) is None
    assert not nx.is_isomorphic(to_nx(untwisted), to_nx(twisted))
