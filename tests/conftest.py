import itertools

import pytest

from gcanon.graph import Graph, Permutation, apply_permutation, extensions


def all_graphs(n):
    """Every labeled graph on n vertices, ordered by upper-triangle bits."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for i, p in enumerate(pairs)
                                   if bits >> i & 1])


def labelled_graphs(n, keep=None):
    """Every labelled graph on n vertices that keep accepts together with
    each of its prefixes on vertices 0..k-1: one-vertex extensions grown
    level by level with no reduce step.  Each labelled graph arises once,
    from its prefix on n - 1 vertices, so a hereditary keep gives them all."""
    level = [Graph.empty(0)]
    for _ in range(n):
        level = [h for g in level for h in extensions(g)
                 if keep is None or keep(h)]
    return level


def brute_force_isomorphism(g1, g2):
    """Exhaustive permutation search; None when not isomorphic.  The
    independent oracle for the canonization tests (n <= 8)."""
    if g1.n != g2.n:
        return None
    if sorted(r.bit_count() for r in g1.rows) != \
            sorted(r.bit_count() for r in g2.rows):
        return None
    for perm in itertools.permutations(range(g1.n)):
        p = Permutation(perm)
        if apply_permutation(g1, p) == g2:
            return p
    return None


def brute_force_automorphisms(g):
    return [Permutation(perm) for perm in itertools.permutations(range(g.n))
            if apply_permutation(g, Permutation(perm)) == g]


@pytest.fixture(scope="session")
def graphs5():
    return list(all_graphs(5))
