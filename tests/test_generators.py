"""The search's generators checked by Schreier–Sims.

The search collects a generating set of the (colour-preserving)
automorphism group: one permutation per automorphism leaf and the adjacent
transpositions of each twin peel.  canonize folds them into orbits and
counts |Aut| along the first path; here a deterministic Schreier–Sims
(Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005,
§4.4) computes the order of the group they generate, independently.
"""

import random

from gcanon import canon
from gcanon.canon import canonize
from gcanon.generate import all_nonisomorphic
from gcanon.graph import OrderedPartition, Permutation, apply_permutation

from .reference_graphs import large_graphs
from .test_canon import POLYNOMIAL_SEARCH_GRAPHS, relabelled
from .test_strongly_regular import CORPUS


def _then(p, q):
    """p, then q."""
    return tuple(q[x] for x in p)


def _inverse(p):
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def group_order(n, gens):
    """|<gens>| for permutations gens of range(n), each a tuple of images.

    A base and strong generating set is built one generator at a time.
    Level i holds a base point b, the generators added there, and a
    transversal t[x] mapping b to x for each x in b's orbit, extended
    without changing an entry already made, so an element that once
    sifted to the identity always does.  Each Schreier generator
    t[x] s t[s(x)]^-1 of a level, one per orbit point x and generator s,
    fixes b; it is sifted through the levels below, and a non-identity
    residue is added to the next level down, which checks its own
    Schreier generators in turn.  When every one of them sifts to the
    identity, the order is the product of the orbit sizes."""
    identity = tuple(range(n))
    levels = []  # (base point, generators, transversal)

    def sift(g, i):
        for b, _, t in levels[i:]:
            if g[b] not in t:
                return g
            g = _then(g, _inverse(t[g[b]]))
        return g

    def add(g, i):
        if i == len(levels):
            b = next(x for x in range(n) if g[x] != x)
            levels.append((b, [], {b: identity}))
        _, gens_i, t = levels[i]
        gens_i.append(g)
        # the pairs (x, s) not yet checked: g with every point so far,
        # then each new point with every generator
        todo = [(x, g) for x in t]
        for x, s in todo:
            y = s[x]
            if y not in t:
                t[y] = _then(t[x], s)
                todo += [(y, h) for h in gens_i]
            r = sift(_then(_then(t[x], s), _inverse(t[y])), i + 1)
            if r != identity:
                add(r, i + 1)

    for g in gens:
        if sift(g, 0) != identity:
            add(sift(g, 0), 0)
    order = 1
    for _, _, t in levels:
        order *= len(t)
    return order


def generator_orbits(n, gens):
    """orbits[v] is the least vertex of v's orbit under <gens>."""
    orbits = list(range(n))
    for v in range(n):
        if orbits[v] == v:
            todo = [v]
            for u in todo:
                for g in gens:
                    if orbits[g[u]] != v:
                        orbits[g[u]] = v
                        todo.append(g[u])
    return tuple(orbits)


def oracle_inputs():
    """(graph, coloring) pairs: every class with n <= 7, the strongly
    regular corpus and the large graphs whose groups the naive sift
    handles quickly, each plain and with a seeded 2-cell coloring."""
    graphs = [g for n in range(1, 8) for g in all_nonisomorphic(n)]
    graphs += [g for _, g, *_ in CORPUS]
    graphs += [g for name, g, _ in large_graphs()
               if name not in POLYNOMIAL_SEARCH_GRAPHS]
    rng = random.Random(89)
    for g in graphs:
        g = relabelled(g, rng)
        yield g, None
        if g.n > 1:
            first = set(rng.sample(range(g.n), rng.randint(1, g.n - 1)))
            yield g, OrderedPartition((
                tuple(sorted(first)),
                tuple(v for v in range(g.n) if v not in first)))


def test_generators_match_schreier_sims():
    checked = 0
    for g, coloring in oracle_inputs():
        cells = None if coloring is None else coloring.cells
        root = canon._root_cells(g.rows, g.n, cells)
        gens = canon._search_from(g.rows, g.n, root)[0].generators
        r = canonize(g, coloring)
        for gen in gens:
            assert apply_permutation(g, Permutation(gen)) == g, (g, gen)
            assert all(gen[v] in cell for cell in cells or () for v in cell)
        assert group_order(g.n, gens) == r.group_size, (g, coloring)
        assert generator_orbits(g.n, gens) == r.orbits, (g, coloring)
        checked += 1
    assert checked == 2 * 1252 - 1 + 2 * 6 + 2 * 12
