"""Fixed input families of the ``canon_sym`` workload, built in pure Python.

Each family is one fixed graph on at most 62 vertices (so every member has a
single-byte-header graph6 atom), given as ``(n, edges)``.  The workload seed
only chooses the relabelings in which each family is presented; the graphs
themselves, and therefore their canonical atoms, never depend on the seed.

``orbits`` is the number of automorphism orbits of the graph: 1 for every
vertex-transitive family, ``n`` for the random graphs, whose fixed
generator seeds were chosen so that the graph is asymmetric.

Every relabeling of an empty or complete graph is the same graph, so those
are presented once per pass.  The random ones are presented six times, so
that they make up most of a pass and hold its median latency.  The complete
bipartite graphs and the disjoint unions are presented six times too: the
larger of them hold the 90th percentile, and with six relabelings each it
falls inside their group, not at its edge, where a small change to one
input would move it across the gap to the next group.  The other
symmetric families are presented four times.

Q6 (n = 64) is left out: it has no single-byte graph6 header.  Empty and
complete graphs stop at n = 14: their cost grows roughly as n^6, and at
n = 16 and 18 the four of them took two fifths of a pass, which left too
few passes in a run to time the other inputs steadily.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Family:
    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    orbits: int
    why: str
    # Seeded relabelings of the family in one pass.
    relabelings: int = 4


def empty(n):
    return n, []


def complete(n):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def complete_bipartite(m):
    return 2 * m, [(u, m + v) for u in range(m) for v in range(m)]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return 10, outer + inner + spokes


def hypercube(d):
    n = 1 << d
    return n, [(u, u ^ (1 << b)) for u in range(n) for b in range(d)
               if u < u ^ (1 << b)]


def paley(q):
    """Paley graph on Z_q, q prime and 1 mod 4: u ~ v iff u - v is a
    nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    return q, [(u, v) for u in range(q) for v in range(u + 1, q)
               if (v - u) % q in squares]


def disjoint_copies(k, graph):
    n, edges = graph
    return k * n, [(i * n + u, i * n + v) for i in range(k) for u, v in edges]


def gnp(n, seed, p=0.5):
    rng = random.Random(seed)
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)
               if rng.random() < p]


def _family(name, graph, orbits, why, relabelings=4):
    n, edges = graph
    return Family(name, n, tuple(sorted((min(e), max(e)) for e in edges)),
                  orbits, why, relabelings)


_TRANSITIVE_WHY = {
    "empty": "no edges: one cell that refinement never splits, so the "
             "search tree is as large as it gets",
    "complete": "the complement of the empty graph, same search tree",
    "kmm": "complete bipartite: refinement stops at one cell of 2m",
    "union": "disjoint copies: automorphisms swap whole components",
    "named": "vertex-transitive named graph with a nontrivial group",
    "paley": "strongly regular and self-complementary: refinement is "
             "powerless at the root",
}

# (n, generator seed) of the random members, n = 16, 18, ..., 62; every one
# is asymmetric.
GNP_MEMBERS = tuple((n, 1000 + n) for n in range(16, 63, 2))


def all_families() -> list[Family]:
    """The 52 fixed ``canon_sym`` families, in a fixed order."""
    fams = []
    for n in (4, 8, 12, 13, 14):
        fams.append(_family(f"empty{n}", empty(n), 1,
                            _TRANSITIVE_WHY["empty"], relabelings=1))
    for n in (4, 8, 12, 13, 14):
        fams.append(_family(f"K{n}", complete(n), 1,
                            _TRANSITIVE_WHY["complete"], relabelings=1))
    for m in (2, 4, 6, 8):
        fams.append(_family(f"K{m},{m}", complete_bipartite(m), 1,
                            _TRANSITIVE_WHY["kmm"], relabelings=6))
    unions = (("2xK5,5", 2, complete_bipartite(5)),
              ("3xK4,4", 3, complete_bipartite(4)),
              ("5xK4", 5, complete(4)),
              ("4xC5", 4, cycle(5)),
              ("3xPetersen", 3, petersen()))
    for name, k, g in unions:
        fams.append(_family(name, disjoint_copies(k, g), 1,
                            _TRANSITIVE_WHY["union"], relabelings=6))
    for name, g in (("Q4", hypercube(4)), ("Q5", hypercube(5)),
                    ("C30", cycle(30)), ("C60", cycle(60)),
                    ("Petersen", petersen())):
        fams.append(_family(name, g, 1, _TRANSITIVE_WHY["named"]))
    for q in (13, 29, 37, 61):
        fams.append(_family(f"Paley{q}", paley(q), 1,
                            _TRANSITIVE_WHY["paley"]))
    for n, seed in GNP_MEMBERS:
        fams.append(_family(
            f"G({n},1/2)", gnp(n, seed), n,
            "asymmetric random graph: refinement alone makes the partition "
            "discrete; these are most of the inputs, so the median latency "
            "is refinement-bound", relabelings=6))
    return fams


def quick_families() -> list[Family]:
    """A three-member suite for the quick self-test."""
    return [_family("empty6", empty(6), 1, _TRANSITIVE_WHY["empty"],
                    relabelings=1),
            _family("Petersen", petersen(), 1, _TRANSITIVE_WHY["named"]),
            _family("G(16,1/2)", gnp(16, 1016), 16, "asymmetric random graph")]
