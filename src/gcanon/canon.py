"""Canonical labeling by individualization-refinement.

The canonical representative of a graph is the leaf of the refinement search
tree whose relabeled upper-triangle bit string is numerically smallest.  This
differs from nauty's internal choice of representative but is a valid
canonical form: two graphs get the same representative iff they are
isomorphic (color-respectingly so, when an initial coloring is given).

Refinement stops at a discrete partition and never queues the last
sub-cell of a split cell, which could split nothing; the cells and their
order stay those of the full queue (the FIFO argument is at _refine).

Three rules prune the search.  Each skips only subtrees that an
automorphism fixing the node's path maps onto subtrees already searched,
so the least certificate and its first leaf stay those of the whole tree.
The first two use the automorphisms discovered as certificate collisions
with the first leaf:

- orbit pruning: each search node keeps the orbits of the generators that
  fix its path, absorbs every generator once, and skips a child whose
  orbit's least vertex is below it: a child already tried;
- jump-back, as in nauty: after a leaf yields an automorphism, the search
  returns at once to the deepest node its path shares with the first path.
  The automorphism fixes that shared prefix and maps the rest of the
  abandoned subtree onto the first-path subtree already explored, so every
  skipped leaf repeats a certificate already seen.  That node is the
  leaf's deepest first-path ancestor, and never a twin target node, whose
  one child extends the path by all of T[:-1].  So _descend returns True
  to jump back: the leaf returns it, any other node passes it up at once,
  and a first-path node takes it and goes on with its next child.  With
  these two rules alone, empty, complete and complete bipartite graphs
  take at most n(n+1)/2 nodes instead of growing roughly as n^5.5.

The third reads automorphisms off the partition, with no leaf or
refinement:

- twin target: a node whose target T is a set of twins, each u in T
  adjacent to the same vertices outside {u, T[0]} as T[0], peels T in
  one step and tries no other child.  Such twins are all adjacent to
  T[0] or none is (if u were and w not, u would be a neighbour of w but
  w not of u), and then to each other alike, so T is a clique or an
  independent set, and every permutation of T that fixes the other
  vertices is an automorphism.  It fixes the path,
  whose vertices are singletons outside T, and maps the first child's
  subtree onto each other child's.  Individualizing T[0] splits nothing
  but T[0] off T: a vertex of another cell D is adjacent to all of T or
  to none of it, and the node's partition is equitable, so D is joined to
  T completely or not at all.  T - {T[0]} is then the smallest cell and
  still twins, so the first path down from the node individualizes T in
  order; the node builds that path's partition at once, every vertex of
  T a singleton in place of T, extends the path by T[:-1], and makes no
  refinement.  The test runs at every node, on the first path or off it,
  before any child.  A first-path node records the transpositions
  (T[i] T[i+1]), which generate every permutation of T, and the orbits
  along the peel have sizes |T|, |T| - 1, ..., 2.  Empty and complete
  graphs take 2 nodes, the root and its leaf; for m > 2, k disjoint
  copies of K_m take 2k^2 + 2k - 2 and k disjoint copies of K_{m,m} take
  (9k^2 + 15k - 4)/2, whatever m is.

The first leaf's certificate is computed only when a second leaf arrives
to be compared with it, so a search whose root partition is already
discrete, one leaf, computes none.

The reported vertex orbits are those of all generators found.  group_size,
|Aut|, is the product over the first-path nodes of the size of the orbit of
the first-path child under the automorphisms that fix the path so far,
counted as the node's children are tried or pruned, or |T|! for a twin
target T; jump-back never cuts a first-path node short, so every count is
complete.  Both match brute force on every labelled 5-vertex graph
and every 6-vertex class, plain and with a 2-cell coloring
(tests/test_canon.py); every merge is a true automorphism, so the orbits
are sound at any size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import factorial
from typing import Optional

from .graph import (
    Graph,
    GraphError,
    OrderedPartition,
    Permutation,
    _derived,
    _relabel_rows,
    _upper_bits,
)


@dataclass(frozen=True, slots=True)
class CanonOptions:
    initial_coloring: Optional[OrderedPartition] = None

    def __post_init__(self):
        coloring = self.initial_coloring
        if coloring is not None and not isinstance(coloring, OrderedPartition):
            raise GraphError(
                f"initial coloring {coloring!r} is not an OrderedPartition")


@dataclass(frozen=True, slots=True)
class CanonicalResult:
    """Full canonization output.

    labeling lists input vertices in canonical-position order, so
    permutation(labeling[i]) = i, and applying permutation to the input graph
    yields canonic exactly.  orbits[v] is the least vertex found in v's
    automorphism orbit.  partition is the equitable refinement of the root
    coloring (implementation-defined cell order).  group_size is the order
    of the (color-preserving) automorphism group.
    """

    labeling: Permutation
    permutation: Permutation
    orbits: tuple[int, ...]
    canonic: Graph
    partition: OrderedPartition
    group_size: int


def _refine(rows, cells, seeds):
    """Refine cells (list of sorted vertex tuples) against the seed splitter
    masks until equitable.  Sub-cells replace their parent in place, ordered
    by ascending neighbour count; the result is the coarsest equitable
    refinement reachable from the seeds.

    The loop ends at a discrete partition, and a split cell queues the
    masks of all its sub-cells but the last.  Neither changes the cells or
    their order.  The queue is FIFO, so when the last sub-cell's mask would
    be dequeued, every cell is uniform with respect to its parent X (X was
    a seed, or was queued before the split, or was itself a skipped last
    sub-cell, by induction) and to X's earlier sub-cells, queued just
    before.  Counts into the last sub-cell are the difference, so it would
    split nothing.  In _descend every cell of the equitable parent is
    uniform from the start, and the rest of the target once the seed, its
    new singleton, is done.  Skipping the largest sub-cell instead, as
    Hopcroft does, can reorder cells.
    """
    n = len(rows)
    queue = deque(seeds)
    while queue and len(cells) < n:
        smask = queue.popleft()
        newcells = []
        for cell in cells:
            if len(cell) == 1:
                newcells.append(cell)
                continue
            groups = {}
            for v in cell:
                groups.setdefault((rows[v] & smask).bit_count(), []).append(v)
            if len(groups) == 1:
                newcells.append(cell)
                continue
            counts = sorted(groups)
            for cnt in counts:
                newcells.append(tuple(groups[cnt]))
            for cnt in counts[:-1]:
                mask = 0
                for v in groups[cnt]:
                    mask |= 1 << v
                queue.append(mask)
        cells = newcells
    return cells


def _root_cells(rows, n, cells=None):
    """Coarsest equitable refinement of the given vertex cells, every cell
    a seed splitter; the cells default to the whole vertex set."""
    if cells is None:
        cells = [range(n)] if n else []
    cells = [tuple(sorted(c)) for c in cells]
    seeds = []
    for cell in cells:
        mask = 0
        for v in cell:
            mask |= 1 << v
        seeds.append(mask)
    return _refine(rows, cells, seeds)


def refine_equitable(g: Graph, p: OrderedPartition) -> OrderedPartition:
    """Coarsest equitable refinement of p with deterministic cell order."""
    if p.n != g.n:
        raise GraphError("partition does not cover the graph's vertices")
    return _derived(OrderedPartition, tuple(_root_cells(g.rows, g.n, p.cells)))


def _absorb(orbits, gen, domain):
    """Merge the orbits that the permutation gen joins on domain, an
    ascending union of orbits that gen maps onto itself; orbits[v] is the
    least vertex of v's orbit, and stays so on domain.  No entry outside
    domain is read or written.  Union-find links each root to the lesser
    one, so no vertex points above itself, and one ascending pass then
    points every vertex at its root."""
    for u in domain:
        a = orbits[u]
        while orbits[a] != a:
            a = orbits[a]
        b = orbits[gen[u]]
        while orbits[b] != b:
            b = orbits[b]
        if a < b:
            orbits[b] = a
        elif b < a:
            orbits[a] = b
    for u in domain:
        orbits[u] = orbits[orbits[u]]


class _CanonSearch:
    def __init__(self, rows, n):
        self.rows = rows
        self.n = n
        self.generators = []
        self.group_size = 1
        self.first_cert = None
        self.first_labeling = None
        self.best_cert = None
        self.best_labeling = []

    def _descend(self, cells, path):
        """Search the subtree at cells and path.  Returns True to jump back
        past this node: a leaf below gave an automorphism and no first-path
        node took it.  A first-path node takes a child's True and returns
        False."""
        # Target the first smallest non-singleton cell.
        ti = -1
        for i, cell in enumerate(cells):
            if len(cell) > 1 and (ti < 0 or len(cell) < len(cells[ti])):
                ti = i
        if ti < 0:
            return self._leaf([c[0] for c in cells])
        # The nodes entered before the first leaf make up the first path.
        first = self.first_labeling is None
        target = cells[ti]
        rows = self.rows
        t0 = target[0]
        r0 = rows[t0]
        for u in target:
            if (rows[u] ^ r0) & ~(1 << u | 1 << t0):
                break
        else:
            # The target is a set of twins, so every permutation of it is an
            # automorphism that fixes path (see the module docstring): peel
            # it in target order, as the first children below would, and
            # try no other child.
            child = cells[:ti] + [(u,) for u in target] + cells[ti + 1:]
            depth = len(path)
            path += target[:-1]
            jump = self._descend(child, path)
            del path[depth:]
            if first:
                for a, b in zip(target, target[1:]):
                    gen = list(range(self.n))
                    gen[a], gen[b] = b, a
                    self.generators.append(tuple(gen))
                self.group_size *= factorial(len(target))
            return jump
        # Orbits of the generators that fix path pointwise, made when the
        # first one is found; each generator is absorbed once.  They map
        # target, an ascending tuple, onto itself, so orbits[v] < v holds
        # exactly when v shares an orbit with a child already tried.
        orbits = None
        seen = 0
        # Children known to share the orbit of target[0] under the
        # automorphisms that fix path: itself, each child whose subtree
        # gave an automorphism (it maps target[0] to that child) and each
        # child pruned into its orbit.  On a first-path node this is the
        # whole orbit, since jump-back never cuts such a node short.
        orbit_size = 1
        for k, v in enumerate(target):
            if k:
                for gen in self.generators[seen:]:
                    if all(gen[w] == w for w in path):
                        if orbits is None:
                            orbits = list(range(self.n))
                        _absorb(orbits, gen, target)
                seen = len(self.generators)
                if orbits is not None and orbits[v] < v:
                    orbit_size += orbits[v] == t0
                    continue
            rest = target[:k] + target[k + 1:]
            child = cells[:ti] + [(v,)] + [rest] + cells[ti + 1:]
            child = _refine(rows, child, [1 << v])
            path.append(v)
            jump = self._descend(child, path)
            path.pop()
            if jump:
                if not first:
                    return True
                orbit_size += 1
        if first:
            self.group_size *= orbit_size
        return False

    def _leaf(self, labeling):
        """Record a leaf; True when it gave an automorphism."""
        if self.first_labeling is None:
            self.first_labeling = self.best_labeling = labeling
            return False
        if self.first_cert is None:
            self.first_cert = self.best_cert = _upper_bits(
                self.rows, self.first_labeling)
        cert = _upper_bits(self.rows, labeling)
        if cert == self.first_cert:
            # Two labelings with the same certificate witness an automorphism,
            # never the identity: where the paths part, each puts another
            # vertex in the same singleton cell, which refinement never moves.
            gen = [0] * self.n
            for a, b in zip(self.first_labeling, labeling):
                gen[a] = b
            self.generators.append(tuple(gen))
            return True
        if cert < self.best_cert:
            self.best_cert = cert
            self.best_labeling = labeling
        return False


def _search_from(rows, n, root):
    """Core search from the root cells; returns (search, pos, canonic_rows):
    the search holds best_labeling, generators and group_size; v goes to
    pos[v]."""
    search = _CanonSearch(rows, n)
    search._descend(root, [])
    pos = [0] * n
    for i, v in enumerate(search.best_labeling):
        pos[v] = i
    return search, pos, _relabel_rows(rows, pos)


def canonize(g: Graph, opts: CanonOptions = CanonOptions()) -> CanonicalResult:
    """Canonical labeling, relabeling permutation, orbits, and canonical form.

    With an initial coloring, only color-preserving relabelings compete, so
    two colored graphs share a canonic value iff they are isomorphic via a
    color-respecting permutation (colorings compared cell-by-cell in order).
    """
    coloring = opts.initial_coloring
    if coloring is not None and coloring.n != g.n:
        raise GraphError("coloring does not cover the graph's vertices")
    cells = coloring.cells if coloring is not None else None
    root = _root_cells(g.rows, g.n, cells)
    search, pos, crows = _search_from(g.rows, g.n, root)
    orbits = list(range(g.n))
    for gen in search.generators:
        _absorb(orbits, gen, range(g.n))
    return CanonicalResult(
        labeling=_derived(Permutation, tuple(search.best_labeling)),
        permutation=_derived(Permutation, tuple(pos)),
        orbits=tuple(orbits),
        canonic=Graph._trusted(g.n, crows),
        partition=_derived(OrderedPartition, tuple(root)),
        group_size=search.group_size,
    )


def _invariant_order(rows, n):
    """Vertices sorted by degree, then by the sum of their neighbours'
    degrees, ties by index: an order that any relabelling carries along,
    up to those ties, and that costs no refinement."""
    deg = [r.bit_count() for r in rows]
    shift = (n * n).bit_length()
    keys = []
    for d, r in zip(deg, rows):
        s = d << shift
        while r:
            low = r & -r
            s += deg[low.bit_length() - 1]
            r ^= low
        keys.append(s)
    return sorted(range(n), key=keys.__getitem__)


def _memo_key(rows, order):
    """The graph relabelled so order[i] sits at position i, as one int:
    its graph6-order bits b, then n = len(order), as (b << 1 | 1) << n.
    The trailing zeros give n back and the rest gives b, so keys of
    different labelled graphs differ, whatever their vertex counts."""
    return (_upper_bits(rows, order) << 1 | 1) << len(order)


def canonical_form(g: Graph, memo: Optional[dict] = None) -> Graph:
    """Canonical representative of g's isomorphism class.

    A memo dict, owned by the caller for one batch of inputs, skips the
    search for an input already seen.  It holds two kinds of key, each a
    labelled graph isomorphic to its input (see _memo_key): g relabelled
    in invariant order (see _invariant_order), and g relabelled in
    root-cell order.  Two inputs with the same key of either kind, or one
    of each, are both isomorphic to the labelled graph the key spells, so
    they share the canonical form stored under it, and both kinds share
    one dict.  The invariant key is tried first, as it needs no
    refinement; only on a miss is the root refinement run and the root
    key tried, and only on a second miss is the search run.  The form is
    then stored under both keys.

    Equal invariant keys imply equal root keys.  The relabelling that
    maps one input's invariant order onto the other's is an isomorphism
    that keeps degrees and neighbour-degree sums, and it is increasing
    on each class of vertices that share both.  Each root cell lies
    inside one such class, so it maps the root cells onto the root
    cells, in order and each in index order.  So the searches are those
    of the root key alone; the first key saves only refinements.
    """
    rows, n = g.rows, g.n
    if memo is None:
        return Graph._trusted(
            n, _search_from(rows, n, _root_cells(rows, n))[2])
    cheap = _memo_key(rows, _invariant_order(rows, n))
    canonic = memo.get(cheap)
    if canonic is None:
        root = _root_cells(rows, n)
        key = _memo_key(rows, [v for cell in root for v in cell])
        canonic = memo.get(key)
        if canonic is None:
            canonic = memo[key] = Graph._trusted(
                n, _search_from(rows, n, root)[2])
        memo[cheap] = canonic
    return canonic


def isomorphic(n: int, g1: Graph, g2: Graph,
               opts: CanonOptions = CanonOptions()
               ) -> Optional[tuple[Permutation, Graph]]:
    """Isomorphism test; on success returns (p, canonic) with
    apply_permutation(g1, p) = g2 and canonic their shared canonical form.
    Returns None when the graphs are not isomorphic."""
    if g1.n != n or g2.n != n:
        raise GraphError("vertex count mismatch")
    r1 = canonize(g1, opts)
    r2 = canonize(g2, opts)
    if r1.canonic != r2.canonic:
        return None
    p = r2.labeling.compose(r1.permutation)
    return p, r1.canonic
