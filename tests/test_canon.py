import hashlib
import itertools
import math
import random
from collections import deque

import pytest

from gcanon import canon
from gcanon.canon import (
    CanonOptions,
    _CanonSearch,
    _refine,
    canonical_form,
    canonize,
    isomorphic,
    refine_equitable,
)
from gcanon.generate import all_nonisomorphic
from gcanon.graph import (
    Graph,
    GraphError,
    OrderedPartition,
    Permutation,
    apply_permutation,
    extensions,
)
from gcanon.ramsey import RamseyInstance, gen_ramsey_gt

from .conftest import all_graphs, brute_force_automorphisms, \
    brute_force_isomorphism
from .reference_graphs import (
    CANON_EXAMPLE_INPUT,
    CANON_EXAMPLE_OUTPUT,
    CANON_EXAMPLE_PERM_1BASED,
    ISO_PAIR_A,
    ISO_PAIR_B,
    ISO_WITNESS_1BASED,
    NONISO_PAIR_A,
    NONISO_PAIR_B,
    cfi,
    complete,
    complete_bipartite,
    cycle,
    disjoint_copies,
    gnp,
    hypercube,
    large_graphs,
    petersen,
)

C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return apply_permutation(g, Permutation(tuple(perm)))


def orbit_oracle_inputs():
    """Every labelled 5-vertex graph and every 6-vertex class, each in a
    seeded relabelling."""
    rng = random.Random(41)
    return [relabelled(g, rng)
            for g in [*all_graphs(5), *all_nonisomorphic(6)]]


def brute_force_orbits(g, cells=()):
    """orbits[v] is the least image of v under the automorphisms of g
    that map each of the given cells onto itself."""
    autos = [a for a in brute_force_automorphisms(g)
             if all(a.map[v] in cell for cell in cells for v in cell)]
    return tuple(min(a.map[v] for a in autos) for v in range(g.n))


def brute_force_group_size(g, cells=()):
    """Number of automorphisms of g that map each given cell onto itself."""
    return sum(all(a.map[v] in cell for cell in cells for v in cell)
               for a in brute_force_automorphisms(g))


def orbit_sets(orbits):
    classes = {}
    for v, r in enumerate(orbits):
        classes.setdefault(r, set()).add(v)
    return {frozenset(c) for c in classes.values()}


def symmetric_pin_inputs():
    """Seeded relabellings of graphs whose search trees are dominated by
    automorphism pruning."""
    graphs = [
        Graph.empty(10),
        complete(10),
        complete_bipartite(5),
        disjoint_copies(2, complete_bipartite(4)),
        petersen(),
        cycle(12),
        hypercube(4),
    ]
    rng = random.Random(13)
    return [relabelled(g, rng) for g in graphs for _ in range(3)]


def is_equitable(g, partition):
    for cell in partition.cells:
        for other in partition.cells:
            mask = 0
            for v in other:
                mask |= 1 << v
            counts = {(g.rows[v] & mask).bit_count() for v in cell}
            if len(counts) > 1:
                return False
    return True


def full_queue_refine(rows, cells, seeds):
    """Reference refinement: _refine without its two stopping rules, every
    sub-cell's mask queued and no exit at a discrete partition."""
    queue = deque(seeds)
    while queue:
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
            for cnt in sorted(groups):
                sub = tuple(groups[cnt])
                newcells.append(sub)
                mask = 0
                for v in sub:
                    mask |= 1 << v
                queue.append(mask)
        cells = newcells
    return cells


def test_refine_keeps_full_queue_cell_order():
    # Root refinements of every 6-vertex class and every large graph, in
    # seeded relabellings, plain and with a seeded 2-cell coloring, and
    # every child one level down from each: the cells, in order, are those
    # of the full-queue reference.
    rng = random.Random(67)
    for g in [*all_nonisomorphic(6), *(g for _, g, _ in large_graphs())]:
        g = relabelled(g, rng)
        first = sorted(rng.sample(range(g.n), rng.randint(1, g.n - 1)))
        rest = [v for v in range(g.n) if v not in first]
        for coloring in ([tuple(range(g.n))], [tuple(first), tuple(rest)]):
            seeds = [sum(1 << v for v in cell) for cell in coloring]
            root = _refine(g.rows, coloring, seeds)
            assert root == full_queue_refine(g.rows, coloring, seeds)
            target = min(root, key=lambda c: (len(c) == 1, len(c)))
            if len(target) == 1:
                continue
            ti = root.index(target)
            for k, v in enumerate(target):
                child = (root[:ti] + [(v,), target[:k] + target[k + 1:]]
                         + root[ti + 1:])
                assert (_refine(g.rows, child, [1 << v])
                        == full_queue_refine(g.rows, child, [1 << v]))


class TestRefineEquitable:
    def test_regular_graph_stays_unit(self):
        p = refine_equitable(C5, OrderedPartition.unit(5))
        assert p.cells == ((0, 1, 2, 3, 4),)

    def test_star_splits_center_from_leaves(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        p = refine_equitable(star, OrderedPartition.unit(4))
        assert sorted(map(sorted, p.cells)) == [[0], [1, 2, 3]]

    def test_degree_split_of_worked_example(self):
        g = Graph.from_matrix(CANON_EXAMPLE_INPUT)
        p = refine_equitable(g, OrderedPartition.unit(5))
        # degrees 1,3,2,2,2 split the unit cell; vertices 2 and 4 then
        # separate from 3 because only they neighbor the degree-3 vertex
        assert sorted(map(sorted, p.cells)) == [[0], [1], [2, 4], [3]]
        assert is_equitable(g, p)

    def test_result_is_equitable_and_refines(self):
        rng = random.Random(3)
        pairs = list(itertools.combinations(range(7), 2))
        for _ in range(30):
            g = Graph.from_edges(7, [p for p in pairs if rng.random() < .4])
            p = refine_equitable(g, OrderedPartition.unit(7))
            assert is_equitable(g, p)

    def test_deterministic(self):
        g = Graph.from_matrix(CANON_EXAMPLE_INPUT)
        a = refine_equitable(g, OrderedPartition.unit(5))
        b = refine_equitable(g, OrderedPartition.unit(5))
        assert a == b

    def test_rejects_a_partition_of_another_size(self):
        with pytest.raises(GraphError, match="does not cover"):
            refine_equitable(Graph.empty(3), OrderedPartition.unit(4))


class TestCanonize:
    def test_worked_example_same_class(self):
        g = Graph.from_matrix(CANON_EXAMPLE_INPUT)
        expected = Graph.from_matrix(CANON_EXAMPLE_OUTPUT)
        assert canonical_form(g) == canonical_form(expected)

    def test_worked_example_permutation_contract(self):
        g = Graph.from_matrix(CANON_EXAMPLE_INPUT)
        r = canonize(g)
        assert apply_permutation(g, r.permutation) == r.canonic
        # the published relabeling also maps input to the published canonic
        p = Permutation(tuple(i - 1 for i in CANON_EXAMPLE_PERM_1BASED))
        assert apply_permutation(g, p) == \
            Graph.from_matrix(CANON_EXAMPLE_OUTPUT)

    def test_single_vertex(self):
        r = canonize(Graph.empty(1))
        assert r.canonic == Graph.empty(1)
        assert r.permutation.map == (0,)
        assert r.orbits == (0,)

    def test_labeling_inverse_of_permutation(self):
        g = Graph.from_matrix(CANON_EXAMPLE_INPUT)
        r = canonize(g)
        for i, v in enumerate(r.labeling.map):
            assert r.permutation.map[v] == i

    def test_c5_orbits_all_zero(self):
        # C5 is vertex-transitive: brute force confirms a single orbit
        autos = brute_force_automorphisms(C5)
        assert len({a.map[0] for a in autos}) == 5
        assert canonize(C5).orbits == (0, 0, 0, 0, 0)

    def test_orbit_map_idempotent(self, graphs5):
        for g in graphs5[::17]:
            orbits = canonize(g).orbits
            assert all(orbits[orbits[v]] == orbits[v] for v in range(5))

    def test_orbit_soundness_exhaustive_n4(self):
        for g in all_graphs(4):
            r = canonize(g)
            autos = brute_force_automorphisms(g)
            for v in range(4):
                assert any(a.map[r.orbits[v]] == v for a in autos)

    def test_orbit_completeness_n5_sample(self, graphs5):
        for g in graphs5[::31]:
            r = canonize(g)
            autos = brute_force_automorphisms(g)
            for v in range(5):
                true_orbit_rep = min(a.map[v] for a in autos)
                assert r.orbits[v] == true_orbit_rep

    def test_orbits_match_brute_force_n5_all_and_n6_classes(self):
        for g in orbit_oracle_inputs():
            assert canonize(g).orbits == brute_force_orbits(g), g

    def test_colored_orbits_match_brute_force(self):
        rng = random.Random(43)
        for g in orbit_oracle_inputs():
            first = rng.sample(range(g.n), rng.randint(1, g.n - 1))
            cells = (tuple(first),
                     tuple(v for v in range(g.n) if v not in first))
            r = canonize(g, CanonOptions(initial_coloring=OrderedPartition(
                cells)))
            assert r.orbits == brute_force_orbits(g, cells), (g, cells)

    def test_labeling_pin_on_symmetric_graphs(self):
        # The labeling depends on which leaves orbit pruning visits and in
        # which order, so this pins the search itself, not only the forms.
        digest = hashlib.sha256()
        for g in symmetric_pin_inputs():
            r = canonize(g)
            digest.update(repr((r.labeling.map, r.orbits,
                                r.canonic.rows)).encode())
        assert digest.hexdigest() == (
            "db81b23eea2d7c01b8127b682d4fea66ef46ffe48f10fb46b4e5d4928ed329d7")

    def test_deterministic(self):
        g = Graph.from_matrix(ISO_PAIR_A)
        assert canonize(g) == canonize(g)

    def test_invariant_under_relabeling_exhaustive_n4(self):
        for g in all_graphs(4):
            c = canonical_form(g)
            for perm in itertools.permutations(range(4)):
                assert canonical_form(
                    apply_permutation(g, Permutation(perm))) == c

    def test_canonical_form_is_fixed_point(self, graphs5):
        for g in graphs5[::13]:
            c = canonical_form(g)
            assert canonical_form(c) == c

    def test_1024_graphs_form_34_classes(self, graphs5):
        assert len({canonical_form(g) for g in graphs5}) == 34

    def test_oracle_equivalence_n5_sample(self, graphs5):
        rng = random.Random(11)
        for _ in range(150):
            g1, g2 = rng.choice(graphs5), rng.choice(graphs5)
            same = canonical_form(g1) == canonical_form(g2)
            assert same == (brute_force_isomorphism(g1, g2) is not None)


class TestIsomorphic:
    def test_positive_pair(self):
        g1 = Graph.from_matrix(ISO_PAIR_A)
        g2 = Graph.from_matrix(ISO_PAIR_B)
        found = isomorphic(5, g1, g2)
        assert found is not None
        p, canonic = found
        assert apply_permutation(g1, p) == g2
        assert canonic == canonical_form(g1) == canonical_form(g2)
        # the published witness satisfies the same contract
        w = Permutation(tuple(i - 1 for i in ISO_WITNESS_1BASED))
        assert apply_permutation(g1, w) == g2

    def test_negative_pair(self):
        g1 = Graph.from_matrix(NONISO_PAIR_A)
        g2 = Graph.from_matrix(NONISO_PAIR_B)
        assert isomorphic(5, g1, g2) is None

    def test_self_iso_is_automorphism(self):
        g = Graph.from_matrix(ISO_PAIR_A)
        p, _ = isomorphic(5, g, g)
        assert apply_permutation(g, p) == g

    def test_size_mismatch(self):
        with pytest.raises(GraphError):
            isomorphic(4, Graph.empty(4), Graph.empty(5))

    def test_witness_validity_random_pairs(self, graphs5):
        rng = random.Random(5)
        for _ in range(100):
            g1, g2 = rng.choice(graphs5), rng.choice(graphs5)
            found = isomorphic(5, g1, g2)
            if found is not None:
                p, _ = found
                assert apply_permutation(g1, p) == g2


class TestColoredCanonization:
    def coloring(self, cells):
        return OrderedPartition(tuple(tuple(c) for c in cells))

    def colored_brute_force(self, g1, c1, g2, c2):
        """Color-respecting exhaustive search: permutation must map the i-th
        color class of g1 onto the i-th color class of g2."""
        if [len(c) for c in c1.cells] != [len(c) for c in c2.cells]:
            return None
        classes2 = [set(c) for c in c2.cells]
        for perm in itertools.permutations(range(g1.n)):
            p = Permutation(perm)
            ok = all(p.map[v] in classes2[i]
                     for i, cell in enumerate(c1.cells) for v in cell)
            if ok and apply_permutation(g1, p) == g2:
                return p
        return None

    def test_coloring_separates_classes(self):
        # path 0-1-2: ends colored alike vs differently
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        c_ends = self.coloring([[0, 2], [1]])
        c_mixed = self.coloring([[0, 1], [2]])
        a = canonize(g, CanonOptions(initial_coloring=c_ends))
        b = canonize(g, CanonOptions(initial_coloring=c_mixed))
        assert a.canonic != b.canonic or a.partition != b.partition

    def test_agrees_with_colored_oracle(self):
        rng = random.Random(23)
        pairs = list(itertools.combinations(range(5), 2))
        for _ in range(60):
            g1 = Graph.from_edges(5, [p for p in pairs if rng.random() < .5])
            g2 = Graph.from_edges(5, [p for p in pairs if rng.random() < .5])
            split = rng.randint(1, 4)
            c = self.coloring([range(split), range(split, 5)])
            r1 = canonize(g1, CanonOptions(initial_coloring=c))
            r2 = canonize(g2, CanonOptions(initial_coloring=c))
            oracle = self.colored_brute_force(g1, c, g2, c)
            assert (r1.canonic == r2.canonic) == (oracle is not None)

    def test_permutation_respects_color_positions(self):
        rng = random.Random(29)
        pairs = list(itertools.combinations(range(6), 2))
        for _ in range(40):
            g = Graph.from_edges(6, [p for p in pairs if rng.random() < .5])
            c = self.coloring([[0, 1, 2], [3, 4, 5]])
            r = canonize(g, CanonOptions(initial_coloring=c))
            # positions of each color class are contiguous and class-sized
            first = sorted(r.permutation.map[v] for v in (0, 1, 2))
            assert first == [0, 1, 2]

    def test_coloring_size_mismatch(self):
        with pytest.raises(GraphError):
            canonize(Graph.empty(4),
                     CanonOptions(initial_coloring=OrderedPartition(((0, 1),))))

    @pytest.mark.parametrize("coloring", [[[0, 1], [2]], ((0, 1), (2,)),
                                          "x", 5])
    def test_coloring_not_a_partition(self, coloring):
        g = Graph.empty(3)
        with pytest.raises(GraphError):
            canonize(g, CanonOptions(initial_coloring=coloring))
        with pytest.raises(GraphError):
            isomorphic(3, g, g, CanonOptions(initial_coloring=coloring))


class TestGroupSize:
    def test_matches_brute_force_n5_all_and_n6_classes(self):
        for g in orbit_oracle_inputs():
            assert canonize(g).group_size == brute_force_group_size(g), g

    def test_colored_matches_brute_force(self):
        rng = random.Random(47)
        for g in orbit_oracle_inputs():
            first = rng.sample(range(g.n), rng.randint(1, g.n - 1))
            cells = (tuple(first),
                     tuple(v for v in range(g.n) if v not in first))
            r = canonize(g, CanonOptions(initial_coloring=OrderedPartition(
                cells)))
            assert r.group_size == brute_force_group_size(g, cells), \
                (g, cells)

    def test_trivial_sizes(self):
        assert canonize(Graph.empty(0)).group_size == 1
        assert canonize(Graph.empty(1)).group_size == 1

    @pytest.mark.parametrize("g,order", [
        pytest.param(g, order, id=name)
        for name, g, order in large_graphs() if order is not None])
    def test_closed_forms(self, g, order):
        assert canonize(g).group_size == order

    @pytest.mark.parametrize("n", range(1, 8))
    def test_labelled_count_identity(self, n):
        # Each class of order |Aut| has n!/|Aut| labelled members, and
        # together the classes hold every labelled graph on n vertices.
        total = 0
        for g in all_nonisomorphic(n):
            order = canonize(g).group_size
            assert math.factorial(n) % order == 0
            total += math.factorial(n) // order
        assert total == 2 ** (n * (n - 1) // 2)


POLYNOMIAL_SEARCH_GRAPHS = ("empty62", "K62", "K31,31", "6xK5,5")


@pytest.mark.parametrize("g", [
    pytest.param(g, id=name) for name, g, _ in large_graphs()
    if name in POLYNOMIAL_SEARCH_GRAPHS])
def test_symmetric_graphs_take_polynomial_search_nodes(g, monkeypatch):
    # Without the return to the first path after each automorphism these
    # trees grow far past n(n+1)/2 nodes; the count stops the search there.
    budget = g.n * (g.n + 1) // 2
    nodes = 0
    descend = _CanonSearch._descend

    def counting_descend(self, cells, path):
        nonlocal nodes
        nodes += 1
        assert nodes <= budget, f"search passed {budget} nodes"
        return descend(self, cells, path)

    monkeypatch.setattr(_CanonSearch, "_descend", counting_descend)
    canonize(g)


def test_search_tree_pin(monkeypatch):
    # Every 6-vertex class and every large graph, in one seeded relabelling,
    # plain and with a seeded 2-cell coloring.  The node count pins which
    # children orbit pruning, jump-back and twin targets skip; the
    # group sizes pin the orbit counts on the first path.  The inputs are
    # built before the count starts, so only the canonize trees are
    # counted.
    graphs = [*all_nonisomorphic(6), *(g for _, g, _ in large_graphs())]
    nodes = 0
    descend = _CanonSearch._descend

    def counting_descend(self, cells, path):
        nonlocal nodes
        nodes += 1
        return descend(self, cells, path)

    monkeypatch.setattr(_CanonSearch, "_descend", counting_descend)
    rng = random.Random(53)
    sizes = []
    for g in graphs:
        g = relabelled(g, rng)
        first = rng.sample(range(g.n), rng.randint(1, g.n - 1))
        cells = (tuple(first), tuple(v for v in range(g.n) if v not in first))
        for opts in (CanonOptions(), CanonOptions(
                initial_coloring=OrderedPartition(cells))):
            sizes.append(canonize(g, opts).group_size)
    digest = hashlib.sha256(repr(sizes).encode()).hexdigest()
    assert (len(sizes), nodes) == (344, 1328)
    assert digest == (
        "a6bc3982aba0514ac11224b918733c4460e2c12fb5fb0df4f15399a3e3f19200")


def test_labeling_pin_over_classes():
    # Every 6- and 7-vertex class and every large graph, in one seeded
    # relabelling, plain and with a seeded 2-cell coloring.  The labeling
    # is the first leaf of least certificate, so it pins which leaves
    # every pruning rule may skip: only repeats of leaves already seen.
    graphs = [*all_nonisomorphic(6), *all_nonisomorphic(7),
              *(g for _, g, _ in large_graphs())]
    rng = random.Random(67)
    digest = hashlib.sha256()
    for g in graphs:
        g = relabelled(g, rng)
        first = rng.sample(range(g.n), rng.randint(1, g.n - 1))
        cells = (tuple(first), tuple(v for v in range(g.n) if v not in first))
        for opts in (CanonOptions(), CanonOptions(
                initial_coloring=OrderedPartition(cells))):
            digest.update(repr(canonize(g, opts).labeling.map).encode())
    assert len(graphs) == 1216
    assert digest.hexdigest() == (
        "094b0b6c37349fa7f48cbb6915994c9d63a1038ab8c490cb7ebb8c60ff82d78d")


def search_nodes(g, monkeypatch):
    """canonize(g) and the number of search nodes it entered."""
    nodes = 0
    descend = _CanonSearch._descend

    def counting_descend(self, cells, path):
        nonlocal nodes
        nodes += 1
        return descend(self, cells, path)

    monkeypatch.setattr(_CanonSearch, "_descend", counting_descend)
    return canonize(g), nodes


def clique_union_nodes(k, m):
    """Search nodes of k disjoint copies of K_m, m > 1, as built.

    For m > 2: a node whose target is one clique, minus whatever the path
    has taken, peels it in one step.  A node whose target is a union of
    j > 1 whole cliques individualizes the least vertex of the first;
    the clique's other m - 1 vertices split off as one twin target, whose
    node peels it, and the other j - 1 cliques stay one cell.  So the
    first path has 2k nodes with its leaf.  Every leaf gives an
    automorphism, and a child tried off the first path below a union node
    costs its 2j - 1 nodes down to the leaf before the search jumps back.
    Each union node tries two such children, the next vertex of its first
    clique and the first vertex of the next; then the generators below it
    join every vertex of the union into one orbit.  The count is
    2k + 2 * sum(2j - 1 for 1 < j <= k) = 2k^2 + 2k - 2.

    For m = 2 a clique minus a vertex is a single vertex, so no peel node
    is needed: the first path has k + 1 nodes, a child tried off it
    below a union of j copies costs j, and the count is
    k + 1 + 2 * sum(j for 1 < j <= k) = k^2 + 2k - 1."""
    if m == 2:
        return k * k + 2 * k - 1
    return 2 * k * k + 2 * k - 2


def biclique_union_nodes(k):
    """Search nodes of k disjoint copies of K_{m,m}, m > 2, as built."""
    return (9 * k * k + 15 * k - 4) // 2


@pytest.mark.parametrize("g,order,nodes", [
    pytest.param(Graph.empty(64), math.factorial(64), 2, id="empty64"),
    pytest.param(complete(64), math.factorial(64), 2, id="K64"),
    # the complement of 2xK32, whose refinements it shares
    pytest.param(complete_bipartite(32), 2 * math.factorial(32) ** 2,
                 clique_union_nodes(2, 32), id="K32,32"),
    *(pytest.param(disjoint_copies(k, complete(m)),
                   math.factorial(m) ** k * math.factorial(k),
                   clique_union_nodes(k, m), id=f"{k}xK{m}")
      for k, m in [(2, 2), (2, 32), (3, 3), (5, 2), (4, 6), (8, 8)]),
    *(pytest.param(disjoint_copies(k, complete_bipartite(m)),
                   (2 * math.factorial(m) ** 2) ** k * math.factorial(k),
                   biclique_union_nodes(k), id=f"{k}xK{m},{m}")
      for m in (3, 4, 5) for k in (1, 2, 3, 4, 6)),
])
def test_homogeneous_search_closed_forms(g, order, nodes, monkeypatch):
    # A node whose target cell is a set of pairwise twins peels it in one
    # step and tries no other child.
    r, count = search_nodes(g, monkeypatch)
    assert (r.group_size, len(set(r.orbits)), count) == (order, 1, nodes)


def test_absorb_matches_orbit_closure():
    # Random permutations that map a random domain onto itself, absorbed
    # one at a time: on the domain the result is the least vertex of each
    # orbit of the group they generate, and every other entry is kept.
    rng = random.Random(79)
    for _ in range(200):
        n = rng.randint(1, 12)
        domain = sorted(rng.sample(range(n), rng.randint(1, n)))
        outside = [v for v in range(n) if v not in domain]
        orbits = list(range(n))
        for v in outside:
            orbits[v] = rng.randrange(n)
        kept = [orbits[v] for v in outside]
        gens = []
        for _ in range(rng.randint(1, 3)):
            image = domain[:]
            rng.shuffle(image)
            gen = list(range(n))
            for u, w in zip(domain, image):
                gen[u] = w
            gens.append(gen)
            canon._absorb(orbits, gen, domain)
            closure = {}
            for v in domain:
                seen, todo = {v}, [v]
                while todo:
                    u = todo.pop()
                    for g in gens:
                        if g[u] not in seen:
                            seen.add(g[u])
                            todo.append(g[u])
                closure[v] = min(seen)
            assert [orbits[v] for v in domain] == [closure[v] for v in domain]
            assert [orbits[v] for v in outside] == kept


def test_block_union_results_pin():
    # Every field of canonize on seeded relabellings of disjoint unions of
    # twin blocks (cliques and bicliques) and of other blocks, up to
    # n = 64, plain and with a seeded 2-cell coloring.  Their targets are
    # twin sets at many depths, on and off the first path: peeling one in
    # a step keeps the labeling, orbits and |Aut| of trying its children.
    graphs = [disjoint_copies(k, complete(m))
              for k in range(1, 9) for m in range(2, 9) if k * m <= 64]
    graphs += [disjoint_copies(k, complete_bipartite(m))
               for k in range(1, 7) for m in range(2, 6) if 2 * k * m <= 64]
    graphs += [disjoint_copies(3, petersen()), disjoint_copies(4, cycle(5)),
               hypercube(5)]
    rng = random.Random(83)
    graphs = [relabelled(g, rng) for g in graphs]
    digest = hashlib.sha256()
    for g in graphs:
        first = rng.sample(range(g.n), rng.randint(1, g.n - 1))
        cells = (tuple(first), tuple(v for v in range(g.n) if v not in first))
        for opts in (CanonOptions(), CanonOptions(
                initial_coloring=OrderedPartition(cells))):
            r = canonize(g, opts)
            digest.update(repr((
                r.labeling.map, r.permutation.map, r.orbits, r.canonic.rows,
                r.partition.cells, r.group_size)).encode())
    assert len(graphs) == 83
    assert digest.hexdigest() == (
        "bd6cb93b74539753ee3218830e0f939c5d62741eecf370138b57be948f07aa5e")


def twin_class_graph(rng):
    """A random 4-6 vertex graph with each vertex blown up into a clique or
    an independent set of 1-3 twins, at most 10 vertices in all."""
    sizes = [3] * 4
    while sum(sizes) > 10:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(4, 6))]
    blocks = [range(sum(sizes[:i]), sum(sizes[:i + 1]))
              for i in range(len(sizes))]
    edges = []
    for i, block in enumerate(blocks):
        if rng.random() < 0.5:
            edges += itertools.combinations(block, 2)
        for other in blocks[i + 1:]:
            if rng.random() < 0.5:
                edges += itertools.product(block, other)
    return Graph.from_edges(sum(sizes), edges)


def vf2_group(nx, g, cells):
    """|Aut| and orbits of g under the automorphisms that map each cell
    onto itself, from networkx's VF2 matcher: each orbit by one test per
    vertex and lesser orbit, |Aut| by orbit-stabilizer down the chain of
    stabilizers of 0, 1, 2, ..."""
    color = {v: i for i, cell in enumerate(cells) for v in cell}
    h = nx.Graph()
    h.add_nodes_from((w, {"w": w}) for w in range(g.n))
    h.add_edges_from(g.edges())

    def maps(fixed, v, u):
        # an automorphism that fixes 0..fixed-1 and maps v to u
        def tag(w, moved):
            return color[w], w if w < fixed else -1, w == moved
        return nx.is_isomorphic(h, h, node_match=lambda a, b: (
            tag(a["w"], v) == tag(b["w"], u)))

    orbits = []
    for v in range(g.n):
        orbits.append(next(u for u in sorted(set(orbits)) + [v]
                           if u == v or maps(0, v, u)))
    # the stabilizer of 0..i-1 moves i only within its orbit
    order = math.prod(
        1 + sum(maps(i, i, u) for u in range(i + 1, g.n)
                if orbits[u] == orbits[i])
        for i in range(g.n))
    return order, tuple(orbits)


def test_twin_class_graphs_match_vf2():
    # Twin classes give twin targets at many depths, with and
    # without a coloring that cuts across them.
    nx = pytest.importorskip("networkx")
    rng = random.Random(71)
    for _ in range(60):
        g = relabelled(twin_class_graph(rng), rng)
        first = rng.sample(range(g.n), rng.randint(1, g.n - 1))
        for cells in ((tuple(range(g.n)),),
                      (tuple(first),
                       tuple(v for v in range(g.n) if v not in first))):
            r = canonize(g, CanonOptions(
                initial_coloring=OrderedPartition(cells)))
            assert (r.group_size, r.orbits) == vf2_group(nx, g, cells), \
                (g, cells)


def test_memo_gives_the_plain_canonical_form():
    # One memo shared by every child of the 6-vertex classes and by two
    # seeded relabelings of each (3,5;9) class, as a reduce step shares it.
    rng = random.Random(61)
    inputs = [h for g in all_nonisomorphic(6) for h in extensions(g)]
    inputs += [relabelled(g, rng)
               for g in gen_ramsey_gt(RamseyInstance(3, 5, 9)) for _ in "ab"]
    memo = {}
    for g in inputs:
        assert canonical_form(g, memo) == canonical_form(g)
    assert len(memo) < len(inputs)


def test_memo_key_carries_the_order():
    # Both graphs have root-order bits 1: K2's one pair, and the pair
    # {1,2} last of the 3-vertex graph's three.
    k2 = Graph.from_edges(2, [(0, 1)])
    p3 = Graph.from_edges(3, [(1, 2)])
    memo = {}
    for g in (k2, p3, k2, p3):
        assert canonical_form(g, memo) == canonical_form(g)
    assert len(memo) == 2


def test_memo_key_carries_the_vertex_count():
    # Edgeless graphs of every size have graph6 bits 0, and K1 and K2
    # share their invariant and root orders; only n tells these keys apart.
    inputs = [Graph.empty(k) for k in (0, 1, 2, 1, 0)]
    inputs += [Graph.from_edges(1, []), Graph.from_edges(2, [(0, 1)]),
               Graph.from_edges(3, [(0, 1), (1, 2)])]
    memo = {}
    for g in inputs:
        c = canonical_form(g, memo)
        assert c.n == g.n
        assert c == canonical_form(g)


def test_memo_over_relabelled_classes():
    # Three seeded relabellings of every 7-vertex class, shuffled, through
    # one memo: hits on either key must give each input its own form.
    rng = random.Random(67)
    inputs = [relabelled(g, rng) for g in all_nonisomorphic(7)
              for _ in range(3)]
    rng.shuffle(inputs)
    memo = {}
    forms = set()
    for g in inputs:
        c = canonical_form(g, memo)
        assert c == canonical_form(g)
        forms.add(c)
    assert len(forms) == 1044


def test_memo_search_pin(monkeypatch):
    # all_nonisomorphic(7) searches only children whose root-order bits
    # are new to their reduce step; canonizing every child, with no memo,
    # takes 11,581 searches and 32,829 nodes.
    nodes = searches = 0
    descend = _CanonSearch._descend

    def counting_descend(self, cells, path):
        nonlocal nodes, searches
        nodes += 1
        searches += not path
        return descend(self, cells, path)

    monkeypatch.setattr(_CanonSearch, "_descend", counting_descend)
    assert len(all_nonisomorphic(7)) == 1044
    assert (searches, nodes) == (1280, 4135)


def test_memo_root_refinement_pin(monkeypatch):
    # all_nonisomorphic(7) refines the root only of children whose
    # invariant-order key is new to their reduce step; keying every child
    # by its root order alone takes 11,291 root refinements.
    calls = 0
    root_cells = canon._root_cells

    def counting_root_cells(*args):
        nonlocal calls
        calls += 1
        return root_cells(*args)

    monkeypatch.setattr(canon, "_root_cells", counting_root_cells)
    assert len(all_nonisomorphic(7)) == 1044
    assert calls == 1614


def test_results_are_valid_values():
    # canonize, refine_equitable and compose build their results unchecked;
    # rebuilding each through its checked constructor must give it back.
    rng = random.Random(59)
    for g in [*all_nonisomorphic(6), *(g for _, g, _ in large_graphs())]:
        g = relabelled(g, rng)
        first = rng.sample(range(g.n), rng.randint(1, g.n - 1))
        cells = (tuple(first), tuple(v for v in range(g.n) if v not in first))
        for coloring in (None, OrderedPartition(cells)):
            r = canonize(g, CanonOptions(initial_coloring=coloring))
            for p in (r.labeling, r.permutation):
                assert type(p.map) is tuple
                assert Permutation(p.map) == p
            assert OrderedPartition(r.partition.cells) == r.partition
            assert refine_equitable(g, r.partition) == r.partition
            assert refine_equitable(
                g, coloring or OrderedPartition.unit(g.n)) == r.partition
            assert (r.labeling.compose(r.permutation)
                    == Permutation(range(g.n)))
        h = relabelled(g, rng)
        p, _ = isomorphic(g.n, g, h)
        assert Permutation(p.map) == p
        assert apply_permutation(g, p) == h


@pytest.mark.parametrize("g", [pytest.param(g, id=name)
                               for name, g, _ in large_graphs()])
def test_relabeling_invariance_large(g):
    base = canonize(g)
    base_orbits = orbit_sets(base.orbits)
    rng = random.Random(g.n)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        p = Permutation(tuple(perm))
        r = canonize(apply_permutation(g, p))
        assert r.canonic == base.canonic
        assert r.group_size == base.group_size
        assert orbit_sets(r.orbits) == {frozenset(p.map[v] for v in orbit)
                                        for orbit in base_orbits}


def test_one_leaf_search_computes_no_certificate(monkeypatch):
    # G(50,1/2) seed 2050 is rigid, and its root partition is discrete:
    # the search has one leaf, whose certificate nothing would read.
    calls = []
    upper_bits = canon._upper_bits

    def counted(rows, order):
        calls.append(order)
        return upper_bits(rows, order)

    monkeypatch.setattr(canon, "_upper_bits", counted)
    g = gnp(50, 2050)
    r = canonize(g)
    assert r.group_size == 1 and len(r.partition.cells) == g.n
    assert calls == []
    # a second leaf brings both certificates
    canonize(C5)
    assert len(calls) >= 2


# The CFI graphs over K4 and K3,3, both cubic, so 10 vertices per base
# vertex, and their expected |Aut|: |Aut(B)| of the base graph B times
# 2^(|E| - |V| + 1), one end-pair flip per independent cycle of B.
@pytest.mark.parametrize("n,edges,order", [
    pytest.param(4, list(itertools.combinations(range(4), 2)), 24 * 2 ** 3,
                 id="K4"),
    pytest.param(6, [(u, v) for u in range(3) for v in range(3, 6)],
                 72 * 2 ** 4, id="K3,3"),
])
def test_cfi_pair(n, edges, order):
    pair = [cfi(n, edges, twisted) for twisted in (False, True)]
    results = [canonize(g) for g in pair]
    assert [g.n for g in pair] == [10 * n] * 2
    assert results[0].canonic != results[1].canonic
    assert [r.group_size for r in results] == [order] * 2
    rng = random.Random(n)
    for g, r in zip(pair, results):
        assert canonical_form(relabelled(g, rng)) == r.canonic
