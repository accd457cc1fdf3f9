"""Isomorph-free generation and canonical deduplication.

Native analogs of the gtools programs geng (all non-isomorphic graphs on n
vertices) and shortg (remove isomorphic duplicates), built on one level
loop, grow: extend every canonical graph by one vertex in all 2^n ways,
filter, then reduce; a Stats sink times each level.  reduce_classes is
the one reduce step of every generator here and in ramsey.py: it hands
canonical_form a memo of its own, reads the classes off the memo's
values, and keeps no state past the call.  The memo keys each graph
first by its relabelling in a cheap invariant order, then, on a miss, by
its relabelling in root-refinement order, each key one int that spells
a labelled graph with its n (see canon._memo_key); equal keys mean
isomorphic graphs, so each root-order key is searched once per batch,
and a graph whose first key is stored is not refined.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional

from .canon import canonical_form
from .graph import Graph, GraphError, _check_vertex_count, extensions
from .graph6 import encode_graph6

MAX_GENERATE_N = 9  # desk-scale limit; 274668 classes at n=9


class Stats:
    """Per-level sink of the pipelines: they canonize through its timed
    canonical_form, and level(n, graphs) hands (n, classes, seconds,
    canon_seconds) to the row callback, then restarts both clocks."""

    def __init__(self, row: Callable[[int, int, float, float], None]):
        self._row = row
        self._canon_seconds = 0.0
        self._start = time.perf_counter()

    def canonical_form(self, g: Graph, memo: Optional[dict] = None) -> Graph:
        t0 = time.perf_counter()
        c = canonical_form(g, memo)
        self._canon_seconds += time.perf_counter() - t0
        return c

    def level(self, n: int, graphs: list[Graph]) -> None:
        self._row(n, len(graphs), time.perf_counter() - self._start,
                  self._canon_seconds)
        self._canon_seconds = 0.0
        self._start = time.perf_counter()


def reduce_classes(graphs: Iterable[Graph],
                   stats: Optional[Stats] = None) -> list[Graph]:
    """The reduce step: canonize each graph, through a stats sink's timed
    canonical_form when one is given, with one memo for the batch, and
    sort the classes by graph6 encoding.

    graphs is consumed lazily, so a generator is reduced without ever
    holding all of its graphs at once.  The memo is the class table:
    each form canonical_form returns is stored in it, and no other, so
    only its distinct values are encoded."""
    canon = canonical_form if stats is None else stats.canonical_form
    memo = {}
    for g in graphs:
        canon(g, memo)
    return sorted(set(memo.values()), key=encode_graph6)


def extend_and_reduce(graphs: Iterable[Graph],
                      keep: Optional[Callable[[Graph], bool]] = None,
                      stats: Optional[Stats] = None) -> list[Graph]:
    """One extend-test-reduce step: all one-vertex extensions of the given
    graphs, filtered by keep, then reduced.  They may be any graphs: each
    child is canonized, so the output classes depend only on the input
    classes.  The caller, which knows n, closes the level."""
    return reduce_classes((h for g in graphs for h in extensions(g)
                           if keep is None or keep(h)), stats)


def grow(n: int, keep: Optional[Callable[[Graph], bool]] = None,
         stats: Optional[Stats] = None) -> list[Graph]:
    """The level loop: extend_and_reduce n times from the empty graph,
    with a stats sink getting one row per vertex count 1..n."""
    acc = [Graph.empty(0)]
    for i in range(1, n + 1):
        acc = extend_and_reduce(acc, keep, stats)
        if stats is not None:
            stats.level(i, acc)
    return acc


def all_nonisomorphic(n: int, stats: Optional[Stats] = None) -> list[Graph]:
    """One representative per isomorphism class of n-vertex graphs, sorted
    by graph6 encoding.  A stats sink gets one row per vertex count 1..n."""
    _check_vertex_count(n)
    if n > MAX_GENERATE_N:
        raise GraphError(
            f"n={n} beyond the practical generation limit {MAX_GENERATE_N}")
    return grow(n, stats=stats)


def dedup_canonical(graphs: Iterable[Graph]) -> list[Graph]:
    """One canonical representative per isomorphism class in the input,
    sorted by graph6 encoding (shortg analog)."""
    graphs = list(graphs)
    if len({g.n for g in graphs}) > 1:
        raise GraphError("mixed vertex counts in dedup input")
    return reduce_classes(graphs)
