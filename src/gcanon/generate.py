"""Isomorph-free generation and canonical deduplication.

Native analogs of the gtools programs geng (all non-isomorphic graphs on n
vertices) and shortg (remove isomorphic duplicates), built on the
extend-and-reduce loop: extend every canonical graph by one vertex in all
2^n ways, filter, canonize, sort, dedup; a Stats sink times each level.
Each reduce step hands canonical_form a memo of its own, so children that
agree up to the root refinement are searched once, and no state outlives
the call.
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


def sort_canonical(graphs: Iterable[Graph]) -> list[Graph]:
    """The reduce step: drop exact duplicates, then sort by graph6 encoding.

    graphs is consumed lazily, so a generator of canonical forms is reduced
    without ever holding all of them at once.  Duplicates are keyed by
    rows (whose length is n), so only distinct graphs are encoded; the
    first copy is kept, so that its rows tuple is also the key."""
    seen = {}
    for g in graphs:
        seen.setdefault(g.rows, g)
    return sorted(seen.values(), key=encode_graph6)


def extend_and_reduce(graphs: Iterable[Graph],
                      keep: Optional[Callable[[Graph], bool]] = None,
                      stats: Optional[Stats] = None) -> list[Graph]:
    """One extend-test-reduce step: all one-vertex extensions of the given
    graphs, filtered by keep, canonized, sorted, deduplicated.  They may be
    any graphs: each child is canonized, so the output classes depend only
    on the input classes; one memo serves the step's children.  A stats
    sink canonizes; the caller, which knows n, closes the level."""
    canon = canonical_form if stats is None else stats.canonical_form
    memo = {}
    return sort_canonical(canon(h, memo) for g in graphs
                          for h in extensions(g) if keep is None or keep(h))


def all_nonisomorphic(n: int, stats: Optional[Stats] = None) -> list[Graph]:
    """One representative per isomorphism class of n-vertex graphs, sorted
    by graph6 encoding.  A stats sink gets one row per vertex count 1..n."""
    _check_vertex_count(n)
    if n > MAX_GENERATE_N:
        raise GraphError(
            f"n={n} beyond the practical generation limit {MAX_GENERATE_N}")
    acc = [Graph.empty(0)]
    for i in range(1, n + 1):
        acc = extend_and_reduce(acc, stats=stats)
        if stats is not None:
            stats.level(i, acc)
    return acc


def dedup_canonical(graphs: Iterable[Graph]) -> list[Graph]:
    """One canonical representative per isomorphism class in the input,
    sorted by graph6 encoding (shortg analog)."""
    graphs = list(graphs)
    if len({g.n for g in graphs}) > 1:
        raise GraphError("mixed vertex counts in dedup input")
    memo = {}
    return sort_canonical(canonical_form(g, memo) for g in graphs)
