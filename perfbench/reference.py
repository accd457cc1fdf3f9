"""The reference: a fixed piece of pure-Python work that tells how fast the
host runs Python at a given moment.

The benchmark's host is shared, and its speed swings by up to 2x within
seconds: a run of 24 s may spend most of its time in a fast or a slow
stretch, which moves an absolute time by tens of percent from run to run.
So the benchmark times this work in short slices beside the library's work
and reports each time at reference speed: the measured seconds times
``REFERENCE_S / t``, where ``t`` is the reference's time measured during
them.  Slowdowns on such a host hit code that allocates and hashes harder
than a bare arithmetic loop.  So the work is what the library's own code
is made of: dicts of lists keyed by integers, tuples in a set, small
objects sorted by a key and updated, and short-lived dicts, lists and
tuples.  Its time moves with the library's: over passes of 3 to 14 s on
a host whose speed swung by 1.6x, a pass's time at reference speed
varied by 3-4% (coefficient of variation), against 9-16% for its
measured time.

The reference lives in the benchmark, not in the library, so a change to
the library never changes it.  Run ``python3 perfbench/reference.py`` to
print its time on the current host.
"""

from __future__ import annotations

import gc
import statistics
import time

# Seconds one call of ``work`` takes on the host the seed baseline was
# measured on, in its fast stretches (Intel Xeon, 2 vCPUs, Python 3.11).
# It only scales the reported values; any fixed number would do.
REFERENCE_S = 0.0008


class _Cell:
    __slots__ = ("vertex", "colour")

    def __init__(self, vertex, colour):
        self.vertex = vertex
        self.colour = colour


def work():
    """One unit of reference work; returns a checksum of it."""
    groups = {}
    for i in range(1200):
        groups.setdefault((i * 7919) % 61, []).append(i)
    keys = {tuple(v[:3]) for v in groups.values()}
    cells = [_Cell(v, (v * 37) % 11) for v in range(400)]
    for _ in range(3):
        cells.sort(key=lambda c: (c.colour, -c.vertex))
        for c in cells:
            c.colour = (c.colour * 5 + c.vertex) % 13
    records = [{"edge": (i, i + 1), "cell": [i] * 3} for i in range(600)]
    return len(keys) + len(records) + cells[0].vertex


def sample():
    """Seconds for one call of ``work``, with the cyclic garbage collector
    off, so that a collection of other garbage does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed(seconds):
    """Host speed relative to the reference, from one sample's seconds."""
    return REFERENCE_S / seconds


if __name__ == "__main__":
    times = sorted(sample() for _ in range(2000))
    print(f"reference work: min {times[0] * 1e3:.4f} ms, "
          f"p10 {times[200] * 1e3:.4f} ms, "
          f"median {statistics.median(times) * 1e3:.4f} ms")
