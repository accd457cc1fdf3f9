#!/usr/bin/env python3
"""The canon-latency probe pool of the generation workloads.

A generation pass canonizes thousands of graphs inside the library, where
the benchmark cannot time them one by one without tracing.  So during each
untraced pass the benchmark times a probe (see run.py): decode, canonize
and encode inputs drawn from ``probe_pool.txt``.  The pool holds, per
workload, a uniform sample of the graphs that the workload's own pass
hands to ``canonical_form``, each with its canonical atom, so that the
probe's latency percentiles follow the pass's mix of sizes: on
``ramsey_gt`` mostly the extensions on 8 to 10 vertices that the filter
kept, not the pass's single output class on 13.

Regenerate the pool (about 30 s) from the root of a checkout with

    python3 perfbench/probe_pool.py

which runs one pass of each generation workload at its full size with a
recorder on ``canonical_form``, checks the pass with the workload's gate,
and samples ``SIZE`` calls with the fixed generator seed ``SEED``.

Each line of the file is ``workload input_atom canonical_atom``; lines
starting with ``#`` are comments.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "probe_pool.txt")
SIZE = 1024
SEED = 0


def load(workload):
    """The pool of one workload, as ``(input_atom, canonical_atom)`` pairs
    in file order."""
    pool = []
    with open(PATH) as f:
        for line in f:
            if line.startswith("#"):
                continue
            name, atom, canonical = line.split()
            if name == workload:
                pool.append((atom, canonical))
    return pool


def record(lib, wl, state):
    """Run one pass with a recorder on ``canonical_form`` in the modules
    that call it; returns the pass output and every call's
    ``(input_atom, canonical_atom)``."""
    encode = lib.graph6.encode_graph6
    calls = []

    def recording(fn):
        def canonical_form(g):
            c = fn(g)
            calls.append((encode(g), encode(c)))
            return c
        return canonical_form

    saved = [(m, m.canonical_form) for m in (lib.generate, lib.ramsey)]
    for module, fn in saved:
        module.canonical_form = recording(fn)
    try:
        out = wl.run(lib, state)
    finally:
        for module, fn in saved:
            module.canonical_form = fn
    return out, calls


def main():
    src = os.path.join(os.path.dirname(HERE), "src")
    sys.path.insert(0, src)
    import workloads

    lib = workloads.import_library(src)
    lines = [f"# generated by: python3 perfbench/probe_pool.py "
             f"(SIZE={SIZE}, SEED={SEED})\n"]
    for wl in workloads.WORKLOADS.values():
        if not isinstance(wl, workloads.Generation):
            continue
        state = wl.pass_state(lib, False)
        out, calls = record(lib, wl, state)
        chk, _ = wl.check(lib, state, out)
        if chk.failed:
            sys.exit(f"{wl.name}: the recorded pass fails its gate: "
                     f"{chk.reasons}")
        picked = sorted(random.Random(SEED).sample(range(len(calls)), SIZE))
        lines.append(f"# {wl.name}: {SIZE} of {len(calls)} calls\n")
        lines += [f"{wl.name} {calls[i][0]} {calls[i][1]}\n" for i in picked]
        print(f"{wl.name}: sampled {SIZE} of {len(calls)} calls", flush=True)
    with open(PATH, "w") as f:
        f.writelines(lines)


if __name__ == "__main__":
    main()
