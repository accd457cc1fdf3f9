#!/usr/bin/env python3
"""Benchmark of gcanon, measured from outside the library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from ``src/`` of the checkout this file sits in.
Load is a closed loop in this one process, on one thread: one workload pass
at a time, the next only after the previous one has ended and been checked.

``--trace 0`` reports the end-to-end metrics: the median pass wall time,
canonization latency percentiles, peak RSS and set-up time, the times at
reference speed (see reference.py and Slices).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer split of a
traced pass (see tracer.py) and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a ``{"record": ...}`` object with the run's context.  Exit status is 0
when the run completed (whether or not every check passed) and 2 when the
library cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

import reference
import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Set-ups (fresh import plus input build) before the first pass, and again
# after every pass, so that setup_s, their median, samples the whole run.
FIRST_SETUPS = 3
SETUPS_PER_PASS = 4
# A run makes at least this many passes, so that wall_s is never one pass.
MIN_PASSES = 2
# During a pass a timer signal starts a slice every SLICE_PERIOD seconds
# (see Slices): it times the reference, and on a generation workload then
# runs the canon-latency probe for PROBE_SHARE of the period.  The clock of
# the pass runs at the mean reference speed of the last SPEED_SLICES
# slices: one sample of the reference is too short to tell the host's
# speed by itself.
SLICE_PERIOD = 0.2
SPEED_SLICES = 5
PROBE_SHARE = 0.1
PROBE_BATCH = 8


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    if len(xs) < 2:
        return median(xs)
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def calibrate():
    """Seconds for the reference work (see reference.py), the median of 100
    tries.  Context for reading a run from a slow host; not a metric."""
    return statistics.median(reference.sample() for _ in range(100))


def git_sha(root):
    """The checked-out commit, read from .git without running git."""
    gitdir = os.path.join(root, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(gitdir, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(gitdir, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(wl, seed, quick):
    """Import the library afresh and build the inputs; returns the library
    namespace, the inputs and the seconds both took."""
    t0 = time.perf_counter()
    lib = workloads.import_library(SRC)
    state = wl.setup(lib, seed, quick)
    return lib, state, time.perf_counter() - t0


def one_pass(wl, lib, state, tr=None, slices=None):
    """Run and gate one pass.  Returns (wall, check, latencies, output); the
    output is None when the pass raised.  With a tracer the pass runs with
    the wrappers installed, and the gate runs after they are removed.  With
    slices, they run during the pass, and the pass and the latencies the
    workload measures are timed on their clock, at reference speed."""
    clock = slices.clock if slices is not None else time.perf_counter
    # Collect the garbage of earlier passes and set-ups first, so that what
    # the pass allocates on top of it does not depend on their number.
    gc.collect()
    with slices or contextlib.nullcontext():
        t0 = clock()
        try:
            if tr is not None:
                with tr:
                    out = tr.root(wl.run, lib, state, True)
            else:
                out = wl.run(lib, state, clock=clock)
            err = None
        except Exception as e:  # a failed operation, reported by the gate
            out, err = None, e
        wall = clock() - t0
    if err is not None:
        chk = workloads.Check()
        chk.op(False, f"{wl.name}: pass raised {err!r}")
        return wall, chk, [], None
    chk, latencies = wl.check(lib, state, out)
    return wall, chk, latencies, out


class Latencies:
    """Decode-canonize-encode seconds per input.  An input measured several
    times in a run counts once, at the median of its measurements, so that
    one measurement that a slow stretch of the host hit does not move it."""

    def __init__(self):
        self.times = {}
        self.samples = 0

    def add(self, keys, latencies):
        for key, dt in zip(keys, latencies):
            if dt is not None:
                self.times.setdefault(key, []).append(dt)
                self.samples += 1

    def per_input(self):
        return [statistics.median(ts) for ts in self.times.values()]


class Slices:
    """Work done in slices that a timer signal starts every SLICE_PERIOD
    seconds of a pass, and once more as the pass begins and as it ends.

    Each slice first times the reference (see reference.py).  ``clock``
    reads seconds at reference speed: the time spent outside slices, each
    stretch between two slices scaled by the mean reference speed of the
    last SPEED_SLICES slices before it.  On a generation workload the slice
    then runs the canon-latency probe for PROBE_SHARE of the period: it
    decodes, canonizes and encodes probe inputs, cycling through them,
    times each at the speed the slice has just measured, and gates each
    batch as it ends.  The probe runs during the pass, not between passes,
    so that its inputs are timed in the same stretches of the host's speed
    as the pass.  The library keeps no module state, so a slice may run in
    the middle of a pass.  The cyclic garbage collector is off during a
    slice, so that a collection of the pass's garbage does not land in
    it."""

    def __init__(self, lib, probe, total):
        self.lib, self.probe, self.total = lib, probe, total
        self.cursor = 0
        self.speeds = []  # reference speed of each slice of the last pass
        self.recent = collections.deque(maxlen=SPEED_SLICES)
        self.probed = []  # (probe input index, seconds) of the last pass
        self._busy = False
        self._handler = None
        # (seconds in slices, time outside slices at the last slice, clock
        # at the last slice, speed measured then), read and replaced whole.
        self._state = (0.0, time.perf_counter(), 0.0, 1.0)

    def clock(self):
        spent, mark, at, speed = self._state
        return at + (time.perf_counter() - spent - mark) * speed

    def slice(self, *_signal):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        spent, _, _, speed = self._state
        mark, at = t0 - spent, self.clock()
        enabled = gc.isenabled()
        gc.disable()
        try:
            own = reference.speed(reference.sample())
            self.speeds.append(own)
            self.recent.append(own)
            speed = statistics.fmean(self.recent)
            while (self.probe and
                   time.perf_counter() - t0 < PROBE_SHARE * SLICE_PERIOD):
                idx = [(self.cursor + i) % len(self.probe)
                       for i in range(PROBE_BATCH)]
                self.cursor += PROBE_BATCH
                batch = [self.probe[i] for i in idx]
                expect = {key: workloads.atom_digest(key) for key, _ in batch}
                rows = workloads.canon_stream(
                    self.lib, batch,
                    clock=lambda: time.perf_counter() * own)
                chk, latencies = workloads.check_canon_rows(self.lib, rows,
                                                            expect)
                self.total.add(chk)
                self.probed += zip(idx, latencies)
        finally:
            if enabled:
                gc.enable()
            self._state = (spent + time.perf_counter() - t0, mark, at,
                           speed)
            self._busy = False

    def __enter__(self):
        self.speeds, self.probed = [], []
        self.slice()
        self._handler = signal.signal(signal.SIGALRM, self.slice)
        signal.setitimer(signal.ITIMER_REAL, SLICE_PERIOD, SLICE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.slice()
        return False


def timed_run(wl, lib, state, seconds, total, resetup):
    """Untraced passes for about ``seconds``: after ``MIN_PASSES``, another
    pass starts while at least half of one still fits.  Slices run during
    each pass, and the pass and the latencies measured during it are timed
    at reference speed.  After each pass: ``SETUPS_PER_PASS`` timed
    set-ups."""
    walls, speeds, acc = [], [], Latencies()
    sl = Slices(lib, state.probe, total)
    start = time.perf_counter()
    for passes in itertools.count(1):
        t0 = time.perf_counter()
        # The output is dropped at once, so it is not alive during the
        # set-ups or the next pass.
        wall, chk, lat = one_pass(wl, lib, state, slices=sl)[:3]
        total.add(chk)
        acc.add(range(len(lat)), lat)
        if sl.probed:
            acc.add(*zip(*sl.probed))
        if chk.failed == 0:
            walls.append(wall)
        speeds.append(statistics.fmean(sl.speeds))
        step = time.perf_counter() - t0
        for _ in range(SETUPS_PER_PASS):
            resetup()
        if (passes >= MIN_PASSES
                and time.perf_counter() - start + step / 2 > seconds):
            break
    per_input = acc.per_input()
    metrics = {
        "wall_s": (median(walls), "s"),
        "canon_ms.p50": (median(per_input) * 1e3, "ms"),
        "canon_ms.p90": (p90(per_input) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {"passes": len(walls), "walls_s": walls, "pass_speeds": speeds,
              "canon_inputs": len(per_input), "canon_samples": acc.samples}
    return metrics, detail


def layer_metrics(tr, k, untraced, traced, counts, fail_ratio):
    """Per-layer metrics of one traced pass, averaged over k passes."""
    def span(name):
        st = tr.spans.get(name)
        return (st.calls / k, st.total / k) if st else (0.0, 0.0)

    def counter(name):
        return tr.counters.get(name, 0) / k

    ext_n, ext_s = span("graph.extensions")
    flt_n, flt_s = span("ramsey.filter")
    enc_calls, enc_s = span("ramsey.encode")
    dec_n, dec_s = span("ramsey.decode")
    can_n, can_s = span("canon")
    root_calls, root_s = span("canon.refine_root")
    g6e_n, g6e_s = span("graph6.encode")
    g6d_n, g6d_s = span("graph6.decode")
    red_calls, red_s = span("generate.reduce")
    red = tr.spans.get("generate.reduce")
    sat_calls, sat_s = span("sat.solve_all")
    models = counter("sat.models")
    root = tr.spans.get(tr.ROOT)
    m = {
        "graph.extensions.n": (ext_n, "count"),
        "graph.extensions.s": (ext_s, "s"),
        "ramsey.filter.n": (flt_n, "count"),
        "ramsey.filter.s": (flt_s, "s"),
        "ramsey.filter.keep_ratio": (
            counter("ramsey.filter.kept") / flt_n if flt_n else 0.0, "ratio"),
        "ramsey.encode.s": (enc_s, "s"),
        "ramsey.encode.clauses": (counter("ramsey.encode.clauses"), "count"),
        "ramsey.decode.n": (dec_n, "count"),
        "ramsey.decode.s": (dec_s, "s"),
        "canon.n": (can_n, "count"),
        "canon.s": (can_s, "s"),
        "canon.us_per_call": (can_s / can_n * 1e6 if can_n else 0.0, "us"),
        "canon.refine_root.s": (root_s, "s"),
        "canon.search.s": (can_s - root_s if root_calls else 0.0, "s"),
        "canon.orbits": (counts.get("canon.orbits", 0) / k, "count"),
        "graph6.encode.n": (g6e_n, "count"),
        "graph6.encode.s": (g6e_s, "s"),
        "graph6.decode.n": (g6d_n, "count"),
        "graph6.decode.s": (g6d_s, "s"),
        "generate.reduce.s": (red_s, "s"),
        "generate.reduce.self_s": (red.self_time / k if red else 0.0, "s"),
        "generate.reduce.classes_ratio": (
            counter("generate.reduce.classes") / can_n
            if red_calls and can_n else 0.0, "ratio"),
        "sat.solve_all.s": (sat_s, "s"),
        "sat.models": (models, "count"),
        "sat.us_per_model": (sat_s / models * 1e6 if models else 0.0, "us"),
        "trace.wall_s": (median(traced), "s"),
        "trace.overhead_s": (median(traced) - median(untraced), "s"),
        "trace.root_self_s": (root.self_time / k if root else 0.0, "s"),
        "fail_ratio": (fail_ratio, "ratio"),
    }
    absent = sorted({span for _, _, span, _ in tracing.TARGETS
                     if span not in tr.spans or not tr.spans[span].calls})
    return m, absent


def traced_run(wl, lib, state, seconds, total):
    """Pairs of one untraced and one traced pass for ``seconds``.  The
    traced pass must give the same output as the untraced one."""
    untraced, traced, counts = [], [], {}
    tr = tracing.Tracer(lib)
    start = time.perf_counter()
    while True:
        wall, chk, _, out = one_pass(wl, lib, state)
        total.add(chk)
        untraced.append(wall)
        twall, tchk, _, tout = one_pass(wl, lib, state, tr)
        total.add(tchk)
        traced.append(twall)
        if out is not None and tout is not None:
            same = wl.fingerprint(lib, out) == wl.fingerprint(lib, tout)
            total.op(same, f"{wl.name}: traced output differs from untraced")
            for key, v in wl.counts(tout).items():
                counts[key] = counts.get(key, 0) + v
        if time.perf_counter() - start + wall + twall > seconds:
            break
    k = len(traced)
    fail_ratio = total.failed / total.attempted
    metrics, absent = layer_metrics(tr, k, untraced, traced, counts,
                                    fail_ratio)
    detail = {"pairs": k, "untraced_walls_s": untraced,
              "traced_walls_s": traced, "missing_targets": tr.missing,
              "absent_layers": absent,
              "broken_counters": sorted(tr.broken_counters),
              "spans": {name: {"calls": st.calls / k, "total_s": st.total / k,
                               "self_s": st.self_time / k}
                        for name, st in sorted(tr.spans.items())}}
    return metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, for the self-test")
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    if not os.path.isdir(os.path.join(SRC, "gcanon")):
        print(f"error: no gcanon package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    setup_times, setup_speeds = [], []

    def resetup():
        # The reference is timed just before and just after the set-up.
        before = reference.sample()
        lib, state, dt = setup(wl, args.seed, args.quick)
        after = reference.sample()
        setup_times.append(dt)
        setup_speeds.append((reference.speed(before)
                             + reference.speed(after)) / 2)
        return lib, state

    try:
        for _ in range(FIRST_SETUPS):
            lib, state = resetup()
    except workloads.SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    calib_before = calibrate()
    total = workloads.Check()
    if args.trace:
        metrics, detail = traced_run(wl, lib, state, args.seconds, total)
    else:
        metrics, detail = timed_run(wl, lib, state, args.seconds, total,
                                    resetup)
        metrics["setup_s"] = (median([t * v for t, v in zip(setup_times,
                                                             setup_speeds)]),
                              "s")
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "calibration_s": [calib_before, calibrate()],
        "setup_times_s": setup_times, "setup_speeds": setup_speeds,
        "failures": total.reasons, **detail,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
