#!/usr/bin/env python3
"""Self-test of the benchmark on tiny sizes; runs in well under a minute.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Covers the quick mode of every workload (geng n=5 gives 34 classes,
gt (3,5;6) gives 32, cg (3,5;5) gives 13, a 3-input canon_sym), the gate
(a dropped class or a corrupted atom is counted as a failure), the tracer
(missing targets, restoring every wrapper, spans that account for the
traced wall time), the slices that run during a pass (the reference and
the canon-latency probe) and the JSON result line against BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

QUICK = {"geng8": [34], "ramsey_gt": [32], "ramsey_cg": [13]}


def run_benchmark(workload, trace, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


class Spec(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(workloads.WORKLOADS))
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = []
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class Gate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lib = workloads.import_library(SRC)

    def pass_of(self, name):
        wl = workloads.WORKLOADS[name]
        state = wl.setup(self.lib, 7, True)
        return wl, state, wl.run(self.lib, state)

    def test_quick_counts_pass(self):
        for name, counts in QUICK.items():
            wl, state, out = self.pass_of(name)
            self.assertEqual([len(gs) for gs in out], counts)
            chk, _ = wl.check(self.lib, state, out)
            self.assertEqual((chk.attempted, chk.failed), (1, 0), name)

    def test_dropped_class_is_a_failure(self):
        for name in QUICK:
            wl, state, out = self.pass_of(name)
            chk, _ = wl.check(self.lib, state, [out[0][:-1]])
            self.assertEqual((chk.attempted, chk.failed), (1, 1), name)
            self.assertIn("classes", chk.reasons[0])

    def test_swapped_class_is_a_failure(self):
        wl, state, out = self.pass_of("geng8")
        gs = list(out[0])
        gs[0] = gs[1]  # same count, one class twice
        chk, _ = wl.check(self.lib, state, [gs])
        self.assertEqual(chk.failed, 1)

    def test_canon_sym_gate(self):
        wl, state, rows = self.pass_of("canon_sym")
        self.assertGreater(len(rows), 3)
        chk, lat = wl.check(self.lib, state, rows)
        self.assertEqual((chk.attempted, chk.failed), (len(rows), 0))
        self.assertEqual(len(lat), len(rows))
        # a dropped input
        chk, _ = wl.check(self.lib, state, rows[1:])
        self.assertEqual((chk.attempted, chk.failed), (len(rows), 1))
        # a wrong canonical atom for one relabeling of a family
        key, g, r, atom, dt, err = rows[-1]
        bad = rows[:-1] + [(key, g, r, atom[:-1] + "?", dt, err)]
        chk, _ = wl.check(self.lib, state, bad)
        self.assertGreaterEqual(chk.failed, 1)

    def test_probe_pool_follows_the_pass(self):
        import probe_pool
        canonical_form = self.lib.canon.canonical_form
        encode = self.lib.graph6.encode_graph6
        decode = self.lib.graph6.decode_graph6
        for name in QUICK:
            pool = probe_pool.load(name)
            self.assertEqual(len(pool), probe_pool.SIZE, name)
            for atom, canonical in pool[::64]:
                self.assertEqual(encode(canonical_form(decode(atom))),
                                 canonical, name)
        # The gt pass canonizes kept extensions of every level, not only
        # its one output class on 13 vertices.
        sizes = {decode(a).n for a, _ in probe_pool.load("ramsey_gt")}
        self.assertGreaterEqual(len(sizes), 5)
        wl, state, _ = self.pass_of("ramsey_gt")
        self.assertEqual(len(state.probe), workloads.QUICK_PROBE_INPUTS)

    def test_slices_run_during_a_pass(self):
        import run
        wl, state, _ = self.pass_of("geng8")
        total = workloads.Check()
        sl = run.Slices(self.lib, state.probe, total)

        def slow_run(lib, st, clock):
            time.sleep(0.5)
            return wl.run(lib, st)

        slow = SimpleNamespace(name=wl.name, run=slow_run, check=wl.check)
        t0 = time.perf_counter()
        wall, chk, _, _ = run.one_pass(slow, self.lib, state, slices=sl)
        elapsed = time.perf_counter() - t0
        self.assertEqual(chk.failed, 0)
        # A slice as the pass begins, one every SLICE_PERIOD and one as it
        # ends, each with a reference speed; the probe ran in them and
        # passed its gate.
        self.assertGreaterEqual(len(sl.speeds), 4)
        self.assertTrue(all(v > 0 for v in sl.speeds))
        self.assertGreater(len(sl.probed), 0)
        self.assertEqual((total.attempted, total.failed), (len(sl.probed), 0))
        # The pass is timed at reference speed, without the slices' time.
        spent = sl._state[0]
        self.assertGreater(spent, 0)
        self.assertAlmostEqual(elapsed - spent, 0.5, delta=0.1)
        self.assertAlmostEqual(wall / statistics.fmean(sl.speeds), 0.5,
                               delta=0.2)
        # The timer and the handler are put back.
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)

    def test_slices_leave_canon_latencies_alone(self):
        import reference
        import run

        def slow_sample(sample=reference.sample):
            time.sleep(0.01)
            return sample()

        wl = workloads.WORKLOADS["canon_sym"]
        state = wl.setup(self.lib, 7, True)
        state.stream = state.stream * 20
        sl = run.Slices(self.lib, state.probe, workloads.Check())
        saved = run.SLICE_PERIOD, reference.sample
        run.SLICE_PERIOD, reference.sample = 0.005, slow_sample
        try:
            t0 = time.perf_counter()
            wall, chk, lat, _ = run.one_pass(wl, self.lib, state, slices=sl)
            elapsed = time.perf_counter() - t0
        finally:
            run.SLICE_PERIOD, reference.sample = saved
        self.assertEqual(chk.failed, 0)
        # The slices took most of the pass, and none of their time is in
        # the latencies measured inside it.
        self.assertGreater(sl._state[0], elapsed / 2)
        speed = max(sl.speeds)
        self.assertLess(sum(lat), (elapsed - sl._state[0]) * speed)

    def test_families_are_distinct(self):
        pins = workloads.CanonSym.pins
        self.assertEqual(len(set(pins.values())), len(pins))
        import families
        fams = families.all_families()
        self.assertEqual(len(fams), 52)
        self.assertTrue(all(f.n <= 62 for f in fams))
        self.assertTrue(all(f.name in pins for f in fams))


class Tracing(unittest.TestCase):
    def test_missing_targets_are_reported(self):
        lib = SimpleNamespace(**{m: SimpleNamespace()
                                 for m in workloads.MODULES})
        lib.sat.solve_all = sorted
        tr = tracing.Tracer(lib)
        for _ in range(2):  # a traced run installs once per traced pass
            with tr:
                self.assertIsNot(lib.sat.solve_all, sorted)
                self.assertEqual(lib.sat.solve_all([2, 1]), [1, 2])
            self.assertIs(lib.sat.solve_all, sorted)
        self.assertEqual(len(tr.missing), len(tracing.TARGETS) - 1)
        self.assertEqual(len(set(tr.missing)), len(tr.missing))
        self.assertEqual(tr.counters["sat.models"], 4)

    def test_wrappers_restored_and_output_unchanged(self):
        lib = workloads.import_library(SRC)
        before = {(m, a): getattr(getattr(lib, m), a)
                  for m, a, _, _ in tracing.TARGETS}
        wl = workloads.WORKLOADS["ramsey_gt"]
        state = wl.setup(lib, 7, True)
        plain = wl.run(lib, state)
        tr = tracing.Tracer(lib)
        with tr:
            traced = tr.root(wl.run, lib, state, True)
        for (m, a), fn in before.items():
            self.assertIs(getattr(getattr(lib, m), a), fn)
        self.assertEqual(wl.fingerprint(lib, plain),
                         wl.fingerprint(lib, traced))
        self.assertEqual(tr.missing, [])
        # Counts repeat exactly: sum over levels of classes * 2^(n-1).
        self.assertEqual(tr.spans["graph.extensions"].calls, 563)
        self.assertEqual(tr.spans["ramsey.filter"].calls, 563)
        # The children of the reduce step and the root's self time cover
        # the root span.
        s = tr.spans
        covered = (s["graph.extensions"].total + s["ramsey.filter"].total
                   + s["canon"].total + s["graph6.encode"].total
                   + s["generate.reduce"].self_time + s["pass"].self_time)
        self.assertAlmostEqual(covered, s["pass"].total, delta=1e-6)


class Command(unittest.TestCase):
    def check_result(self, proc, metrics):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        record, res = result_of(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], record["failures"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = res["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
        for key in ("python", "nproc", "git_sha", "calibration_s"):
            self.assertIn(key, record)
        return record, res

    def test_end_to_end_metrics(self):
        for name in workloads.WORKLOADS:
            _, res = self.check_result(run_benchmark(name, 0),
                                       SPEC["end_to_end"])
            for m, v in res["metrics"].items():
                self.assertGreater(v["value"], 0, (name, m))

    def test_per_layer_metrics(self):
        expect = {"geng8": {"graph.extensions.n": 219, "canon.n": 219},
                  "ramsey_gt": {"ramsey.filter.n": 563},
                  "ramsey_cg": {"sat.models": 18},
                  "canon_sym": {"graph6.decode.n": 9, "canon.orbits": 69}}
        for name, counts in expect.items():
            record, res = self.check_result(run_benchmark(name, 1),
                                            SPEC["per_layer"])
            for key, value in counts.items():
                self.assertEqual(res["metrics"][key]["value"], value,
                                 (name, key))
            self.assertEqual(res["metrics"]["fail_ratio"]["value"], 0)
            self.assertEqual(record["missing_targets"], [])

    def test_refuses_without_library(self):
        bare = os.path.join(HERE, ".selftest")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns(".selftest",
                                                          "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = run_benchmark("geng8", 0, cwd=bare,
                                 script=os.path.join("perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
