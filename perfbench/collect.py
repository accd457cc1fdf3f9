#!/usr/bin/env python3
"""Run the benchmark the way its baseline is taken, and summarise it.

Usage, from the root of a checkout:

    python3 perfbench/collect.py [--workloads NAME ...] [--out FILE]

Runs ``perfbench/run.py`` one run at a time, each for BENCHMARK.json's
``run_seconds``: set A (seeds 1-10 of every workload), then set B (seeds
11-20), then the traced runs (``--trace 1``, seeds 1 and 2).  For every
end-to-end metric it prints each set's median, quartiles and the spread
between the quartiles as a share of the median -- the statistic a bound in
BENCHMARK.json is checked against -- and the change of set B's median from
set A's.  ``--out`` writes all of it, every run's record and result line
included, as JSON; ``baseline.json`` in this directory is that file for
the seed commit.  Without ``--workloads`` every workload runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = {"A": range(1, 11), "B": range(11, 21)}
TRACED_SEEDS = (1, 2)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def run_one(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    run = {"seed": seed, "elapsed_s": elapsed,
           "record": json.loads(lines[-2])["record"],
           "result": json.loads(lines[-1])}
    res = run["result"]
    vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
    print(f"{workload} trace={trace} seed={seed} took={elapsed:.1f}s "
          f"correct={res['correct']} failed={res['failed']}/"
          f"{res['attempted']} {vals}", flush=True)
    return run


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--out")
    args = ap.parse_args()

    sets = {}
    for label, seeds in SETS.items():
        sets[label] = {}
        for wl in args.workloads:
            runs = [run_one(wl, seed, 0) for seed in seeds]
            summary = {m["name"]: dict(summarise(
                [r["result"]["metrics"][m["name"]]["value"] for r in runs]),
                unit=m["unit"]) for m in SPEC["end_to_end"]}
            for name, s in summary.items():
                print(f"  set {label} {wl} {name}: median={s['median']:.4g} "
                      f"{s['unit']} q1={s['q1']:.4g} q3={s['q3']:.4g} "
                      f"spread={s['spread']:.3f}", flush=True)
            sets[label][wl] = {"summary": summary, "runs": runs}
    change = {wl: {name: sets["B"][wl]["summary"][name]["median"]
                   / s["median"] - 1
                   for name, s in sets["A"][wl]["summary"].items()}
              for wl in args.workloads}
    for wl, metrics in change.items():
        print(f"  set B vs A {wl}: " + " ".join(
            f"{name}={c:+.3f}" for name, c in metrics.items()), flush=True)
    traced = {wl: [run_one(wl, seed, 1) for seed in TRACED_SEEDS]
              for wl in args.workloads}
    if args.out:
        record = sets["A"][args.workloads[0]]["runs"][0]["record"]
        report = {
            "command": " ".join(["python3", "perfbench/collect.py"]
                                + sys.argv[1:]),
            "context": {k: record[k] for k in ("python", "nproc", "git_sha")},
            "run_seconds": SPEC["run_seconds"],
            "sets": sets, "change_B_vs_A": change, "traced": traced,
        }
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
