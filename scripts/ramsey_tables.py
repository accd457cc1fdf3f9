#!/usr/bin/env python3
"""Reproduce the (3,5;n) class-count tables with both pipelines.

Prints one row per n: the class count, total wall time, and the time spent
in canonization.  The rows come from the pipelines themselves, through a
gcanon.generate.Stats sink, and are printed as each size completes.  The
generate-test-reduce pipeline runs to n = 14 (where the count reaches 0);
the constrain-generate pipeline is capped by --cg-max-n because each size
is an independent SAT enumeration.
"""

import argparse

from gcanon.generate import Stats
from gcanon.ramsey import RamseyInstance, gen_ramsey_cg, gen_ramsey_gt


def print_row(n, classes, seconds, canon_seconds):
    print(f"{n}\t{classes}\t{seconds:.2f}\t{canon_seconds:.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s", type=int, default=3)
    ap.add_argument("--t", type=int, default=5)
    ap.add_argument("--max-n", type=int, default=14)
    ap.add_argument("--cg-max-n", type=int, default=11)
    args = ap.parse_args()

    print(f"generate-test-reduce ({args.s},{args.t};n)")
    print("n\tclasses\ttotal_s\tcanon_s")
    gen_ramsey_gt(RamseyInstance(args.s, args.t, args.max_n),
                  stats=Stats(print_row))

    print(f"\nconstrain-generate ({args.s},{args.t};n)")
    print("n\tclasses\ttotal_s\tcanon_s")
    stats = Stats(print_row)
    for n in range(1, args.cg_max_n + 1):
        gen_ramsey_cg(RamseyInstance(args.s, args.t, n), stats=stats)


if __name__ == "__main__":
    main()
