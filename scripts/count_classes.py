#!/usr/bin/env python3
"""Count isomorphism classes of graphs on n vertices by extend-and-reduce,
printing one row per size with timing.  A quick sanity check for the
canonizer: the counts must match the known sequence 1, 1, 2, 4, 11, 34,
156, 1044, ...
"""

import argparse
import time

from gcanon.generate import MAX_GENERATE_N, extend_and_reduce
from gcanon.graph import Graph


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=7,
                    help=f"largest size to count (cap {MAX_GENERATE_N})")
    args = ap.parse_args()
    if not 0 <= args.max_n <= MAX_GENERATE_N:
        ap.error(f"--max-n must be in 0..{MAX_GENERATE_N}")

    acc = [Graph.empty(0)]
    print("n\tclasses\tseconds")
    for n in range(1, args.max_n + 1):
        t0 = time.perf_counter()
        acc = extend_and_reduce(acc)
        print(f"{n}\t{len(acc)}\t{time.perf_counter() - t0:.2f}")


if __name__ == "__main__":
    main()
