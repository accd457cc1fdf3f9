"""Command-line surface: graph format conversion, canonization, isomorphism
testing, non-isomorphic generation, canonical dedup, and the two Ramsey
pipelines.  Line-oriented graph6 throughout for pipe composability."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import generate, graph6, ramsey, sat
from .canon import canonize, isomorphic
from .graph import (
    ADJ_LIST,
    ADJ_MATRIX,
    EDGE_LIST,
    GRAPH6_ATOM,
    GraphError,
    _check_vertex_count,
    _parse_graph,
    _render_graph,
    graph_convert,
)

FMT_NAMES = {
    "graph6": GRAPH6_ATOM,
    "adj-matrix": ADJ_MATRIX,
    "adj-list": ADJ_LIST,
    "edge-list": EDGE_LIST,
}


def _read_graph_texts(stream, fmt: str, n: int):
    """Parse stdin into per-graph values.  graph6: one atom per line, any
    stream header line skipped; adj-matrix: n rows of 0/1 characters per
    graph (blank lines separate), and for n = 0 each blank line is one
    0-vertex graph, as it is written; adj-list / edge-list: one JSON value
    per line."""
    lines = [ln.strip() for ln in stream]
    if fmt == GRAPH6_ATOM:
        return [ln for ln in lines if ln and ln != graph6.STREAM_HEADER]
    if fmt == ADJ_MATRIX:
        rows = [ln.replace(" ", "") for ln in lines if ln]
        if n == 0 and not rows:
            return [[] for _ in lines]
        if n < 1 or len(rows) % n != 0:
            raise GraphError(f"{len(rows)} matrix rows do not split into "
                             f"graphs of n={n} rows")
        for row in rows:
            if not set(row) <= {"0", "1"}:
                raise GraphError(f"matrix row {row!r} is not 0/1 digits")
        return [[[int(ch) for ch in row] for row in rows[i:i + n]]
                for i in range(0, len(rows), n)]
    try:
        return [json.loads(ln) for ln in lines if ln]
    except RecursionError:
        raise GraphError("JSON value nested too deeply") from None
    except ValueError as exc:  # bad JSON, or an int past the digit limit
        raise GraphError(f"bad JSON: {exc}") from None


def _write_graph_value(out, fmt: str, value) -> None:
    if fmt == GRAPH6_ATOM:
        out.write(value + "\n")
    elif fmt == ADJ_MATRIX:
        for row in value:
            out.write("".join(str(int(x)) for x in row) + "\n")
        out.write("\n")
    else:
        out.write(json.dumps([list(e) for e in value]) + "\n")


def _cmd_convert(args) -> int:
    src = FMT_NAMES[args.from_fmt]
    dst = FMT_NAMES[args.to_fmt]
    _check_vertex_count(args.n)
    for value in _read_graph_texts(sys.stdin, src, args.n):
        _write_graph_value(sys.stdout, dst,
                           graph_convert(args.n, src, dst, value))
    return 0


def _cmd_canon(args) -> int:
    fmt = FMT_NAMES[args.fmt]
    _check_vertex_count(args.n)
    for value in _read_graph_texts(sys.stdin, fmt, args.n):
        result = canonize(_parse_graph(args.n, fmt, value))
        out = _render_graph(fmt, result.canonic)
        if args.perm:
            perm = " ".join(str(i) for i in result.permutation.one_based())
            if fmt == GRAPH6_ATOM:
                sys.stdout.write(f"{out}\t{perm}\n")
            else:
                sys.stdout.write(f"perm {perm}\n")
                _write_graph_value(sys.stdout, fmt, out)
        else:
            _write_graph_value(sys.stdout, fmt, out)
    return 0


def _cmd_iso(args) -> int:
    g1 = graph6.decode_graph6(args.graph1)
    g2 = graph6.decode_graph6(args.graph2)
    found = isomorphic(args.n, g1, g2)
    if found is None:
        return 1
    p, _ = found
    print(" ".join(str(i) for i in p.one_based()))
    return 0


def _stats_sink(args):
    """The --stats sink, or None: one row per level, printed as it ends, of
    n, classes, level seconds and canonization seconds, tab-separated."""
    if not args.stats:
        return None
    row = "{}\t{}\t{:.2f}\t{:.2f}".format
    return generate.Stats(lambda *r: print(row(*r)))


def _cmd_geng(args) -> int:
    stats = _stats_sink(args)
    graphs = generate.all_nonisomorphic(args.n, stats=stats)
    if stats is None:
        sys.stdout.write(graph6.write_graph6_lines(graphs))
    return 0


def _cmd_shortg(args) -> int:
    graphs = generate.dedup_canonical(
        graph6.read_graph6_lines(sys.stdin.read()))
    sys.stdout.write(graph6.write_graph6_lines(graphs))
    return 0


def _cmd_ramsey(args) -> int:
    inst = ramsey.RamseyInstance(args.s, args.t, args.n)
    if args.mode == "cnf":
        _, formula = ramsey.encode_ramsey(inst)
        sys.stdout.write(sat.to_dimacs(formula))
        return 0
    stats = _stats_sink(args)
    if args.mode == "gt":
        graphs = ramsey.gen_ramsey_gt(inst, stats=stats)
    else:
        # A stats row for every size up to n, else the graphs on n; n is
        # checked against the cap before any size is solved.
        _check_vertex_count(inst.n)
        for k in range(1, args.n + 1) if stats else [args.n]:
            graphs = ramsey.gen_ramsey_cg(
                ramsey.RamseyInstance(args.s, args.t, k), stats=stats)
    if stats is None:
        sys.stdout.write(graph6.write_graph6_lines(graphs))
    return 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Hands a usage error, in any subcommand (argparse builds them with
    the parent's class), to run, which prints one error: line and exits 1.
    --help still exits 0."""

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gcanon",
        description="graph canonization, isomorph-free generation, and "
                    "Ramsey coloring search")
    sub = parser.add_subparsers(dest="cmd", required=True)
    stats = argparse.ArgumentParser(add_help=False)
    stats.add_argument("--stats", action="store_true",
                       help="print per-n count and timing rows instead of "
                            "graphs")

    p = sub.add_parser("convert", help="per-line graph format conversion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--from", dest="from_fmt", choices=FMT_NAMES, required=True)
    p.add_argument("--to", dest="to_fmt", choices=FMT_NAMES, required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("canon", help="per-line canonical form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fmt", choices=FMT_NAMES, default="graph6")
    p.add_argument("--perm", action="store_true",
                   help="also print the 1-based relabeling permutation")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("iso", help="isomorphism test on two graph6 atoms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("geng", parents=[stats],
                       help="all non-isomorphic graphs on N vertices")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_geng)

    p = sub.add_parser("shortg", help="remove isomorphic duplicates")
    p.set_defaults(func=_cmd_shortg)

    p = sub.add_parser("ramsey", parents=[stats],
                       help="Ramsey coloring pipelines")
    p.add_argument("mode", choices=["gt", "cg", "cnf"])
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_ramsey)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, GraphError, sat.SatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull, so that the
        # flush at exit cannot fail again, and exit 1 without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    sys.exit(code)
