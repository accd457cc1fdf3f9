"""Outside-in tracing of gcanon: wrappers around module-level names.

The pipelines look their collaborators up as module globals at call time
(``canonical_form`` inside ``gcanon.generate``, ``sat.solve_all`` inside
``gcanon.ramsey`` and so on), so replacing those names with timing wrappers
splits a pass across the library's modules without editing the library.

Spans are aggregated per name, not stored one by one: a ``ramsey_gt`` pass
makes about two million wrapped calls.  Each name keeps its call count, its
total time and the time its child spans covered, so self time is total
minus children.  The process runs one pass at a time on one thread, so a
plain stack gives every span its parent.

A target whose name is gone from the library is recorded as missing and
the run goes on; its layer is then reported as absent.  ``uninstall``
puts every original object back.
"""

from __future__ import annotations

import time


class SpanStat:
    __slots__ = ("calls", "total", "child")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0

    @property
    def self_time(self):
        return self.total - self.child


# (module attribute of the library namespace, name in that module, span,
# wrapper kind).  "call" times each call, "iter" times each next() of the
# returned iterator and counts the items, "factory" times each call of the
# callable it returns.
TARGETS = (
    ("generate", "extend_and_reduce", "generate.reduce", "call"),
    ("ramsey", "extend_and_reduce", "generate.reduce", "call"),
    ("generate", "extensions", "graph.extensions", "iter"),
    ("ramsey", "extensions", "graph.extensions", "iter"),
    ("generate", "canonical_form", "canon", "call"),
    ("ramsey", "canonical_form", "canon", "call"),
    ("canon", "canonize", "canon", "call"),
    ("canon", "refine_equitable", "canon.refine_root", "call"),
    ("generate", "encode_graph6", "graph6.encode", "call"),
    ("ramsey", "encode_graph6", "graph6.encode", "call"),
    ("graph6", "encode_graph6", "graph6.encode", "call"),
    ("graph6", "decode_graph6", "graph6.decode", "call"),
    ("ramsey", "_extension_keep", "ramsey.filter", "factory"),
    ("ramsey", "encode_ramsey", "ramsey.encode", "call"),
    ("ramsey", "decode_model", "ramsey.decode", "call"),
    ("sat", "solve_all", "sat.solve_all", "call"),
)


def _clause_count(result):
    _, formula = result
    return len(formula.clauses)


# Counters read off a span's return value: span -> (counter, function).
RESULT_COUNTERS = {
    "generate.reduce": ("generate.reduce.classes", len),
    "sat.solve_all": ("sat.models", len),
    "ramsey.encode": ("ramsey.encode.clauses", _clause_count),
    "ramsey.filter": ("ramsey.filter.kept", bool),
}


class Tracer:
    """Installs wrappers on a library namespace and aggregates spans."""

    ROOT = "pass"

    def __init__(self, lib):
        self.lib = lib
        self.spans: dict[str, SpanStat] = {}
        self.counters: dict[str, int] = {}
        self.broken_counters: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stat(self, name):
        st = self.spans.get(name)
        if st is None:
            st = self.spans[name] = SpanStat()
        return st

    def _count(self, name, result, fn):
        try:
            k = fn(result)
        except (TypeError, ValueError, AttributeError):
            self.broken_counters.add(name)
            return
        self.counters[name] = self.counters.get(name, 0) + k

    def _wrap_call(self, span, fn):
        stat, stack, clock = self._stat(span), self._stack, time.perf_counter
        counter = RESULT_COUNTERS.get(span)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.total += dt
                stat.child += stack.pop()
                if stack:
                    stack[-1] += dt
            if counter is not None:
                self._count(counter[0], result, counter[1])
            return result

        return traced

    def _wrap_iter(self, span, fn):
        stat, stack, clock = self._stat(span), self._stack, time.perf_counter

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stat.total += dt
                    stat.child += stack.pop()
                    if stack:
                        stack[-1] += dt
                stat.calls += 1
                yield item

        return traced

    def _wrap_factory(self, span, fn):
        wrap_call = self._wrap_call

        def traced_factory(*args, **kwargs):
            return wrap_call(span, fn(*args, **kwargs))

        return traced_factory

    def install(self):
        wrappers = {"call": self._wrap_call, "iter": self._wrap_iter,
                    "factory": self._wrap_factory}
        # A traced run installs once per traced pass; list each name once.
        self.missing = []
        for modname, attr, span, kind in TARGETS:
            module = getattr(self.lib, modname)
            original = getattr(module, attr, None)
            if original is None or not callable(original):
                self.missing.append(f"{modname}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[kind](span, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def root(self, fn, *args):
        """Run fn(*args) as the root span of one traced pass."""
        return self._wrap_call(self.ROOT, fn)(*args)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
