"""The benchmark's tracer wraps module-level names of gcanon by name, and
its workloads read library names as lib.<module>.<name>.  A library change
that drops one of them (say, an import that looks unused, or a name that
only the benchmark calls) passes every other test but turns that layer
absent or fails every pass of the benchmark, so check every one here."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("modname, attr",
                         [(t[0], t[1]) for t in load_targets()])
def test_tracer_target_resolves(modname, attr):
    module = importlib.import_module("gcanon." + modname)
    assert callable(getattr(module, attr, None)), f"gcanon.{modname}.{attr}"


def benchmark_library_names():
    """Every lib.<module>.<name>[.<attr>] that a perfbench file reads."""
    return sorted({m.group(1) for path in PERFBENCH.glob("*.py")
                   for m in re.finditer(r"\blib\.(\w+(?:\.\w+){1,2})",
                                        path.read_text())})


@pytest.mark.parametrize("name", benchmark_library_names())
def test_benchmark_library_name_resolves(name):
    modname, *attrs = name.split(".")
    obj = importlib.import_module("gcanon." + modname)
    for attr in attrs:
        obj = getattr(obj, attr, None)
    assert callable(obj), f"gcanon.{name}"
