"""The benchmark's tracer wraps module-level names of gcanon by name.  A
library change that drops one of them (say, an import that looks unused)
passes every other test but turns that layer absent in the benchmark, so
check every target here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
