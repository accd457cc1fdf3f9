"""Per-layer call counts that the benchmark pins, checked here as well.

The pipelines look their collaborators up as module globals at call time,
so wrapping those names counts the work each layer does, as the
benchmark's tracer does.  The counts repeat exactly: they depend only on
the algorithm, never on timing.
"""

from collections import Counter

import pytest

from gcanon import generate, ramsey, sat
from gcanon.generate import all_nonisomorphic
from gcanon.ramsey import RamseyInstance, gen_ramsey_cg, gen_ramsey_gt


@pytest.fixture
def calls(monkeypatch):
    seen = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def items_counted(name, fn):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                seen[name] += 1
                yield item
        return wrapper

    def factory_counted(name, fn):
        def wrapper(*args, **kwargs):
            return counted(name, fn(*args, **kwargs))
        return wrapper

    for module in (generate, ramsey):
        monkeypatch.setattr(module, "extensions",
                            items_counted("extensions", module.extensions))
        monkeypatch.setattr(module, "canonical_form",
                            counted("canonical_form", module.canonical_form))
    monkeypatch.setattr(sat, "solve_all",
                        items_counted("models", sat.solve_all))
    monkeypatch.setattr(ramsey, "decode_model",
                        counted("decode_model", ramsey.decode_model))
    monkeypatch.setattr(ramsey, "_extension_keep",
                        factory_counted("keep", ramsey._extension_keep))
    return seen


def test_35_6_extensions_and_filter(calls):
    # Every child of every level, sum of classes * 2^(n-1), is extended
    # and tested; the max-degree rule runs after the Ramsey test.
    assert len(gen_ramsey_gt(RamseyInstance(3, 5, 6))) == 32
    assert calls["extensions"] == calls["keep"] == 563


def test_geng_5_canonizes_every_child(calls):
    assert len(all_nonisomorphic(5)) == 34
    assert calls["canonical_form"] == calls["extensions"] == 219


def test_35_13_canonizes_max_degree_children(calls):
    # Canonizing every kept child took 10,089 calls.
    assert len(gen_ramsey_gt(RamseyInstance(3, 5, 13))) == 1
    assert calls["canonical_form"] == 3072


@pytest.mark.parametrize("n, classes, models, canonized", [
    (5, 13, 18, 14), (10, 313, 7319, 1561), (11, 105, 3806, 891)])
def test_35_cg_canonizes_possible_lex_least_models(calls, n, classes,
                                                     models, canonized):
    # Canonizing every model took one call per model.  Decoding every
    # model did too; the degree test on the model bytes drops a model
    # whose vertex 0 has more than the mean degree before decode.
    assert len(gen_ramsey_cg(RamseyInstance(3, 5, n))) == classes
    assert calls["models"] == models
    assert calls["decode_model"] == {5: 16, 10: 5363, 11: 2229}[n]
    assert calls["canonical_form"] == canonized
