"""Projected enumeration paths of solve_all, each against the truth table.

The search decides the projection variables first and backtracks over
them only, so these cases cover a projection forced before any decision,
projection assignments whose completion search runs out, a projection
that is not a prefix of the variables, and the empty projection.
"""

import itertools
import random
import sys
from collections.abc import Iterator

from gcanon import ramsey
from gcanon.sat import CnfFormula, _enumerate_projected, solve_all

from .test_sat import random_cnf, satisfies, truth_table_models


def projected(models, proj):
    return [tuple(m[v - 1] for v in proj) for m in models]


def first_completions(f, proj):
    """For each satisfiable projection assignment, in lexicographic order
    on the ascending projection variables, the lexicographically first
    satisfying assignment that extends it (false before true, lowest
    variable most significant)."""
    proj = sorted(proj)
    first = {}
    for bits in itertools.product([False, True], repeat=f.num_vars):
        if satisfies(bits, f):
            first.setdefault(tuple(bits[v - 1] for v in proj), bits)
    return [first[key] for key in sorted(first)]


def check_against_truth_table(f, proj):
    models = solve_all(f, proj)
    got = projected(models, sorted(proj))
    assert len(set(got)) == len(got)
    assert set(got) == truth_table_models(f, proj)
    for m in models:
        assert satisfies(m, f)
    assert projected(models, range(1, f.num_vars + 1)) == \
        first_completions(f, proj)
    return models


def no_model_on(vs):
    """Clauses ruling out every assignment of the variables vs, which unit
    propagation alone does not see while two or more of them are open."""
    return [[v if bit else -v for v, bit in zip(vs, bits)]
            for bits in itertools.product([False, True], repeat=len(vs))]


class TestProjectionForcedAtRoot:
    def test_one_model_then_stop(self):
        f = CnfFormula(5, [[1], [-2], [-1, 3, 4], [2, -5, 4]])
        models = check_against_truth_table(f, [1, 2])
        assert len(models) == 1

    def test_projection_forced_through_propagation(self):
        # 1 is a unit and forces 2 and then 3; the rest stays free
        f = CnfFormula(6, [[1], [-1, 2], [-2, 3], [4, 5, 6]])
        models = check_against_truth_table(f, [3, 2])
        assert len(models) == 1


class TestProjectionWithoutCompletion:
    def test_unsat_tail_under_one_branch(self):
        # with 1 false, variables 3 and 4 have no assignment; with 1 true
        # they are free, so (T, F) and (T, T) on [1, 2] remain
        tail = [[1] + c for c in no_model_on([3, 4])]
        f = CnfFormula(4, tail)
        models = check_against_truth_table(f, [1, 2])
        assert projected(models, [1, 2]) == [(True, False), (True, True)]

    def test_completion_depends_on_projection(self):
        # 5, 6, 7 have an assignment only when 1 != 2 and 3 is true
        tail = [[1, 2] + c for c in no_model_on([5, 6, 7])]
        tail += [[-1, -2] + c for c in no_model_on([5, 6, 7])]
        tail += [[3] + c for c in no_model_on([6, 7])]
        f = CnfFormula(7, tail + [[4, 5, -6]])
        models = check_against_truth_table(f, [1, 2, 3, 4])
        assert projected(models, [1, 2, 3, 4]) == [
            (False, True, True, False), (False, True, True, True),
            (True, False, True, False), (True, False, True, True)]

    def test_random_constrained_tails(self):
        rng = random.Random(23)
        for _ in range(40):
            f = random_cnf(rng, 9, 36)
            check_against_truth_table(f, [1, 2, 3])


class TestProjectionNotAPrefix:
    def test_fixed_formula(self):
        f = CnfFormula(5, [[1, 2, 4], [-2, 3], [-4, -5], [-1, 5, -3]])
        check_against_truth_table(f, [4, 2])

    def test_random_formulas(self):
        rng = random.Random(31)
        for _ in range(60):
            f = random_cnf(rng, 7, 22)
            proj = rng.sample(range(1, 8), rng.randint(1, 6))
            check_against_truth_table(f, proj)


class TestEmptyProjection:
    def test_returns_the_solve_model(self):
        rng = random.Random(37)
        for _ in range(60):
            f = random_cnf(rng, 8, 34)
            assert projected(solve_all(f, []), range(1, 9)) == \
                first_completions(f, [])


def test_models_take_one_byte_per_variable():
    evm, f = ramsey.encode_ramsey(ramsey.RamseyInstance(3, 4, 7))
    models = solve_all(f, range(1, evm.num_edge_vars + 1))
    assert len(models) == 43
    for m in models:
        assert type(m) is bytes
        assert len(m) == f.num_vars
        assert not m.translate(None, b"\x00\x01")
        assert sys.getsizeof(m) <= f.num_vars + 64


def test_enumerate_projected_yields_solve_all_stream():
    evm, f = ramsey.encode_ramsey(ramsey.RamseyInstance(3, 4, 7))
    proj = list(range(1, evm.num_edge_vars + 1))
    models = solve_all(f, proj)
    stream = _enumerate_projected(f, proj)
    assert isinstance(stream, Iterator)
    first = next(stream)
    assert first == models[0]
    assert [first, *stream] == models


def test_enumerations_of_one_formula_share_no_state():
    evm, f = ramsey.encode_ramsey(ramsey.RamseyInstance(3, 4, 7))
    proj = list(range(1, evm.num_edge_vars + 1))
    models = solve_all(f, proj)
    assert len(models) == 43
    # a stream left after two models neither disturbs a second one nor
    # is disturbed by it
    first = _enumerate_projected(f, proj)
    assert [next(first), next(first)] == models[:2]
    assert list(_enumerate_projected(f, proj)) == models
    assert list(first) == models[2:]
