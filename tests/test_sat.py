import itertools
import random

import pytest

from gcanon.ramsey import EdgeVarMap, RamseyInstance, decode_model, \
    encode_ramsey, is_ramsey
from gcanon.sat import (
    CnfFormula,
    SatError,
    from_dimacs,
    solve,
    solve_all,
    to_dimacs,
)


def truth_table_models(f, projection=None):
    """Every projected assignment extendable to a satisfying one.

    Exhaustive over all 2^num_vars assignments, so it is a full oracle for
    both satisfiability and projected model counting.
    """
    proj = sorted(projection) if projection is not None \
        else list(range(1, f.num_vars + 1))
    found = set()
    for bits in itertools.product([False, True], repeat=f.num_vars):
        if satisfies(bits, f):
            found.add(tuple(bits[v - 1] for v in proj))
    return found


def satisfies(value, f):
    """Does the assignment satisfy f?  value[v - 1] is variable v, as in
    a model's bytes."""
    return all(any(value[abs(lit) - 1] == (lit > 0) for lit in c)
               for c in f.clauses)


def random_cnf(rng, num_vars, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < .5 else -v for v in vs])
    return CnfFormula.of(num_vars, clauses)


class TestValueTypes:
    def test_literal_int_round_trip(self):
        f = CnfFormula.of(7, [[-7], [7, -1]])
        assert f.clauses == ((-7,), (7, -1))

    def test_literal_rejects_zero(self):
        with pytest.raises(SatError):
            CnfFormula.of(2, [[1, 0]])

    def test_clause_dedups(self):
        assert CnfFormula.of(2, [[1, -2, 1]]).clauses == ((1, -2),)

    def test_clause_rejects_empty(self):
        with pytest.raises(SatError):
            CnfFormula.of(2, [[]])

    def test_tautology_detection(self):
        assert CnfFormula.of(2, [[1, 2, -1]]).clauses == ()
        assert CnfFormula.of(2, [[1, -2]]).clauses == ((1, -2),)

    def test_formula_drops_tautologies(self):
        f = CnfFormula.of(2, [[1, -1], [1, 2]])
        assert len(f.clauses) == 1

    def test_formula_rejects_out_of_range(self):
        with pytest.raises(SatError):
            CnfFormula.of(2, [[3]])
        with pytest.raises(SatError):
            CnfFormula.of(2, [[-3]])

    @pytest.mark.parametrize("num_vars, clauses", [
        (2, [[True, 2]]), (2, [[1, True]]), (True, [[1]]), (2, [[1.0, 2]]),
        (2.5, [[1, 2]]), (2, [["1", 2]]), ("2", [[1]])])
    def test_formula_rejects_non_int(self, num_vars, clauses):
        with pytest.raises(SatError):
            CnfFormula.of(num_vars, clauses)

    def test_formula_rejects_negative_num_vars(self):
        with pytest.raises(SatError):
            CnfFormula.of(-1, [])

    @pytest.mark.parametrize("values", [
        5, 0, True, 1.5, None, "ab", "", [256], [-1], [0.0], [None],
        b"\x02\x00", [0, 2], bytearray(b"\x01\xff"),
        [0, 1], bytearray(b"\x00\x01")])
    def test_model_rejects_values_not_0_1_bytes(self, values):
        # decode_model, where a model enters the library, takes only bytes
        # of 0 and 1: a byte 2 would read as true while comparing unequal
        # to the model with a 1 there, and bytes(5) is five zero bytes
        with pytest.raises(SatError):
            decode_model(EdgeVarMap(2), values)


class TestSolve:
    def test_forced_units(self):
        m = solve(CnfFormula.of(3, [[1], [-1, 2], [-2, 3]]))
        assert m == b"\x01\x01\x01"

    def test_unsat_pair(self):
        assert solve(CnfFormula.of(1, [[1], [-1]])) is None

    def test_empty_formula_is_sat(self):
        assert solve(CnfFormula.of(3, [])) is not None

    def test_model_satisfies_formula(self):
        rng = random.Random(2)
        for _ in range(50):
            f = random_cnf(rng, 8, 30)
            m = solve(f)
            if m is None:
                assert not truth_table_models(f)
            else:
                assert satisfies(m, f)

    def test_status_matches_truth_table(self):
        rng = random.Random(7)
        for _ in range(50):
            f = random_cnf(rng, 8, 34)
            assert (solve(f) is not None) == bool(truth_table_models(f))


class TestSolveAll:
    def test_empty_clause_set_gives_power_set(self):
        f = CnfFormula.of(4, [])
        models = solve_all(f, [1, 2, 3])
        assert len(models) == 8

    def test_projection_collapses_free_variables(self):
        # variable 2 is unconstrained, projection on 1 sees one model
        f = CnfFormula.of(2, [[1]])
        assert len(solve_all(f, [1])) == 1
        assert len(solve_all(f, [1, 2])) == 2

    def test_lexicographic_order_false_first(self):
        f = CnfFormula.of(2, [])
        assert solve_all(f, [1, 2]) == [b"\x00\x00", b"\x00\x01",
                                        b"\x01\x00", b"\x01\x01"]

    def test_unsat_gives_no_models(self):
        assert solve_all(CnfFormula.of(2, [[1], [-1]]), [1, 2]) == []

    def test_projection_out_of_range(self):
        with pytest.raises(SatError):
            solve_all(CnfFormula.of(2, []), [3])

    @pytest.mark.parametrize("projection", [["1"], [True], [1, True], [1.0]])
    def test_projection_rejects_non_int(self, projection):
        with pytest.raises(SatError):
            solve_all(CnfFormula.of(2, []), projection)

    def test_matches_truth_table(self):
        rng = random.Random(13)
        for _ in range(50):
            f = random_cnf(rng, 8, 30)
            proj = sorted(rng.sample(range(1, 9), rng.randint(1, 8)))
            models = solve_all(f, proj)
            got = [tuple(m[v - 1] for v in proj) for m in models]
            assert len(set(got)) == len(got)
            assert set(got) == truth_table_models(f, proj)
            for m in models:
                assert satisfies(m, f)


class TestDimacs:
    def test_known_text_parses(self):
        f = from_dimacs("p cnf 2 1\n1 -2 0\n")
        assert f.num_vars == 2
        assert f.clauses == ((1, -2),)

    def test_comments_and_blank_lines_skipped(self):
        f = from_dimacs("c a comment\n\np cnf 2 1\nc another\n1 2 0\n")
        assert len(f.clauses) == 1

    def test_clause_split_across_lines(self):
        f = from_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(20):
            f = random_cnf(rng, 6, 10)
            g = from_dimacs(to_dimacs(f))
            assert g.num_vars == f.num_vars
            assert g.clauses == f.clauses

    def test_rejects_missing_header(self):
        with pytest.raises(SatError):
            from_dimacs("1 2 0\n")

    def test_rejects_unterminated_clause(self):
        with pytest.raises(SatError):
            from_dimacs("p cnf 2 1\n1 2\n")

    def test_rejects_clause_count_mismatch(self):
        with pytest.raises(SatError):
            from_dimacs("p cnf 2 2\n1 0\n")

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(SatError):
            from_dimacs("p cnf 2 1\n3 0\n")

    @pytest.mark.parametrize("text", [
        "p cnf x 1\n1 0\n",
        "p cnf 2 y\n1 0\n",
        "p cnf 2 1\na 0\n",
        "p cnf -1 0\n",
    ])
    def test_rejects_malformed_numbers(self, text):
        with pytest.raises(SatError):
            from_dimacs(text)


def test_ramsey_encoding_dimacs_round_trip():
    inst = RamseyInstance(3, 3, 5)
    evm, f = encode_ramsey(inst)
    g = from_dimacs(to_dimacs(f))
    models = solve_all(g, range(1, evm.num_edge_vars + 1))
    graphs = [decode_model(evm, m) for m in models]
    assert len(graphs) == 1
    assert is_ramsey(inst, graphs[0])
