"""Minimal complete SAT solver: all-solutions enumeration and DIMACS output.

The solver is plain DPLL with two-watched-literal unit propagation and
chronological backtracking, trying false before true, so the model order is
stable.  One generator, _enumerate_projected, yields the models modulo a
projection from one search and adds no clause to do it, after Toda & Soh
("Implementing efficient all solutions SAT solvers", ACM JEA 2016): it
branches on the projection variables first, finds one completion of the
rest, then backtracks over the projection decisions only, and solve_all lists
what it yields.  The search keeps every literal's value in one bytearray
(1 true, 0 false, 2 unassigned), so a full model is one slice of it, and
solve_all returns that slice as bytes: byte v - 1, 0 or 1, is variable v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


class SatError(ValueError):
    """Malformed formula, projection or model bytes."""


@dataclass(frozen=True, slots=True)
class CnfFormula:
    """Clauses over variables 1..num_vars as tuples of DIMACS literals.

    Validated once, here: clauses that are not an iterable of iterables,
    a num_vars or literal that is not an int (bool included), literal 0, a
    literal beyond num_vars, an empty clause and a negative num_vars are
    rejected; duplicate literals are removed keeping their order, and
    tautologies are dropped."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.num_vars) is not int:
            raise SatError(f"variable count {self.num_vars!r} is not an int")
        if self.num_vars < 0:
            raise SatError(f"negative variable count {self.num_vars}")
        try:
            clauses = [tuple(clause) for clause in self.clauses]
        except TypeError:
            raise SatError("clauses are not sequences of literals") from None
        kept = []
        for clause in clauses:
            if not set(map(type, clause)) <= {int}:
                raise SatError(f"clause {clause!r} holds a non-int literal")
            lits = dict.fromkeys(clause)
            if not lits:
                raise SatError("empty clause")
            for lit in lits:
                if lit == 0:
                    raise SatError("0 is not a literal")
                if abs(lit) > self.num_vars:
                    raise SatError(
                        f"literal on variable {abs(lit)} exceeds "
                        f"num_vars={self.num_vars}")
            if not any(-lit in lits for lit in lits):
                kept.append(tuple(lits))
        object.__setattr__(self, "clauses", tuple(kept))

    @staticmethod
    def of(num_vars: int, int_clauses: Iterable[Iterable[int]]) -> "CnfFormula":
        return CnfFormula(num_vars, int_clauses)

    @staticmethod
    def _trusted(num_vars: int,
                 clauses: tuple[tuple[int, ...], ...]) -> "CnfFormula":
        """Formula from clauses the library derived, already in the form
        of() gives, without the checks of __post_init__: non-empty tuples
        of int literals on variables 1..num_vars, no literal twice and no
        tautology."""
        f = object.__new__(CnfFormula)
        object.__setattr__(f, "num_vars", num_vars)
        object.__setattr__(f, "clauses", clauses)
        return f


def _enumerate_projected(f: CnfFormula,
                         projection: list[int]) -> Iterator[bytes]:
    """Yield all models of f pairwise distinct on the projection variables,
    each as one 0/1 byte per variable.  projection is used as solve_all
    makes and checks it: distinct variables of 1..num_vars, ascending.

    All state is local to one call.  The value of a literal is lv[lit],
    one byte of a bytearray: 1 true, 0 false, 2 while its variable is
    unassigned; lv[v] and lv[-v] (a negative index) are kept opposite, so
    each watch check is a single index and "not false" is truthiness.  The
    watch lists are indexed by literal the same way.  A full model holds
    no 2, so it is the slice lv[1:nv + 1] as bytes.

    The unit clauses are assigned and propagated first; a conflict there
    yields nothing.  The search branches on the projection variables,
    then on the others in ascending order, false before true.  At each
    full model it drops the decisions on non-projection variables, so
    backtracking resumes at the deepest projection decision: each
    satisfiable projection assignment is yielded once, with its first
    completion, in lexicographic order, lowest projection variable most
    significant; for a projection 1..k that is the false-first
    lexicographic order of the whole models.  With an empty projection
    only the first model is yielded."""
    nv = f.num_vars
    lv = bytearray(b"\x02") * (2 * nv + 1)
    watches: list[list] = [[] for _ in range(2 * nv + 1)]
    trail: list[int] = []
    decisions: list[tuple[int, int]] = []  # (trail mark, place in order)

    def assign(lit: int) -> None:
        lv[lit] = 1
        lv[-lit] = 0
        trail.append(lit)

    def propagate(qhead: int) -> bool:
        """Exhaust unit propagation from trail position qhead; False on
        conflict."""
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            wl = watches[false_lit]
            i = 0
            while i < len(wl):
                c = wl[i]
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = lv[c[0]]
                if first == 1:
                    i += 1
                    continue
                for j in range(2, len(c)):
                    if lv[c[j]]:
                        c[1], c[j] = c[j], false_lit
                        watches[c[1]].append(c)
                        wl[i] = wl[-1]
                        wl.pop()
                        break
                else:
                    if first == 0:
                        return False
                    lit = c[0]
                    lv[lit] = 1
                    lv[-lit] = 0
                    trail.append(lit)
                    i += 1
        return True

    def undo_to(mark: int) -> None:
        """Unassign everything past the trail mark."""
        for lit in trail[mark:]:
            lv[lit] = lv[-lit] = 2
        del trail[mark:]

    def resolve() -> Optional[int]:
        """Chronological backtracking: flip the deepest decision still on
        its false branch, the one whose literal at its trail mark is
        negative.  Returns that decision's place in the branching order,
        or None when the search space is exhausted."""
        while decisions:
            mark, k = decisions.pop()
            lit = -trail[mark]
            undo_to(mark)
            if lit > 0:
                decisions.append((mark, k))
                assign(lit)
                if propagate(mark):
                    return k
        return None

    for c in f.clauses:
        if len(c) > 1:
            clause = list(c)
            watches[c[0]].append(clause)
            watches[c[1]].append(clause)
        elif lv[c[0]] == 0:
            return
        elif lv[c[0]] == 2:
            assign(c[0])
    if not propagate(0):
        return
    chosen = set(projection)
    order = projection + [v for v in range(1, nv + 1) if v not in chosen]
    k = 0
    while True:
        if len(trail) == nv:  # each variable is on it once
            yield bytes(lv[1:nv + 1])
            while decisions and decisions[-1][1] >= len(projection):
                undo_to(decisions.pop()[0])
        else:
            while lv[order[k]] != 2:
                k += 1
            mark = len(trail)
            decisions.append((mark, k))
            assign(-order[k])
            if propagate(mark):
                continue
        k = resolve()
        if k is None:
            return


def solve_all(f: CnfFormula, projection: Iterable[int]) -> list[bytes]:
    """All models distinct on the projection variables, in solver order,
    each one 0/1 byte per variable: byte v - 1 is variable v.

    Exactly one model per satisfiable projection assignment is returned:
    its first completion, false before true.  The search decides the
    projection variables before the others, so the projection assignments
    come in lexicographic order, lowest projection variable most
    significant; for a projection 1..k, such as the edge variables of a
    Ramsey encoding, that is the lexicographic order of the whole models.
    An empty projection gives the first model only, or none iff f is
    unsatisfiable.
    """
    try:
        proj = list(projection)
    except TypeError:
        raise SatError("projection is not a sequence of variables") from None
    if not set(map(type, proj)) <= {int}:
        raise SatError("projection variables are not all int")
    proj = sorted(set(proj))
    for v in proj:
        if not 1 <= v <= f.num_vars:
            raise SatError(f"projection variable {v} out of range")
    return list(_enumerate_projected(f, proj))


def to_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for c in f.clauses:
        lines.append(" ".join(map(str, c)) + " 0")
    return "\n".join(lines) + "\n"
