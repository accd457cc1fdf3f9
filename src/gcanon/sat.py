"""Minimal complete SAT solver with all-solutions enumeration and DIMACS I/O.

The solver is plain DPLL with two-watched-literal unit propagation,
branching on the lowest-numbered unassigned variable and trying false before
true, so the model order is stable.  solve_all enumerates satisfying
assignments modulo a projection in one search: each model's projection is
blocked by a clause and the search backtracks from there rather than
restarting.  solve is the same search stopped at its first model.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class SatError(ValueError):
    """Malformed formula or DIMACS text."""


@dataclass(frozen=True)
class CnfFormula:
    """Clauses over variables 1..num_vars as tuples of DIMACS literals.

    Validated once, here: literal 0, a literal beyond num_vars, an empty
    clause and a negative num_vars are rejected; duplicate literals are
    removed keeping their order, and tautologies are dropped."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise SatError(f"negative variable count {self.num_vars}")
        kept = []
        for clause in self.clauses:
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
        return CnfFormula(num_vars, tuple(int_clauses))


@dataclass(frozen=True)
class Model:
    """A satisfying assignment over every variable: m[v] is values[v-1]."""

    values: list[bool]

    def __getitem__(self, var: int) -> bool:
        if var < 1:
            raise KeyError(var)
        try:
            return self.values[var - 1]
        except IndexError:
            raise KeyError(var) from None


class DpllSolver:
    """DPLL over a fixed clause set.  enumerate_projected runs the one
    search of an instance, adding its blocking clauses as it goes."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        # one extra slot: a sentinel variable pinned false, used to pad
        # unit blocking clauses up to the two-watch minimum
        self.val: list[Optional[bool]] = [None] * (num_vars + 1) + [False]
        self.pos: list[int] = [0] * (num_vars + 2)
        self.watches: dict[int, list] = {}
        self.units: list[int] = []
        self.trail: list[int] = []

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a non-empty clause without repeated literals."""
        if len(lits) == 1:
            self.units.append(lits[0])
            return
        clause = list(lits)
        self.watches.setdefault(clause[0], []).append(clause)
        self.watches.setdefault(clause[1], []).append(clause)

    def _value(self, lit: int) -> Optional[bool]:
        v = self.val[abs(lit)]
        if v is None:
            return None
        return v == (lit > 0)

    def _assign(self, lit: int) -> None:
        self.val[abs(lit)] = lit > 0
        self.pos[abs(lit)] = len(self.trail)
        self.trail.append(lit)

    def _propagate(self, qhead: int) -> bool:
        """Exhaust unit propagation from trail position qhead; False on
        conflict."""
        trail = self.trail
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            wl = self.watches.get(-lit)
            if wl is None:
                continue
            i = 0
            while i < len(wl):
                c = wl[i]
                if c[0] == -lit:
                    c[0], c[1] = c[1], c[0]
                first = self._value(c[0])
                if first is True:
                    i += 1
                    continue
                for j in range(2, len(c)):
                    if self._value(c[j]) is not False:
                        c[1], c[j] = c[j], c[1]
                        self.watches.setdefault(c[1], []).append(c)
                        wl[i] = wl[-1]
                        wl.pop()
                        break
                else:
                    if first is False:
                        return False
                    self._assign(c[0])
                    i += 1
        return True

    def _assert_units(self) -> bool:
        """Assign and propagate the unit clauses; False on conflict."""
        for u in self.units:
            v = self._value(u)
            if v is False:
                return False
            if v is None:
                self._assign(u)
        return self._propagate(0)

    def _undo_to(self, mark: int) -> int:
        """Unassign everything past the trail mark; returns the smallest
        variable undone (for the branching pointer)."""
        low = self.num_vars + 2
        for lit in self.trail[mark:]:
            v = abs(lit)
            self.val[v] = None
            if v < low:
                low = v
        del self.trail[mark:]
        return low

    def _resolve(self, decisions: list, ptr: int) -> Optional[int]:
        """Chronological conflict handling: flip the deepest unflipped
        decision (false was tried first).  Returns the updated branching
        pointer, or None when the search space is exhausted."""
        while True:
            while decisions and decisions[-1][2]:
                mark, _, _ = decisions.pop()
                ptr = min(ptr, self._undo_to(mark))
            if not decisions:
                return None
            mark, var, _ = decisions[-1]
            ptr = min(ptr, self._undo_to(mark))
            decisions[-1][2] = True
            self._assign(var)
            if self._propagate(len(self.trail) - 1):
                return ptr

    def enumerate_projected(self, projection: Sequence[int]
                            ) -> list[list[bool]]:
        """All models pairwise distinct on the projection variables.

        Each model's projection is blocked with a clause and the search
        resumes from the deepest decision level that assigned a projection
        variable, so no projection assignment is ever reported twice.
        Models arrive in the same lexicographic (false-first, lowest
        variable most significant) order a restart-per-model loop would
        produce.  With an empty projection only the first model is
        returned."""
        models: list[list[bool]] = []
        if not self._assert_units():
            return models
        nv = self.num_vars
        proj = sorted(set(projection))
        sentinel_false = nv + 1  # positive literal on the pinned-false var
        decisions: list[list] = []
        ptr = 1
        while True:
            while ptr <= nv and self.val[ptr] is not None:
                ptr += 1
            if ptr <= nv:
                decisions.append([len(self.trail), ptr, False])
                self._assign(-ptr)
                if self._propagate(len(self.trail) - 1):
                    continue
            else:
                models.append(list(self.val[1:nv + 1]))
                if not proj or not decisions:
                    return models
                blocking = [-v if self.val[v] else v for v in proj]
                deepest = max(blocking, key=lambda l: self.pos[abs(l)])
                marks = [d[0] for d in decisions]
                level = bisect.bisect_right(marks, self.pos[abs(deepest)])
                if level == 0:
                    return models  # projection forced at the root
                while len(decisions) > level:
                    mark, _, _ = decisions.pop()
                    ptr = min(ptr, self._undo_to(mark))
                clause = [deepest] + [l for l in blocking if l != deepest]
                if len(clause) == 1:
                    clause.append(sentinel_false)
                self.watches.setdefault(clause[0], []).append(clause)
                self.watches.setdefault(clause[1], []).append(clause)
            nxt = self._resolve(decisions, ptr)
            if nxt is None:
                return models
            ptr = nxt


def solve(f: CnfFormula) -> Optional[Model]:
    """A satisfying model, or None iff the formula is unsatisfiable."""
    models = solve_all(f, ())
    return models[0] if models else None


def solve_all(f: CnfFormula, projection: Iterable[int]) -> list[Model]:
    """All models distinct on the projection variables, in solver order.

    After each model the clause negating its projection is added before the
    search resumes, so exactly one model per satisfiable projection
    assignment is returned; an empty projection gives the first model only.
    """
    proj = sorted(set(projection))
    for v in proj:
        if not 1 <= v <= f.num_vars:
            raise SatError(f"projection variable {v} out of range")
    solver = DpllSolver(f.num_vars)
    for c in f.clauses:
        solver.add_clause(c)
    return [Model(raw) for raw in solver.enumerate_projected(proj)]


def to_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for c in f.clauses:
        lines.append(" ".join(map(str, c)) + " 0")
    return "\n".join(lines) + "\n"


def _dimacs_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise SatError(f"not an integer in DIMACS text: {tok!r}") from None


def from_dimacs(text: str) -> CnfFormula:
    num_vars = None
    num_clauses = None
    tokens: list[int] = []
    clauses: list[list[int]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise SatError(f"malformed DIMACS header: {line!r}")
            num_vars = _dimacs_int(parts[2])
            num_clauses = _dimacs_int(parts[3])
            continue
        if num_vars is None:
            raise SatError("clause before DIMACS header")
        for tok in line.split():
            i = _dimacs_int(tok)
            if i == 0:
                clauses.append(tokens)
                tokens = []
            else:
                tokens.append(i)
    if num_vars is None:
        raise SatError("missing DIMACS header")
    if tokens:
        raise SatError("clause missing 0 terminator")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise SatError(
            f"header declares {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula.of(num_vars, clauses)
