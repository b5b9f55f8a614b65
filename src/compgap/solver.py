"""Minimal complete SAT solver: DPLL with two-watched-literal propagation.

Sound and complete below a variable cap; no clause learning, no restarts.
Formulas may carry a branching order and preferred polarities, which this
solver honors.  A separate exhaustive-enumeration path doubles as an
independent oracle for small formulas.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .cnf import CnfFormula
from .errors import ConfigError

DEFAULT_VAR_CAP = 4000
ENUMERATE_VAR_CAP = 24


class Status(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    CAP_EXCEEDED = "cap_exceeded"


@dataclass(frozen=True)
class SolveResult:
    status: Status
    assignment: Optional[Dict[int, bool]] = None


class _Dpll:
    def __init__(self, f: CnfFormula, assumptions: Iterable[int]) -> None:
        self.n = f.num_vars
        self.clauses: List[List[int]] = []
        self.units: List[int] = list(assumptions)
        self.contradiction = False
        for clause in f.clauses:
            lits, seen, taut = [], set(), False
            for lit in clause:
                if -lit in seen:
                    taut = True
                    break
                if lit not in seen:
                    seen.add(lit)
                    lits.append(lit)
            if taut:
                continue
            if not lits:
                self.contradiction = True
                return
            if len(lits) == 1:
                self.units.append(lits[0])
            else:
                self.clauses.append(lits)
        self.assign = [0] * (self.n + 1)  # 0 free, 1 true, -1 false
        self.watch: Dict[int, List[int]] = defaultdict(list)
        for ci, c in enumerate(self.clauses):
            self.watch[c[0]].append(ci)
            self.watch[c[1]].append(ci)
        self.trail: List[int] = []

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _propagate(self, queue: List[int]) -> bool:
        i = 0
        while i < len(queue):
            lit = queue[i]
            i += 1
            v = self._value(lit)
            if v == -1:
                return False
            if v == 1:
                continue
            self.assign[abs(lit)] = 1 if lit > 0 else -1
            self.trail.append(lit)
            fal = -lit
            watchers = self.watch[fal]
            kept: List[int] = []
            for wi, ci in enumerate(watchers):
                c = self.clauses[ci]
                if c[0] == fal:
                    c[0], c[1] = c[1], c[0]
                if self._value(c[0]) == 1:
                    kept.append(ci)
                    continue
                moved = False
                for j in range(2, len(c)):
                    if self._value(c[j]) != -1:
                        c[1], c[j] = c[j], c[1]
                        self.watch[c[1]].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if self._value(c[0]) == -1:
                    kept.extend(watchers[wi + 1:])
                    self.watch[fal] = kept
                    return False
                queue.append(c[0])
            self.watch[fal] = kept
        return True

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            self.assign[abs(self.trail.pop())] = 0

    def _pick(self, order: Sequence[int], prefer: frozenset) -> Optional[int]:
        for v in order:
            if self.assign[v] == 0:
                return v if v in prefer else -v
        return None

    def solve(self, order: Sequence[int], prefer: frozenset) -> SolveResult:
        if self.contradiction or not self._propagate(list(self.units)):
            return SolveResult(Status.UNSAT)
        # stack entries: (decision literal, trail mark, other polarity tried)
        stack: List[List] = []
        while True:
            lit = self._pick(order, prefer)
            if lit is None:
                model = {v: self.assign[v] == 1 for v in range(1, self.n + 1)}
                return SolveResult(Status.SAT, model)
            stack.append([lit, len(self.trail), False])
            while not self._propagate([stack[-1][0]]):
                while stack and stack[-1][2]:
                    self._undo(stack.pop()[1])
                if not stack:
                    return SolveResult(Status.UNSAT)
                top = stack[-1]
                self._undo(top[1])
                top[0] = -top[0]
                top[2] = True


def solve_small(f: CnfFormula, var_cap: int = DEFAULT_VAR_CAP,
                assumptions: Iterable[int] = ()) -> SolveResult:
    """Decide satisfiability; refuses formulas above the variable cap."""
    if f.num_vars > var_cap:
        return SolveResult(Status.CAP_EXCEEDED)
    order = list(f.branch_order)
    seen = set(order)
    order.extend(v for v in range(1, f.num_vars + 1) if v not in seen)
    return _Dpll(f, assumptions).solve(order, frozenset(f.prefer_true))


def _sat_mask(f: CnfFormula) -> np.ndarray:
    """Boolean satisfaction vector over all 2^num_vars assignments.

    Assignment index i sets variable v to bit v-1 of i.
    """
    n = f.num_vars
    if n > ENUMERATE_VAR_CAP:
        raise ConfigError(
            f"{n} variables exceeds enumeration cap {ENUMERATE_VAR_CAP}")
    idx = np.arange(1 << n, dtype=np.uint32)
    sat = np.ones(1 << n, dtype=bool)
    for clause in f.clauses:
        cl = np.zeros(1 << n, dtype=bool)
        for lit in clause:
            bit = (idx >> (abs(lit) - 1)) & 1
            cl |= bit.astype(bool) if lit > 0 else ~bit.astype(bool)
        sat &= cl
    return sat


def solve_enumerate(f: CnfFormula) -> SolveResult:
    """Exhaustive truth-table decision; independent oracle for solve_small."""
    sat = _sat_mask(f)
    hits = np.flatnonzero(sat)
    if hits.size == 0:
        return SolveResult(Status.UNSAT)
    i = int(hits[0])
    model = {v: bool((i >> (v - 1)) & 1) for v in range(1, f.num_vars + 1)}
    return SolveResult(Status.SAT, model)


PROJECTION_CAP = 1 << 20


def count_projected_models(f: CnfFormula, variables: Sequence[int],
                           var_cap: int = DEFAULT_VAR_CAP) -> int:
    """Number of assignments to `variables` extendable to full models.

    Auxiliary cardinality registers are not functionally determined, so raw
    model counts overcount; projection onto the semantic variables is what
    the ball-size identities are stated over.
    """
    k = len(variables)
    if 1 << k > PROJECTION_CAP:
        raise ConfigError(f"projection over {k} variables exceeds cap")
    count = 0
    for bits in range(1 << k):
        assumptions = [v if (bits >> j) & 1 else -v
                       for j, v in enumerate(variables)]
        res = solve_small(f, var_cap=var_cap, assumptions=assumptions)
        if res.status is Status.CAP_EXCEEDED:
            raise ConfigError("formula exceeds solver cap")
        if res.status is Status.SAT:
            count += 1
    return count
