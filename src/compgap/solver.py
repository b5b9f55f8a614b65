"""Minimal complete SAT solver: conflict-driven clause learning (CDCL).

A MiniSat-style loop (Een & Sorensson 2003): unit propagation over
two-watched-literal lists, first-UIP conflict analysis with
non-chronological backjumping (GRASP, Marques-Silva & Sakallah 1999), and
learned clauses watched like the formula's own.  A learned unit is the one
exception to backjumping: it undoes only the conflict's level and is
asserted on top of the level below, not at level 0 after unwinding the
whole search (chronological backtracking restricted to units; Mohle &
Biere, "Backing Backtracking", SAT 2019).  Conflict analysis reads it as a
level-0 fact, and every backjump that undoes it puts it back.  There are no
restarts, no clause deletion and no activity heap: branching follows the
formula's hint order (its branch order, then the rest by index) through a
pointer that resumes instead of rescanning, with the preferred polarities
as initial phases and phase saving after that.  A conflict budget bounds
the work, so every solve either decides or returns UNKNOWN.  The formula
bounds its size and repeats no literal in a clause (see `cnf`), so set-up
only copies and watches clauses.  A separate exhaustive-enumeration path
doubles as an independent oracle for small formulas.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .cnf import CnfFormula
from .errors import ConfigError

# about 17 times the most conflicts a lab formula takes (571, among 100 S2
# draws at k=40); a hard random 3-CNF near cnf.MAX_VARS variables spends it
# in about 50 s on a 2-core Xeon VM
DEFAULT_CONFLICT_BUDGET = 10_000
ENUMERATE_VAR_CAP = 24


class Status(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"  # the conflict budget ran out first


@dataclass(frozen=True)
class SolveResult:
    status: Status
    assignment: Optional[Dict[int, bool]] = None


class _Cdcl:
    """One solve.  Per-literal lists have 2n+1 slots and are indexed by the
    signed literal: v at index v, and -v, by Python's negative indexing,
    at index 2n+1-v."""

    def __init__(self, n: int, order: List[int], phase: List[int]) -> None:
        self.n = n
        self.val = [0] * (2 * n + 1)  # per literal: 1 true, -1 false, 0 free
        self.watches: List[List[List[int]]] = [[] for _ in range(2 * n + 1)]
        self.level = [0] * (n + 1)
        self.reason: List[Optional[List[int]]] = [None] * (n + 1)
        self.phase = phase  # per variable: the literal to decide it with
        self.order = order
        self.pos = 0  # every variable before order[pos] is assigned
        self.trail: List[int] = []
        self.qhead = 0  # trail[qhead:] is not yet propagated
        self.lims: List[int] = []  # trail length at each decision
        self.lim_pos: List[int] = []  # order position of each decision
        self.units: List[int] = []  # learned units, each a level-0 fact

    def enqueue(self, lit: int, reason: Optional[List[int]]) -> bool:
        """Assign lit at the current level; False if it is already false."""
        val = self.val
        if val[lit]:
            return val[lit] == 1
        val[lit], val[-lit] = 1, -1
        self.level[abs(lit)] = len(self.lims)
        self.reason[abs(lit)] = reason
        self.trail.append(lit)
        return True

    def add_clause(self, c: List[int]) -> None:
        """Watch c's first two literals.  Added during search, c[0] must be
        free and c[1] false at the highest level of the rest."""
        self.watches[c[0]].append(c)
        self.watches[c[1]].append(c)

    def propagate(self) -> Optional[List[int]]:
        """Unit propagation to fixpoint; returns a falsified clause or None.
        A clause's implied literal sits at c[0] while it is a reason."""
        val, watches, trail = self.val, self.watches, self.trail
        level, reason, lvl = self.level, self.reason, len(self.lims)
        qhead = self.qhead
        while qhead < len(trail):
            fal = -trail[qhead]
            qhead += 1
            ws = watches[fal]
            kept: List[List[int]] = []
            for i, c in enumerate(ws):
                if c[0] == fal:
                    c[0], c[1] = c[1], fal
                first = c[0]
                if val[first] == 1:
                    kept.append(c)
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if val[lk] != -1:
                        c[1], c[k] = lk, fal
                        watches[lk].append(c)
                        break
                else:
                    kept.append(c)
                    if val[first] == -1:
                        kept.extend(ws[i + 1:])
                        watches[fal] = kept
                        self.qhead = len(trail)
                        return c
                    val[first], val[-first] = 1, -1
                    v = abs(first)
                    level[v], reason[v] = lvl, c
                    trail.append(first)
            watches[fal] = kept
        self.qhead = qhead
        return None

    def analyze(self, confl: List[int], lvl: int) -> List[int]:
        """First-UIP learned clause at lvl, the conflict's highest level,
        asserting literal first and a literal of the backjump level second.
        Level-0 facts, learned units among them, are skipped."""
        level, reason, trail = self.level, self.reason, self.trail
        seen = set()
        learnt = [0]
        pending = 0  # current-level literals seen but not yet resolved
        i = len(trail)
        lits = confl
        while True:
            for q in lits:
                v = abs(q)
                if v not in seen and level[v]:
                    seen.add(v)
                    if level[v] == lvl:
                        pending += 1
                    else:
                        learnt.append(q)
            i -= 1
            while abs(trail[i]) not in seen:
                i -= 1
            p = trail[i]
            pending -= 1
            if not pending:
                break
            lits = reason[abs(p)][1:]
        learnt[0] = -p
        if len(learnt) > 1:
            top = max(range(1, len(learnt)),
                      key=lambda j: level[abs(learnt[j])])
            learnt[1], learnt[top] = learnt[top], learnt[1]
        return learnt

    def backjump(self, lvl: int) -> None:
        """Undo every level above lvl, saving each variable's phase."""
        val, phase, mark = self.val, self.phase, self.lims[lvl]
        for lit in self.trail[mark:]:
            val[lit] = val[-lit] = 0
            phase[abs(lit)] = lit
        del self.trail[mark:]
        self.qhead = mark
        self.pos = self.lim_pos[lvl]
        del self.lims[lvl:]
        del self.lim_pos[lvl:]

    def decide(self) -> bool:
        """Open a level on the first free variable in order; False when
        every variable is assigned."""
        order, val, pos = self.order, self.val, self.pos
        while pos < len(order) and val[order[pos]]:
            pos += 1
        self.pos = pos
        if pos == len(order):
            return False
        self.lims.append(len(self.trail))
        self.lim_pos.append(pos)
        self.enqueue(self.phase[order[pos]], None)
        return True

    def solve(self, budget: int) -> SolveResult:
        conflicts = 0
        val, level = self.val, self.level
        while True:
            confl = self.propagate()
            if confl is None:
                if not self.decide():
                    return SolveResult(Status.SAT, {
                        v: val[v] == 1 for v in range(1, self.n + 1)})
                continue
            # the conflict's level: below the current one when its only
            # literals there are learned units, which read as level 0
            lvl = max(level[abs(lit)] for lit in confl)
            if not lvl:
                return SolveResult(Status.UNSAT)
            if conflicts >= budget:
                return SolveResult(Status.UNKNOWN)
            conflicts += 1
            learnt = self.analyze(confl, lvl)
            if len(learnt) == 1:
                # a unit keeps every level below the conflict's
                self.backjump(lvl - 1)
                self.units.append(learnt[0])
            else:
                self.backjump(level[abs(learnt[1])])
                self.add_clause(learnt)
                self.enqueue(learnt[0], learnt)
            # put back each unit the backjump undid, on top of the trail;
            # the next backjump below this level undoes it again, but its
            # level reads 0, so to analyze it is a fact
            for lit in self.units:
                if not val[lit]:
                    self.enqueue(lit, None)
                    level[abs(lit)] = 0


def solve_small(f: CnfFormula, assumptions: Iterable[int] = ()) -> SolveResult:
    """Decide satisfiability; returns UNKNOWN after DEFAULT_CONFLICT_BUDGET
    conflicts.  Assumptions are asserted as units, so UNSAT means
    unsatisfiable under them."""
    n = f.num_vars
    order = list(f.branch_order)
    seen = set(order)
    order.extend(v for v in range(1, n + 1) if v not in seen)
    phase = [-v for v in range(n + 1)]
    for v in f.prefer_true:
        phase[v] = v
    s = _Cdcl(n, order, phase)
    units = list(assumptions)
    for lit in units:
        if not 1 <= abs(lit) <= n:
            raise ConfigError(f"assumption {lit} names no variable")
    for clause in f.clauses:
        if len(clause) > 1:
            s.add_clause(list(clause))  # a copy: propagation reorders it
        else:
            units.append(clause[0])
    if not all(s.enqueue(lit, None) for lit in units):
        return SolveResult(Status.UNSAT)
    return s.solve(DEFAULT_CONFLICT_BUDGET)


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


def count_projected_models(f: CnfFormula, variables: Sequence[int]) -> int:
    """Number of assignments to `variables` extendable to full models.

    Auxiliary cardinality registers are not functionally determined, so raw
    model counts overcount; projection onto the semantic variables is what
    the ball-size identities are stated over.  A solve out of conflict
    budget raises ConfigError: it decides nothing, so it cannot count as a
    missing model.
    """
    k = len(variables)
    if 1 << k > PROJECTION_CAP:
        raise ConfigError(f"projection over {k} variables exceeds cap")
    count = 0
    for bits in range(1 << k):
        assumptions = [v if (bits >> j) & 1 else -v
                       for j, v in enumerate(variables)]
        res = solve_small(f, assumptions=assumptions)
        if res.status is Status.UNKNOWN:
            raise ConfigError("solver ran out of its conflict budget")
        if res.status is Status.SAT:
            count += 1
    return count
