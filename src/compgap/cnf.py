"""CNF construction: Tseitin transform, Hamming-ball and cardinality
encodings, DIMACS serialization.

Formulas carry annotations (semantic roles of variables) plus solver hints
(a branching order and preferred polarities).  Hints never change
satisfiability; they exist because the composed formulas have a block
structure that a naive variable order explores exponentially.

A formula owns its limits: `new_vars` raises ConfigError before it passes
MAX_VARS variables, so an oversized formula stops while it is built, and
`add_clause` refuses a literal that is not an int and drops repeated
literals, keeping order.  Tautologies stay: DIMACS allows them, and one of
their two watched literals is always true.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from .bitstring import BitString
from .circuits import GATES, BoolCircuit
from .errors import ConfigError, FormatError, ParseError

MAX_VARS = 10_000


@dataclass
class CnfFormula:
    num_vars: int = 0
    clauses: List[List[int]] = field(default_factory=list)
    annotations: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    branch_order: List[int] = field(default_factory=list)
    prefer_true: List[int] = field(default_factory=list)

    def new_var(self) -> int:
        return self.new_vars(1)[0]

    def new_vars(self, n: int) -> List[int]:
        if self.num_vars + n > MAX_VARS:
            raise ConfigError(f"formula needs more than {MAX_VARS} variables")
        self.num_vars += n
        return list(range(self.num_vars - n + 1, self.num_vars + 1))

    def add_clause(self, lits: Iterable[int]) -> None:
        clause = list(dict.fromkeys(lits))
        if not clause:
            raise FormatError("refusing to emit an empty clause")
        for lit in clause:
            # a bool or float would print as an int under write_dimacs' %d
            if type(lit) is not int:
                raise FormatError(f"literal {lit!r} is not an int")
            if lit == 0 or abs(lit) > self.num_vars:
                raise FormatError(f"literal {lit} out of range")
        self.clauses.append(clause)

    def annotate(self, role: str, variables: Sequence[int]) -> None:
        self.annotations[role] = tuple(variables)


# ---------------------------------------------------------------------------
# Tseitin transform
# ---------------------------------------------------------------------------

def tseitin(circuit: BoolCircuit) -> CnfFormula:
    """Equisatisfiable CNF with one auxiliary variable per gate.

    Variable i+1 encodes wire i, so inputs are variables 1..n_inputs.  The
    formula constrains every gate variable to equal its gate's function; it
    places no constraint on the output.  Annotations expose the input
    variables and, under "outputs", the output variable.
    """
    f = CnfFormula()
    f.new_vars(circuit.n_inputs + circuit.n_gates)
    for gi, (op, a, b) in enumerate(circuit.gates):
        g, va, vb = circuit.n_inputs + gi + 1, a + 1, (b or 0) + 1
        lit = (0, g, va, vb, -vb, -va, -g)  # lit[p] for GATES' position p
        for clause in GATES[op].clauses:
            f.add_clause(map(lit.__getitem__, clause))
    f.annotate("inputs", [i + 1 for i in range(circuit.n_inputs)])
    f.annotate("outputs", [circuit.output + 1])
    return f


# ---------------------------------------------------------------------------
# Cardinality constraints (sequential counter)
# ---------------------------------------------------------------------------

def at_most(f: CnfFormula, lits: Sequence[int], k: int) -> None:
    """Sequential-counter encoding of sum(lits) <= k.

    Auxiliary registers s[i][j] mean "at least j+1 of the first i+1 literals
    hold"; k+1 simultaneous holds are forbidden.
    """
    n = len(lits)
    if k < 0:
        raise ConfigError("cardinality bound must be >= 0")
    if k >= n:
        return
    if k == 0:
        for lit in lits:
            f.add_clause([-lit])
        return
    regs = [f.new_vars(k) for _ in range(n - 1)]
    f.add_clause([-lits[0], regs[0][0]])
    for j in range(1, k):
        f.add_clause([-regs[0][j]])
    for i in range(1, n - 1):
        f.add_clause([-lits[i], regs[i][0]])
        f.add_clause([-regs[i - 1][0], regs[i][0]])
        for j in range(1, k):
            f.add_clause([-lits[i], -regs[i - 1][j - 1], regs[i][j]])
            f.add_clause([-regs[i - 1][j], regs[i][j]])
        f.add_clause([-lits[i], -regs[i - 1][k - 1]])
    f.add_clause([-lits[n - 1], -regs[n - 2][k - 1]])


def at_least(f: CnfFormula, lits: Sequence[int], k: int) -> None:
    """sum(lits) >= k, via at_most on the negations."""
    n = len(lits)
    if k <= 0:
        return
    if k > n:
        raise ConfigError(f"cannot require {k} of {n} literals")
    if k == 1:
        f.add_clause(list(lits))
        return
    at_most(f, [-lit for lit in lits], n - k)


def encode_hamming_ball(f: CnfFormula, center: BitString,
                        input_vars: Sequence[int], b: int) -> List[int]:
    """Constrain the input variables to the radius-b ball around center.

    Introduces one flip indicator per bit, f_i <-> (x_i != center_i), and a
    sequential-counter bound sum(f_i) <= b.  Returns the flip variables and
    records them under the "flips" annotation.
    """
    if center.length != len(input_vars):
        raise ConfigError("center length does not match input variables")
    start = len(f.clauses)
    flips = f.new_vars(center.length)
    for fv, xv in zip(flips, input_vars):
        f.add_clause([-fv, xv])
        f.add_clause([fv, -xv])
    recentre_ball(f.clauses, start, center)
    at_most(f, flips, b)
    f.annotate("flips", flips)
    return flips


def recentre_ball(clauses: List[List[int]], start: int,
                  center: BitString) -> None:
    """Move a ball's channel clauses from the all-zero center onto center,
    in place.

    clauses[start:] begin with encode_hamming_ball's channel clauses: two
    per bit in bit order, [-f_i, x_i] and [f_i, -x_i] around zero, each
    ending in its input literal (whatever literals a caller put in front).
    Each 1 bit of center negates the input literal of its two clauses.
    """
    v = center.value
    while v:
        low = v & -v
        i = start + 2 * (center.length - low.bit_length())
        clauses[i][-1] = -clauses[i][-1]
        clauses[i + 1][-1] = -clauses[i + 1][-1]
        v ^= low


# ---------------------------------------------------------------------------
# DIMACS
# ---------------------------------------------------------------------------

_CHUNK = 20


class _ClauseFormats(dict):
    """Clause length n -> "%d " * n + "0", made once per length."""

    def __missing__(self, n: int) -> str:
        fmt = self[n] = "%d " * n + "0"
        return fmt


_CLAUSE_FORMATS = _ClauseFormats()


def write_dimacs(f: CnfFormula) -> str:
    """Standard DIMACS text; annotations and solver hints ride in comments."""
    lines = []
    for role in sorted(f.annotations):
        vs = f.annotations[role]
        lines.append("c anno " + role + " " + " ".join(map(str, vs)))
    for start in range(0, len(f.branch_order), _CHUNK):
        lines.append("c branch " +
                     " ".join(map(str, f.branch_order[start:start + _CHUNK])))
    for start in range(0, len(f.prefer_true), _CHUNK):
        lines.append("c prefer " +
                     " ".join(map(str, f.prefer_true[start:start + _CHUNK])))
    lines.append(f"p cnf {f.num_vars} {len(f.clauses)}")
    fmt = _CLAUSE_FORMATS
    lines += [fmt[len(clause)] % tuple(clause) for clause in f.clauses]
    return "\n".join(lines) + "\n"


def read_dimacs(text: str) -> CnfFormula:
    f = CnfFormula()
    header_seen = False
    expected_clauses = 0
    hints = {"branch": f.branch_order, "prefer": f.prefer_true}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split()
            kind = parts[1] if len(parts) >= 2 else ""
            try:
                if kind == "anno":
                    f.annotations[parts[2]] = tuple(map(int, parts[3:]))
                elif kind in hints:
                    hints[kind].extend(map(int, parts[2:]))
            except (IndexError, ValueError):  # no role, or a non-integer
                raise ParseError(f"malformed c {kind} comment", line_no)
            continue
        if line.startswith("p"):
            if header_seen:
                raise ParseError("second problem line", line_no)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("malformed problem line", line_no)
            try:
                num_vars, expected_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-numeric problem line", line_no)
            if num_vars < 0 or expected_clauses < 0:
                raise ParseError("negative count in problem line", line_no)
            f.new_vars(num_vars)
            header_seen = True
            continue
        if not header_seen:
            raise ParseError("clause before problem line", line_no)
        try:
            lits = list(map(int, line.split()))
        except ValueError:
            raise ParseError("non-numeric literal", line_no)
        if not lits or lits[-1] != 0:
            raise ParseError("clause not terminated by 0", line_no)
        if 0 in lits[:-1]:
            raise ParseError("stray 0 inside clause", line_no)
        try:
            f.add_clause(lits[:-1])
        except FormatError as e:  # an empty clause or a literal past the header
            raise ParseError(str(e), line_no)
    if not header_seen:
        raise ParseError("missing problem line", 0)
    if len(f.clauses) != expected_clauses:
        raise ParseError(
            f"header promises {expected_clauses} clauses, found "
            f"{len(f.clauses)}", 0)
    # add_clause checked each clause; the comments name variables too
    hints = {"c branch": f.branch_order, "c prefer": f.prefer_true}
    for role, vs in [*f.annotations.items(), *hints.items()]:
        for v in vs:
            if not 1 <= v <= f.num_vars:
                raise FormatError(f"annotation {role} names bad var {v}")
    return f
