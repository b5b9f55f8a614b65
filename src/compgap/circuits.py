"""An explicit Boolean circuit for the majority classifier.

The CNF compiler needs the hypothesis as a gate list rather than a Python
callable.  A circuit has one output wire, the label bit.  The builder folds
constants, so the zero-padded words of the majority circuit's adder tree
emit no gates for their padding.

Wire references during construction are either a bool (a folded constant)
or an int wire index; emitted circuits contain no constant wires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .bitstring import BitString
from .errors import ConfigError, FormatError

Ref = Union[bool, int]


class Gate(NamedTuple):
    """A gate op's meaning: `lanes(a, b, mask)` computes it on bit-lane
    ints, and `clauses` are the Tseitin clauses of g = op(a, b), DIMACS
    style over the positions 1 = g, 2 = a, 3 = b.  A unary op's clauses
    name no b, and its lanes ignore b."""

    lanes: Callable[[int, int, int], int]
    clauses: Tuple[Tuple[int, ...], ...]


GATES: Dict[str, Gate] = {  # the one statement of gate semantics
    "NOT": Gate(lambda a, b, mask: ~a & mask, ((-1, -2), (1, 2))),
    "AND": Gate(lambda a, b, mask: a & b, ((-1, 2), (-1, 3), (1, -2, -3))),
    "OR": Gate(lambda a, b, mask: a | b, ((1, -2), (1, -3), (-1, 2, 3))),
    "XOR": Gate(lambda a, b, mask: a ^ b,
                ((-1, 2, 3), (-1, -2, -3), (1, -2, 3), (1, 2, -3))),
}
_UNARY = frozenset(op for op, g in GATES.items()  # clauses that name no b
                   if all(abs(p) < 3 for c in g.clauses for p in c))


@dataclass(frozen=True)
class BoolCircuit:
    """Topologically ordered gate list over the ops of GATES.

    Wires 0..n_inputs-1 are the inputs; gate i drives wire n_inputs+i.
    `output` is the wire carrying the label bit.
    """

    n_inputs: int
    gates: Tuple[Tuple[str, int, Optional[int]], ...]
    output: int

    def __post_init__(self) -> None:
        for gi, (op, a, b) in enumerate(self.gates):
            wire = self.n_inputs + gi
            if op not in GATES:
                raise FormatError(f"unknown gate op {op!r}")
            if not 0 <= a < wire or (b is not None and not 0 <= b < wire):
                raise FormatError(f"gate {gi} reads a later wire")
            if (b is None) != (op in _UNARY):
                raise FormatError(f"gate {gi} has wrong arity for {op}")
        if not 0 <= self.output < self.n_inputs + len(self.gates):
            raise FormatError(f"output wire {self.output} out of range")

    @property
    def n_gates(self) -> int:
        return len(self.gates)


def eval_batch(circuit: BoolCircuit, xs: Sequence[BitString]) -> List[int]:
    """The output bit for each input, evaluated all at once with one
    integer bit-lane per input."""
    for x in xs:
        if x.length != circuit.n_inputs:
            raise FormatError(
                f"input is {x.length} bits, circuit wants {circuit.n_inputs}")
    mask = (1 << len(xs)) - 1
    wires = []
    for i in range(circuit.n_inputs):
        v = 0
        for t, x in enumerate(xs):
            v |= x[i] << t
        wires.append(v)
    for op, a, b in circuit.gates:  # a unary gate's b is None: read wire 0
        wires.append(GATES[op].lanes(wires[a], wires[b or 0], mask))
    out = wires[circuit.output]
    return [(out >> t) & 1 for t in range(len(xs))]


def eval_circuit(circuit: BoolCircuit, x: BitString) -> int:
    return eval_batch(circuit, [x])[0]


class CircuitBuilder:
    """Gate emitter with constant folding."""

    def __init__(self, n_inputs: int) -> None:
        if n_inputs < 1:
            raise ConfigError("circuits need at least one input")
        self.n_inputs = n_inputs
        self.gates: List[Tuple[str, int, Optional[int]]] = []

    def input(self, i: int) -> Ref:
        if not 0 <= i < self.n_inputs:
            raise ConfigError(f"input {i} out of range")
        return i

    def _emit(self, op: str, a: int, b: Optional[int]) -> int:
        if b is not None and a > b:
            a, b = b, a  # every binary op commutes: canonical order
        self.gates.append((op, a, b))
        return self.n_inputs + len(self.gates) - 1

    def not_(self, a: Ref) -> Ref:
        if isinstance(a, bool):
            return not a
        return self._emit("NOT", a, None)

    def and_(self, a: Ref, b: Ref) -> Ref:
        if isinstance(a, bool):
            return b if a else False
        if isinstance(b, bool):
            return a if b else False
        if a == b:
            return a
        return self._emit("AND", a, b)

    def or_(self, a: Ref, b: Ref) -> Ref:
        if isinstance(a, bool):
            return True if a else b
        if isinstance(b, bool):
            return True if b else a
        if a == b:
            return a
        return self._emit("OR", a, b)

    def xor(self, a: Ref, b: Ref) -> Ref:
        if isinstance(a, bool):
            return self.not_(b) if a else b
        if isinstance(b, bool):
            return self.not_(a) if b else a
        if a == b:
            return False
        return self._emit("XOR", a, b)

    def build(self, output: Ref) -> BoolCircuit:
        if isinstance(output, bool):  # a folded constant: make it a wire
            t = self._emit("OR", 0, self._emit("NOT", 0, None))
            output = t if output else self._emit("NOT", t, None)
        return BoolCircuit(self.n_inputs, tuple(self.gates), output)


# ---------------------------------------------------------------------------
# The majority circuit
# ---------------------------------------------------------------------------

def _add_words(b: CircuitBuilder, u: List[Ref], v: List[Ref]) -> List[Ref]:
    """Ripple-carry addition of two LSB-first wire lists, truncated to the
    common width."""
    out: List[Ref] = []
    carry: Ref = False
    for x, y in zip(u, v):
        s = b.xor(x, y)
        out.append(b.xor(s, carry))
        carry = b.or_(b.and_(x, y), b.and_(carry, s))
    return out


MAJORITY_D_CAP = 63


def circuit_of_majority(d: int) -> BoolCircuit:
    """Adder-tree popcount compared against the majority threshold."""
    if d < 1 or d % 2 == 0:
        raise ConfigError(f"d must be odd and positive, got {d}")
    if d > MAJORITY_D_CAP:
        raise ConfigError(f"d={d} exceeds circuit cap {MAJORITY_D_CAP}")
    b = CircuitBuilder(d)
    nums: List[List[Ref]] = [[b.input(i)] for i in range(d)]
    while len(nums) > 1:
        nxt = []
        for i in range(0, len(nums) - 1, 2):
            u, v = nums[i], nums[i + 1]
            w = max(len(u), len(v)) + 1
            u = u + [False] * (w - len(u))
            v = v + [False] * (w - len(v))
            nxt.append(_add_words(b, u, v))
        if len(nums) % 2:
            nxt.append(nums[-1])
        nums = nxt
    total = nums[0]
    # total >= (d+1)/2, constant comparison from the MSB down
    t = (d + 1) // 2
    gt: Ref = False
    eq: Ref = True
    for j in reversed(range(len(total))):
        tb = (t >> j) & 1
        if tb == 0:
            gt = b.or_(gt, b.and_(eq, total[j]))
        eq = b.and_(eq, b.not_(b.xor(total[j], bool(tb))))
    return b.build(b.or_(gt, eq))
