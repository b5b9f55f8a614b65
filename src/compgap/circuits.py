"""Explicit Boolean circuits for the shipped hypotheses.

Everything downstream of the CNF compiler needs the hypothesis as a gate
list rather than a Python callable.  The builder does constant folding and
structural deduplication, so the arithmetic-heavy circuits (ripple adders,
shift-add constant multipliers inside the hash) stay as small as the
construction allows.  The hash is ots.mix_words run on a `_Word` of wires.

Wire references during construction are either a bool (a folded constant)
or an int wire index; emitted circuits contain no constant wires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from .bitstring import BitString
from .ecc import EccParams, reed_solomon
from .errors import ConfigError, FormatError
from .ots import OtsParams, mix_words

Ref = Union[bool, int]

_NOT = "NOT"
_AND = "AND"
_OR = "OR"
_XOR = "XOR"

GATE_OPS = (_NOT, _AND, _OR, _XOR)


@dataclass(frozen=True)
class BoolCircuit:
    """Topologically ordered gate list over {AND, OR, NOT, XOR}.

    Wires 0..n_inputs-1 are the inputs; gate i drives wire n_inputs+i.
    `outputs` lists one wire per label bit; `star` is an optional extra
    output wire meaning "input rejected".
    """

    n_inputs: int
    gates: Tuple[Tuple[str, int, Optional[int]], ...]
    outputs: Tuple[int, ...]
    star: Optional[int] = None

    def __post_init__(self) -> None:
        for gi, (op, a, b) in enumerate(self.gates):
            wire = self.n_inputs + gi
            if op not in GATE_OPS:
                raise FormatError(f"unknown gate op {op!r}")
            if not 0 <= a < wire or (b is not None and not 0 <= b < wire):
                raise FormatError(f"gate {gi} reads a later wire")
            if (b is None) != (op == _NOT):
                raise FormatError(f"gate {gi} has wrong arity for {op}")
        n_wires = self.n_inputs + len(self.gates)
        for w in self.outputs:
            if not 0 <= w < n_wires:
                raise FormatError(f"output wire {w} out of range")
        if self.star is not None and not 0 <= self.star < n_wires:
            raise FormatError(f"star wire {self.star} out of range")

    @property
    def n_gates(self) -> int:
        return len(self.gates)


def eval_batch(circuit: BoolCircuit,
               xs: Sequence[BitString]) -> List[Tuple[Tuple[int, ...], bool]]:
    """Evaluate many inputs at once, one integer bit-lane per input."""
    m = len(xs)
    mask = (1 << m) - 1
    wires = []
    for i in range(circuit.n_inputs):
        v = 0
        for t, x in enumerate(xs):
            if x.length != circuit.n_inputs:
                raise FormatError(
                    f"input is {x.length} bits, circuit wants {circuit.n_inputs}")
            v |= x[i] << t
        wires.append(v)
    for op, a, b in circuit.gates:
        if op == _NOT:
            wires.append(~wires[a] & mask)
        elif op == _AND:
            wires.append(wires[a] & wires[b])
        elif op == _OR:
            wires.append(wires[a] | wires[b])
        else:
            wires.append(wires[a] ^ wires[b])
    out = []
    for t in range(m):
        labels = tuple((wires[w] >> t) & 1 for w in circuit.outputs)
        star = bool((wires[circuit.star] >> t) & 1) \
            if circuit.star is not None else False
        out.append((labels, star))
    return out


def eval_circuit(circuit: BoolCircuit,
                 x: BitString) -> Tuple[Tuple[int, ...], bool]:
    return eval_batch(circuit, [x])[0]


class CircuitBuilder:
    """Gate emitter with constant folding and structural dedup."""

    def __init__(self, n_inputs: int) -> None:
        if n_inputs < 1:
            raise ConfigError("circuits need at least one input")
        self.n_inputs = n_inputs
        self.gates: List[Tuple[str, int, Optional[int]]] = []
        self._cache: dict = {}

    def input(self, i: int) -> Ref:
        if not 0 <= i < self.n_inputs:
            raise ConfigError(f"input {i} out of range")
        return i

    def _emit(self, op: str, a: int, b: Optional[int]) -> int:
        if b is not None and op != _NOT and a > b:
            a, b = b, a  # commutative ops: canonical operand order
        key = (op, a, b)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self.gates.append((op, a, b))
        wire = self.n_inputs + len(self.gates) - 1
        self._cache[key] = wire
        return wire

    def not_(self, a: Ref) -> Ref:
        if isinstance(a, bool):
            return not a
        return self._emit(_NOT, a, None)

    def and_(self, a: Ref, b: Ref) -> Ref:
        if isinstance(a, bool):
            return b if a else False
        if isinstance(b, bool):
            return a if b else False
        if a == b:
            return a
        return self._emit(_AND, a, b)

    def or_(self, a: Ref, b: Ref) -> Ref:
        if isinstance(a, bool):
            return True if a else b
        if isinstance(b, bool):
            return True if b else a
        if a == b:
            return a
        return self._emit(_OR, a, b)

    def xor(self, a: Ref, b: Ref) -> Ref:
        if isinstance(a, bool):
            return self.not_(b) if a else b
        if isinstance(b, bool):
            return self.not_(a) if b else a
        if a == b:
            return False
        return self._emit(_XOR, a, b)

    def xnor(self, a: Ref, b: Ref) -> Ref:
        return self.not_(self.xor(a, b))

    def mux(self, sel: Ref, if0: Ref, if1: Ref) -> Ref:
        return self.xor(if0, self.and_(sel, self.xor(if0, if1)))

    def and_all(self, refs: Sequence[Ref]) -> Ref:
        acc: Ref = True
        for r in refs:
            acc = self.and_(acc, r)
        return acc

    def xor_all(self, refs: Sequence[Ref]) -> Ref:
        acc: Ref = False
        for r in refs:
            acc = self.xor(acc, r)
        return acc

    def materialize(self, ref: Ref) -> int:
        """Turn a folded constant into a real wire (outputs must be wires)."""
        if not isinstance(ref, bool):
            return ref
        t = self._emit(_OR, 0, self._emit(_NOT, 0, None))
        return t if ref else self._emit(_NOT, t, None)

    def inline(self, sub: BoolCircuit, inputs: Sequence[Ref]) -> List[Ref]:
        """Splice another circuit's gates onto the given input refs.

        Returns the refs for the sub-circuit's output wires (star excluded).
        """
        if len(inputs) != sub.n_inputs:
            raise ConfigError("inline input count mismatch")
        refs: List[Ref] = list(inputs)
        for op, a, b in sub.gates:
            if op == _NOT:
                refs.append(self.not_(refs[a]))
            elif op == _AND:
                refs.append(self.and_(refs[a], refs[b]))
            elif op == _OR:
                refs.append(self.or_(refs[a], refs[b]))
            else:
                refs.append(self.xor(refs[a], refs[b]))
        return [refs[w] for w in sub.outputs]

    def build(self, outputs: Sequence[Ref],
              star: Optional[Ref] = None) -> BoolCircuit:
        outs = tuple(self.materialize(o) for o in outputs)
        star_w = None if star is None else self.materialize(star)
        return BoolCircuit(self.n_inputs, tuple(self.gates), outs, star_w)


# ---------------------------------------------------------------------------
# Word-level helpers (LSB-first wire lists)
# ---------------------------------------------------------------------------

def _add_words(b: CircuitBuilder, u: List[Ref], v: List[Ref]) -> List[Ref]:
    """Ripple-carry addition truncated to the common width."""
    out: List[Ref] = []
    carry: Ref = False
    for x, y in zip(u, v):
        s = b.xor(x, y)
        out.append(b.xor(s, carry))
        carry = b.or_(b.and_(x, y), b.and_(carry, s))
    return out


class _Word:
    """64 refs, LSB first, with the operators ots.mix_words applies: ^ & +
    with a word or an int constant, whose bits fold in the builder; >> by
    a constant; and * by a constant, as shift-and-add."""

    def __init__(self, b: CircuitBuilder, bits: List[Ref]) -> None:
        self.b, self.bits = b, bits

    def _other(self, v: Union["_Word", int]) -> List[Ref]:
        return v.bits if isinstance(v, _Word) else \
            [bool((v >> j) & 1) for j in range(64)]

    def __xor__(self, v: Union["_Word", int]) -> "_Word":
        return _Word(self.b, list(map(self.b.xor, self.bits, self._other(v))))

    __rxor__ = __xor__

    def __and__(self, v: int) -> "_Word":
        return _Word(self.b, list(map(self.b.and_, self.bits, self._other(v))))

    def __add__(self, v: Union["_Word", int]) -> "_Word":
        return _Word(self.b, _add_words(self.b, self.bits, self._other(v)))

    def __rshift__(self, k: int) -> "_Word":
        return _Word(self.b, self.bits[k:] + [False] * k)

    def __mul__(self, c: int) -> "_Word":
        acc = _Word(self.b, [False] * 64)
        for k in range(64):
            if (c >> k) & 1:
                acc += _Word(self.b, ([False] * k + self.bits)[:64])
        return acc


def hash_circuit(b: CircuitBuilder, bits_msb: Sequence[Ref], length: int,
                 out_bits: int, rounds: int) -> List[Ref]:
    """Gate-level toy_hash of a message that fits one 64-bit word, as
    out_bits refs MSB-first: ots.mix_words of a circuit word."""
    if length > 64 or out_bits > 64:
        raise ConfigError("hash circuit limited to one 64-bit word")
    word = [bits_msb[length - 1 - j] for j in range(length)]
    digest = mix_words(_Word(b, word + [False] * (64 - length)), length,
                       out_bits, rounds)
    return digest.bits[:out_bits][::-1]


# ---------------------------------------------------------------------------
# Hypothesis circuits
# ---------------------------------------------------------------------------

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
        eq = b.and_(eq, b.xnor(total[j], bool(tb)))
    return b.build([b.or_(gt, eq)])


C1_CIRCUIT_HLEN_CAP = 4
C1_CIRCUIT_SLEN_CAP = 8


def circuit_of_classifier_c1(base: BoolCircuit, ots: OtsParams,
                             ecc: EccParams) -> BoolCircuit:
    """Gate-level form of the tamper-detecting classifier at tiny parameters.

    Two outputs: the base label, and a star wire raised when the key
    codeword has inconsistent parity or the signature fails to verify.
    Restricted to codes with t_max = 0: their decoder accepts exactly the
    codewords, which makes decoding a parity re-check, a pure XOR network.
    """
    if ots.hlen > C1_CIRCUIT_HLEN_CAP or ots.slen > C1_CIRCUIT_SLEN_CAP:
        raise ConfigError(
            f"circuit emission capped at hlen<={C1_CIRCUIT_HLEN_CAP}, "
            f"slen<={C1_CIRCUIT_SLEN_CAP}")
    if ecc.t_max != 0:
        raise ConfigError(
            "classifier circuit requires a t_max=0 code (decode == parity check)")
    if ecc.data_bits != ots.vk_bits:
        raise ConfigError(
            f"code data width {ecc.data_bits} != verification-key width "
            f"{ots.vk_bits}")
    d = base.n_inputs
    hlen, slen = ots.hlen, ots.slen
    b = CircuitBuilder(d + ots.sig_bits + ecc.n_bits)
    x = [b.input(i) for i in range(d)]
    sig = [b.input(d + i) for i in range(ots.sig_bits)]
    code = [b.input(d + ots.sig_bits + i) for i in range(ecc.n_bits)]
    data, parity = code[: ecc.data_bits], code[ecc.data_bits:]

    # parity bit j (MSB-first) is the XOR of the data bits whose parity
    # column has it set
    columns = reed_solomon(ecc).parity_columns
    checks: List[Ref] = []
    for j, pbit in enumerate(parity):
        shift = len(parity) - 1 - j
        pred = b.xor_all([data[i] for i, col in enumerate(columns)
                          if (col >> shift) & 1])
        checks.append(b.xnor(pred, pbit))

    dig = hash_circuit(b, x, d, hlen, ots.hash_rounds)
    for i in range(hlen):
        pre = sig[i * slen: (i + 1) * slen]
        h = hash_circuit(b, pre, slen, hlen, ots.hash_rounds)
        vk0 = data[2 * i * hlen: (2 * i + 1) * hlen]
        vk1 = data[(2 * i + 1) * hlen: (2 * i + 2) * hlen]
        for j in range(hlen):
            target = b.mux(dig[i], vk0[j], vk1[j])
            checks.append(b.xnor(h[j], target))

    verified = b.and_all(checks)
    label = b.inline(base, x)[0]
    return b.build([label], star=b.not_(verified))
