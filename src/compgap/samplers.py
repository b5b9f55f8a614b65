"""Distributions over CNF formulas built from the tampering game.

Stage 1 compiles one drawn example into "there is an adversarial example in
the Hamming ball".  Stage 2 conjoins k independent stage-1 formulas behind
selector variables and requires a tau fraction of selectors.  It compiles
one block and makes each of the k from it: the examples change only the
signs of their input bits' channel literals and of the label unit.  The
final stage conjoins several disjoint stage-2 formulas.  Bundles keep
enough provenance to decode any satisfying assignment back into concrete
adversarial examples and check them against the real hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .bitstring import BitString, hamming_distance
from .circuits import BoolCircuit, eval_circuit
from .cnf import (CnfFormula, at_least, encode_hamming_ball, recentre_ball,
                  tseitin)
from .errors import ConfigError
from .game import Problem, mix_seed


@dataclass(frozen=True)
class BlockInfo:
    """One embedded stage-1 formula: its selector (0 for none), variable
    offsets, and the example it was compiled from."""

    selector: int
    input_vars: Tuple[int, ...]
    x: BitString
    y: int


@dataclass(frozen=True)
class SamplerBundle:
    formula: CnfFormula
    stage: str  # forge.stage's word: s1, s2 or s
    seed: int
    b: int
    blocks: Tuple[BlockInfo, ...]

    def witness_decoder(self, assignment: dict) -> List[Tuple[int, BitString]]:
        """(block index, perturbed x) of each block the assignment selects;
        a block with selector 0 always counts."""
        return [(j, BitString.from_bits(int(assignment[v])
                                        for v in blk.input_vars))
                for j, blk in enumerate(self.blocks)
                if not blk.selector or assignment[blk.selector]]


def _compile_block(x: BitString, y: int, gates: CnfFormula,
                   b: int) -> CnfFormula:
    """CNF for: exists x' with HD(x,x') <= b and h(x') != y, where gates is
    the circuit's Tseitin formula and h its output bit.  It extends its own
    copy of the gates' clause list, so gates can be compiled again."""
    if x.length != len(gates.annotations["inputs"]):
        raise ConfigError("circuit does not match the problem's instance length")
    f = CnfFormula(gates.num_vars, list(gates.clauses),
                   dict(gates.annotations))
    flips = encode_hamming_ball(f, x, f.annotations["inputs"], b)
    label = f.annotations["outputs"][0]
    f.add_clause([label] if y == 0 else [-label])
    # branch on flip indicators, zeros first: the ball constraint then
    # prunes, and the XOR channel fixes the inputs by unit propagation
    f.branch_order = list(flips)
    return f


def sample_s1(problem: Problem, circuit: BoolCircuit, b: int,
              seed: int) -> SamplerBundle:
    """One drawn example compiled to a formula, SAT iff the example admits
    an in-ball adversarial perturbation (the untampered x counts when it is
    already misclassified)."""
    x, y = problem.sample(seed)
    if not isinstance(y, int):
        raise ConfigError("stage-1 compilation needs integer labels")
    f = _compile_block(x, y, tseitin(circuit), b)
    block = BlockInfo(0, f.annotations["inputs"], x, y)
    return SamplerBundle(f, "s1", seed, b, (block,))


def _merge_guarded(f: CnfFormula, sub: CnfFormula, selector: int) -> int:
    """Append sub's clauses on fresh variables, each guarded behind the
    selector.  Returns the variable offset used.  sub's clauses are
    already checked and the selector is older than every shifted
    variable, so they are copied without a second check."""
    off, n = f.num_vars, sub.num_vars
    f.new_vars(n)
    # shift[lit] is sub's literal lit on f's fresh variables; by
    # negative indexing, -v reads slot 2n+1-v
    shift = list(range(off, off + n + 1)) + list(range(-off - n, -off))
    get = shift.__getitem__
    # one int object for the guard, shared by every clause of the block;
    # -selector in the display would make one per clause (about 1 MB of
    # the np_forge benchmark's peak RSS)
    guard = -selector
    f.clauses.extend([guard, *map(get, clause)] for clause in sub.clauses)
    f.branch_order.extend(map(get, sub.branch_order))
    f.prefer_true.extend(map(get, sub.prefer_true))
    return off


def _merge_block(f: CnfFormula, template: CnfFormula, first_channel: int,
                 x: BitString, y: int, selector: int) -> int:
    """_merge_guarded(f, _compile_block(x, y, gates, b), selector), made
    from template = _compile_block(all zeros, 0, gates, b), whose ball
    channel clauses start at index first_channel (len(gates.clauses)).
    Only the example's signs differ between the two: the ball's center,
    and the label unit, the block's last clause, where y = 1."""
    start = len(f.clauses)
    off = _merge_guarded(f, template, selector)
    recentre_ball(f.clauses, start + first_channel, x)
    if y:
        f.clauses[-1][-1] = -f.clauses[-1][-1]
    return off


def sample_s2(problem: Problem, circuit: BoolCircuit, b: int, k: int,
              tau: float, seed: int) -> SamplerBundle:
    """k independent stage-1 formulas on disjoint variables, of which at
    least ceil(tau*k) must hold, chosen by selector variables.  The ceiling
    is taken on tau's decimal repr (0.28 of 25 is 7), not on its binary
    value."""
    f = CnfFormula()
    blocks = _append_s2(f, problem, tseitin(circuit), b, k, tau, seed)
    f.annotate("selectors", [blk.selector for blk in blocks])
    return SamplerBundle(f, "s2", seed, b, tuple(blocks))


def _append_s2(f: CnfFormula, problem: Problem, gates: CnfFormula, b: int,
               k: int, tau: float, seed: int) -> List[BlockInfo]:
    """Append sample_s2's formula to f on fresh variables; its blocks."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    if not 0 < tau <= 1:
        raise ConfigError("tau must be in (0, 1]")
    # one compiled block; each block of the bundle patches its signs
    template = _compile_block(BitString(0, problem.instance_len), 0, gates, b)
    blocks: List[BlockInfo] = []
    for j in range(k):
        x, y = problem.sample(mix_seed(seed, j))
        s = f.new_var()
        # decide each selector right before its block's variables; a set
        # selector is then refuted or satisfied locally before moving on
        f.branch_order.append(s)
        f.prefer_true.append(s)
        off = _merge_block(f, template, len(gates.clauses), x, y, s)
        blocks.append(BlockInfo(
            s, tuple(v + off for v in template.annotations["inputs"]), x, y))
    at_least(f, [blk.selector for blk in blocks],
             math.ceil(Fraction(str(tau)) * k))
    return blocks


def sample_s_final(problem: Problem, circuit: BoolCircuit, b: int, k: int,
                   tau: float, reps: int, seed: int) -> SamplerBundle:
    """Conjunction of reps disjoint stage-2 formulas; every one must hold."""
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    gates = tseitin(circuit)
    f = CnfFormula()
    blocks: List[BlockInfo] = []
    for r in range(reps):
        blocks += _append_s2(f, problem, gates, b, k, tau,
                             mix_seed(seed, 0x5346 + r))
    return SamplerBundle(f, "s", seed, b, tuple(blocks))


def check_witness(bundle: SamplerBundle, circuit: BoolCircuit,
                  assignment: dict) -> bool:
    """True iff every decoded perturbation is a genuine adversarial example:
    within the ball of its block's x and flipping the classifier off y."""
    for j, x_prime in bundle.witness_decoder(assignment):
        blk = bundle.blocks[j]
        if hamming_distance(blk.x, x_prime) > bundle.b \
                or eval_circuit(circuit, x_prime) == blk.y:
            return False
    return True

