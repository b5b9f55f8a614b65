"""Distributions over CNF formulas built from the tampering game.

Stage 1 compiles one drawn example into "there is an adversarial example in
the Hamming ball".  Stage 2 conjoins k independent stage-1 formulas behind
selector variables and requires a tau fraction of selectors.  The final
stage conjoins several disjoint stage-2 formulas.  Bundles keep enough
provenance to decode any satisfying assignment back into concrete
adversarial examples and check them against the real hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .bitstring import BitString, hamming_distance
from .circuits import BoolCircuit, eval_circuit
from .cnf import CnfFormula, at_least, encode_hamming_ball, tseitin
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
    the circuit's Tseitin formula and h its output bit.  Each block extends
    its own copy of the clause list, so one transform serves every block of
    a bundle."""
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
    if circuit.n_inputs != problem.instance_len:
        raise ConfigError("circuit does not match the problem's instance length")
    x, y = problem.sample(seed)
    if not isinstance(y, int):
        raise ConfigError("stage-1 compilation needs integer labels")
    f = _compile_block(x, y, tseitin(circuit), b)
    block = BlockInfo(0, f.annotations["inputs"], x, y)
    return SamplerBundle(f, "s1", seed, b, (block,))


def _merge_guarded(f: CnfFormula, sub: CnfFormula,
                   selector: Optional[int]) -> int:
    """Append sub's clauses on fresh variables; guard them behind the
    selector when one is given.  Returns the variable offset used.  sub's
    clauses are already checked and the selector is older than every
    shifted variable, so they are copied without a second check."""
    off = f.num_vars
    f.new_vars(sub.num_vars)
    guard = [] if selector is None else [-selector]
    f.clauses.extend(guard + [l + off if l > 0 else l - off for l in clause]
                     for clause in sub.clauses)
    f.branch_order.extend(v + off for v in sub.branch_order)
    f.prefer_true.extend(v + off for v in sub.prefer_true)
    return off


def sample_s2(problem: Problem, circuit: BoolCircuit, b: int, k: int,
              tau: float, seed: int) -> SamplerBundle:
    """k independent stage-1 formulas on disjoint variables, of which at
    least ceil(tau*k) must hold, chosen by selector variables.  The ceiling
    is taken on tau's decimal repr (0.28 of 25 is 7), not on its binary
    value."""
    return _sample_s2(problem, tseitin(circuit), b, k, tau, seed)


def _sample_s2(problem: Problem, gates: CnfFormula, b: int, k: int,
               tau: float, seed: int) -> SamplerBundle:
    if k < 1:
        raise ConfigError("k must be >= 1")
    if not 0 < tau <= 1:
        raise ConfigError("tau must be in (0, 1]")
    f = CnfFormula()
    selectors: List[int] = []
    blocks: List[BlockInfo] = []
    for j in range(k):
        x, y = problem.sample(mix_seed(seed, j))
        sub = _compile_block(x, y, gates, b)
        s = f.new_var()
        selectors.append(s)
        # decide each selector right before its block's variables; a set
        # selector is then refuted or satisfied locally before moving on
        f.branch_order.append(s)
        f.prefer_true.append(s)
        off = _merge_guarded(f, sub, s)
        blocks.append(BlockInfo(
            s, tuple(v + off for v in sub.annotations["inputs"]), x, y))
    at_least(f, selectors, math.ceil(Fraction(str(tau)) * k))
    f.annotate("selectors", selectors)
    return SamplerBundle(f, "s2", seed, b, tuple(blocks))


def sample_s_final(problem: Problem, circuit: BoolCircuit, b: int, k: int,
                   tau: float, reps: int, seed: int) -> SamplerBundle:
    """Conjunction of reps disjoint stage-2 formulas; every one must hold."""
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    gates = tseitin(circuit)
    f = CnfFormula()
    blocks: List[BlockInfo] = []
    for r in range(reps):
        sub_bundle = _sample_s2(problem, gates, b, k, tau,
                                mix_seed(seed, 0x5346 + r))
        off = _merge_guarded(f, sub_bundle.formula, None)
        for blk in sub_bundle.blocks:
            blocks.append(BlockInfo(blk.selector + off,
                                    tuple(v + off for v in blk.input_vars),
                                    blk.x, blk.y))
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

