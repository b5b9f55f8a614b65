"""Challenger/adversary security game and Monte-Carlo risk estimators.

A trial is fully determined by a 64-bit seed.  Estimators derive per-trial
seeds from a master seed with a splitmix-style mixer (`mix_seed`), so running
the plain-risk estimator and the adversarial estimator on the same master
seed draws identical test examples trial by trial.  This makes the
identity-attacker equivalence an exact, not statistical, property.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Callable, Tuple, Union

from .bitstring import BitString, hamming_distance
from .errors import AttackerProtocolError


class _Star:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "STAR"


#: Tamper-detection symbol.  Never a member of any label set, so it always
#: compares unequal to a true label.
STAR = _Star()

Label = Union[int, _Star]

# splitmix64's constants; ots.toy_hash and its gate-level twin in circuits
# use the same mixer
MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MUL1 = 0xBF58476D1CE4E5B9
MUL2 = 0x94D049BB133111EB


def splitmix64(z: int) -> int:
    """The splitmix64 finalizer of z mod 2^64; z may also be a numpy uint64
    array (ots.hash_words), whose arithmetic wraps mod 2^64."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MUL1) & MASK64
    z = ((z ^ (z >> 27)) * MUL2) & MASK64
    return z ^ (z >> 31)


def mix_seed(master_seed: int, i: int) -> int:
    """Per-trial (or per-stream) seed: splitmix64 of master advanced i+1 steps
    of the golden-ratio increment."""
    return splitmix64(master_seed + (i + 1) * GOLDEN)


class Reason(enum.Enum):
    MISCLASSIFIED_UNTAMPERED = "misclassified_untampered"
    TAMPER_WIN = "tamper_win"
    BUDGET_EXCEEDED = "budget_exceeded"
    DETECTED_STAR = "detected_star"
    CORRECT_LABEL = "correct_label"


_WINNING_REASONS = {Reason.MISCLASSIFIED_UNTAMPERED, Reason.TAMPER_WIN}


@dataclass(frozen=True, slots=True)
class GameOutcome:
    won: bool
    reason: Reason
    perturbation_used: int
    queries_used: int = 0


class Counters:
    """Transcript-local query counter (hash calls plus oracle calls)."""

    __slots__ = ("queries",)

    def __init__(self) -> None:
        self.queries = 0

    def charge(self, n: int = 1) -> None:
        self.queries += n


@dataclass(frozen=True)
class Problem:
    """A samplable labeled distribution over fixed-length instances."""

    instance_len: int
    sampler: Callable[[int], Tuple[BitString, Label]]

    def sample(self, seed: int) -> Tuple[BitString, Label]:
        return self.sampler(seed)


@dataclass(frozen=True)
class Hypothesis:
    """A total, deterministic map from instances to labels or STAR."""

    instance_len: int
    classify: Callable[[BitString], Label]

    def __call__(self, x: BitString) -> Label:
        return self.classify(x)


@dataclass(frozen=True, slots=True)
class RiskEstimate:
    point: float
    trials: int
    half_width: float
    seed: int


def binomial_half_width(point: float, trials: int) -> float:
    """95% normal-approximation half-width: 1.96*sqrt(p(1-p)/n)."""
    return 1.96 * math.sqrt(point * (1.0 - point) / trials)


def winning(x: BitString, x_prime: BitString, y: Label, h: Hypothesis,
            budget: int, queries_used: int = 0) -> GameOutcome:
    """Winning conditions of the tampering game.

    On an untampered instance the adversary wins iff the hypothesis errs,
    and STAR on a clean input counts as an error.  On a tampered instance
    the adversary must stay within budget, flip the label, and evade
    detection: STAR on a tampered input is a loss.
    """
    dist = hamming_distance(x, x_prime)
    if dist == 0:
        out = h(x)
        if out != y:
            return GameOutcome(True, Reason.MISCLASSIFIED_UNTAMPERED, 0, queries_used)
        return GameOutcome(False, Reason.CORRECT_LABEL, 0, queries_used)
    if dist > budget:
        return GameOutcome(False, Reason.BUDGET_EXCEEDED, dist, queries_used)
    out = h(x_prime)
    if out is STAR:
        return GameOutcome(False, Reason.DETECTED_STAR, dist, queries_used)
    if out != y:
        return GameOutcome(True, Reason.TAMPER_WIN, dist, queries_used)
    return GameOutcome(False, Reason.CORRECT_LABEL, dist, queries_used)


def play_game(problem: Problem, hypothesis: Hypothesis, attacker,
              budget: int, seed: int) -> GameOutcome:
    """One round of the game: sample, let the attacker perturb, judge.

    The attacker gets black-box oracles for the hypothesis and for fresh
    samples from the distribution; both oracle calls and the attacker's own
    hash evaluations are charged to the same transcript-local counter.
    """
    x, y = problem.sample(seed)
    counters = Counters()
    rng = random.Random(mix_seed(seed, 0x41747461))

    def h_oracle(q: BitString) -> Label:
        counters.charge()
        return hypothesis(q)

    def sampler_oracle() -> Tuple[BitString, Label]:
        counters.charge()
        return problem.sample(rng.getrandbits(63))

    x_prime = attacker.perturb(x, y, h_oracle, sampler_oracle, rng, counters)
    if x_prime.length != x.length:
        raise AttackerProtocolError(
            f"attacker returned length {x_prime.length}, expected {x.length}")
    return winning(x, x_prime, y, hypothesis, budget, counters.queries)


def estimate_risk(problem: Problem, h: Hypothesis, trials: int,
                  seed: int) -> RiskEstimate:
    """Monte-Carlo estimate of Pr[h(x) != y]; STAR always counts as an error."""
    errors = 0
    for i in range(trials):
        x, y = problem.sample(mix_seed(seed, i))
        if h(x) != y:
            errors += 1
    point = errors / trials
    return RiskEstimate(point, trials, binomial_half_width(point, trials), seed)


def estimate_adv_risk(problem: Problem, h: Hypothesis, attacker, budget: int,
                      trials: int, seed: int) -> RiskEstimate:
    """Fraction of won games over per-trial seeds shared with estimate_risk."""
    outcomes = game_transcript(problem, h, attacker, budget, trials, seed)
    point = sum(o.won for o in outcomes) / trials
    return RiskEstimate(point, trials, binomial_half_width(point, trials), seed)


def game_transcript(problem: Problem, h: Hypothesis, attacker, budget: int,
                    trials: int, seed: int) -> list[GameOutcome]:
    """Per-game outcomes for audit logs; same seed schedule as the estimators."""
    return [play_game(problem, h, attacker, budget, mix_seed(seed, i))
            for i in range(trials)]
