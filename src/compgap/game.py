"""Challenger/adversary security game and Monte-Carlo risk estimators.

A trial is fully determined by a 64-bit seed.  Estimators derive per-trial
seeds from a master seed with a splitmix-style mixer (`mix_seed`), so running
the plain-risk estimator and the adversarial estimator on the same master
seed draws identical test examples trial by trial.  This makes the
identity-attacker equivalence an exact, not statistical, property.

A game command walks its trials once (`play_trials`): it draws each
trial's example once, and all of its attackers, plus c3's honest trial,
play that example.  That gives the outcomes a pass per attacker would give,
since a game reads only its seed and its example.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

from .bitstring import BitString, hamming_distance
from .errors import DecodeFailure, InvariantViolation, PreimageNotFound


class _Star:
    def __repr__(self) -> str:
        return "STAR"


#: Tamper-detection symbol.  Never a member of any label set, so it always
#: compares unequal to a true label.
STAR = _Star()

Label = Union[int, _Star]

# splitmix64's constants; splitmix64 is also the one round of the toy hash,
# ots.mix_words, which runs it on ints and on numpy uint64 arrays
MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MUL1 = 0xBF58476D1CE4E5B9
MUL2 = 0x94D049BB133111EB


def splitmix64(z: int) -> int:
    """The splitmix64 finalizer of z mod 2^64, for either kind of value
    ots.mix_words hashes.  z is masked before the first step and after each
    multiply: exact for an int of any size, and no-ops on a numpy uint64
    array, which wraps mod 2^64 by itself.  The caller's array is not
    written."""
    z = z & MASK64
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


@dataclass(frozen=True, slots=True)
class GameOutcome:
    won: bool
    reason: Reason
    perturbation_used: int
    queries_used: int = 0


class Counters:
    """Transcript-local query counter; the attacker charges its hashes.  A
    charge that would pass the budget (None: none) stops at it and raises
    PreimageNotFound."""

    __slots__ = ("queries", "budget")

    def __init__(self, budget: Optional[int] = None) -> None:
        self.queries = 0
        self.budget = budget

    def charge(self, n: int = 1) -> None:
        if self.budget is not None and self.queries + n > self.budget:
            self.queries = self.budget
            raise PreimageNotFound("query budget spent")
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
              budget: int, seed: int,
              example: Optional[Tuple[BitString, Label]] = None
              ) -> GameOutcome:
    """One round of the game: sample, let the attacker perturb, judge.

    The attacker gets the challenge (x, y), an rng of its own and a
    transcript-local counter that enforces its `query_budget`.  The attacker
    charges the hashes it computes, and the outcome reports the total.  When
    the attacker gives up (DecodeFailure, PreimageNotFound) the game plays x.
    `example`, when given, is the (x, y) that problem.sample(seed) returns,
    and the game does not sample.
    """
    x, y = problem.sample(seed) if example is None else example
    counters = Counters(attacker.query_budget)
    rng = random.Random(mix_seed(seed, 0x41747461))
    try:
        x_prime = attacker.perturb(x, y, rng, counters)
    except (DecodeFailure, PreimageNotFound):
        x_prime = x
    if x_prime.length != x.length:
        raise InvariantViolation(
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


def play_trials(problem: Problem, h: Hypothesis, games: Sequence[tuple],
                trials: int, seed: int) -> list[list[GameOutcome]]:
    """Each (attacker, budget) game's outcomes over the trials, from one
    pass: trial i draws its example at mix_seed(seed, i) once, and every
    game plays that example, in the order given."""
    outcomes: list[list[GameOutcome]] = [[] for _ in games]
    for i in range(trials):
        s = mix_seed(seed, i)
        example = problem.sample(s)
        for (attacker, budget), out in zip(games, outcomes):
            out.append(play_game(problem, h, attacker, budget, s, example))
    return outcomes


def game_transcript(problem: Problem, h: Hypothesis, attacker, budget: int,
                    trials: int, seed: int) -> list[GameOutcome]:
    """Per-game outcomes for audit logs; same seed schedule as the estimators."""
    return play_trials(problem, h, [(attacker, budget)], trials, seed)[0]
