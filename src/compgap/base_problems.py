"""Base learning problems with exactly computable (adversarial) risk.

MajorityNoise is the vulnerable problem the signature wrapper is built
around: instances are uniform d-bit strings (d odd), the label is the
majority bit flipped with probability alpha.  Its adversarial risk under
b-bit perturbations has a closed form, and a brute-force Hamming-ball
enumeration provides an independent oracle for the same quantity, so every
downstream Monte-Carlo result can be checked against exact values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .bitstring import BitString
from .errors import ConfigError
from .game import STAR, Hypothesis, Problem


# the largest d: here analytic_adv_risk takes 0.08 s at b = 2 and 0.8 s at
# b >= d/2 (all d + 1 binomials) on a 2-core Xeon VM, a trial far less
MAX_D = 50_001


@dataclass(frozen=True, slots=True)
class MajorityNoiseParams:
    d: int
    alpha: float

    def __post_init__(self) -> None:
        if not 1 <= self.d <= MAX_D or self.d % 2 == 0:
            raise ConfigError(f"d must be odd and in 1..{MAX_D}, got {self.d}")
        if not 0 <= self.alpha < 1:
            raise ConfigError(f"alpha must be in [0,1), got {self.alpha}")


def majority(x: BitString) -> int:
    return 1 if 2 * x.ones() > x.length else 0


def sample_majority_noise(params: MajorityNoiseParams, seed: int):
    rng = random.Random(seed)
    x = BitString.random(rng, params.d)
    y = majority(x)
    if params.alpha and rng.random() < params.alpha:
        y ^= 1
    return x, y


def majority_noise_problem(params: MajorityNoiseParams) -> Problem:
    return Problem(
        instance_len=params.d,
        sampler=lambda seed: sample_majority_noise(params, seed),
    )


def majority_hypothesis(d: int) -> Hypothesis:
    return Hypothesis(instance_len=d, classify=majority)


def uniform_balanced_problem(d: int) -> Problem:
    """Uniform instances with an independent fair label bit.

    Base distribution for the no-tamper-detection construction, which only
    needs a balanced binary label.
    """
    def sampler(seed: int):
        rng = random.Random(seed)
        return BitString.random(rng, d), rng.getrandbits(1)

    return Problem(instance_len=d, sampler=sampler)


def analytic_adv_risk(params: MajorityNoiseParams, b: int) -> Fraction:
    """Exact adversarial risk of the majority classifier under b bit flips.

    alpha + (1-alpha) * Pr[|2*ones(x) - d| <= 2b]: a noisy label wins
    untampered, and a clean instance is flippable iff its majority margin is
    within reach of b minority-side flips (flipping minority bits is optimal,
    see docs/greedy_majority.md).

    Exact for the binary float params.alpha, taken as Fraction(alpha), not
    for the decimal it was written as: alpha=0.05 enters as
    3602879701896397/2^56, not 1/20.
    """
    if b < 0:
        raise ConfigError("budget must be >= 0")
    d = params.d
    alpha = Fraction(params.alpha)
    # the at most 2b + 1 counts of ones o with |2o - d| <= 2b, each binomial
    # from the one before: C(d, o + 1) = C(d, o) * (d - o) / (o + 1)
    reachable, lo = 0, max(0, (d - 2 * b + 1) // 2)
    term = math.comb(d, lo)
    for o in range(lo, min(d, (d + 2 * b) // 2) + 1):
        reachable += term
        term = term * (d - o) // (o + 1)
    return alpha + (1 - alpha) * Fraction(reachable, 1 << d)


BRUTE_FORCE_D_CAP = 20


def brute_force_adv_risk(params: MajorityNoiseParams, h: Hypothesis,
                         b: int) -> Fraction:
    """Exact adversarial risk of any hypothesis by full ball enumeration.

    For every instance x and both label branches (clean weight 1-alpha,
    noisy weight alpha), checks whether the identity wins or some x' within
    b flips is misclassified without tripping STAR.  Like analytic_adv_risk,
    exact for the binary float params.alpha, not for its decimal spelling.
    """
    d = params.d
    if d > BRUTE_FORCE_D_CAP:
        raise ConfigError(f"d={d} exceeds enumeration cap {BRUTE_FORCE_D_CAP}")
    if b < 0:
        raise ConfigError("budget must be >= 0")
    size = 1 << d
    table = np.empty(size, dtype=np.int64)
    for v in range(size):
        out = h(BitString(v, d))
        table[v] = -1 if out is STAR else out
    xs = np.arange(size, dtype=np.int64)
    ones = np.array([v.bit_count() for v in range(size)], dtype=np.int64)
    maj = (2 * ones > d).astype(np.int64)
    wins = {}
    for y_arr, tag in ((maj, "clean"), (1 - maj, "noisy")):
        win = table != y_arr  # identity: STAR (-1) also counts
        for k in range(1, b + 1):
            for pos in combinations(range(d), k):
                mask = 0
                for i in pos:
                    mask |= 1 << (d - 1 - i)
                t = table[xs ^ mask]
                win |= (t != y_arr) & (t != -1)
        wins[tag] = int(win.sum())
    alpha = Fraction(params.alpha)
    return (alpha * Fraction(wins["noisy"], size)
            + (1 - alpha) * Fraction(wins["clean"], size))
