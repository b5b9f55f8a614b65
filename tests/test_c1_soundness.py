"""Every C1 tamper win is noise, a digest collision or a forgery.

The bounded side of the separation rests on a reduction: an attacker that
wins a tampered C1 game must make the classifier accept a signature on a
base instance it was never given one for.  Each `TAMPER_WIN` of the two C1
forgers is replayed as `play_game` plays it.  The key codeword, which the
forgers leave alone, decodes to the challenge key (the budget b + sig_bits
is the code's t_max), and the win falls in exactly one class:

- noise: x' keeps the base part of x, whose label was noisy;
- digest collision: a new base part with the same digest, so the old
  signature verifies;
- forgery: a new digest, and x''s signature verifies for it under the
  challenge key.
"""

import random
from collections import Counter

import pytest

from compgap.base_problems import majority_hypothesis
from compgap.cli import _build_games
from compgap.config import parse_config
from compgap.constructions import _KGEN_STREAM, WrappedInstance
from compgap.ecc import reed_solomon
from compgap.game import Counters, Reason, game_transcript, mix_seed, winning
from compgap.ots import digest, kgen, targets, verify
from test_cli_bytes import C1_SLEN8, C1_SLEN17, C1_SLEN40

# the worked configuration and the pinned C1 sets, each with the count of
# each class of the tamper wins of the C1 forgers that can play it (a
# 40-bit preimage table is out of reach) in 200 games at seed 42.  At
# hlen = 4 a new base part keeps its digest about once in 16 flips.
C1_SETS = {
    "worked": ("", {"unbounded_c1": {"forgery": 129}, "bounded_c1": {}}),
    "slen8": (C1_SLEN8, {"unbounded_c1": {"collision": 10, "forgery": 119},
                         "bounded_c1": {"collision": 10, "forgery": 42}}),
    "slen17": (C1_SLEN17, {"unbounded_c1": {"collision": 10, "forgery": 119},
                           "bounded_c1": {"collision": 10, "forgery": 52}}),
    "slen40": (C1_SLEN40, {"bounded_c1": {"collision": 10, "forgery": 50}}),
}
TRIALS, SEED = 200, 42


def win_class(x, x_prime, y, d, ots, ecc, vk, base_h):
    """The class of a tamper win from x to x_prime: "noise",
    "collision" or "forgery"; None when it is none of them."""
    inst = WrappedInstance.from_bits(x, d, ots, ecc)
    tampered = WrappedInstance.from_bits(x_prime, d, ots, ecc)
    signs = verify(tampered.sigma, targets(vk, digest(tampered.x, ots), ots),
                   ots)
    if tampered.x == inst.x:
        return "noise" if base_h(inst.x) != y and signs else None
    if digest(tampered.x, ots) == digest(inst.x, ots):
        return "collision" if signs else None
    return "forgery" if signs else None


@pytest.mark.parametrize("name", sorted(C1_SETS))
def test_every_c1_tamper_win_falls_in_one_class(name):
    text, want = C1_SETS[name]
    cfg = parse_config(text.replace("; ", "\n"))
    p, ots, ecc = cfg.problem_params(), cfg.ots_params(), cfg.ecc_params()
    rs, base_h = reed_solomon(ecc), majority_hypothesis(p.d)
    classes = {}  # forger -> {class: wins}
    g = _build_games(cfg, tuple(want))
    for forger, a in zip(want, g.attackers):
        outcomes = game_transcript(g.problem, g.hypothesis, a, g.budget,
                                   TRIALS, SEED)
        counts = Counter()
        for i, o in enumerate(outcomes):
            if o.reason is not Reason.TAMPER_WIN:
                continue
            # replay the game as play_game plays it
            s = mix_seed(SEED, i)
            x, y = g.problem.sample(s)
            counters = Counters(a.query_budget)
            rng = random.Random(mix_seed(s, 0x41747461))
            x_prime = a.perturb(x, y, rng, counters)
            assert winning(x, x_prime, y, g.hypothesis, g.budget,
                           counters.queries) == o
            vk = kgen(ots, mix_seed(s, _KGEN_STREAM)).vk
            tampered = WrappedInstance.from_bits(x_prime, p.d, ots, ecc)
            assert rs.decode(tampered.vk_code) == vk
            cls = win_class(x, x_prime, y, p.d, ots, ecc, vk, base_h)
            assert cls is not None, (forger, i)
            counts[cls] += 1
        classes[forger] = dict(counts)
    assert classes == want
