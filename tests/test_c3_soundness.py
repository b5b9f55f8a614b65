"""C3's separation rests on its code, not only on the forger it is played
against.

A tamper within C3's budget of sig_bits flips must leave both codewords
decodable and one signature slot intact.  Then no tamper turns a label-1
instance into a 0, and turning a 0 into a 1 needs a forgery.  The code
breaker below makes no query: it flips one bit in each of the first
min(t_max + 1, budget) symbols of the instance codeword.  It wins nothing
against the derived code, and it wins every label-1 game against a code
whose radius is smaller than the budget.

A label-0 game is won only by a forgery: each such win is replayed and
shown to carry a verifying slot that the attacker wrote, for a message and
key that decode unchanged.
"""

import random

import pytest

from compgap.attackers import Attacker
from compgap.base_problems import uniform_balanced_problem
from compgap.cli import _build_games
from compgap.config import ExperimentConfig, parse_config
from compgap.constructions import (_KGEN_STREAM, C3Instance, c3_problem,
                                   classifier_c3)
from compgap.ecc import EccParams, reed_solomon
from compgap.game import Counters, Reason, game_transcript, mix_seed, winning
from compgap.ots import digest, kgen, targets, verify
from test_cli_bytes import C3_SLEN17, C3_SLEN60


def code_breaker(ecc: EccParams, budget: int) -> Attacker:
    """Flip bit 0 of each of the first min(t_max + 1, budget) symbols of
    the instance codeword, which sits at the low indices."""
    flips = [s * ecc.bits_per_symbol
             for s in range(min(ecc.t_max + 1, budget))]
    return Attacker("code_breaker", lambda x, y, rng, c: x.flip(*flips), 0)


def labelled(attacker: Attacker, labels: list) -> Attacker:
    """`attacker`, recording the true label of each game it plays."""
    def perturb(x, y, rng, counters):
        labels.append(y)
        return attacker.perturb(x, y, rng, counters)

    return Attacker(attacker.name, perturb, attacker.query_budget)


def play(problem, h, attacker, budget, trials, seed):
    """(label, outcome) of each game."""
    labels = []
    outs = game_transcript(problem, h, labelled(attacker, labels), budget,
                           trials, seed)
    return list(zip(labels, outs))


def _config(text: str) -> ExperimentConfig:
    return parse_config(text.replace("; ", "\n"))


# the worked configuration and the pinned C3 sets, each with the lab's
# forgers that can play it (60-bit preimages pass the table forger's cap)
C3_SETS = {"worked": ("", ("unbounded_c3", "bounded_c3")),
           "slen17": (C3_SLEN17, ("unbounded_c3", "bounded_c3")),
           "slen60": (C3_SLEN60, ("bounded_c3",))}


@pytest.mark.parametrize("name", sorted(C3_SETS))
def test_no_label_one_game_is_ever_a_tamper_win(name):
    text, forgers = C3_SETS[name]
    cfg = _config(text)
    g = _build_games(cfg, forgers)
    for a in g.attackers + [code_breaker(cfg.c3_ecc_params(), g.budget)]:
        played = play(g.problem, g.hypothesis, a, g.budget, 200, 42)
        assert {y for y, _ in played} == {0, 1}
        assert not [o for y, o in played
                    if y == 1 and o.reason is Reason.TAMPER_WIN], a.name


def test_code_breaker_wins_nothing_against_the_derived_code():
    cfg = ExperimentConfig()
    g, ecc = _build_games(cfg, ("unbounded_c3",)), cfg.c3_ecc_params()
    played = play(g.problem, g.hypothesis, code_breaker(ecc, g.budget),
                  g.budget, 400, 42)
    assert sum(o.won for _, o in played) == 0
    # every game spent the whole budget, one flip per symbol
    assert ecc.t_max == g.budget == 80
    assert all(o.perturbation_used == 80 for _, o in played)


def test_code_breaker_wins_every_label_one_game_below_the_budget():
    # RS(40,16) corrects 12 symbols, far below C3's budget of 80 flips
    cfg = ExperimentConfig()
    ots, ecc = cfg.c3_ots_params(), EccParams(16, 40, 8)
    prob = c3_problem(uniform_balanced_problem(cfg.c3.d), ots, ecc)
    played = play(prob, classifier_c3(ots, ecc),
                  code_breaker(ecc, ots.sig_bits), ots.sig_bits, 400, 42)
    ones = [o for y, o in played if y == 1]
    assert ones and all(o.reason is Reason.TAMPER_WIN for o in ones)
    assert not any(o.won for y, o in played if y == 0)


def _verifying_slots(inst: C3Instance, want, ots) -> list:
    ell = ots.sig_bits
    return [i for i in range(ots.sig_bits + 1)
            if verify(inst.slots.extract(i * ell, ell), want, ots)]


@pytest.mark.parametrize("name", ["worked", "slen17"])
def test_every_label_zero_win_is_a_signature_the_attacker_wrote(name):
    text, forgers = C3_SETS[name]
    cfg = _config(text)
    ots, ecc = cfg.c3_ots_params(), cfg.c3_ecc_params()
    rs, base = reed_solomon(ecc), uniform_balanced_problem(cfg.c3.d)
    seed = 42
    g = _build_games(cfg, forgers)
    for forger, a in zip(forgers, g.attackers):
        played = play(g.problem, g.hypothesis, a, g.budget, 200, seed)
        zeros = [i for i, (y, _) in enumerate(played) if y == 0]
        wins = [i for i in zeros if played[i][1].reason is Reason.TAMPER_WIN]
        if forger == "unbounded_c3":  # so the check below is not vacuous
            assert wins == zeros and zeros
        for i in wins:
            # replay the game as play_game plays it
            s = mix_seed(seed, i)
            x, y = g.problem.sample(s)
            counters = Counters(a.query_budget)
            rng = random.Random(mix_seed(s, 0x41747461))
            x_prime = a.perturb(x, y, rng, counters)
            assert winning(x, x_prime, y, g.hypothesis, g.budget,
                           counters.queries) == played[i][1]
            # the codewords decode to the challenge's instance and key
            message = base.sample(s)[0]
            vk = kgen(ots, mix_seed(s, _KGEN_STREAM)).vk
            tampered = C3Instance.from_bits(x_prime, ots, ecc)
            assert rs.decode(tampered.x_code) == message
            assert rs.decode(tampered.vk_code) == vk
            # a slot of x' verifies, and none of x did
            want = targets(vk, digest(message, ots), ots)
            assert _verifying_slots(tampered, want, ots), (forger, i)
            assert not _verifying_slots(
                C3Instance.from_bits(x, ots, ecc), want, ots), (forger, i)
