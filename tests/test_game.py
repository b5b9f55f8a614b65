import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from compgap.attackers import greedy_majority_attacker, identity_attacker
from compgap.base_problems import (MajorityNoiseParams, majority_hypothesis,
                                   majority_noise_problem)
from compgap.bitstring import BitString
from compgap.errors import InvariantViolation, PreimageNotFound
from compgap.game import (STAR, Counters, Hypothesis, Reason,
                          estimate_adv_risk, estimate_risk, mix_seed,
                          play_game, splitmix64, winning)


def h_const(label, n=4):
    return Hypothesis(instance_len=n, classify=lambda x: label)


def test_untampered_misclassification_wins():
    x = BitString(0b1010, 4)
    out = winning(x, x, 1, h_const(0), budget=2)
    assert out.won and out.reason is Reason.MISCLASSIFIED_UNTAMPERED


def test_untampered_star_counts_as_error():
    x = BitString(0b1010, 4)
    out = winning(x, x, 1, h_const(STAR), budget=2)
    assert out.won and out.reason is Reason.MISCLASSIFIED_UNTAMPERED


def test_tampered_star_is_detected_loss():
    x = BitString(0b1010, 4)
    out = winning(x, x.flip(0), 1, h_const(STAR), budget=2)
    assert not out.won and out.reason is Reason.DETECTED_STAR


def test_budget_exceeded_loses_even_if_misclassified():
    x = BitString(0b1010, 4)
    out = winning(x, x.flip(0, 1, 2), 1, h_const(0), budget=2)
    assert not out.won and out.reason is Reason.BUDGET_EXCEEDED


def test_tamper_win():
    x = BitString(0b1010, 4)
    out = winning(x, x.flip(0), 1, h_const(0), budget=2)
    assert out.won and out.reason is Reason.TAMPER_WIN


def test_correct_label_loses():
    x = BitString(0b1010, 4)
    assert not winning(x, x, 1, h_const(1), budget=2).won


@given(st.lists(st.integers(min_value=0, max_value=1 << 70), min_size=1))
def test_splitmix_is_u64(zs):
    # mix_seed passes ints past 2^64; the one round reduces them mod 2^64,
    # and on a uint64 array (no overflow warning) gives the same words
    outs = [splitmix64(z) for z in zs]
    assert all(0 <= out < 1 << 64 for out in outs)
    assert outs == [splitmix64(z % (1 << 64)) for z in zs]
    words = np.array([z % (1 << 64) for z in zs], dtype=np.uint64)
    before = words.copy()
    assert splitmix64(words).tolist() == outs
    assert (words == before).all()  # the caller's array is not written


@given(st.integers(min_value=0, max_value=(1 << 32) - 1),
       st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=1000))
def test_mix_seed_streams_distinct(master, i, j):
    if i != j:
        assert mix_seed(master, i) != mix_seed(master, j)


def test_attacker_length_protocol_enforced():
    prob = majority_noise_problem(MajorityNoiseParams(5, 0.0))

    class Bad:
        query_budget = None

        def perturb(self, x, y, rng, counters):
            return BitString(0, 3)

    with pytest.raises(InvariantViolation, match="length 3, expected 5"):
        play_game(prob, majority_hypothesis(5), Bad(), 1, seed=0)


def test_identity_equivalence_is_exact_not_statistical():
    prob = majority_noise_problem(MajorityNoiseParams(9, 0.2))
    h = majority_hypothesis(9)
    r = estimate_risk(prob, h, 500, seed=7)
    a = estimate_adv_risk(prob, h, identity_attacker(), 3, 500, seed=7)
    assert r.point == a.point


def test_budget_zero_equals_identity():
    prob = majority_noise_problem(MajorityNoiseParams(9, 0.1))
    h = majority_hypothesis(9)
    a0 = estimate_adv_risk(prob, h, greedy_majority_attacker(3), 0, 300, seed=3)
    r = estimate_risk(prob, h, 300, seed=3)
    # any tampering busts the zero budget, so only untampered errors count;
    # the greedy attacker tampers exactly when the label is clean and
    # reachable, forfeiting those games
    assert a0.point <= r.point


def test_counters_accumulate():
    c = Counters()
    c.charge()
    c.charge(4)
    assert c.queries == 5


def test_counters_stop_at_the_budget():
    c = Counters(5)
    c.charge(4)
    c.charge(1)  # reaching the budget is allowed
    with pytest.raises(PreimageNotFound):
        c.charge()
    c = Counters(5)
    c.charge(3)
    with pytest.raises(PreimageNotFound):
        c.charge(4)  # a charge that would pass the budget stops at it
    assert c.queries == 5
