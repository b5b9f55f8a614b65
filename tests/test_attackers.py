import random

import pytest

from compgap.attackers import (_CHUNK, _c1_attacker, _c3_attacker, _draw,
                               _field_hashes, bounded_c1_attacker,
                               bounded_c3_attacker,
                               greedy_majority_attacker, identity_attacker,
                               unbounded_c1_attacker, unbounded_c3_attacker)
from compgap.base_problems import (MajorityNoiseParams, analytic_adv_risk,
                                   majority_hypothesis,
                                   majority_noise_problem,
                                   uniform_balanced_problem)
from compgap.bitstring import BitString, pack
from compgap.cli import _build_games
from compgap.config import ExperimentConfig
from compgap.constructions import (C3Instance, WrappedInstance, c3_problem,
                                   classifier_c1, classifier_c3,
                                   wrapped_problem_c1)
from compgap.ecc import EccParams, reed_solomon
from compgap.errors import DecodeFailure, PreimageNotFound
from compgap.game import (Counters, binomial_half_width, estimate_adv_risk,
                          estimate_risk, game_transcript, mix_seed)
from compgap.ots import OtsParams, digest, hash_words, targets, toy_hash

P = MajorityNoiseParams(11, 0.05)
BASE = majority_noise_problem(P)
BASE_H = majority_hypothesis(11)

OTS = OtsParams(hlen=4, slen=8)
ECC = EccParams(k_sym=4, n_sym=12, bits_per_symbol=8)
P7 = MajorityNoiseParams(7, 0.1)
BASE7 = majority_noise_problem(P7)
BASE7_H = majority_hypothesis(7)

C3_OTS = OtsParams(hlen=4, slen=8)
C3_ECC = EccParams(k_sym=4, n_sym=10, bits_per_symbol=8)
C3_BASE = uniform_balanced_problem(32)


def test_identity_attacker_matches_plain_risk_exactly():
    r = estimate_risk(BASE, BASE_H, 400, seed=2)
    a = estimate_adv_risk(BASE, BASE_H, identity_attacker(), 2, 400, seed=2)
    assert r.point == a.point


def test_greedy_matches_analytic_oracle():
    oracle = float(analytic_adv_risk(P, 2))
    est = estimate_adv_risk(BASE, BASE_H, greedy_majority_attacker(2), 2,
                            2000, seed=5)
    assert abs(est.point - oracle) <= 3 * est.half_width


def test_greedy_never_overshoots_budget():
    for b in (0, 1, 3):
        outs = game_transcript(BASE, BASE_H, greedy_majority_attacker(b), b,
                               200, seed=1)
        assert all(o.perturbation_used <= b for o in outs)


def test_unbounded_c1_recovers_base_adv_risk():
    prob = wrapped_problem_c1(BASE7, OTS, ECC)
    h = classifier_c1(BASE7_H, OTS, ECC)
    budget = 2 + OTS.sig_bits
    atk = unbounded_c1_attacker(7, 2, OTS, ECC)
    est = estimate_adv_risk(prob, h, atk, budget, 800, seed=6)
    oracle = float(analytic_adv_risk(P7, 2))
    assert abs(est.point - oracle) <= 3 * est.half_width


def test_bounded_c1_collapses_to_noise_rate():
    # a 12-bit digest makes each guessed preimage hit with chance 2^-12,
    # far below the 256-query budget; wins reduce to the noise rate
    ots = OtsParams(hlen=12, slen=16)
    ecc = EccParams(k_sym=36, n_sym=48, bits_per_symbol=8)
    prob = wrapped_problem_c1(BASE7, ots, ecc)
    h = classifier_c1(BASE7_H, ots, ecc)
    budget = 2 + ots.sig_bits
    atk = bounded_c1_attacker(7, 2, ots, ecc, query_budget=256)
    est = estimate_adv_risk(prob, h, atk, budget, 400, seed=7)
    assert est.point <= 0.1 + 3 * binomial_half_width(0.1, 400)


def test_bounded_c1_respects_query_budget():
    ots = OtsParams(hlen=4, slen=16)
    ecc = EccParams(k_sym=4, n_sym=12, bits_per_symbol=8)
    prob = wrapped_problem_c1(BASE7, ots, ecc)
    h = classifier_c1(BASE7_H, ots, ecc)
    atk = bounded_c1_attacker(7, 2, ots, ecc, query_budget=256)
    outs = game_transcript(prob, h, atk, 2 + ots.sig_bits, 100, seed=8)
    assert all(o.queries_used <= 256 for o in outs)


def test_bounded_c1_at_budget_zero_never_tampers():
    # the digest of the flip is a query, so a zero budget forges nothing
    prob = wrapped_problem_c1(BASE7, OTS, ECC)
    h = classifier_c1(BASE7_H, OTS, ECC)
    atk = bounded_c1_attacker(7, 2, OTS, ECC, query_budget=0)
    outs = game_transcript(prob, h, atk, 2 + OTS.sig_bits, 300, seed=5)
    assert all(o.perturbation_used == o.queries_used == 0 for o in outs)


def _small_config(query_budget):
    """Settings for every game `cli._build_games` knows at small sizes: C1 on
    OTS(4,8) with the derived key code RS(72,4)/GF(2^8), whose radius is
    b + sig_bits = 34, and C3 on OTS(4,8) and RS(68,4)/GF(2^8)."""
    cfg = ExperimentConfig()
    cfg.problem.d, cfg.problem.alpha = 7, 0.1
    cfg.ots.hlen, cfg.ots.slen = 4, 8
    cfg.c3.hlen, cfg.c3.slen = 4, 8
    cfg.attacker.query_budget = cfg.c3.query_budget = query_budget
    return cfg


@pytest.mark.parametrize("name", ["identity", "greedy", "bounded_c1",
                                  "unbounded_c1", "bounded_c3",
                                  "unbounded_c3"])
def test_no_game_ends_above_its_query_budget(name):
    for query_budget in (0, 1, 4, 64):  # 4 is hlen
        g = _build_games(_small_config(query_budget), (name,))
        (a,) = g.attackers
        outs = game_transcript(g.problem, g.hypothesis, a, g.budget, 150,
                               seed=query_budget)
        if a.query_budget is not None:
            assert all(o.queries_used <= a.query_budget for o in outs)


def test_unbounded_budget_monotonicity():
    # more flip budget never hurts the exhaustive attacker
    prob = wrapped_problem_c1(BASE7, OTS, ECC)
    h = classifier_c1(BASE7_H, OTS, ECC)
    prev = None
    for b in (0, 1, 2, 3):
        atk = unbounded_c1_attacker(7, b, OTS, ECC)
        est = estimate_adv_risk(prob, h, atk, b + OTS.sig_bits, 400, seed=9)
        if prev is not None:
            assert est.point >= prev - 1e-12
        prev = est.point


def test_unbounded_c3_wins_half():
    prob = c3_problem(C3_BASE, C3_OTS, C3_ECC)
    h = classifier_c3(C3_OTS, C3_ECC)
    atk = unbounded_c3_attacker(C3_OTS, C3_ECC)
    est = estimate_adv_risk(prob, h, atk, C3_OTS.sig_bits, 600, seed=10)
    assert abs(est.point - 0.5) <= 3 * est.half_width


def test_unbounded_c3_stays_in_budget():
    prob = c3_problem(C3_BASE, C3_OTS, C3_ECC)
    h = classifier_c3(C3_OTS, C3_ECC)
    atk = unbounded_c3_attacker(C3_OTS, C3_ECC)
    outs = game_transcript(prob, h, atk, C3_OTS.sig_bits, 200, seed=11)
    assert all(o.perturbation_used <= C3_OTS.sig_bits for o in outs)


def test_bounded_c3_nearly_never_wins():
    prob = c3_problem(C3_BASE, C3_OTS, C3_ECC)
    h = classifier_c3(C3_OTS, C3_ECC)
    atk = bounded_c3_attacker(C3_OTS, C3_ECC, query_budget=128)
    est = estimate_adv_risk(prob, h, atk, C3_OTS.sig_bits, 300, seed=12)
    assert est.point <= 0.05


def test_bounded_c3_query_accounting():
    prob = c3_problem(C3_BASE, C3_OTS, C3_ECC)
    h = classifier_c3(C3_OTS, C3_ECC)
    atk = bounded_c3_attacker(C3_OTS, C3_ECC, query_budget=128)
    outs = game_transcript(prob, h, atk, C3_OTS.sig_bits, 100, seed=13)
    assert all(o.queries_used <= 128 for o in outs)


def _pinned_c1(ots, b, atk, seed):
    prob = wrapped_problem_c1(BASE7, ots, ECC)
    h = classifier_c1(BASE7_H, ots, ECC)
    return game_transcript(prob, h, atk, b + ots.sig_bits, 150, seed)


def _pinned_c3(ots, ecc, atk, seed):
    prob = c3_problem(uniform_balanced_problem(ecc.data_bits), ots, ecc)
    return game_transcript(prob, classifier_c3(ots, ecc), atk, ots.sig_bits,
                           150, seed)


OTS46 = OtsParams(hlen=4, slen=6)
C3_SMALL = (OtsParams(hlen=2, slen=4), EccParams(k_sym=1, n_sym=5,
                                                 bits_per_symbol=8))
C3_TINY = (OtsParams(hlen=2, slen=3), EccParams(k_sym=2, n_sym=8,
                                                bits_per_symbol=4))

# (wins, total queries, total distance, count per Reason) over 150 games.
# They move if any rng draw or hash charge changes order.  At budget 20 and
# on the slen=3 C3 set the bounded forgers give up on some games, so both
# the forging and the fallback path run.
PINNED_FORGERS = [
    pytest.param(
        lambda: _pinned_c1(OTS, 2, bounded_c1_attacker(7, 2, OTS, ECC, 256),
                           21),
        (133, 4425, 1077, {"correct_label": 17, "misclassified_untampered": 19,
                           "tamper_win": 114}), id="bounded_c1-256"),
    pytest.param(
        lambda: _pinned_c1(OTS, 2, bounded_c1_attacker(7, 2, OTS, ECC, 20),
                           22),
        (60, 1863, 251, {"correct_label": 90, "misclassified_untampered": 12,
                         "tamper_win": 48}), id="bounded_c1-20"),
    pytest.param(
        lambda: _pinned_c1(OTS, 2, unbounded_c1_attacker(7, 2, OTS, ECC), 23),
        (134, 118, 1951, {"correct_label": 16, "misclassified_untampered": 16,
                          "tamper_win": 118}), id="unbounded_c1"),
    pytest.param(
        lambda: _pinned_c1(OTS46, 1,
                           bounded_c1_attacker(7, 1, OTS46, ECC, 64), 24),
        (83, 2178, 378, {"correct_label": 67, "misclassified_untampered": 19,
                         "tamper_win": 64}), id="bounded_c1-slen6-64"),
    pytest.param(
        lambda: _pinned_c1(OTS46, 1, unbounded_c1_attacker(7, 1, OTS46, ECC),
                           25),
        (81, 65, 781, {"correct_label": 69, "misclassified_untampered": 16,
                       "tamper_win": 65}), id="unbounded_c1-slen6"),
    pytest.param(
        lambda: _pinned_c3(*C3_SMALL, bounded_c3_attacker(*C3_SMALL, 512), 26),
        (77, 1577, 313, {"correct_label": 73, "tamper_win": 77}),
        id="bounded_c3-512"),
    pytest.param(
        lambda: _pinned_c3(*C3_SMALL, unbounded_c3_attacker(*C3_SMALL), 27),
        (74, 74, 294, {"correct_label": 76, "tamper_win": 74}),
        id="unbounded_c3"),
    pytest.param(
        lambda: _pinned_c3(*C3_TINY, bounded_c3_attacker(*C3_TINY, 64), 28),
        (65, 1279, 203, {"correct_label": 85, "tamper_win": 65}),
        id="bounded_c3-slen3-64"),
    pytest.param(
        lambda: _pinned_c3(*C3_TINY, unbounded_c3_attacker(*C3_TINY), 29),
        (72, 72, 216, {"correct_label": 78, "tamper_win": 72}),
        id="unbounded_c3-slen3"),
]


@pytest.mark.parametrize("run,expected", PINNED_FORGERS)
def test_forging_attackers_pinned_outcomes(run, expected):
    outs = run()
    reasons = {}
    for o in outs:
        reasons[o.reason.value] = reasons.get(o.reason.value, 0) + 1
    assert (sum(o.won for o in outs), sum(o.queries_used for o in outs),
            sum(o.perturbation_used for o in outs), reasons) == expected


def test_forging_attackers_fall_back_when_the_key_does_not_open():
    rng = random.Random(0)
    c1 = WrappedInstance.from_bits(
        wrapped_problem_c1(BASE7, OTS, ECC).sample(3)[0], 7, OTS, ECC)
    c1 = WrappedInstance(c1.x, c1.sigma, BitString.random(rng, ECC.n_bits))
    c3 = C3Instance.from_bits(
        c3_problem(C3_BASE, C3_OTS, C3_ECC).sample(3)[0], C3_OTS, C3_ECC)
    c3 = C3Instance(c3.x_code, c3.slots, BitString.random(rng, C3_ECC.n_bits))
    for atk, inst, ots, ecc in [
            (bounded_c1_attacker(7, 2, OTS, ECC, 256), c1, OTS, ECC),
            (unbounded_c1_attacker(7, 2, OTS, ECC), c1, OTS, ECC),
            (bounded_c3_attacker(C3_OTS, C3_ECC, 128), c3, C3_OTS, C3_ECC),
            (unbounded_c3_attacker(C3_OTS, C3_ECC), c3, C3_OTS, C3_ECC)]:
        with pytest.raises(DecodeFailure):
            reed_solomon(ecc).decode(inst.vk_code)
        x = inst.to_bits()
        for y in (0, 1):
            assert _perturb(atk, x, y, rng) == (x, 0)


def _perturb(atk, x, y, rng):
    """(the instance the game plays, queries charged) when `atk` perturbs
    (x, y): its output, or x when it gives up."""
    counters = Counters(atk.query_budget)
    try:
        return atk.perturb(x, y, rng, counters), counters.queries
    except (DecodeFailure, PreimageNotFound):
        return x, counters.queries


def _outcome(atk, x, y, seed):
    """What `atk` does with the challenge (x, y) under an rng seeded with
    `seed`: the instance it returns or PreimageNotFound when it gives up, and
    the queries it charged."""
    counters = Counters(atk.query_budget)
    try:
        out = atk.perturb(x, y, random.Random(seed), counters)
    except PreimageNotFound:
        out = PreimageNotFound
    return out, counters.queries


def _reference_bounded_c1(ots, ecc, budget, log):
    """bounded_c1 guessing one preimage per toy_hash call and charging each
    hash as it is made, until the counter's budget stops it; appends
    [positions to forge, hits] to `log` for each forgery."""
    def forge(vk, d_new, inst, rng, counters):
        counters.charge()
        d_old = digest(inst.x, ots)
        want = targets(vk, d_new, ots)
        preimages = inst.sigma.fields(ots.slen)
        missing = [i for i in range(ots.hlen) if d_new[i] != d_old[i]]
        for i in list(missing):
            counters.charge()
            if toy_hash(BitString(preimages[i], ots.slen),
                        ots.hlen).value == want[i]:
                missing.remove(i)
        log.append([len(missing), 0])
        while missing:
            cand = BitString.random(rng, ots.slen)
            counters.charge()
            if toy_hash(cand, ots.hlen).value == want[missing[0]]:
                preimages[missing.pop(0)] = cand.value
                log[-1][1] += 1
        return pack(preimages, ots.slen)

    return _c1_attacker("reference_c1", 7, 2, ots, ecc, forge, budget)


def _reference_bounded_c3(ots, ecc, budget, log):
    """bounded_c3 hashing one signature field per toy_hash call and charging
    each hash as it is made, until the counter's budget stops it; appends
    [whether it forged, the queries before its last guess] to `log`."""
    def forge(vk, d, inst, rng, counters):
        want = targets(vk, d, ots)
        log.append([False, 0])
        while True:
            log[-1][1] = counters.queries
            cand = BitString.random(rng, ots.sig_bits)
            for p, t in zip(cand.fields(ots.slen), want):
                counters.charge()
                if toy_hash(BitString(p, ots.slen), ots.hlen).value != t:
                    break
            else:
                log[-1][0] = True
                return cand

    return _c3_attacker("reference_c3", ots, ecc, forge, budget)


def _c1_challenge(ots, ecc, seed):
    return wrapped_problem_c1(BASE7, ots, ecc).sample(seed)


def _c3_challenge(ots, ecc, seed):
    return c3_problem(uniform_balanced_problem(ecc.data_bits), ots,
                      ecc).sample(seed)


# name: (the bounded forger, its one-at-a-time reference, a challenge for a
# seed), each forger built from (ots, ecc, query budget)
FORGER_PAIRS = {
    "bounded_c1": (lambda ots, ecc, q: bounded_c1_attacker(7, 2, ots, ecc, q),
                   lambda ots, ecc, q: _reference_bounded_c1(ots, ecc, q, []),
                   _c1_challenge),
    "bounded_c3": (bounded_c3_attacker,
                   lambda ots, ecc, q: _reference_bounded_c3(ots, ecc, q, []),
                   _c3_challenge),
}
# (ots, ecc) sets whose key fits both constructions' codes
FORGER_SETS = {"C3_SMALL": C3_SMALL, "C3_TINY": C3_TINY, "OTS": (OTS, ECC),
               "OTS46": (OTS46, ECC)}


@pytest.mark.parametrize("forger", sorted(FORGER_PAIRS))
@pytest.mark.parametrize("ots_set", sorted(FORGER_SETS))
def test_bounded_forgers_match_the_one_at_a_time_reference(forger, ots_set):
    ots, ecc = FORGER_SETS[ots_set]
    bounded, reference, challenge = FORGER_PAIRS[forger]
    forged = gave_up = 0
    for budget in sorted({0, 1, ots.hlen - 1, ots.hlen, ots.hlen + 1, 64,
                          512}):
        atk, ref = bounded(ots, ecc, budget), reference(ots, ecc, budget)
        for seed in range(30):
            x, y = challenge(ots, ecc, seed)
            out = _outcome(atk, x, y, seed)
            assert out == _outcome(ref, x, y, seed), (budget, seed)
            forged += out[0] not in (x, PreimageNotFound)
            gave_up += out[0] is PreimageNotFound
    # a bounded_c3 guess on an hlen-4 set hits with chance about 2^-16, so
    # only the hlen-2 sets forge within 512 queries
    assert gave_up and (forged or forger == "bounded_c3" and ots.hlen == 4)


@pytest.mark.parametrize("forger,ots_set", [("bounded_c1", "OTS46"),
                                            ("bounded_c3", "C3_TINY"),
                                            ("bounded_c3", "C3_SMALL")])
def test_bounded_forgers_at_and_one_below_a_forgerys_cost(forger, ots_set):
    # q: the queries of a forgery at a budget it does not reach.  At budget q
    # the forgery's last charge ends exactly on the budget; at q - 1 that
    # charge passes the budget by one and the forger gives up there
    ots, ecc = FORGER_SETS[ots_set]
    bounded, reference, challenge = FORGER_PAIRS[forger]
    cases = 0
    for seed in range(200):
        x, y = challenge(ots, ecc, seed)
        out, q = _outcome(reference(ots, ecc, 512), x, y, seed)
        if out in (x, PreimageNotFound):
            continue
        for atk in (bounded(ots, ecc, q), reference(ots, ecc, q)):
            assert _outcome(atk, x, y, seed) == (out, q)
        for atk in (bounded(ots, ecc, q - 1), reference(ots, ecc, q - 1)):
            assert _outcome(atk, x, y, seed) == (PreimageNotFound, q - 1)
        cases += 1
    assert cases >= 5


OTS4_16 = OtsParams(hlen=4, slen=16)
OTS16_16 = OtsParams(hlen=16, slen=16)
ECC512 = EccParams(k_sym=64, n_sym=80, bits_per_symbol=8)


@pytest.mark.parametrize("ots,ecc,budget,case", [
    # one position to forge, hit before the chunk ends
    (OTS4_16, ECC, 256, lambda todo, hits, q: todo == hits == 1),
    # several positions, all hit within one chunk
    (OTS4_16, ECC, 256, lambda todo, hits, q: todo == hits >= 2),
    # no hit in a budget that spans two chunks
    (OTS16_16, ECC512, 5000,
     lambda todo, hits, q: todo and not hits and q == 5000 > _CHUNK),
], ids=["hit-mid-chunk", "two-hits-one-chunk", "two-chunks-no-hit"])
def test_bounded_c1_chunks_match_scalar_guessing(ots, ecc, budget, case):
    log = []
    chunked = bounded_c1_attacker(7, 2, ots, ecc, budget)
    scalar = _reference_bounded_c1(ots, ecc, budget, log)
    for seed in range(40):
        x, y = _c1_challenge(ots, ecc, seed)
        out = _outcome(chunked, x, y, seed)
        assert out == _outcome(scalar, x, y, seed)
        if log and case(*log[-1], out[1]):
            return
        log.clear()
    pytest.fail("no sample reached the case")


@pytest.mark.parametrize("ots,ecc,budget,case", [
    # the last guess starts under the budget and is cut short at it
    (*C3_TINY, 64, lambda forged, start, q: not forged and start < q == 64),
    (*C3_SMALL, 512, lambda forged, start, q: forged),
], ids=["cut-short-at-budget", "forges"])
def test_bounded_c3_matches_field_by_field_charging(ots, ecc, budget, case):
    log = []
    bounded = bounded_c3_attacker(ots, ecc, budget)
    reference = _reference_bounded_c3(ots, ecc, budget, log)
    # the game seeds of the pinned bounded_c3-slen3-64 run; about one C3_TINY
    # game in a hundred has its last guess cut short
    for seed in (mix_seed(28, i) for i in range(400)):
        x, y = _c3_challenge(ots, ecc, seed)
        out = _outcome(bounded, x, y, seed)
        assert out == _outcome(reference, x, y, seed)
        if log and case(*log[-1], out[1]):
            return
        log.clear()
    pytest.fail("no sample reached the case")


# (width, slen): guesses of 1, 3, 10, 16, 31, 32, 33, 64, 80, 120 and 128
# bits; at (2, 60) field 0 spans three words, at (1, 64) two
DRAW_SHAPES = [(1, 1), (3, 1), (2, 5), (1, 16), (1, 31), (2, 16), (3, 11),
               (1, 64), (8, 10), (2, 60), (2, 64)]


@pytest.mark.parametrize("n", [1, 7, _CHUNK])
@pytest.mark.parametrize("width,slen", DRAW_SHAPES)
def test_one_call_draws_what_per_guess_calls_draw(width, slen, n):
    bits = width * slen
    rng, ref = random.Random(n * bits), random.Random(n * bits)
    words = _draw(rng, n, bits)
    guesses = [ref.getrandbits(bits) for _ in range(n)]
    assert rng.getstate() == ref.getstate()
    assert [int.from_bytes(row.tobytes(), "little") for row in words] \
        == guesses
    # with 64-bit digests the hash of a one-word input is a bijection, so
    # equal hashes are equal fields
    ots, mask = OtsParams(hlen=64, slen=slen), (1 << slen) - 1
    for i in range(width):
        fields = [g >> (width - 1 - i) * slen & mask for g in guesses]
        assert _field_hashes(words, i, width, ots).tolist() == \
            hash_words(fields, slen, 64).tolist()
