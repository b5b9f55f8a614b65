import math

import pytest

from compgap.attackers import greedy_majority_attacker
from compgap.base_problems import (MajorityNoiseParams, analytic_adv_risk,
                                   majority_hypothesis, majority_noise_problem)
from compgap.bitstring import BitString, hamming_distance
from compgap.circuits import circuit_of_majority, eval_circuit
from compgap.cnf import CnfFormula, tseitin, write_dimacs
from compgap.errors import ConfigError
from compgap.game import binomial_half_width, mix_seed, play_game
from compgap.samplers import (_compile_block, _merge_block, _merge_guarded,
                              check_witness, sample_s1, sample_s2,
                              sample_s_final)
from compgap.solver import Status, solve_small

P = MajorityNoiseParams(9, 0.05)
PROB = majority_noise_problem(P)
CIRCUIT = circuit_of_majority(9)
BETA = float(analytic_adv_risk(P, 2))
TAU = (P.alpha + BETA) / 2


def test_s1_verdict_matches_ball_enumeration():
    # exact agreement with brute-force existence of an adversarial example
    for i in range(40):
        bundle = sample_s1(PROB, CIRCUIT, 2, mix_seed(1, i))
        blk = bundle.blocks[0]
        exists = False
        for v in range(1 << 9):
            xp = BitString(v, 9)
            if hamming_distance(blk.x, xp) <= 2:
                if eval_circuit(CIRCUIT, xp) != blk.y:
                    exists = True
                    break
        assert (solve_small(bundle.formula).status is Status.SAT) == exists


P11 = MajorityNoiseParams(11, 0.05)
PROB11, CIRCUIT11 = majority_noise_problem(P11), circuit_of_majority(11)


def _greedy_wins(seed):
    return play_game(PROB11, majority_hypothesis(11),
                     greedy_majority_attacker(2), 2, seed).won


def test_s1_verdict_matches_the_greedy_base_game():
    # semantic oracle: greedy is optimal against majority, so the S1 formula
    # at a seed is SAT iff the greedy game at that seed is won
    verdicts = set()
    for i in range(200):
        seed = mix_seed(4, i)
        res = solve_small(sample_s1(PROB11, CIRCUIT11, 2, seed).formula)
        sat = res.status is Status.SAT
        assert sat == _greedy_wins(seed)
        verdicts.add(sat)
    assert verdicts == {True, False}


def test_s1_noiseless_ground_truth_b0_unsat():
    noiseless = majority_noise_problem(MajorityNoiseParams(9, 0.0))
    for i in range(20):
        bundle = sample_s1(noiseless, CIRCUIT, 0, mix_seed(2, i))
        assert solve_small(bundle.formula).status is Status.UNSAT


def test_s1_witnesses_decode_to_adversarial_examples():
    for i in range(40):
        bundle = sample_s1(PROB, CIRCUIT, 2, mix_seed(3, i))
        res = solve_small(bundle.formula)
        if res.status is Status.SAT:
            assert check_witness(bundle, CIRCUIT, res.assignment)
            ((_, xp),) = bundle.witness_decoder(res.assignment)
            assert hamming_distance(bundle.blocks[0].x, xp) <= 2


def _sat_s1_with_clean_label():
    """An S1 bundle whose x the circuit labels y, with a satisfying
    assignment."""
    for i in range(100):
        bundle = sample_s1(PROB, CIRCUIT, 2, mix_seed(3, i))
        blk = bundle.blocks[0]
        res = solve_small(bundle.formula)
        if res.status is Status.SAT and eval_circuit(CIRCUIT, blk.x) == blk.y:
            return bundle, res.assignment
    raise AssertionError("no SAT bundle with a clean label")


def _with_inputs(bundle, assignment, x_prime):
    edited = dict(assignment)
    for v, bit in zip(bundle.blocks[0].input_vars, x_prime):
        edited[v] = bool(bit)
    return edited


def test_check_witness_rejects_unchanged_label():
    bundle, assignment = _sat_s1_with_clean_label()
    assert check_witness(bundle, CIRCUIT, assignment)
    # x itself: inside the ball, but the circuit still says y
    x = bundle.blocks[0].x
    assert not check_witness(bundle, CIRCUIT,
                             _with_inputs(bundle, assignment, x))


def test_check_witness_rejects_point_outside_ball():
    bundle, assignment = _sat_s1_with_clean_label()
    blk = bundle.blocks[0]
    # the constant string of the other label: labelled off y, but every bit
    # of x that equals y is flipped, a majority of them
    far = BitString(0 if blk.y else (1 << 9) - 1, 9)
    assert eval_circuit(CIRCUIT, far) != blk.y
    assert hamming_distance(blk.x, far) > bundle.b
    assert not check_witness(bundle, CIRCUIT,
                             _with_inputs(bundle, assignment, far))


def test_s1_sat_rate_near_analytic():
    n = 150
    sat = sum(
        solve_small(sample_s1(PROB, CIRCUIT, 2, mix_seed(4, i)).formula
                    ).status is Status.SAT
        for i in range(n))
    frac = sat / n
    assert abs(frac - BETA) <= 3 * binomial_half_width(max(frac, 1e-9), n)


def test_s2_k1_tau1_equals_s1():
    for i in range(25):
        seed = mix_seed(5, i)
        s1 = sample_s1(PROB, CIRCUIT, 2, mix_seed(seed, 0))
        s2 = sample_s2(PROB, CIRCUIT, 2, 1, 1.0, seed)
        assert (solve_small(s1.formula).status is
                solve_small(s2.formula).status)


def test_s2_selector_semantics():
    bundle = sample_s2(PROB, CIRCUIT, 2, 4, 0.5, 77)
    sels = bundle.formula.annotations["selectors"]
    res = solve_small(bundle.formula, assumptions=list(sels))
    if res.status is Status.SAT:
        assert all(res.assignment[s] for s in sels)
        # all selectors forced: every block must be individually satisfied
        assert check_witness(bundle, CIRCUIT, res.assignment)
        assert len(bundle.witness_decoder(res.assignment)) == 4


def test_s2_verdict_matches_the_greedy_base_game():
    # semantic oracle: block j of an S2 draw is the S1 formula at
    # mix_seed(seed, j), so the draw is SAT iff at least ceil(tau*k) of
    # those greedy games are won
    verdicts = set()
    for i, (k, tau) in enumerate([(4, 0.5)] * 10 + [(3, 1.0)] * 10):
        seed = mix_seed(8, i)
        won = sum(_greedy_wins(mix_seed(seed, j)) for j in range(k))
        res = solve_small(sample_s2(PROB11, CIRCUIT11, 2, k, tau,
                                    seed).formula)
        assert res.status in (Status.SAT, Status.UNSAT)
        sat = res.status is Status.SAT
        assert sat == (won >= math.ceil(tau * k))
        verdicts.add((tau, sat))
    assert (1.0, False) in verdicts and (1.0, True) in verdicts
    assert (0.5, True) in verdicts


def test_s2_refutes_a_last_block_failure_within_the_budget():
    # tau = 1 and only the last of 10 blocks has no adversarial example:
    # chronological backtracking refutes that block again under every
    # assignment of the blocks before it, which took 4.4 s at k = 3 and
    # over 100 s at k = 4
    k, seed = 10, mix_seed(10, 22)
    won = [_greedy_wins(mix_seed(seed, j)) for j in range(k)]
    assert won == [True] * (k - 1) + [False]
    bundle = sample_s2(PROB11, CIRCUIT11, 2, k, 1.0, seed)
    assert solve_small(bundle.formula).status is Status.UNSAT


def test_s2_threshold_enforced():
    bundle = sample_s2(PROB, CIRCUIT, 2, 5, 0.6, 78)
    res = solve_small(bundle.formula)
    if res.status is Status.SAT:
        assert len(bundle.witness_decoder(res.assignment)) >= \
            math.ceil(0.6 * 5)


def test_s2_threshold_is_taken_on_decimal_tau():
    # 0.28 * 25 is 7.000000000000001 in binary floats; tau = 0.28 of 25
    # blocks needs 7 selectors, as 0.275 does, not 8 as 0.32 does
    def dimacs(tau):
        return write_dimacs(sample_s2(PROB, CIRCUIT, 2, 25, tau, 79).formula)
    assert dimacs(0.28) == dimacs(0.275) != dimacs(0.32)


def test_s2_monotone_composition():
    # a SAT stage-1 draw stays SAT once embedded with threshold 1 of 1
    for i in range(15):
        seed = mix_seed(6, i)
        s1 = sample_s1(PROB, CIRCUIT, 2, mix_seed(seed, 0))
        if solve_small(s1.formula).status is Status.SAT:
            s2 = sample_s2(PROB, CIRCUIT, 2, 1, 1.0, seed)
            assert solve_small(s2.formula).status is Status.SAT


def test_s_final_blocks_disjoint():
    bundle = sample_s_final(PROB, CIRCUIT, 2, 3, TAU, 2, 99)
    assert bundle.stage == "s"
    seen = set()
    for blk in bundle.blocks:
        vs = set(blk.input_vars) | {blk.selector}
        assert not (vs & seen)
        seen |= vs


def test_s_final_reps1_equals_s2_verdict():
    for i in range(8):
        seed = mix_seed(7, i)
        one = sample_s_final(PROB, CIRCUIT, 2, 3, TAU, 1, seed)
        res = solve_small(one.formula)
        assert res.status in (Status.SAT, Status.UNSAT)
        if res.status is Status.SAT:
            assert check_witness(one, CIRCUIT, res.assignment)
        # one rep is the stage-2 formula of the rep's seed, without the
        # selectors annotation
        s2 = sample_s2(PROB, CIRCUIT, 2, 3, TAU, mix_seed(seed, 0x5346))
        assert one.blocks == s2.blocks
        assert one.formula.annotations == {}
        one.formula.annotate("selectors", s2.formula.annotations["selectors"])
        assert one.formula == s2.formula


def test_param_validation():
    with pytest.raises(ConfigError):
        sample_s2(PROB, CIRCUIT, 2, 0, 0.5, 1)
    with pytest.raises(ConfigError):
        sample_s2(PROB, CIRCUIT, 2, 3, 1.5, 1)
    with pytest.raises(ConfigError):
        sample_s_final(PROB, CIRCUIT, 2, 3, TAU, 0, 1)


@pytest.mark.parametrize("prob,circuit", [(PROB11, CIRCUIT),
                                          (PROB, CIRCUIT11)])
def test_every_stage_rejects_a_circuit_of_another_length(prob, circuit):
    # every stage compiles its blocks through _compile_block, which checks
    for build in (lambda: sample_s1(prob, circuit, 2, 1),
                  lambda: sample_s2(prob, circuit, 2, 3, TAU, 1),
                  lambda: sample_s_final(prob, circuit, 2, 3, TAU, 2, 1)):
        with pytest.raises(ConfigError) as e:
            build()
        assert str(e.value) == \
            "circuit does not match the problem's instance length"


@pytest.mark.parametrize("d", [5, 7])
def test_a_block_from_the_template_is_the_compiled_block(d):
    # every x at d bits, both labels and budgets 0, 1, 2 and d (no bound),
    # each behind selector 1
    gates = tseitin(circuit_of_majority(d))
    for b in (0, 1, 2, d):
        template = _compile_block(BitString(0, d), 0, gates, b)
        for v in range(1 << d):
            x = BitString(v, d)
            for y in (0, 1):
                want, got = CnfFormula(1), CnfFormula(1)
                off = _merge_guarded(want, _compile_block(x, y, gates, b), 1)
                assert _merge_block(got, template, len(gates.clauses), x, y,
                                    1) == off
                assert got == want, (b, x, y)
        # patching a block leaves the template as it was compiled
        assert template == _compile_block(BitString(0, d), 0, gates, b)
