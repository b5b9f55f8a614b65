import math

import pytest

from compgap.base_problems import (MajorityNoiseParams, analytic_adv_risk,
                                   majority_noise_problem)
from compgap.bitstring import hamming_distance
from compgap.circuits import circuit_of_majority, eval_circuit
from compgap.errors import ConfigError
from compgap.game import binomial_half_width, mix_seed
from compgap.samplers import (Stage, check_witness, sample_s1, sample_s2,
                              sample_s_final)
from compgap.solver import Status, solve_enumerate, solve_small

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
            from compgap.bitstring import BitString
            xp = BitString(v, 9)
            if hamming_distance(blk.x, xp) <= 2:
                labels, star = eval_circuit(CIRCUIT, xp)
                if not star and labels[0] != blk.y:
                    exists = True
                    break
        assert (solve_small(bundle.formula).status is Status.SAT) == exists


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
                solve_small(s2.formula, var_cap=5000).status)


def test_s2_selector_semantics():
    bundle = sample_s2(PROB, CIRCUIT, 2, 4, 0.5, 77)
    sels = bundle.formula.annotations["selectors"]
    res = solve_small(bundle.formula, var_cap=5000,
                      assumptions=list(sels))
    if res.status is Status.SAT:
        # all selectors forced: every block must be individually satisfied
        assert check_witness(bundle, CIRCUIT, res.assignment)
        assert len(bundle.witness_decoder(res.assignment)) == 4


def test_s2_threshold_enforced():
    bundle = sample_s2(PROB, CIRCUIT, 2, 5, 0.6, 78)
    res = solve_small(bundle.formula, var_cap=5000)
    if res.status is Status.SAT:
        assert len(bundle.witness_decoder(res.assignment)) >= \
            math.ceil(0.6 * 5)


def test_s2_monotone_composition():
    # a SAT stage-1 draw stays SAT once embedded with threshold 1 of 1
    for i in range(15):
        seed = mix_seed(6, i)
        s1 = sample_s1(PROB, CIRCUIT, 2, mix_seed(seed, 0))
        if solve_small(s1.formula).status is Status.SAT:
            s2 = sample_s2(PROB, CIRCUIT, 2, 1, 1.0, seed)
            assert solve_small(s2.formula, var_cap=5000).status is Status.SAT


def test_s_final_blocks_disjoint():
    bundle = sample_s_final(PROB, CIRCUIT, 2, 3, TAU, 2, 99)
    assert bundle.stage is Stage.S
    seen = set()
    for blk in bundle.blocks:
        vs = set(blk.input_vars) | {blk.selector}
        assert not (vs & seen)
        seen |= vs


def test_s_final_reps1_equals_s2_verdict():
    for i in range(8):
        seed = mix_seed(7, i)
        one = sample_s_final(PROB, CIRCUIT, 2, 3, TAU, 1, seed)
        res = solve_small(one.formula, var_cap=5000)
        assert res.status in (Status.SAT, Status.UNSAT)
        if res.status is Status.SAT:
            assert check_witness(one, CIRCUIT, res.assignment)


def test_param_validation():
    with pytest.raises(ConfigError):
        sample_s2(PROB, CIRCUIT, 2, 0, 0.5, 1)
    with pytest.raises(ConfigError):
        sample_s2(PROB, CIRCUIT, 2, 3, 1.5, 1)
    with pytest.raises(ConfigError):
        sample_s_final(PROB, CIRCUIT, 2, 3, TAU, 0, 1)
