"""Acceptance gate: eight desk-scale criteria, one pass/fail line each.

Each test prints its verdict line and records it for the terminal summary,
so the lines survive pytest's output capture in batch logs.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compgap.attackers import (bounded_c1_attacker, bounded_c3_attacker,
                               greedy_majority_attacker, identity_attacker,
                               unbounded_c1_attacker, unbounded_c3_attacker)
from compgap.base_problems import (MajorityNoiseParams, analytic_adv_risk,
                                   majority_hypothesis,
                                   majority_noise_problem,
                                   uniform_balanced_problem)
from compgap.bitstring import BitString
from compgap.circuits import (CircuitBuilder, circuit_of_majority,
                              eval_batch)
from compgap.cnf import CnfFormula, read_dimacs, tseitin, write_dimacs
from compgap.constructions import (c3_problem, classifier_c1, classifier_c3,
                                   wrapped_problem_c1)
from compgap.ecc import EccParams, reed_solomon
from compgap.game import (STAR, Hypothesis, binomial_half_width,
                          estimate_adv_risk, estimate_risk, game_transcript,
                          mix_seed, winning)
from compgap.ots import OtsParams
from compgap.samplers import check_witness, sample_s1, sample_s2
from compgap.solver import Status, solve_enumerate, solve_small

pytestmark = pytest.mark.acceptance

OTS = OtsParams(hlen=16, slen=16)
ECC = EccParams(k_sym=32, n_sym=640, bits_per_symbol=16)
D, ALPHA, B = 15, 0.05, 2
BUDGET_C1 = B + OTS.sig_bits

C3_OTS = OtsParams(hlen=8, slen=10)
C3_ECC = EccParams(k_sym=16, n_sym=40, bits_per_symbol=8)
C3_D = 128


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
    print(line)
    from conftest import VERDICT_FILE
    with VERDICT_FILE.open("a") as sink:
        sink.write(line + "\n")
    assert ok, line


def test_criterion_1_risk_preservation():
    trials = 10_000
    ok = True
    details = []
    for alpha in (0.0, 0.05, 0.2):
        base = majority_noise_problem(MajorityNoiseParams(D, alpha))
        base_h = majority_hypothesis(D)
        wrapped = wrapped_problem_c1(base, OTS, ECC)
        h = classifier_c1(base_h, OTS, ECC)
        r = estimate_risk(base, base_h, trials, seed=101)
        w = estimate_risk(wrapped, h, trials, seed=101)
        ok &= r.point == w.point
        details.append(f"alpha={alpha}: base={r.point:.4f} wrapped={w.point:.4f}")
    report("risk preservation exact at 10^4 trials x 3 noise rates", ok,
           "; ".join(details))


def test_criterion_2_computational_robustness():
    games = 1000
    budget = 1 << 10
    prob = wrapped_problem_c1(
        majority_noise_problem(MajorityNoiseParams(D, ALPHA)), OTS, ECC)
    h = classifier_c1(majority_hypothesis(D), OTS, ECC)
    atk = bounded_c1_attacker(D, B, OTS, ECC, query_budget=budget)
    outs = game_transcript(prob, h, atk, BUDGET_C1, games, seed=202)
    rate = sum(o.won for o in outs) / games
    within = all(o.queries_used <= budget for o in outs)
    report("query-bounded attacker held to noise rate, budget audited",
           rate <= ALPHA + 0.02 and within,
           f"win rate {rate:.4f} <= {ALPHA + 0.02}, "
           f"max queries {max(o.queries_used for o in outs)}/{budget}")


def test_criterion_3_unbounded_attack_success():
    games = 2000
    oracle = float(analytic_adv_risk(MajorityNoiseParams(D, ALPHA), B))
    prob = wrapped_problem_c1(
        majority_noise_problem(MajorityNoiseParams(D, ALPHA)), OTS, ECC)
    h = classifier_c1(majority_hypothesis(D), OTS, ECC)
    unb = estimate_adv_risk(prob, h, unbounded_c1_attacker(D, B, OTS, ECC),
                            BUDGET_C1, games, seed=303)
    bnd = estimate_adv_risk(
        prob, h, bounded_c1_attacker(D, B, OTS, ECC, query_budget=1 << 10),
        BUDGET_C1, 1000, seed=303)
    close = abs(unb.point - oracle) <= 3 * unb.half_width
    gap_ok = (unb.point - bnd.point) >= (oracle - ALPHA) - 0.05
    report("exhaustive attacker recovers the oracle risk; gap certified",
           close and gap_ok,
           f"unbounded {unb.point:.4f} vs oracle {oracle:.4f} "
           f"(3hw {3 * unb.half_width:.4f}); gap {unb.point - bnd.point:.4f}")


def test_criterion_4_no_detection_construction():
    prob = c3_problem(uniform_balanced_problem(C3_D), C3_OTS, C3_ECC)
    h = classifier_c3(C3_OTS, C3_ECC)
    honest = estimate_risk(prob, h, 100_000, seed=404)
    unb = estimate_adv_risk(prob, h, unbounded_c3_attacker(C3_OTS, C3_ECC),
                            C3_OTS.sig_bits, 10_000, seed=405)
    bnd = estimate_adv_risk(
        prob, h, bounded_c3_attacker(C3_OTS, C3_ECC, query_budget=1 << 10),
        C3_OTS.sig_bits, 1000, seed=406)
    report("always-answer classifier: risk 0, forge wins half, guessing none",
           honest.point == 0.0 and 0.47 <= unb.point <= 0.53
           and bnd.point <= 0.01,
           f"honest {honest.point}, unbounded {unb.point:.4f}, "
           f"bounded {bnd.point:.4f}")


def test_criterion_5_ecc_guarantee():
    rs = reed_solomon(ECC)
    rng = random.Random(505)
    ok = True
    for _ in range(10_000):
        msg = BitString(rng.getrandbits(ECC.data_bits), ECC.data_bits)
        cw = rs.encode(msg)
        t = rng.randrange(ECC.t_max + 1)
        syms = rng.sample(range(ECC.n_sym), t)
        flips = [s * 16 + rng.randrange(16) for s in syms]
        if rs.decode(cw.flip(*flips) if flips else cw) != msg:
            ok = False
            break
    tiny = EccParams(k_sym=2, n_sym=6, bits_per_symbol=8)
    rs2 = reed_solomon(tiny)
    msg = BitString(0x5AA5, 16)
    cw = rs2.encode(msg)
    swept = 0
    for t in range(tiny.t_max + 1):
        for pos in combinations(range(cw.length), t):
            if rs2.decode(cw.flip(*pos) if pos else cw) != msg:
                ok = False
            swept += 1
    report("code corrects every <=t_max corruption, randomized + exhaustive",
           ok, f"10^4 randomized trials, {swept} exhaustive patterns")


def test_criterion_6_sat_rate_reproduction():
    p = MajorityNoiseParams(11, ALPHA)
    prob = majority_noise_problem(p)
    circuit = circuit_of_majority(11)
    beta = float(analytic_adv_risk(p, B))
    draws = 200
    sat = wit = 0
    for i in range(draws):
        bundle = sample_s1(prob, circuit, B, mix_seed(606, i))
        res = solve_small(bundle.formula)
        if res.status is Status.SAT:
            sat += 1
            wit += check_witness(bundle, circuit, res.assignment)
    frac = sat / draws
    close = abs(frac - beta) <= 3 * binomial_half_width(frac, draws)
    tau = (ALPHA + beta) / 2
    s2_draws = 100
    s2_sat = sum(
        solve_small(sample_s2(prob, circuit, B, 40, tau, mix_seed(607, i)
                              ).formula).status is Status.SAT
        for i in range(s2_draws))
    s2_ok = s2_sat / s2_draws >= 0.95
    report("compiled-formula SAT rates track the game oracles",
           close and wit == sat and s2_ok,
           f"stage1 {frac:.3f} vs {beta:.3f}, witnesses {wit}/{sat}, "
           f"stage2 {s2_sat}/{s2_draws}")


def _generator_suite():
    """Small named circuits plus random ones, all at <= 12 inputs."""
    suite = []
    for d in (1, 3, 5, 7, 9, 11):
        suite.append(circuit_of_majority(d))
    b = CircuitBuilder(8)
    suite.append(b.build(b.xor_all([b.input(i) for i in range(8)])))
    b = CircuitBuilder(6)
    suite.append(b.build(b.and_all([b.input(i) for i in range(6)])))
    b = CircuitBuilder(3)
    suite.append(b.build(b.mux(b.input(0), b.input(1), b.input(2))))
    b = CircuitBuilder(1)
    suite.append(b.build(b.not_(b.input(0))))
    rng = random.Random(707)
    for _ in range(40):
        n = rng.randrange(2, 13)
        b = CircuitBuilder(n)
        refs = [b.input(i) for i in range(n)]
        for _ in range(rng.randrange(3, 20)):
            op = rng.randrange(4)
            x, y = rng.choice(refs), rng.choice(refs)
            refs.append([b.and_, b.or_, b.xor,
                         lambda p, q: b.not_(p)][op](x, y))
        out = refs[-1] if not isinstance(refs[-1], bool) else b.input(0)
        suite.append(b.build(out))
    return suite


def test_criterion_7_encoder_correctness():
    ok = True
    n_circuits = 0
    for c in _generator_suite():
        f = tseitin(c)
        f.add_clause([f.annotations["outputs"][0]])
        xs = [BitString(v, c.n_inputs) for v in range(1 << c.n_inputs)]
        truth = any(eval_batch(c, xs))
        ok &= (solve_small(f).status is Status.SAT) == truth
        n_circuits += 1
    rng = random.Random(708)
    for _ in range(500):
        f = CnfFormula()
        f.new_vars(12)
        for _ in range(rng.randrange(10, 70)):
            f.add_clause([rng.choice([1, -1]) * rng.randrange(1, 13)
                          for _ in range(3)])
        ok &= (solve_small(f).status is Status.SAT) == \
            (solve_enumerate(f).status is Status.SAT)
    for _ in range(100):
        f = CnfFormula()
        n = rng.randrange(1, 15)
        f.new_vars(n)
        for _ in range(rng.randrange(0, 25)):
            f.add_clause([rng.choice([1, -1]) * rng.randrange(1, n + 1)
                          for _ in range(rng.randrange(1, 4))])
        ok &= read_dimacs(write_dimacs(f)) == f
    report("encodings agree with truth tables, enumeration, and round-trips",
           ok, f"{n_circuits} suite circuits, 500 3-CNFs, 100 round-trips")


# criterion 8: four property suites of >= 100 generated cases each; the
# verdict line is printed by the last suite once all four have run
_C8_COUNTS = {"identity": 0, "budget0": 0, "monotone": 0, "star": 0}

small_params = st.tuples(st.sampled_from([5, 7, 9]),
                         st.sampled_from([0.0, 0.1, 0.3]),
                         st.integers(min_value=0, max_value=(1 << 32) - 1))


@given(small_params)
@settings(max_examples=110)
def test_criterion_8a_identity_equivalence(params):
    d, alpha, seed = params
    prob = majority_noise_problem(MajorityNoiseParams(d, alpha))
    h = majority_hypothesis(d)
    r = estimate_risk(prob, h, 40, seed)
    a = estimate_adv_risk(prob, h, identity_attacker(), 2, 40, seed)
    assert r.point == a.point
    _C8_COUNTS["identity"] += 1


@given(small_params)
@settings(max_examples=110)
def test_criterion_8b_budget_zero_equivalence(params):
    d, alpha, seed = params
    prob = majority_noise_problem(MajorityNoiseParams(d, alpha))
    h = majority_hypothesis(d)
    r = estimate_risk(prob, h, 40, seed)
    a = estimate_adv_risk(prob, h, greedy_majority_attacker(0), 0, 40, seed)
    assert r.point == a.point
    _C8_COUNTS["budget0"] += 1


@given(small_params, st.integers(min_value=0, max_value=3))
@settings(max_examples=110)
def test_criterion_8c_budget_monotonicity(params, b):
    d, alpha, seed = params
    prob = majority_noise_problem(MajorityNoiseParams(d, alpha))
    h = majority_hypothesis(d)
    lo = estimate_adv_risk(prob, h, greedy_majority_attacker(b), b, 30, seed)
    hi = estimate_adv_risk(prob, h, greedy_majority_attacker(b + 1), b + 1,
                           30, seed)
    assert hi.point >= lo.point
    _C8_COUNTS["monotone"] += 1


@given(st.integers(min_value=2, max_value=10), st.data())
@settings(max_examples=110)
def test_criterion_8d_star_asymmetry(n, data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=1 << 30)))
    x = BitString.random(rng, n)
    y = rng.getrandbits(1)
    h_star = Hypothesis(n, lambda _: STAR)
    # untampered: star counts as misclassification, attacker wins
    assert winning(x, x, y, h_star, budget=n).won
    # tampered: star is detection, attacker loses
    x_prime = x.flip(rng.randrange(n))
    assert not winning(x, x_prime, y, h_star, budget=n).won
    _C8_COUNTS["star"] += 1


def test_criterion_8_report():
    counts = dict(_C8_COUNTS)
    report("framework invariants hold across generated cases",
           all(v >= 100 for v in counts.values()),
           " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
