import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compgap import base_problems
from compgap.base_problems import (MAX_D, MajorityNoiseParams,
                                   analytic_adv_risk,
                                   brute_force_adv_risk, majority,
                                   majority_hypothesis,
                                   majority_noise_problem,
                                   sample_majority_noise,
                                   uniform_balanced_problem)
from compgap.bitstring import BitString
from compgap.errors import ConfigError
from compgap.game import estimate_risk


def test_params_validation():
    with pytest.raises(ConfigError):
        MajorityNoiseParams(4, 0.1)  # even
    with pytest.raises(ConfigError):
        MajorityNoiseParams(5, 1.0)
    MajorityNoiseParams(MAX_D, 0.1)
    for d in (MAX_D + 2, 10 ** 12 + 1, -1):
        with pytest.raises(ConfigError, match=f"1..{MAX_D}"):
            MajorityNoiseParams(d, 0.1)


def test_majority_examples():
    assert majority(BitString.from01("110")) == 1
    assert majority(BitString.from01("100")) == 0


# frozen oracle values, independently derivable as
# alpha + (1-alpha) * 2^-d * sum_{|2o-d|<=2b} C(d,o)
def test_frozen_oracle_d15():
    assert float(analytic_adv_risk(MajorityNoiseParams(15, 0.05), 2)) \
        == 0.713330078125


def test_frozen_oracle_d11():
    assert float(analytic_adv_risk(MajorityNoiseParams(11, 0.05), 2)) \
        == 0.784765625


def test_budget_zero_is_noise_rate():
    p = MajorityNoiseParams(15, 0.05)
    assert analytic_adv_risk(p, 0) == Fraction(0.05)


def test_budget_saturation():
    p = MajorityNoiseParams(11, 0.3)
    assert analytic_adv_risk(p, 11) == 1


@given(st.sampled_from([5, 7, 9, 11]),
       st.sampled_from([0.0, 0.05, 0.2, 0.5]),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=40)
def test_analytic_equals_brute_force(d, alpha, b):
    p = MajorityNoiseParams(d, alpha)
    assert analytic_adv_risk(p, b) == \
        brute_force_adv_risk(p, majority_hypothesis(d), b)


@given(st.integers(min_value=0, max_value=40).map(lambda n: 2 * n + 1),
       st.integers(min_value=0, max_value=45),
       st.sampled_from([0.0, 0.05, 0.3]))
def test_analytic_sums_only_the_reachable_margins(d, b, alpha):
    # the sum over all d + 1 counts of ones, keeping the reachable ones
    reachable = sum(math.comb(d, o) for o in range(d + 1)
                    if abs(2 * o - d) <= 2 * b)
    got = analytic_adv_risk(MajorityNoiseParams(d, alpha), b)
    assert type(got) is Fraction
    assert got == Fraction(alpha) + (1 - Fraction(alpha)) * Fraction(
        reachable, 1 << d)


@given(st.sampled_from([5, 9, 15]), st.integers(min_value=0, max_value=7))
def test_analytic_monotone_in_budget(d, b):
    p = MajorityNoiseParams(d, 0.1)
    assert analytic_adv_risk(p, b) <= analytic_adv_risk(p, b + 1)


def test_sampling_matches_noise_rate():
    p = MajorityNoiseParams(15, 0.2)
    est = estimate_risk(majority_noise_problem(p), majority_hypothesis(15),
                        4000, seed=11)
    assert abs(est.point - 0.2) <= 3 * est.half_width


@pytest.mark.parametrize("alpha", [0.05, 0.3])
def test_noise_flips_the_label_iff_the_draw_is_below_alpha(monkeypatch,
                                                          alpha):
    """The label flips at a draw just below alpha and stays the majority
    bit at a draw of exactly alpha, so the flip rate is alpha itself."""
    class FixedDraw(random.Random):  # draws x as usual, then `draw`
        def random(self):
            return draw

    monkeypatch.setattr(base_problems, "random",
                        SimpleNamespace(Random=FixedDraw))
    p = MajorityNoiseParams(9, alpha)
    for seed in range(5):
        for draw, flip in ((alpha, 0), (math.nextafter(alpha, 0), 1)):
            x, y = sample_majority_noise(p, seed)
            assert y == majority(x) ^ flip, (seed, draw)


def test_sample_deterministic_in_seed():
    p = MajorityNoiseParams(9, 0.3)
    assert sample_majority_noise(p, 5) == sample_majority_noise(p, 5)


def test_uniform_balanced_label_rate():
    prob = uniform_balanced_problem(16)
    from compgap.game import mix_seed
    labels = [prob.sample(mix_seed(3, i))[1] for i in range(2000)]
    assert 0.45 <= sum(labels) / 2000 <= 0.55


def test_brute_force_cap():
    with pytest.raises(ConfigError):
        brute_force_adv_risk(MajorityNoiseParams(21, 0.0),
                             majority_hypothesis(21), 1)
