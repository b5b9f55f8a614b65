import hashlib

import pytest

from compgap.base_problems import (MajorityNoiseParams, majority_hypothesis,
                                   majority_noise_problem,
                                   uniform_balanced_problem)
from compgap.bitstring import BitString, concat_all
from compgap.constructions import (C3Instance, WrappedInstance, c3_problem,
                                   classifier_c1, classifier_c3, sample_c3,
                                   wrap_sample_c1, wrapped_problem_c1)
from compgap.ecc import EccParams, reed_solomon
from compgap.errors import ConfigError, FormatError
from compgap.game import STAR, estimate_risk
from compgap.ots import OtsParams, PreimageIndex, digest, targets, verify

# small but fully functional parameters to keep unit tests quick
OTS = OtsParams(hlen=4, slen=8)          # vk 32 bits, sig 32 bits
ECC = EccParams(k_sym=4, n_sym=12, bits_per_symbol=8)   # data 32, t_max=4
BASE = majority_noise_problem(MajorityNoiseParams(7, 0.1))
BASE_H = majority_hypothesis(7)

C3_OTS = OtsParams(hlen=4, slen=8)       # vk 32 bits
C3_BASE = uniform_balanced_problem(32)
C3_ECC = EccParams(k_sym=4, n_sym=10, bits_per_symbol=8)  # data 32, n 80


def test_wrapped_layout_roundtrip():
    inst, y = wrap_sample_c1(BASE, OTS, ECC, seed=1)
    back = WrappedInstance.from_bits(inst.to_bits(), 7, OTS, ECC)
    assert back == inst
    # a wrong instance length is a shape error, not a setting
    with pytest.raises(FormatError, match="instance must be"):
        WrappedInstance.from_bits(BitString(0, 6 + 32 + 96), 7, OTS, ECC)


def test_honest_sample_classifies_like_base():
    h = classifier_c1(BASE_H, OTS, ECC)
    for seed in range(30):
        inst, y = wrap_sample_c1(BASE, OTS, ECC, seed)
        assert h(inst.to_bits()) == BASE_H(inst.x)


def test_risk_preserved_exactly_per_trial():
    prob = wrapped_problem_c1(BASE, OTS, ECC)
    h = classifier_c1(BASE_H, OTS, ECC)
    r_base = estimate_risk(BASE, BASE_H, 400, seed=9)
    r_wrap = estimate_risk(prob, h, 400, seed=9)
    assert r_base.point == r_wrap.point


def test_signature_tamper_yields_star():
    h = classifier_c1(BASE_H, OTS, ECC)
    inst, _ = wrap_sample_c1(BASE, OTS, ECC, seed=2)
    bits = inst.to_bits()
    hit_star = False
    for pos in range(7, 7 + OTS.sig_bits):
        out = h(bits.flip(pos))
        hit_star |= out is STAR
        # a flipped preimage may still verify only by hash collision
    assert hit_star


def test_instance_tamper_without_new_signature_yields_star():
    h = classifier_c1(BASE_H, OTS, ECC)
    for seed in range(20):
        inst, _ = wrap_sample_c1(BASE, OTS, ECC, seed)
        out = h(inst.to_bits().flip(0))
        vk = reed_solomon(ECC).decode(inst.vk_code)
        want = targets(vk, digest(inst.x.flip(0), OTS), OTS)
        if not verify(inst.sigma, want, OTS):
            assert out is STAR


def test_codeword_corruption_within_radius_is_transparent():
    h = classifier_c1(BASE_H, OTS, ECC)
    inst, _ = wrap_sample_c1(BASE, OTS, ECC, seed=3)
    bits = inst.to_bits()
    off = 7 + OTS.sig_bits
    # flip t_max bits in distinct symbols of the key codeword
    flips = [off + s * 8 for s in range(ECC.t_max)]
    assert h(bits.flip(*flips)) == h(bits)


def test_mismatched_params_rejected():
    with pytest.raises(ConfigError):
        classifier_c1(BASE_H, OTS, EccParams(k_sym=3, n_sym=12,
                                             bits_per_symbol=8))


def test_c3_param_checks():
    with pytest.raises(ConfigError):
        c3_problem(uniform_balanced_problem(16), C3_OTS, C3_ECC)


def test_c3_degenerate_ots_is_a_config_error():
    # both 1-bit preimages hash to 1, so a 0-labelled sample has no invalid
    # signature to carry
    with pytest.raises(ConfigError):
        sample_c3(uniform_balanced_problem(2), OtsParams(1, 1),
                  EccParams(1, 3, 2), 0)


def test_c3_sample_shapes():
    ell, n = C3_OTS.sig_bits, C3_ECC.n_bits
    for seed in (4, 5):
        inst, y = sample_c3(C3_BASE, C3_OTS, C3_ECC, seed)
        assert inst.slots.length == n * ell
        slots = [inst.slots.extract(i * ell, ell) for i in range(n)]
        assert all(s == slots[0] for s in slots)
        assert C3Instance.from_bits(inst.to_bits(), C3_OTS, C3_ECC) == inst
    with pytest.raises(FormatError, match="instance must be"):
        C3Instance.from_bits(BitString(0, inst.to_bits().length + 1),
                             C3_OTS, C3_ECC)


def test_c3_classifier_recovers_label():
    h = classifier_c3(C3_OTS, C3_ECC)
    seen = set()
    for seed in range(60):
        inst, y = sample_c3(C3_BASE, C3_OTS, C3_ECC, seed)
        assert h(inst.to_bits()) == y
        seen.add(y)
    assert seen == {0, 1}


def test_c3_classifier_never_stars():
    import random
    h = classifier_c3(C3_OTS, C3_ECC)
    rng = random.Random(0)
    prob = c3_problem(C3_BASE, C3_OTS, C3_ECC)
    for _ in range(20):
        junk = BitString.random(rng, prob.instance_len)
        assert h(junk) in (0, 1)


def test_c3_forged_slot_flips_zero_to_one():
    ell = C3_OTS.sig_bits
    h = classifier_c3(C3_OTS, C3_ECC)
    rs = reed_solomon(C3_ECC)
    index = PreimageIndex(C3_OTS)
    found = False
    for seed in range(40):
        inst, y = sample_c3(C3_BASE, C3_OTS, C3_ECC, seed)
        if y != 0:
            continue
        found = True
        x = rs.decode(inst.x_code)
        sigma = index.forge(
            targets(rs.decode(inst.vk_code), digest(x, C3_OTS), C3_OTS))
        assert h(inst.to_bits()) == 0
        forged = inst.with_slot0(sigma)
        assert forged.slots.extract(0, ell) == sigma
        assert forged.slots.extract(ell, forged.slots.length - ell) == \
            inst.slots.extract(ell, inst.slots.length - ell)
        assert h(forged.to_bits()) == 1
    assert found


def test_c3_classifier_reads_every_slot():
    # 1 iff some slot verifies, wherever it sits; slots that differ are
    # all verified, and none of two alternating invalid ones does
    n, ell = C3_ECC.n_bits, C3_OTS.sig_bits
    h = classifier_c3(C3_OTS, C3_ECC)
    rs = reed_solomon(C3_ECC)
    inst, y = sample_c3(C3_BASE, C3_OTS, C3_ECC, 0)
    assert y == 0
    want = targets(rs.decode(inst.vk_code), digest(rs.decode(inst.x_code),
                                                    C3_OTS), C3_OTS)
    bad = inst.slots.extract(0, ell)
    forged = PreimageIndex(C3_OTS).forge(want)
    last = C3Instance(inst.x_code, inst.slots.extract(0, (n - 1) * ell)
                      .concat(forged), inst.vk_code)
    assert h(last.to_bits()) == 1
    other = BitString(bad.value ^ 1, ell)
    assert not verify(bad, want, C3_OTS) and not verify(other, want, C3_OTS)
    alternating = C3Instance(inst.x_code, concat_all([bad, other] * (n // 2)),
                             inst.vk_code)
    assert h(alternating.to_bits()) == 0


# sha256 of to01() of whole instances.  results.csv cannot see a reordering
# of key or signature fields that every reader applies consistently; these
# digests can.  Seeds cover both labels of each construction.
FROZEN_INSTANCES = [
    (lambda: wrap_sample_c1(BASE, OTS, ECC, 0), 1,
     "afc6212e8453d8c417b76bd338b6c3ca6df8235b0659f8cb97f15ba9aadca51a"),
    (lambda: wrap_sample_c1(BASE, OTS, ECC, 1), 0,
     "b0114527723dc80c2c3b9e9dfd66b803ed6359bf8ee5632fb314941fb5a0c5a2"),
    (lambda: sample_c3(C3_BASE, C3_OTS, C3_ECC, 0), 0,
     "dbc7a103812b42815dc979fb580bf6522c5114fe63e102d7f5f450c01857e242"),
    (lambda: sample_c3(C3_BASE, C3_OTS, C3_ECC, 1), 1,
     "8a30f9bcc6fca7e55ff61cea4aa2eab5d8e7732a9751d5051922485e24be93f1"),
]


@pytest.mark.parametrize("sample,label,sha", FROZEN_INSTANCES,
                         ids=["c1-seed0", "c1-seed1", "c3-seed0", "c3-seed1"])
def test_instance_layout_frozen(sample, label, sha):
    inst, y = sample()
    assert y == label
    assert hashlib.sha256(inst.to_bits().to01().encode()).hexdigest() == sha
