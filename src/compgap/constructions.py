"""The two signature-wrapped problem families.

The wrapper (C1) attaches a per-sample one-time signature and an
error-coded verification key to each base instance; its classifier rejects
with STAR when the chain (decode vk, verify signature) fails.  The second
family (C3) must always output a label: instances carry an error-coded
instance, one block of n identical signature slots, and an error-coded
key; the classifier outputs 1 iff any slot verifies.  This module owns both
layouts; the key codeword decodes to the verification key itself.

A fresh key pair is generated for every sample; no global key exists
anywhere, which is what makes the distributions publicly samplable.
"""

from __future__ import annotations

from dataclasses import dataclass

import random

from .bitstring import BitString, concat_all
from .ecc import EccParams, reed_solomon
from .errors import ConfigError, DecodeFailure, FormatError
from .game import STAR, Hypothesis, Label, Problem, mix_seed
from .ots import (OtsParams, digest, hash_words, kgen, sign, targets,
                  verify)

_KGEN_STREAM = 0x4B47454E
_SIGMA_STREAM = 0x5349474D

C3_REJECTION_CAP = 1000


# ---------------------------------------------------------------------------
# Construction with tamper detection (wrapper around an arbitrary problem)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class WrappedInstance:
    """Concatenated as (x, sigma, vk_code), x at the low indices."""

    x: BitString
    sigma: BitString
    vk_code: BitString

    def to_bits(self) -> BitString:
        return concat_all([self.x, self.sigma, self.vk_code])

    @classmethod
    def from_bits(cls, bits: BitString, d: int, ots: OtsParams,
                  ecc: EccParams) -> "WrappedInstance":
        if bits.length != d + ots.sig_bits + ecc.n_bits:
            raise FormatError(
                f"instance must be {d + ots.sig_bits + ecc.n_bits} bits")
        return cls(bits.extract(0, d),
                   bits.extract(d, ots.sig_bits),
                   bits.extract(d + ots.sig_bits, ecc.n_bits))


def _check_c1_params(ots: OtsParams, ecc: EccParams) -> None:
    if ecc.data_bits != ots.vk_bits:
        raise ConfigError(
            f"code data width {ecc.data_bits} != verification-key width "
            f"{ots.vk_bits}")


def wrap_sample_c1(base: Problem, ots: OtsParams, ecc: EccParams, seed: int):
    """Sample ((x, sigma, Encode(vk)), y) with a fresh key pair.

    Draws the base example with the caller's seed unchanged, so risk
    estimates on the wrapped problem share base examples trial-for-trial
    with estimates on the base problem.  The signing key is discarded.
    """
    _check_c1_params(ots, ecc)
    x, y = base.sample(seed)
    keys = kgen(ots, mix_seed(seed, _KGEN_STREAM))
    sigma = sign(keys.sk, x, ots)
    vk_code = reed_solomon(ecc).encode(keys.vk)
    return WrappedInstance(x, sigma, vk_code), y


def wrapped_problem_c1(base: Problem, ots: OtsParams,
                       ecc: EccParams) -> Problem:
    _check_c1_params(ots, ecc)
    return Problem(
        instance_len=base.instance_len + ots.sig_bits + ecc.n_bits,
        sampler=lambda seed: (
            lambda inst_y: (inst_y[0].to_bits(), inst_y[1])
        )(wrap_sample_c1(base, ots, ecc, seed)),
    )


def classifier_c1(base_h: Hypothesis, ots: OtsParams,
                  ecc: EccParams) -> Hypothesis:
    """h(x, sigma, c) = base_h(x) if decode+verify succeed, else STAR."""
    _check_c1_params(ots, ecc)
    d = base_h.instance_len
    rs = reed_solomon(ecc)

    def classify(bits: BitString) -> Label:
        inst = WrappedInstance.from_bits(bits, d, ots, ecc)
        try:
            vk = rs.decode(inst.vk_code)
        except DecodeFailure:
            return STAR
        if not verify(inst.sigma, targets(vk, digest(inst.x, ots), ots), ots):
            return STAR
        return base_h(inst.x)

    return Hypothesis(instance_len=d + ots.sig_bits + ecc.n_bits,
                      classify=classify)


# ---------------------------------------------------------------------------
# Construction without tamper detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class C3Instance:
    """Concatenated as (x_code, slots, vk_code); the slot block holds
    slot_0 .. slot_{n-1}, slot 0 at the low indices."""

    x_code: BitString
    slots: BitString
    vk_code: BitString

    def to_bits(self) -> BitString:
        return concat_all([self.x_code, self.slots, self.vk_code])

    @classmethod
    def from_bits(cls, bits: BitString, ots: OtsParams,
                  ecc: EccParams) -> "C3Instance":
        total, n = c3_instance_len(ots, ecc), ecc.n_bits
        if bits.length != total:
            raise FormatError(f"instance must be {total} bits")
        return cls(bits.extract(0, n), bits.extract(n, total - 2 * n),
                   bits.extract(total - n, n))

    def with_slot0(self, sigma: BitString) -> "C3Instance":
        rest = self.slots.extract(sigma.length,
                                  self.slots.length - sigma.length)
        return C3Instance(self.x_code, sigma.concat(rest), self.vk_code)


def _check_c3_params(base: Problem, ots: OtsParams, ecc: EccParams) -> None:
    if ecc.data_bits != base.instance_len:
        raise ConfigError(
            f"code data width {ecc.data_bits} != base instance length "
            f"{base.instance_len}")
    if ecc.data_bits != ots.vk_bits:
        raise ConfigError(
            "no-detection construction shares one code for instance and key; "
            f"need base length == vk width, got {base.instance_len} vs "
            f"{ots.vk_bits}")


def c3_instance_len(ots: OtsParams, ecc: EccParams) -> int:
    return (2 + ots.sig_bits) * ecc.n_bits  # two codewords, n_bits slots


def sample_c3(base: Problem, ots: OtsParams, ecc: EccParams, seed: int):
    """Honest sample: y=1 carries a valid signature in every slot, y=0 an
    invalid one (rejection-sampled uniform) in every slot."""
    _check_c3_params(base, ots, ecc)
    rs = reed_solomon(ecc)
    x, y = base.sample(seed)
    keys = kgen(ots, mix_seed(seed, _KGEN_STREAM))
    if y == 1:
        sigma = sign(keys.sk, x, ots)
    else:
        rng = random.Random(mix_seed(seed, _SIGMA_STREAM))
        want = targets(keys.vk, digest(x, ots), ots)
        for _ in range(C3_REJECTION_CAP):
            sigma = BitString.random(rng, ots.sig_bits)
            if not verify(sigma, want, ots):
                break
        else:
            raise ConfigError(
                "could not sample an invalid signature; OTS parameters are "
                "degenerate")
    return C3Instance(rs.encode(x), sigma.repeat(ecc.n_bits),
                      rs.encode(keys.vk)), y


def c3_problem(base: Problem, ots: OtsParams, ecc: EccParams) -> Problem:
    _check_c3_params(base, ots, ecc)
    # an invalid signature, which every 0-labelled sample carries, exists
    # iff the hash is not constant on the slen-bit preimages
    h = hash_words(range(1 << min(ots.slen, 16)), ots.slen, ots.hlen)
    if (h == h[0]).all():
        raise ConfigError("degenerate C3 parameters: every preimage hashes "
                          "to one digest, so no signature is invalid")
    return Problem(
        instance_len=c3_instance_len(ots, ecc),
        sampler=lambda seed: (
            lambda inst_y: (inst_y[0].to_bits(), inst_y[1])
        )(sample_c3(base, ots, ecc, seed)),
    )


def classifier_c3(ots: OtsParams, ecc: EccParams) -> Hypothesis:
    """Output 1 iff any slot verifies against the decoded instance and key.

    Decode failure on either codeword yields 0: the classifier has no STAR,
    and an undecodable input cannot satisfy the verification branch.
    """
    rs = reed_solomon(ecc)
    n, ell = ecc.n_bits, ots.sig_bits
    repeat = BitString(1, ell).repeat(n).value  # sum of 2^(i*ell), i < n

    def classify(bits: BitString) -> Label:
        inst = C3Instance.from_bits(bits, ots, ecc)
        try:
            x = rs.decode(inst.x_code)
            vk = rs.decode(inst.vk_code)
        except DecodeFailure:
            return 0
        want = targets(vk, digest(x, ots), ots)
        raw = inst.slots.value
        # n copies of slot 0 (fields cannot carry): verify slot 0 alone
        count = 1 if raw == (raw >> ((n - 1) * ell)) * repeat else n
        for i in range(count):
            v = (raw >> ((n - 1 - i) * ell)) & ((1 << ell) - 1)
            if verify(BitString(v, ell), want, ots):
                return 1
        return 0

    return Hypothesis(instance_len=c3_instance_len(ots, ecc),
                      classify=classify)
