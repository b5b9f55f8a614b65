"""Attackers ranging from no-op to full preimage inversion.

Every attacker implements one protocol: given the challenge (x, y), oracle
access to the hypothesis and the sampler, an rng, and the shared query
counter, return a perturbed instance of the same length.  Bounded attackers
respect an explicit hash-query budget; unbounded ones may consult a
precomputed preimage table whose construction is not charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .bitstring import BitString
from .constructions import WrappedInstance, c3_slot_count
from .ecc import EccParams, reed_solomon
from .errors import DecodeFailure, PreimageNotFound
from .game import Counters, Label
from .ots import (OtsParams, PreimageIndex, Signature, digest, toy_hash,
                  verify, vk_from_bits)


PerturbFn = Callable[..., BitString]


@dataclass(frozen=True)
class Attacker:
    name: str
    perturb: PerturbFn
    query_budget: Optional[int] = None


# ---------------------------------------------------------------------------
# Base-problem attackers
# ---------------------------------------------------------------------------

def identity_attacker() -> Attacker:
    """Never perturbs; its win rate equals the plain risk by definition."""
    def perturb(x, y, h_oracle, sampler_oracle, rng, counters):
        return x
    return Attacker("identity", perturb, query_budget=0)


def _majority_flip(x: BitString, y: Label, b: int) -> Optional[BitString]:
    """Flip the fewest bits that change the majority away from y.

    Returns None when the margin exceeds the budget's reach or when y is not
    the current majority (then the untampered instance already errs).
    Flipping majority-side bits is optimal: each such flip shrinks the margin
    by 2, any other flip grows it (docs/greedy_majority.md).
    """
    d = x.length
    ones = x.ones()
    maj = 1 if 2 * ones > d else 0
    if maj != y:
        return None
    margin = abs(2 * ones - d)
    need = (margin + 1) // 2
    if need > b:
        return None
    flips = []
    for i in range(d):
        if x[i] == maj:
            flips.append(i)
            if len(flips) == need:
                break
    return x.flip(*flips)


def greedy_majority_attacker(b: int) -> Attacker:
    """Optimal attacker against the majority classifier under b bit flips."""
    def perturb(x, y, h_oracle, sampler_oracle, rng, counters):
        flipped = _majority_flip(x, y, b)
        return x if flipped is None else flipped
    return Attacker("greedy_majority", perturb, query_budget=0)


# ---------------------------------------------------------------------------
# Attackers on the tamper-detecting wrapped problem
# ---------------------------------------------------------------------------

def unbounded_c1_attacker(d: int, b: int, ots: OtsParams,
                          ecc: EccParams) -> Attacker:
    """Flip the base instance greedily, then forge a signature for it.

    Uses a full preimage table, so each forgery costs one digest query.
    Total perturbation: at most b bits in the instance part plus at most
    sig_bits in the signature part; the key codeword is left untouched.
    """
    index = PreimageIndex(ots)
    rs = reed_solomon(ecc)

    def perturb(x, y, h_oracle, sampler_oracle, rng, counters):
        inst = WrappedInstance.from_bits(x, d, ots, ecc)
        flipped = _majority_flip(inst.x, y, b)
        if flipped is None:
            return x
        try:
            vk = vk_from_bits(rs.decode(inst.vk_code), ots)
            sigma = index.forge(vk, flipped, counters).to_bits()
        except (DecodeFailure, PreimageNotFound):
            return x
        return WrappedInstance(flipped, sigma, inst.vk_code).to_bits()

    return Attacker("unbounded_c1", perturb)


def bounded_c1_attacker(d: int, b: int, ots: OtsParams, ecc: EccParams,
                        query_budget: int) -> Attacker:
    """Greedy instance flip plus budget-limited forgery attempts.

    Reuses the revealed preimages at digest positions that do not change,
    and spends the hash budget guessing random preimages for the positions
    that do.  Falls back to the untampered instance when the budget runs out,
    so its win rate degrades to the plain risk as slen grows.
    """
    rs = reed_solomon(ecc)

    def perturb(x, y, h_oracle, sampler_oracle, rng, counters):
        inst = WrappedInstance.from_bits(x, d, ots, ecc)
        flipped = _majority_flip(inst.x, y, b)
        if flipped is None:
            return x
        try:
            vk = vk_from_bits(rs.decode(inst.vk_code), ots)
        except DecodeFailure:
            return x
        old_sig = Signature.from_bits(inst.sigma, ots)
        d_old = digest(inst.x, ots, counters)
        d_new = digest(flipped, ots, counters)
        # start from the revealed preimages; they only stay valid where the
        # digest bit is unchanged
        preimages = list(old_sig.preimages)
        missing = [i for i in range(ots.hlen) if d_new[i] != d_old[i]]
        # a revealed preimage may also hit the opposite digest slot by luck
        for i in list(missing):
            if toy_hash(old_sig.preimages[i], ots.hlen, ots.hash_rounds,
                        counters) == vk[i][d_new[i]]:
                missing.remove(i)
        while missing and counters.queries < query_budget:
            i = missing[0]
            cand = BitString.random(rng, ots.slen)
            if toy_hash(cand, ots.hlen, ots.hash_rounds,
                        counters) == vk[i][d_new[i]]:
                preimages[i] = cand
                missing.pop(0)
        if missing:
            return x
        return WrappedInstance(flipped, Signature(tuple(preimages)).to_bits(),
                               inst.vk_code).to_bits()

    return Attacker("bounded_c1", perturb, query_budget=query_budget)


# ---------------------------------------------------------------------------
# Attackers on the no-detection construction
# ---------------------------------------------------------------------------

def _c3_replace_slot0(x: BitString, sigma: BitString, ots: OtsParams,
                      ecc: EccParams) -> BitString:
    ell = ots.sig_bits
    # slot 0 sits just below the instance codeword, at the high end of the
    # slot block
    shift = x.length - ecc.n_bits - ell
    mask = ((1 << ell) - 1) << shift
    return BitString((x.value & ~mask) | (sigma.value << shift), x.length)


def unbounded_c3_attacker(ots: OtsParams, ecc: EccParams) -> Attacker:
    """Forge a valid signature into slot 0 whenever the true label is 0.

    The classifier then sees one verifying slot and outputs 1.  When the true
    label is 1 there is nothing to gain: every slot already verifies and the
    classifier cannot be pushed to 0 within any sub-instance budget, so the
    attacker leaves the instance alone.
    """
    index = PreimageIndex(ots)
    rs = reed_solomon(ecc)
    n = c3_slot_count(ecc)
    ell = ots.sig_bits

    def perturb(x, y, h_oracle, sampler_oracle, rng, counters):
        if y != 0:
            return x
        try:
            xb = rs.decode(x.extract(0, ecc.n_bits))
            vk = vk_from_bits(
                rs.decode(x.extract(ecc.n_bits + n * ell, ecc.n_bits)), ots)
            sigma = index.forge(vk, xb, counters).to_bits()
        except (DecodeFailure, PreimageNotFound):
            return x
        return _c3_replace_slot0(x, sigma, ots, ecc)

    return Attacker("unbounded_c3", perturb)


def bounded_c3_attacker(ots: OtsParams, ecc: EccParams,
                        query_budget: int) -> Attacker:
    """Budget-limited forgery attempts against the no-detection classifier.

    For a 0-labeled instance it guesses random signatures for slot 0 and
    checks them with charged hash calls; each guess succeeds only by hitting
    hlen independent preimages, so at realistic budgets it reverts to the
    untampered instance and wins with probability ~0.
    """
    rs = reed_solomon(ecc)
    n = c3_slot_count(ecc)
    ell = ots.sig_bits

    def perturb(x, y, h_oracle, sampler_oracle, rng, counters):
        if y != 0:
            return x
        try:
            xb = rs.decode(x.extract(0, ecc.n_bits))
            vk = vk_from_bits(
                rs.decode(x.extract(ecc.n_bits + n * ell, ecc.n_bits)), ots)
        except DecodeFailure:
            return x
        xd = digest(xb, ots, counters)
        while counters.queries < query_budget:
            cand = Signature.from_bits(BitString.random(rng, ell), ots)
            if verify(vk, xb, cand, ots, counters, message_digest=xd):
                return _c3_replace_slot0(x, cand.to_bits(), ots, ecc)
        return x

    return Attacker("bounded_c3", perturb, query_budget=query_budget)
