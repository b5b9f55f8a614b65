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

from .bitstring import BitString, pack
from .constructions import C3Instance, WrappedInstance
from .ecc import EccParams, reed_solomon
from .errors import ConfigError, DecodeFailure, PreimageNotFound
from .game import Label
from .ots import (OtsParams, PreimageIndex, digest, hash_words, targets,
                  toy_hash, verify)


PerturbFn = Callable[..., BitString]
# forge(vk, message, instance, rng, counters) -> signature bits; raises
# PreimageNotFound when it gives up
Forger = Callable[..., BitString]

# preimage guesses drawn and hashed per kernel call by bounded_c1
_CHUNK = 4096


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
# Forging attackers: one skeleton per construction plus a forger
# ---------------------------------------------------------------------------

def _table_forger(ots: OtsParams) -> Forger:
    """Forge from a full preimage table: one digest query per forgery."""
    index = PreimageIndex(ots)
    return lambda vk, msg, inst, rng, counters: \
        index.forge(vk, msg, counters)


def _c1_attacker(name: str, d: int, b: int, ots: OtsParams, ecc: EccParams,
                 forge: Forger,
                 query_budget: Optional[int] = None) -> Attacker:
    """Flip the base instance greedily, then sign the flip with `forge`.

    Falls back to the untampered instance when no flip within b bits helps,
    the key does not open, or the forger gives up.  The key codeword is left
    untouched.
    """
    rs = reed_solomon(ecc)

    def perturb(x, y, h_oracle, sampler_oracle, rng, counters):
        inst = WrappedInstance.from_bits(x, d, ots, ecc)
        flipped = _majority_flip(inst.x, y, b)
        if flipped is None:
            return x
        try:
            sigma = forge(rs.decode(inst.vk_code), flipped, inst, rng,
                          counters)
        except (DecodeFailure, PreimageNotFound):
            return x
        return WrappedInstance(flipped, sigma, inst.vk_code).to_bits()

    return Attacker(name, perturb, query_budget)


def _c3_attacker(name: str, ots: OtsParams, ecc: EccParams, forge: Forger,
                 query_budget: Optional[int] = None) -> Attacker:
    """Forge a valid signature into slot 0 whenever the true label is 0.

    The classifier then sees one verifying slot and outputs 1.  When the true
    label is 1 there is nothing to gain: every slot already verifies and the
    classifier cannot be pushed to 0 within any sub-instance budget, so the
    attacker leaves the instance alone, as it does when a codeword does not
    decode or the forger gives up.
    """
    rs = reed_solomon(ecc)

    def perturb(x, y, h_oracle, sampler_oracle, rng, counters):
        if y != 0:
            return x
        inst = C3Instance.from_bits(x, ots, ecc)
        try:
            sigma = forge(rs.decode(inst.vk_code), rs.decode(inst.x_code),
                          inst, rng, counters)
        except (DecodeFailure, PreimageNotFound):
            return x
        return inst.with_slot0(sigma).to_bits()

    return Attacker(name, perturb, query_budget)


def unbounded_c1_attacker(d: int, b: int, ots: OtsParams,
                          ecc: EccParams) -> Attacker:
    """Greedy flip plus a table forgery: it changes at most b instance bits
    and sig_bits signature bits."""
    return _c1_attacker("unbounded_c1", d, b, ots, ecc, _table_forger(ots))


def bounded_c1_attacker(d: int, b: int, ots: OtsParams, ecc: EccParams,
                        query_budget: int) -> Attacker:
    """Greedy instance flip plus budget-limited forgery attempts.

    Reuses the revealed preimages at digest positions that do not change,
    and spends the hash budget guessing random preimages for the positions
    that do.  Falls back to the untampered instance when the budget runs out,
    so its win rate degrades to the plain risk as slen grows.
    """
    if query_budget < 0:
        raise ConfigError(f"bounded_c1 query budget {query_budget} < 0")

    def forge(vk, flipped, inst, rng, counters):
        d_old = digest(inst.x, ots, counters)
        d_new = digest(flipped, ots, counters)
        want = targets(vk, d_new, ots)
        # start from the revealed preimages; they only stay valid where the
        # digest bit is unchanged
        preimages = inst.sigma.fields(ots.slen)
        missing = [i for i in range(ots.hlen) if d_new[i] != d_old[i]]
        # a revealed preimage may also hit the opposite digest slot by luck
        for i in list(missing):
            if toy_hash(BitString(preimages[i], ots.slen), ots.hlen,
                        ots.hash_rounds, counters).value == want[i]:
                missing.remove(i)
        # each guess targets missing[0]; guesses are drawn and hashed a
        # chunk at a time, with the rng draws and charges of one at a time
        while missing and counters.queries < query_budget:
            n = min(_CHUNK, query_budget - counters.queries)
            state = rng.getstate()
            guesses = [rng.getrandbits(ots.slen) for _ in range(n)]
            hashes = hash_words(guesses, ots.slen, ots.hlen,
                                ots.hash_rounds).tolist()
            used = 0
            while missing:
                i = missing[0]
                try:
                    used = hashes.index(want[i], used) + 1
                except ValueError:  # the rest of the chunk missed i
                    used = n
                    break
                preimages[i] = guesses[used - 1]
                missing.pop(0)
            counters.charge(used)
            if used < n:  # rewind the draws after the last hit
                rng.setstate(state)
                for _ in range(used):
                    rng.getrandbits(ots.slen)
        if missing:
            raise PreimageNotFound("query budget spent")
        return pack(preimages, ots.slen)

    return _c1_attacker("bounded_c1", d, b, ots, ecc, forge, query_budget)


def unbounded_c3_attacker(ots: OtsParams, ecc: EccParams) -> Attacker:
    """Table forgery into slot 0 of every 0-labelled instance."""
    return _c3_attacker("unbounded_c3", ots, ecc, _table_forger(ots))


def bounded_c3_attacker(ots: OtsParams, ecc: EccParams,
                        query_budget: int) -> Attacker:
    """Budget-limited forgery attempts against the no-detection classifier.

    For a 0-labeled instance it guesses random signatures for slot 0 and
    checks them with charged hash calls; each guess succeeds only by hitting
    hlen independent preimages, so at realistic budgets it reverts to the
    untampered instance and wins with probability ~0.
    """
    if query_budget < 0:
        raise ConfigError(f"bounded_c3 query budget {query_budget} < 0")

    def forge(vk, xb, inst, rng, counters):
        xd = digest(xb, ots, counters)
        while counters.queries < query_budget:
            cand = BitString.random(rng, ots.sig_bits)
            if verify(vk, xb, cand, ots, counters, message_digest=xd):
                return cand
        raise PreimageNotFound("query budget spent")

    return _c3_attacker("bounded_c3", ots, ecc, forge, query_budget)
