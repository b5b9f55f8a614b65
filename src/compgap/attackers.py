"""Attackers ranging from no-op to full preimage inversion.

Every attacker implements one protocol: given the challenge (x, y), an rng
and the game's query counter, return a perturbed instance of the same
length.  Only this module charges queries: one per hash an attacker
computes, at the line that computes it.  The game's counter enforces the
query budget: a charge past it raises PreimageNotFound.  An attacker gives
up by raising that or DecodeFailure, and the game then plays the untampered
instance.  Unbounded attackers may consult a precomputed preimage table
whose construction is not charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .bitstring import BitString, pack
from .constructions import C3Instance, WrappedInstance
from .ecc import EccParams, reed_solomon
from .errors import ConfigError
from .game import Label
from .ots import (OtsParams, PreimageIndex, digest, hash_int, hash_words,
                  targets)


PerturbFn = Callable[..., BitString]
# forge(vk, d, instance, rng, counters) -> a signature for message digest d;
# charges each hash it makes; a charge past the budget raises PreimageNotFound
Forger = Callable[..., BitString]

# most guesses the bounded forgers draw and hash per kernel call
_CHUNK = 4096

# The largest query budget an attacker takes.  A game at the cap draws and
# hashes about 2^24 guesses, which takes seconds (README, Limits).
MAX_QUERY_BUDGET = 2 ** 24


@dataclass(frozen=True)
class Attacker:
    name: str
    perturb: PerturbFn
    query_budget: Optional[int] = None  # None: no budget

    def __post_init__(self) -> None:
        if self.query_budget is not None and \
                not 0 <= self.query_budget <= MAX_QUERY_BUDGET:
            raise ConfigError(
                f"{self.name} query budget {self.query_budget} is not in "
                f"0..{MAX_QUERY_BUDGET}")


# ---------------------------------------------------------------------------
# Base-problem attackers
# ---------------------------------------------------------------------------

def identity_attacker() -> Attacker:
    """Never perturbs; its win rate equals the plain risk by definition."""
    def perturb(x, y, rng, counters):
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
    def perturb(x, y, rng, counters):
        flipped = _majority_flip(x, y, b)
        return x if flipped is None else flipped
    return Attacker("greedy", perturb, query_budget=0)


# ---------------------------------------------------------------------------
# Forging attackers: one skeleton per construction plus a forger
# ---------------------------------------------------------------------------

def _draw(rng, n: int, bits: int) -> np.ndarray:
    """n guesses of `bits` bits as n calls of rng.getrandbits(bits) draw
    them, in one call: row j holds guess j as little-endian uint32 words.
    getrandbits fills 32-bit words least significant first and shifts a
    partial top word right, so the bits and the rng state are the same."""
    w = -(-bits // 32)
    raw = rng.getrandbits(32 * w * n).to_bytes(4 * w * n, "little")
    words = np.frombuffer(raw, dtype="<u4").reshape(n, w).copy()
    words[:, -1] >>= 32 * w - bits
    return words


def _field_hashes(words: np.ndarray, i: int, width: int,
                  ots: OtsParams) -> np.ndarray:
    """The hashes of field i (slen bits; field 0 at the high end) of the
    `width`-field guesses whose words (`_draw`) are the rows of `words`."""
    lo = (width - 1 - i) * ots.slen  # the field's lowest bit
    a, o = divmod(lo, 32)
    field = words[:, a].astype(np.uint64) >> np.uint64(o)
    # a field of at most 64 bits spans at most three words
    for m in range(a + 1, (lo + ots.slen - 1) // 32 + 1):
        field |= words[:, m].astype(np.uint64) << np.uint64(32 * (m - a) - o)
    return hash_words(field & np.uint64((1 << ots.slen) - 1), ots.slen,
                      ots.hlen)


def _guess(wants: Sequence[Sequence[int]], ots: OtsParams, rng,
           counters) -> List[int]:
    """For each target list in `wants`, in turn, the first random guess whose
    field i hashes to targets[i] for every i.

    A guess is drawn as BitString.random draws it and costs the
    min(k + 1, len(targets)) hashes of its first miss k; the charge of one
    that would pass the budget stops there and raises PreimageNotFound.
    Guesses come in chunks sized to the budget left, drawn in one call
    (`_draw`): field 0 of a chunk is hashed in one hash_words call, field
    i + 1 only where field i hit, and only a full match becomes an int.
    """
    found: List[int] = []
    words = np.zeros((0, 1), dtype=np.uint32)
    used = 0  # guesses of the chunk already charged
    for want in wants:
        width = len(want)
        while True:
            if used == len(words):
                n = min(_CHUNK, counters.budget - counters.queries)
                if n == 0:
                    counters.charge()  # the budget is spent: this raises
                words = _draw(rng, n, width * ots.slen)
                field0 = _field_hashes(words, 0, width, ots)
                used = 0
            # k[j]: the first field that guess used + j misses, width if none
            k = np.zeros(len(words) - used, dtype=np.int64)
            hit = np.flatnonzero(field0[used:] == want[0])
            k[hit] = 1
            for i in range(1, width):
                if not hit.size:
                    break
                hit = hit[_field_hashes(words[used + hit], i, width, ots)
                          == want[i]]
                k[hit] = i + 1
            cost = np.cumsum(np.minimum(k + 1, width))
            # the search ends at a full match or at the first guess whose
            # charge would pass the budget
            ends = np.flatnonzero(
                (k == width) | (cost > counters.budget - counters.queries))
            j = int(ends[0]) if ends.size else len(k) - 1
            counters.charge(int(cost[j]))  # raises when guess j passes it
            used += j + 1
            if k[j] == width:
                found.append(int.from_bytes(words[used - 1].tobytes(),
                                            "little"))
                break
    return found


def _table_forger(ots: OtsParams) -> Forger:
    """Forge from a full preimage table; a lookup hashes nothing."""
    index = PreimageIndex(ots)
    return lambda vk, d, inst, rng, counters: index.forge(targets(vk, d, ots))


def _c1_attacker(name: str, d: int, b: int, ots: OtsParams, ecc: EccParams,
                 forge: Forger,
                 query_budget: Optional[int] = None) -> Attacker:
    """Flip the base instance greedily, then sign the flip with `forge`.

    Returns the untampered instance when no flip within b bits helps, and
    gives up when the key does not open or the forger does.  The key codeword
    is left untouched.
    """
    rs = reed_solomon(ecc)

    def perturb(x, y, rng, counters):
        inst = WrappedInstance.from_bits(x, d, ots, ecc)
        flipped = _majority_flip(inst.x, y, b)
        if flipped is None:
            return x
        vk = rs.decode(inst.vk_code)
        counters.charge()  # once the key opens: digest of the flip
        sigma = forge(vk, digest(flipped, ots), inst, rng, counters)
        return WrappedInstance(flipped, sigma, inst.vk_code).to_bits()

    return Attacker(name, perturb, query_budget)


def _c3_attacker(name: str, ots: OtsParams, ecc: EccParams, forge: Forger,
                 query_budget: Optional[int] = None) -> Attacker:
    """Forge a valid signature into slot 0 whenever the true label is 0.

    The classifier then sees one verifying slot and outputs 1.  When the true
    label is 1 there is nothing to gain: every slot already verifies and the
    classifier cannot be pushed to 0 within any sub-instance budget, so the
    attacker leaves the instance alone.  It gives up when a codeword does not
    decode or the forger gives up.
    """
    rs = reed_solomon(ecc)

    def perturb(x, y, rng, counters):
        if y != 0:
            return x
        inst = C3Instance.from_bits(x, ots, ecc)
        vk, xb = rs.decode(inst.vk_code), rs.decode(inst.x_code)
        counters.charge()  # once both codewords decode: digest of xb
        sigma = forge(vk, digest(xb, ots), inst, rng, counters)
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
    that do.  Gives up when the budget runs out, so its win rate degrades to
    the plain risk as slen grows.
    """
    def forge(vk, d_new, inst, rng, counters):
        counters.charge()
        d_old = digest(inst.x, ots)
        want = targets(vk, d_new, ots)
        # start from the revealed preimages; they only stay valid where the
        # digest bit is unchanged
        preimages = inst.sigma.fields(ots.slen)
        missing = [i for i in range(ots.hlen) if d_new[i] != d_old[i]]
        # a revealed preimage may also hit the opposite digest slot by luck
        counters.charge(len(missing))
        missing = [i for i in missing
                   if hash_int(preimages[i], ots.slen, ots.hlen) != want[i]]
        # each guess targets the first position still missing
        for i, p in zip(missing, _guess([[want[i]] for i in missing], ots,
                                        rng, counters)):
            preimages[i] = p
        return pack(preimages, ots.slen)

    return _c1_attacker("bounded_c1", d, b, ots, ecc, forge, query_budget)


def unbounded_c3_attacker(ots: OtsParams, ecc: EccParams) -> Attacker:
    """Table forgery into slot 0 of every 0-labelled instance."""
    return _c3_attacker("unbounded_c3", ots, ecc, _table_forger(ots))


def bounded_c3_attacker(ots: OtsParams, ecc: EccParams,
                        query_budget: int) -> Attacker:
    """Budget-limited forgery attempts against the no-detection classifier.

    For a 0-labeled instance it guesses random signatures for slot 0 until
    one hits all hlen target digests, a chunk of guesses at a time (`_guess`).
    A guess whose first miss is field k costs min(k + 1, hlen) hashes, and
    one cut short by the budget never counts.  Each field hits with chance
    about 2^-hlen, so at realistic budgets it gives up and wins with
    probability ~0.
    """
    def forge(vk, d, inst, rng, counters):
        sig, = _guess([targets(vk, d, ots)], ots, rng, counters)
        return BitString(sig, ots.sig_bits)

    return _c3_attacker("bounded_c3", ots, ecc, forge, query_budget)
