"""Lamport-style one-time signatures over a toy hash with tunable hardness.

The (hlen, slen) dial is the whole point: bounded forgers get a query budget
far below 2**slen while the exhaustive forger searches the full preimage
space.  The hash is a documented xorshift-multiply construction (see
docs/toy_hash.md) so digests are reproducible bit-exactly; it has no
cryptographic strength and none is claimed.

Keys and signatures are the bit strings the instances carry, read as
fields MSB-first (`BitString.fields`).  A verification key has 2*hlen
hlen-bit fields: field 2i+b is the digest of the secret preimage sk[2i+b],
the one revealed when digest bit i is b.  A signature has hlen slen-bit
fields: field i is the preimage revealed for digest bit i.  `targets` reads
this layout for `verify` and every forger.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .bitstring import BitString, pack
from .errors import ConfigError, FormatError, PreimageNotFound
from .game import GOLDEN, MASK64, Counters, splitmix64

# toy_hash's initial state; its round function is game.splitmix64
INIT = 0x6A09E667F3BCC909


def toy_hash(x: BitString, out_bits: int, rounds: int = 2,
             counter: Optional[Counters] = None) -> BitString:
    """Deterministic bit-mixing hash, specified bit-exactly in docs/toy_hash.md.

    Absorbs the input as big-endian 64-bit words (the last word left-padded
    with zeros), applying `rounds` xorshift-multiply rounds per word, then
    squeezes ceil(out_bits/64) words and truncates to the high out_bits.
    """
    if out_bits < 1:
        raise FormatError("out_bits must be >= 1")
    if counter is not None:
        counter.charge()
    state = (INIT ^ (x.length * GOLDEN)) & MASK64
    n_words = (x.length + 63) // 64
    for w in range(n_words):
        shift = max(0, x.length - 64 * (w + 1))
        word = (x.value >> shift) & MASK64
        state ^= word
        for _ in range(rounds):
            state = splitmix64(state + GOLDEN)
    out = 0
    produced = 0
    j = 0
    while produced < out_bits:
        state = splitmix64(state + (j + 1) * GOLDEN)
        out = (out << 64) | state
        produced += 64
        j += 1
    return BitString(out >> (produced - out_bits), out_bits)


def hash_words(values, length: int, out_bits: int,
               rounds: int = 2) -> np.ndarray:
    """toy_hash of many `length`-bit inputs at once, as a uint64 array.

    Single-word domain: length <= 64 and out_bits <= 64, so one word is
    absorbed and one squeezed.  Each round is game.splitmix64(z + GOLDEN)
    on the whole array, whose uint64 arithmetic wraps mod 2^64.
    """
    if not (1 <= length <= 64 and 1 <= out_bits <= 64):
        raise FormatError("hash_words needs 1 <= length, out_bits <= 64")
    z = np.asarray(values, dtype=np.uint64) \
        ^ np.uint64((INIT ^ (length * GOLDEN)) & MASK64)
    for _ in range(rounds + 1):  # absorbing rounds, then squeezing word 0
        z = splitmix64(z + np.uint64(GOLDEN))
    return z >> np.uint64(64 - out_bits)


@dataclass(frozen=True, slots=True)
class OtsParams:
    hlen: int
    slen: int
    hash_rounds: int = 2

    def __post_init__(self) -> None:
        if not (1 <= self.hlen <= 64 and 1 <= self.slen <= 64) \
                or self.hash_rounds < 1:
            raise ConfigError("hlen and slen must be in 1..64 (one hash "
                              "word), hash_rounds >= 1")

    @property
    def sig_bits(self) -> int:
        return self.hlen * self.slen

    @property
    def vk_bits(self) -> int:
        return 2 * self.hlen * self.hlen


@dataclass(frozen=True, slots=True)
class KeyPair:
    sk: Tuple[int, ...]  # 2*hlen slen-bit preimages
    vk: BitString  # vk_bits bits; field 2i+b is the digest of sk[2i+b]


def kgen(params: OtsParams, seed: int,
         counter: Optional[Counters] = None) -> KeyPair:
    rng = random.Random(seed)
    hlen, slen = params.hlen, params.slen
    # sk[0], sk[1], ..., drawn as BitString.random does
    sk = tuple(rng.getrandbits(slen) for _ in range(2 * hlen))
    digests = hash_words(sk, slen, hlen, params.hash_rounds).tolist()
    if counter is not None:
        counter.charge(2 * hlen)
    return KeyPair(sk, pack(digests, hlen))


def digest(message: BitString, params: OtsParams,
           counter: Optional[Counters] = None) -> BitString:
    return toy_hash(message, params.hlen, params.hash_rounds, counter)


def targets(vk: BitString, d: BitString, params: OtsParams) -> List[int]:
    """The digests a signature for message digest d must hit: entry i is
    field 2i + d[i] of vk."""
    if vk.length != params.vk_bits:
        raise FormatError(
            f"verification key must be {params.vk_bits} bits, got {vk.length}")
    fields = vk.fields(params.hlen)
    return [fields[2 * i + b] for i, b in enumerate(d)]


def sign(sk: Tuple[int, ...], message: BitString, params: OtsParams,
         counter: Optional[Counters] = None) -> BitString:
    if len(sk) != 2 * params.hlen:
        raise FormatError("secret key does not match params")
    d = digest(message, params, counter)
    return pack((sk[2 * i + b] for i, b in enumerate(d)), params.slen)


def verify(vk: BitString, message: BitString, sig: BitString,
           params: OtsParams, counter: Optional[Counters] = None,
           message_digest: Optional[BitString] = None) -> bool:
    if sig.length != params.sig_bits:
        raise FormatError(
            f"signature must be {params.sig_bits} bits, got {sig.length}")
    d = message_digest if message_digest is not None \
        else digest(message, params, counter)
    for p, t in zip(sig.fields(params.slen), targets(vk, d, params)):
        if toy_hash(BitString(p, params.slen), params.hlen,
                    params.hash_rounds, counter).value != t:
            return False
    return True


# the largest preimage space PreimageIndex enumerates (2^20 hashes)
FORGE_SLEN_CAP = 20


class PreimageIndex:
    """Precomputed digest -> smallest-preimage table over the full space.

    This is the unbounded attacker's precomputation: it makes each forgery a
    table lookup instead of a fresh 2**(slen-1) expected-work search.  The
    table depends only on (slen, hlen, hash_rounds), so one build serves
    every key pair.
    """

    _cache: dict = {}

    def __init__(self, params: OtsParams) -> None:
        if params.slen > FORGE_SLEN_CAP:
            raise ConfigError(
                f"slen {params.slen} exceeds the preimage-table cap "
                f"{FORGE_SLEN_CAP}")
        self.params = params
        key = (params.slen, params.hlen, params.hash_rounds)
        table = self._cache.get(key)
        if table is None:
            # the sorted distinct digests, and each one's first preimage
            table = np.unique(
                hash_words(np.arange(1 << params.slen, dtype=np.uint64),
                           params.slen, params.hlen, params.hash_rounds),
                return_index=True)
            self._cache[key] = table
        self.digests, self.preimages = table

    def forge(self, vk: BitString, message: BitString,
              counter: Optional[Counters] = None) -> BitString:
        d = digest(message, self.params, counter)
        want = np.array(targets(vk, d, self.params), dtype=np.uint64)
        pos = np.minimum(np.searchsorted(self.digests, want),
                         len(self.digests) - 1)
        found = self.digests[pos] == want
        if not found.all():
            i = int(np.argmin(found))
            raise PreimageNotFound(
                f"no {self.params.slen}-bit preimage for vk field "
                f"{2 * i + d[i]}")
        return pack(self.preimages[pos].tolist(), self.params.slen)
