"""Lamport-style one-time signatures over a toy hash with tunable hardness.

The (hlen, slen) dial is the whole point: bounded forgers get a query budget
far below 2**slen while the exhaustive forger searches the full preimage
space.  The hash is a documented xorshift-multiply construction (see
docs/toy_hash.md) so digests are reproducible bit-exactly; it has no
cryptographic strength and none is claimed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .bitstring import BitString, concat_all
from .errors import ConfigError, FormatError, PreimageNotFound
from .game import GOLDEN, MASK64, MUL1, MUL2, Counters, splitmix64

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
        z = z + np.uint64(GOLDEN)
        z = (z ^ (z >> 30)) * np.uint64(MUL1)
        z = (z ^ (z >> 27)) * np.uint64(MUL2)
        z ^= z >> 31
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


# vk[i][b] is the digest of the secret preimage sk[i][b]; a signature reveals
# one preimage per digest bit position.
@dataclass(frozen=True, slots=True)
class KeyPair:
    sk: Tuple[Tuple[BitString, BitString], ...]
    vk: Tuple[Tuple[BitString, BitString], ...]


@dataclass(frozen=True, slots=True)
class Signature:
    preimages: Tuple[BitString, ...]

    def to_bits(self) -> BitString:
        return concat_all(self.preimages)

    @classmethod
    def from_bits(cls, bits: BitString, params: OtsParams) -> "Signature":
        if bits.length != params.sig_bits:
            raise FormatError(
                f"signature must be {params.sig_bits} bits, got {bits.length}")
        return cls(tuple(bits.extract(i * params.slen, params.slen)
                         for i in range(params.hlen)))


def vk_to_bits(vk: Tuple[Tuple[BitString, BitString], ...]) -> BitString:
    return concat_all(h for pair in vk for h in pair)


def vk_from_bits(bits: BitString, params: OtsParams):
    if bits.length != params.vk_bits:
        raise FormatError(
            f"verification key must be {params.vk_bits} bits, got {bits.length}")
    hlen = params.hlen
    return tuple(
        (bits.extract(2 * i * hlen, hlen), bits.extract((2 * i + 1) * hlen, hlen))
        for i in range(hlen))


def kgen(params: OtsParams, seed: int,
         counter: Optional[Counters] = None) -> KeyPair:
    rng = random.Random(seed)
    hlen, slen = params.hlen, params.slen
    # sk[i][0], sk[i][1] for i = 0, 1, ..., drawn as BitString.random does
    words = [rng.getrandbits(slen) for _ in range(2 * hlen)]
    digests = hash_words(words, slen, hlen, params.hash_rounds).tolist()
    if counter is not None:
        counter.charge(2 * hlen)
    sk = tuple((BitString(words[2 * i], slen),
                BitString(words[2 * i + 1], slen)) for i in range(hlen))
    vk = tuple((BitString(digests[2 * i], hlen),
                BitString(digests[2 * i + 1], hlen)) for i in range(hlen))
    return KeyPair(sk, vk)


def digest(message: BitString, params: OtsParams,
           counter: Optional[Counters] = None) -> BitString:
    return toy_hash(message, params.hlen, params.hash_rounds, counter)


def sign(sk: Tuple[Tuple[BitString, BitString], ...], message: BitString,
         params: OtsParams, counter: Optional[Counters] = None) -> Signature:
    if len(sk) != params.hlen:
        raise FormatError("secret key does not match params")
    d = digest(message, params, counter)
    return Signature(tuple(sk[i][d[i]] for i in range(params.hlen)))


def verify(vk, message: BitString, sig: Signature, params: OtsParams,
           counter: Optional[Counters] = None,
           message_digest: Optional[BitString] = None) -> bool:
    if len(vk) != params.hlen or len(sig.preimages) != params.hlen:
        raise FormatError("key or signature does not match params")
    if any(p.length != params.slen for p in sig.preimages):
        raise FormatError("preimage of wrong length")
    d = message_digest if message_digest is not None \
        else digest(message, params, counter)
    for i in range(params.hlen):
        if toy_hash(sig.preimages[i], params.hlen, params.hash_rounds,
                    counter) != vk[i][d[i]]:
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

    def forge(self, vk, message: BitString,
              counter: Optional[Counters] = None) -> Signature:
        d = digest(message, self.params, counter)
        hlen, slen = self.params.hlen, self.params.slen
        targets = np.array([vk[i][d[i]].value for i in range(hlen)],
                           dtype=np.uint64)
        pos = np.minimum(np.searchsorted(self.digests, targets),
                         len(self.digests) - 1)
        found = self.digests[pos] == targets
        if not found.all():
            i = int(np.argmin(found))
            raise PreimageNotFound(
                f"no {slen}-bit preimage for vk[{i}][{d[i]}]")
        return Signature(tuple(BitString(p, slen)
                               for p in self.preimages[pos].tolist()))
