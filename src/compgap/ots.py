"""Lamport-style one-time signatures over a toy hash with tunable hardness.

The (hlen, slen) dial is the whole point: bounded forgers get a query budget
far below 2**slen while the exhaustive forger searches the full preimage
space.  The hash is a documented xorshift-multiply construction (see
docs/toy_hash.md) so digests are reproducible bit-exactly; it has no
cryptographic strength and none is claimed.  `mix_words` is its one
implementation, over the one masked round `game.splitmix64`: `hash_int`
applies it to an int, `toy_hash` to a bit string and `hash_words` to a
numpy uint64 array, all at ROUNDS rounds per word (`mix_words` takes any
count, as the spec and its vectors do).  Inputs of at most TABLE_BITS bits
are hashed by one read from a table that `mix_words` builds over their
whole input space.

Keys and signatures are the bit strings the instances carry, read as
fields MSB-first (`BitString.fields`).  A verification key has 2*hlen
hlen-bit fields: field 2i+b is the digest of the secret preimage sk[2i+b],
the one revealed when digest bit i is b.  A signature has hlen slen-bit
fields: field i is the preimage revealed for digest bit i.  `targets` reads
this layout into the hlen digests a signature must hit; `first_miss`,
`verify` and `PreimageIndex.forge` take that list; digest bits and fields
are shifted out of the ints.  Nothing here counts queries: each attacker
charges the hashes it makes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .bitstring import BitString, pack
from .errors import ConfigError, FormatError, PreimageNotFound
from .game import GOLDEN, MASK64, splitmix64

# toy_hash's initial state; its round function is game.splitmix64
INIT = 0x6A09E667F3BCC909
# the mixer rounds per input word of every hash the lab makes
ROUNDS = 2


def mix_words(value, length: int, out_bits: int, rounds: int):
    """The toy hash (docs/toy_hash.md) of the `length`-bit `value`, out_bits
    in 1..64.  Only ^ & >> + and * touch the value, so it may be an int or
    a numpy uint64 array (elementwise, wrapping mod 2^64, length <= 64).
    """
    state = INIT ^ (length * GOLDEN & MASK64)
    # the big-endian 64-bit words; a value of at most 64 bits is one word
    for shift in range(length - 64, -64, -64):
        word = value >> shift if shift > 0 else value
        state ^= word & MASK64
        for _ in range(rounds):
            state = splitmix64(state + GOLDEN)
    return splitmix64(state + GOLDEN) >> (64 - out_bits)


# inputs of at most this many bits are hashed by reading _table
TABLE_BITS = 16


@lru_cache(maxsize=16)
def _table(length: int, out_bits: int) -> np.ndarray:
    """The digest of every `length`-bit input, indexed by the input; length
    in 1..TABLE_BITS.  The cache holds at most 16 such tables, 8 MB."""
    table = mix_words(np.arange(1 << length, dtype=np.uint64), length,
                      out_bits, ROUNDS)
    table.flags.writeable = False
    return table


def hash_int(value: int, length: int, out_bits: int) -> int:
    """mix_words of the `length`-bit int `value` at ROUNDS, read from
    _table when length is at most TABLE_BITS; no checks."""
    if 1 <= length <= TABLE_BITS:
        return _table(length, out_bits).item(value)
    return mix_words(value, length, out_bits, ROUNDS)


def toy_hash(x: BitString, out_bits: int) -> BitString:
    """hash_int of one bit string, out_bits in 1..64."""
    if not 1 <= out_bits <= 64:
        raise FormatError("toy_hash needs 1 <= out_bits <= 64")
    return BitString(hash_int(x.value, x.length, out_bits), out_bits)


def hash_words(values, length: int, out_bits: int) -> np.ndarray:
    """toy_hash of many `length`-bit inputs at once, as a uint64 array."""
    if not (1 <= length <= 64 and 1 <= out_bits <= 64):
        raise FormatError("hash_words needs 1 <= length, out_bits <= 64")
    try:  # an input below 0 or above 2^64 - 1 overflows uint64
        words = np.asarray(values, dtype=np.uint64)
        if length < 64 and words.size and int(words.max()) >> length:
            raise OverflowError
    except OverflowError:
        raise FormatError(
            f"hash_words input is not in 0..2^{length}-1") from None
    if length <= TABLE_BITS:
        return _table(length, out_bits)[words]
    return mix_words(words, length, out_bits, ROUNDS)


@dataclass(frozen=True, slots=True)
class OtsParams:
    hlen: int
    slen: int

    def __post_init__(self) -> None:
        if not (1 <= self.hlen <= 64 and 1 <= self.slen <= 64):
            raise ConfigError("hlen and slen must be in 1..64 (one hash word)")

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


def kgen(params: OtsParams, seed: int) -> KeyPair:
    rng = random.Random(seed)
    hlen, slen = params.hlen, params.slen
    # sk[0], sk[1], ..., drawn as BitString.random does
    sk = tuple(rng.getrandbits(slen) for _ in range(2 * hlen))
    digests = hash_words(sk, slen, hlen).tolist()
    return KeyPair(sk, pack(digests, hlen))


def digest(message: BitString, params: OtsParams) -> BitString:
    return toy_hash(message, params.hlen)


def targets(vk: BitString, d: BitString, params: OtsParams) -> List[int]:
    """The digests a signature for message digest d must hit: entry i is
    field 2i + d[i] of vk."""
    if vk.length != params.vk_bits:
        raise FormatError(
            f"verification key must be {params.vk_bits} bits, got {vk.length}")
    fields, bits, n = vk.fields(params.hlen), d.value, d.length
    return [fields[2 * i + (bits >> (n - 1 - i) & 1)] for i in range(n)]


def sign(sk: Tuple[int, ...], message: BitString,
         params: OtsParams) -> BitString:
    if len(sk) != 2 * params.hlen:
        raise FormatError("secret key does not match params")
    hlen, bits = params.hlen, digest(message, params).value
    return pack((sk[2 * i + (bits >> (hlen - 1 - i) & 1)]
                 for i in range(hlen)), params.slen)


def first_miss(sig: BitString, want: Sequence[int],
               params: OtsParams) -> int:
    """The first i whose field of sig does not hash to want[i], or hlen when
    every field does; it hashes fields up to the miss and no further."""
    if sig.length != params.sig_bits:
        raise FormatError(
            f"signature must be {params.sig_bits} bits, got {sig.length}")
    if len(want) != params.hlen:
        raise FormatError(f"need {params.hlen} targets, got {len(want)}")
    hlen, slen = params.hlen, params.slen
    bits, mask = sig.value, (1 << slen) - 1
    for i, t in enumerate(want):
        if hash_int(bits >> (hlen - 1 - i) * slen & mask, slen, hlen) != t:
            return i
    return hlen


def verify(sig: BitString, want: Sequence[int], params: OtsParams) -> bool:
    """Whether field i of sig hashes to want[i] for every i."""
    return first_miss(sig, want, params) == params.hlen


# the largest preimage space PreimageIndex enumerates (2^20 hashes)
FORGE_SLEN_CAP = 20


@cache
def _preimage_table(params: OtsParams) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct digests of all slen-bit inputs, and each one's
    first preimage."""
    return np.unique(hash_words(np.arange(1 << params.slen, dtype=np.uint64),
                                params.slen, params.hlen),
                     return_index=True)


class PreimageIndex:
    """Precomputed digest -> smallest-preimage table over the full space.

    This is the unbounded attacker's precomputation: it makes each forgery a
    table lookup instead of a fresh 2**(slen-1) expected-work search.  The
    table depends only on the OTS parameters, so one build serves every key
    pair.
    """

    def __init__(self, params: OtsParams) -> None:
        if params.slen > FORGE_SLEN_CAP:
            raise ConfigError(
                f"slen {params.slen} exceeds the preimage-table cap "
                f"{FORGE_SLEN_CAP}")
        self.params = params
        self.digests, self.preimages = _preimage_table(params)

    def forge(self, want: Sequence[int]) -> BitString:
        if len(want) != self.params.hlen:
            raise FormatError(
                f"need {self.params.hlen} targets, got {len(want)}")
        want = np.array(want, dtype=np.uint64)
        pos = np.minimum(np.searchsorted(self.digests, want),
                         len(self.digests) - 1)
        found = self.digests[pos] == want
        if not found.all():
            raise PreimageNotFound(
                f"no {self.params.slen}-bit preimage for target "
                f"{int(np.argmin(found))}")
        return pack(self.preimages[pos].tolist(), self.params.slen)
