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

from .bitstring import BitString, concat_all
from .errors import FormatError, PreimageNotFound
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


@dataclass(frozen=True, slots=True)
class OtsParams:
    hlen: int
    slen: int
    hash_rounds: int = 2

    def __post_init__(self) -> None:
        if self.hlen < 1 or self.slen < 1 or self.hash_rounds < 1:
            raise FormatError("hlen, slen, hash_rounds must be >= 1")

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
    sk = tuple(
        (BitString.random(rng, params.slen), BitString.random(rng, params.slen))
        for _ in range(params.hlen))
    vk = tuple(
        (toy_hash(s0, params.hlen, params.hash_rounds, counter),
         toy_hash(s1, params.hlen, params.hash_rounds, counter))
        for s0, s1 in sk)
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


FORGE_SLEN_CAP = 20


def forge_exhaustive(vk, message: BitString, params: OtsParams,
                     counter: Optional[Counters] = None) -> Signature:
    """Forge by literal preimage search over the full 2**slen space.

    Raises PreimageNotFound if some targeted vk entry has no preimage; on
    honestly generated keys that cannot happen.
    """
    if params.slen > FORGE_SLEN_CAP:
        raise FormatError(
            f"slen {params.slen} exceeds exhaustive-search cap {FORGE_SLEN_CAP}; "
            "use PreimageIndex for large parameters")
    d = digest(message, params, counter)
    preimages = []
    for i in range(params.hlen):
        target = vk[i][d[i]]
        for p in range(1 << params.slen):
            cand = BitString(p, params.slen)
            if toy_hash(cand, params.hlen, params.hash_rounds, counter) == target:
                preimages.append(cand)
                break
        else:
            raise PreimageNotFound(
                f"no {params.slen}-bit preimage for vk[{i}][{d[i]}]")
    return Signature(tuple(preimages))


class PreimageIndex:
    """Precomputed digest -> preimage table over the full preimage space.

    This is the unbounded attacker's precomputation: it makes each forgery a
    table lookup instead of a fresh 2**(slen-1) expected-work search.  The
    table depends only on (slen, hlen, hash_rounds), so one build serves
    every key pair.
    """

    _cache: dict = {}

    def __init__(self, params: OtsParams) -> None:
        self.params = params
        key = (params.slen, params.hlen, params.hash_rounds)
        table = self._cache.get(key)
        if table is None:
            table = {}
            for p in range(1 << params.slen):
                cand = BitString(p, params.slen)
                dig = toy_hash(cand, params.hlen, params.hash_rounds).value
                table.setdefault(dig, cand)
            self._cache[key] = table
        self.table = table

    def forge(self, vk, message: BitString,
              counter: Optional[Counters] = None) -> Signature:
        d = digest(message, self.params, counter)
        preimages = []
        for i in range(self.params.hlen):
            cand = self.table.get(vk[i][d[i]].value)
            if cand is None:
                raise PreimageNotFound(
                    f"no {self.params.slen}-bit preimage for vk[{i}][{d[i]}]")
            preimages.append(cand)
        return Signature(tuple(preimages))
