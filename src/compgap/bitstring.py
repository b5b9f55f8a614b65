"""Fixed-length immutable bit vectors with Hamming metric.

Bits are indexed MSB-first: index 0 is the most significant bit of the
backing integer, so ``BitString.from01("10")[0] == 1``.  Concatenation puts
the left operand at the low indices (high bits), which keeps serialized
layouts byte-aligned when all field widths are multiples of 8.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List

from .errors import FormatError


@dataclass(frozen=True, slots=True)
class BitString:
    value: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise FormatError(f"negative length {self.length}")
        if self.value < 0 or self.value >> self.length:
            raise FormatError(f"value does not fit in {self.length} bits")

    @classmethod
    def from01(cls, s: str) -> "BitString":
        if s and any(c not in "01" for c in s):
            raise FormatError(f"not a 01-string: {s!r}")
        return cls(int(s, 2) if s else 0, len(s))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        v = 0
        n = 0
        for b in bits:
            v = (v << 1) | (b & 1)
            n += 1
        return cls(v, n)

    @classmethod
    def random(cls, rng: random.Random, n: int) -> "BitString":
        return cls(rng.getrandbits(n) if n else 0, n)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.value >> (self.length - 1 - i)) & 1

    def ones(self) -> int:
        return self.value.bit_count()

    def flip(self, *positions: int) -> "BitString":
        v = self.value
        for i in positions:
            if not 0 <= i < self.length:
                raise IndexError(i)
            v ^= 1 << (self.length - 1 - i)
        return BitString(v, self.length)

    def concat(self, other: "BitString") -> "BitString":
        return BitString((self.value << other.length) | other.value,
                         self.length + other.length)

    def extract(self, start: int, n: int) -> "BitString":
        if start < 0 or n < 0 or start + n > self.length:
            raise IndexError((start, n))
        shift = self.length - start - n
        return BitString((self.value >> shift) & ((1 << n) - 1), n)

    def fields(self, width: int) -> List[int]:
        """The consecutive `width`-bit fields as ints, field 0 at the high
        bits; the inverse of `pack`."""
        if width < 1 or self.length % width:
            raise FormatError(f"{self.length} bits do not split into "
                              f"{width}-bit fields")
        v, mask = self.value, (1 << width) - 1
        return [(v >> s) & mask
                for s in range(self.length - width, -1, -width)]

    def repeat(self, times: int) -> "BitString":
        """Concatenate `times` copies of self (doubling, cheap for large counts)."""
        if times < 0:
            raise FormatError("negative repeat count")
        v, n = 0, 0
        base_v, base_n = self.value, self.length
        t = times
        while t:
            if t & 1:
                v = (v << base_n) | base_v
                n += base_n
            t >>= 1
            if t:
                base_v = (base_v << base_n) | base_v
                base_n *= 2
        return BitString(v, n)

    def to01(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def to_bytes(self) -> bytes:
        if self.length % 8:
            raise FormatError("length not a multiple of 8")
        return self.value.to_bytes(self.length // 8, "big")

    def __repr__(self) -> str:
        if self.length <= 64:
            return f"BitString({self.to01()!r})"
        return f"BitString(len={self.length}, value=0x{self.value:x})"


def concat_all(parts: Iterable[BitString]) -> BitString:
    v, n = 0, 0
    for p in parts:
        v = (v << p.length) | p.value
        n += p.length
    return BitString(v, n)


def pack(values: Iterable[int], width: int) -> BitString:
    """`width`-bit fields concatenated, the first at the high bits."""
    v, n = 0, 0
    for x in values:
        if x < 0 or x >> width:
            raise FormatError(f"{x} does not fit in {width} bits")
        v = (v << width) | x
        n += width
    return BitString(v, n)


def hamming_distance(a: BitString, b: BitString) -> int:
    if a.length != b.length:
        raise FormatError(f"length mismatch: {a.length} vs {b.length}")
    return (a.value ^ b.value).bit_count()
