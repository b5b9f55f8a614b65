"""Systematic Reed-Solomon codes over GF(2^m) with worst-case bit accounting.

One bit flip corrupts at most one symbol, so a code correcting t symbol
errors is guaranteed to correct any t bit flips; t_max = (n_sym - k_sym) // 2.
Symbol width is configurable because a single RS block over GF(256) caps out
at 255 symbols, which is too short for the redundancy the signature-wrapped
construction needs (see EccParams docstring).

Systematic encoding is GF(2)-linear on bits, so the code is held as one
linear map: a parity column per data bit (the parity bits of the unit
message with that bit set), built once per code.  Encoding and the codeword
test ("does the parity part equal the parity of the message part?") are
XORs of Python ints over those columns.  Only error correction (syndromes,
Berlekamp-Massey, Chien/Forney) works on numpy symbol arrays.

Each code memoises parity_of for its last PARITY_MEMO messages.  In one
game the sampler encodes a key (for C3 also the instance), and the
attacker and the classifier decode those codewords again, so the codeword
test asks for the same parity two or three times; the memo computes it
once.  It is keyed on the message and the parity part is still compared,
so a damaged word is never vouched for.  It is sized to a game, not to the
trial count: games differ in their keys, so a larger memo hits only when
seeds are replayed.

Error correction works on logarithms.  log[0] is the sentinel Z = 2*order,
and exp is zero from index Z on (it has 4*order + 1 entries), so
exp[log[a] + log[b]] is a*b for every a and b, zero included, as long as
each addend is a log or an exponent in [0, order]: no zero mask and no
modulo.  log X^-j is order - (log X * j mod order), which lies in
[1, order], so one exponent matrix (_syn_exp) serves syndromes, Chien and
Forney alike.

A decode does work in proportion to the errors it finds: Berlekamp-Massey
stops early.  At a zero discrepancy at step n >= 2L with 1 <= L <= t_max
it hands its locator to the usual finish (Chien, Forney, the magnitude
check, is_codeword), at most once per L, and resumes if any check fails.
An accepted word is a codeword exactly L <= t_max symbols from the received
word.  The minimum distance nparity + 1 exceeds 2 t_max, so that codeword
is the only one within t_max and the one the full run returns.  A word
with no codeword within t_max fails every early try, so its full run ends
with the same DecodeFailure as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from itertools import compress
from operator import xor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bitstring import BitString, pack
from .errors import ConfigError, DecodeFailure, FormatError

# A primitive polynomial per supported symbol width; that x generates the
# full multiplicative group is checked at table-build time.
_PRIM_POLY = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}

# maps the digits of format(n, "b") to selector bytes 0/1
_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")

# Most entries (nparity * n_sym) a code's syndrome exponent table may
# have: the int64 table and one syndrome pass's temporaries then take under
# 100 MB.  The decoder's stress code, RS(640,32), has 389,120.
MAX_SYN_TABLE = 1 << 22

# Messages whose parity each code remembers (see the module docstring):
# a C3 game needs two, its instance and its key.
PARITY_MEMO = 4


def _build_tables(bps: int):
    """exp/log tables for GF(2^bps) with generator alpha=2 and the zero
    sentinel log[0] = 2*order (see the module docstring)."""
    q = 1 << bps  # EccParams admits only the widths of _PRIM_POLY
    n = q - 1
    poly = _PRIM_POLY[bps]
    exp = np.zeros(4 * n + 1, dtype=np.uint16)  # symbols are <= 16 bits
    log = np.full(q, -1, dtype=np.int64)
    x = 1
    for i in range(n):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & q:
            x ^= poly
    # primitive iff the n powers of x are the n nonzero elements
    if x != 1 or (log[1:] < 0).any():
        raise ConfigError(f"{poly:#x} is not primitive for width {bps}")
    exp[n:2 * n] = exp[:n]
    log[0] = 2 * n
    return exp, log, n


@dataclass(frozen=True, slots=True)
class EccParams:
    """Code geometry.  n_sym must not exceed 2^bits_per_symbol - 1.

    The signature wrapper's default key code is RS(548,32) over 16-bit
    symbols: the 512-bit key is 32 wide symbols, and t_max=258 is the
    attacker's b + sig_bits budget, which no 8-bit-symbol block reaches.
    RS(640,32) is the decoder's stress code (criterion 5, rs_decode).  A
    code whose nparity * n_sym passes MAX_SYN_TABLE fails here, before any
    table is built.
    """

    k_sym: int
    n_sym: int
    bits_per_symbol: int = 8

    def __post_init__(self) -> None:
        # each message names the code RS(n,k), n = n_sym and k = k_sym
        n, k, bps = self.n_sym, self.k_sym, self.bits_per_symbol
        if k < 1 or n <= k:
            raise ConfigError(f"RS({n},{k}): need n > k >= 1")
        if bps not in _PRIM_POLY:
            raise ConfigError(
                f"RS({n},{k}): bits_per_symbol must be in 2..16, got {bps}")
        if n > (1 << bps) - 1:
            raise ConfigError(f"RS({n},{k}): n exceeds the field bound "
                              f"{(1 << bps) - 1} for {bps}-bit symbols")
        table = (n - k) * n
        if table > MAX_SYN_TABLE:
            raise ConfigError(f"RS({n},{k}): (n - k) * n = {table} exceeds "
                              f"the syndrome table cap {MAX_SYN_TABLE}")

    @property
    def t_max(self) -> int:
        return (self.n_sym - self.k_sym) // 2

    @property
    def data_bits(self) -> int:
        return self.k_sym * self.bits_per_symbol

    @property
    def n_bits(self) -> int:
        return self.n_sym * self.bits_per_symbol


class ReedSolomon:
    def __init__(self, params: EccParams) -> None:
        self.params = params
        self.exp, self.log, self.order = _build_tables(params.bits_per_symbol)
        self.nparity = params.n_sym - params.k_sym
        # generator polynomial prod_{j=1..nparity} (x - alpha^j), monic,
        # stored high-degree first
        g = np.ones(1, dtype=np.int64)
        for j in range(1, self.nparity + 1):
            root = int(self.exp[j])
            nxt = np.zeros(len(g) + 1, dtype=np.int64)
            nxt[:-1] ^= g                       # g * x
            nxt[1:] ^= self._mul_scalar(g, root)  # g * root
            g = nxt
        self.gen_tail = g[1:]  # g is monic of degree nparity
        # syndrome exponent matrix E[j-1, i] = ((n-1-i)*j) mod order, i.e.
        # log X_i^j for the locator X_i = alpha^(n-1-i) of symbol i
        degs = (params.n_sym - 1 - np.arange(params.n_sym, dtype=np.int64))
        js = np.arange(1, self.nparity + 1, dtype=np.int64)
        self._syn_exp = (degs[None, :] * js[:, None]) % self.order
        self.parity_bits = self.nparity * params.bits_per_symbol
        # whole-byte symbols go through numpy's big-endian byte view
        self._sym_dtype = (np.dtype(f">u{params.bits_per_symbol // 8}")
                           if params.bits_per_symbol % 8 == 0 else None)
        self._columns = self._parity_columns()
        # per code, so one code's messages never evict another's
        self.parity_of = lru_cache(maxsize=PARITY_MEMO)(self.parity_of)

    # ---- GF helpers ----------------------------------------------------

    def _mul_scalar(self, vec: np.ndarray, s: int) -> np.ndarray:
        return self.exp[self.log[vec] + self.log[s]]

    # ---- bit packing ---------------------------------------------------

    def _bits_to_symbols(self, bits: BitString) -> np.ndarray:
        if self._sym_dtype is None:
            return np.array(bits.fields(self.params.bits_per_symbol),
                            dtype=np.int64)
        return np.frombuffer(bits.to_bytes(),
                             dtype=self._sym_dtype).astype(np.int64)

    def _symbols_to_bits(self, syms: np.ndarray) -> BitString:
        if self._sym_dtype is None:
            return pack(map(int, syms), self.params.bits_per_symbol)
        raw = syms.astype(self._sym_dtype).tobytes()
        return BitString(int.from_bytes(raw, "big"), 8 * len(raw))

    # ---- encode / decode ----------------------------------------------

    def _parity_columns(self) -> tuple:
        """Parity bits of each unit message, one int per data bit, MSB-first.

        The unit column of symbol j is x^(nparity+k-1-j) mod g: gen_tail
        (= x^nparity mod g) for the last symbol, one LFSR step (times x)
        per symbol before it.  Bit b of a symbol is alpha^b = 2^b times that.
        """
        bps = self.params.bits_per_symbol
        cols = []
        rem = self.gen_tail.copy()
        for _ in range(self.params.k_sym):  # last symbol first
            cols.extend(self._symbols_to_bits(self._mul_scalar(rem, 1 << b)).value
                        for b in range(bps))  # least significant bit first
            feedback = int(rem[0])
            rem = np.append(rem[1:], 0)
            if feedback:
                rem ^= self._mul_scalar(self.gen_tail, feedback)
        return tuple(reversed(cols))

    def parity_of(self, message: int) -> int:
        """Parity bits of the systematic encoding: the XOR of the columns
        of the set data bits.  Memoised per code (see __init__)."""
        bits = format(message, f"0{self.params.data_bits}b")
        return reduce(xor, compress(self._columns,
                                    bits.encode().translate(_ZERO_ONE)), 0)

    def is_codeword(self, word: int) -> bool:
        """Whether the parity part of an n_bits word is the parity of its
        message part; for RS codes this holds iff all syndromes vanish."""
        return self.parity_of(word >> self.parity_bits) == \
            word & ((1 << self.parity_bits) - 1)

    def encode(self, message: BitString) -> BitString:
        p = self.params
        if message.length != p.data_bits:
            raise FormatError(
                f"message must be {p.data_bits} bits, got {message.length}")
        return BitString((message.value << self.parity_bits)
                         | self.parity_of(message.value), p.n_bits)

    def _syndromes(self, recv: np.ndarray) -> np.ndarray:
        """S_j, the received polynomial at alpha^j, for j = 1..nparity."""
        return np.bitwise_xor.reduce(
            self.exp[self.log[recv] + self._syn_exp], axis=1)

    def decode(self, codeword: BitString) -> BitString:
        p = self.params
        if codeword.length != p.n_bits:
            raise FormatError(
                f"codeword must be {p.n_bits} bits, got {codeword.length}")
        if self.is_codeword(codeword.value):
            return BitString(codeword.value >> self.parity_bits, p.data_bits)
        recv = self._bits_to_symbols(codeword)
        # syndrome logs, last first, then t_max zeros (Z) for Forney's
        # windows that run past S_1
        srev = np.concatenate((self.log[self._syndromes(recv)[::-1]],
                               np.full(p.t_max, 2 * self.order)))
        # the first locator that corrects recv wins; the last one tried is
        # the full run's, and its failure is the decode's
        for locator in self._berlekamp_massey(srev):
            try:
                return self._correct(recv, srev, locator)
            except DecodeFailure as exc:
                failure = exc
        raise failure

    def _correct(self, recv: np.ndarray, srev: np.ndarray,
                 locator: np.ndarray) -> BitString:
        """The message of the codeword that `locator` says recv is near;
        DecodeFailure unless that codeword lies within t_max symbols."""
        p = self.params
        n_err = len(locator) - 1
        if n_err > p.t_max:
            raise DecodeFailure(f"{n_err} errors exceed correction radius {p.t_max}")
        positions = self._chien(locator)
        if len(positions) != n_err:
            raise DecodeFailure("error locator does not split over the field")
        corrected = recv.copy()
        magnitudes = self._forney(srev, locator, positions)
        if np.any(magnitudes == 0):
            raise DecodeFailure("zero error magnitude")
        corrected[positions] ^= magnitudes
        word = self._symbols_to_bits(corrected).value
        if not self.is_codeword(word):
            raise DecodeFailure("correction did not reach a codeword")
        return BitString(word >> self.parity_bits, p.data_bits)

    def _berlekamp_massey(self, srev: np.ndarray):
        """Candidate error locators, low-degree-first coefficients; the
        last one yielded is the locator of the full nparity-step run.
        That locator is not yielded again when the last early try already
        was it: no discrepancy since then was nonzero, so C is unchanged.

        The discrepancy at step n is sum_{i<=L} C_i S_(n+1-i), one window
        of srev.  deg C <= L and deg B <= the L at which B was saved, so B
        is kept as logs over that live degree only.

        Stop rule: at a zero discrepancy with n >= 2L and 1 <= L <= t_max,
        C is yielded early, at most once per L (L never falls; L = 0 has no
        error to locate).  With t <= t_max errors C is final once 2t
        syndromes are in, so it is tried at step 2t, or yielded last when
        2t = nparity.  The caller accepts a candidate only if it gives a
        codeword exactly L <= t_max symbols from the received word; the
        minimum distance nparity + 1 exceeds 2 t_max, so that codeword is
        the only one within t_max, the one the full run finds.  A word
        with no codeword within t_max fails every early try.  Each yield is
        a view of C, valid until the generator resumes.
        """
        exp, log, order = self.exp, self.log, self.order
        nsyn, t_max = self.nparity, self.params.t_max
        C = np.zeros(nsyn + 1, dtype=np.int64)
        C[0] = 1
        B_log = np.zeros(1, dtype=np.int64)  # B = 1
        L, m, b_log = 0, 1, 0
        tried = 0  # the L of the last early try; L = 0 is never tried
        fresh = True  # C has not been yielded since it last changed
        for n_ in range(nsyn):
            C_log = log[C[:L + 1]]
            start = nsyn - 1 - n_
            d = int(np.bitwise_xor.reduce(
                exp[C_log + srev[start:start + L + 1]]))
            if d == 0:
                if 2 * L <= n_ and tried < L <= t_max:
                    tried, fresh = L, False
                    yield C[:L + 1]
                m += 1
                continue
            d_log = int(log[d])
            C[m:m + len(B_log)] ^= exp[B_log + (d_log - b_log) % order]
            fresh = True
            if 2 * L <= n_:
                L = n_ + 1 - L
                B_log, b_log, m = C_log, d_log, 1
            else:
                m += 1
        if fresh:
            yield C[:L + 1]

    def _chien(self, locator: np.ndarray) -> np.ndarray:
        """Indices of erroneous symbols (0 = first symbol of the codeword):
        those i with locator(X_i^-1) = 0."""
        expo = ((self.log[locator[1:]] + self.order)[:, None]
                - self._syn_exp[:len(locator) - 1])
        vals = np.bitwise_xor.reduce(self.exp[expo], axis=0) ^ locator[0]
        return np.nonzero(vals == 0)[0]

    def _forney(self, srev: np.ndarray, locator: np.ndarray,
                positions: np.ndarray) -> np.ndarray:
        """Error magnitudes omega(X_i^-1) / locator'(X_i^-1), where
        omega = S * locator mod x^nparity and S = sum_j S_(j+1) x^j."""
        exp, log, order = self.exp, self.log, self.order
        L = len(locator) - 1
        lam_log = log[locator]
        # omega_k = sum_{j<=k} lambda_j S_(k+1-j), and omega_k = 0 for k >= L
        # because the locator generates the syndromes.  Window nsyn-1-k of
        # srev is S_(k+1), S_k, ... (zeros below S_1), so windows
        # nsyn-L .. nsyn-1 give omega_(L-1) .. omega_0.
        windows = sliding_window_view(srev, L)[self.nparity - L:self.nparity]
        omega = np.bitwise_xor.reduce(exp[windows + lam_log[:L]],
                                      axis=1)[::-1]
        deriv_log = lam_log[1:].copy()  # locator' has lambda_(j+1) at x^j
        deriv_log[1::2] = 2 * order     # for even j only (char 2)
        # log X_i^-j: 0 for j = 0, order - _syn_exp[j-1, i] after
        inv_pow = np.zeros((L, len(positions)), dtype=np.int64)
        inv_pow[1:] = order - self._syn_exp[:L - 1, positions]
        coefs = np.stack((log[omega], deriv_log))
        om, dprime = np.bitwise_xor.reduce(exp[coefs[:, :, None] + inv_pow],
                                           axis=1)
        if not dprime.all():
            return np.zeros(len(positions), dtype=np.int64)
        return exp[log[om] + order - log[dprime]]


@cache
def reed_solomon(params: EccParams) -> ReedSolomon:
    return ReedSolomon(params)
