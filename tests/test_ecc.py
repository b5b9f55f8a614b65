import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compgap.bitstring import BitString
from compgap.ecc import EccParams, reed_solomon
from compgap.errors import ConfigError, DecodeFailure

TINY = EccParams(k_sym=2, n_sym=6, bits_per_symbol=8)
DEFAULT = EccParams(k_sym=32, n_sym=640, bits_per_symbol=16)


def test_params_validation():
    with pytest.raises(ConfigError):
        EccParams(k_sym=4, n_sym=3, bits_per_symbol=8)
    with pytest.raises(ConfigError):
        EccParams(k_sym=2, n_sym=300, bits_per_symbol=8)  # > field size - 1


def test_derived_quantities():
    assert TINY.t_max == 2
    assert TINY.data_bits == 16
    assert TINY.n_bits == 48
    assert DEFAULT.t_max == 304


def test_systematic_prefix():
    rs = reed_solomon(TINY)
    msg = BitString(0xBEEF, 16)
    assert rs.encode(msg).extract(0, 16) == msg


def test_clean_roundtrip():
    rs = reed_solomon(TINY)
    for v in (0, 1, 0xFFFF, 0x1234):
        msg = BitString(v, 16)
        assert rs.decode(rs.encode(msg)) == msg


def test_exhaustive_sweep_tiny():
    # every message-independent corruption pattern up to t_max symbols,
    # realized as single-bit flips (worst case: 1 flip = 1 symbol error)
    rs = reed_solomon(TINY)
    msg = BitString(0xA53C, 16)
    cw = rs.encode(msg)
    total = 0
    for t in range(TINY.t_max + 1):
        for pos in combinations(range(cw.length), t):
            assert rs.decode(cw.flip(*pos) if pos else cw) == msg
            total += 1
    assert total == 1 + 48 + 48 * 47 // 2


def test_beyond_radius_detected_or_wrong_never_silent_success():
    # t_max+1 corrupted symbols must not decode back to the message
    rs = reed_solomon(TINY)
    msg = BitString(0x0102, 16)
    cw = rs.encode(msg)
    rng = random.Random(0)
    for _ in range(50):
        syms = rng.sample(range(TINY.n_sym), TINY.t_max + 1)
        flips = [s * 8 + rng.randrange(8) for s in syms]
        try:
            out = rs.decode(cw.flip(*flips))
        except DecodeFailure:
            continue
        # a decoded word lies within t_max of the received word, and the
        # original codeword lies at t_max+1, so a miscorrection never
        # returns the message
        assert out != msg


@pytest.mark.parametrize("params", [
    TINY, EccParams(k_sym=16, n_sym=40, bits_per_symbol=8), DEFAULT,
    EccParams(k_sym=3, n_sym=7, bits_per_symbol=4)])
def test_encode_output_has_zero_syndromes(params):
    # the syndromes are an oracle independent of the parity columns
    rs = reed_solomon(params)
    rng = random.Random(params.n_sym)
    for _ in range(20):
        cw = rs.encode(BitString.random(rng, params.data_bits))
        syms = np.array([cw.extract(i * params.bits_per_symbol,
                                    params.bits_per_symbol).value
                         for i in range(params.n_sym)], dtype=np.int64)
        assert not rs._syndromes(syms).any()


def test_post_correction_check_rejects_wrong_magnitudes(monkeypatch):
    rs = reed_solomon(TINY)
    cw = rs.encode(BitString(0x1234, 16))
    real_forney = rs._forney

    def wrong_magnitudes(*args):
        mags = real_forney(*args)
        return np.where(mags == 1, 2, mags ^ 1)
    monkeypatch.setattr(rs, "_forney", wrong_magnitudes)
    with pytest.raises(DecodeFailure):
        rs.decode(cw.flip(3))


def test_wrong_length_input():
    from compgap.errors import FormatError
    rs = reed_solomon(TINY)
    with pytest.raises(FormatError):
        rs.encode(BitString(0, 8))
    with pytest.raises(FormatError):
        rs.decode(BitString(0, 47))


@given(st.integers(min_value=0, max_value=(1 << 16) - 1), st.data())
@settings(max_examples=60)
def test_random_corruption_recovers_tiny(v, data):
    rs = reed_solomon(TINY)
    msg = BitString(v, 16)
    cw = rs.encode(msg)
    t = data.draw(st.integers(min_value=0, max_value=TINY.t_max))
    pos = data.draw(st.permutations(range(cw.length))).copy()[:t]
    assert rs.decode(cw.flip(*pos) if pos else cw) == msg


def test_default_parameters_full_radius():
    rs = reed_solomon(DEFAULT)
    rng = random.Random(9)
    msg = BitString(rng.getrandbits(DEFAULT.data_bits), DEFAULT.data_bits)
    cw = rs.encode(msg)
    # t_max distinct symbols, one bit each
    syms = rng.sample(range(DEFAULT.n_sym), DEFAULT.t_max)
    flips = [s * 16 + rng.randrange(16) for s in syms]
    assert rs.decode(cw.flip(*flips)) == msg
    # one symbol past the radius fails loudly
    syms = rng.sample(range(DEFAULT.n_sym), DEFAULT.t_max + 1)
    flips = [s * 16 + rng.randrange(16) for s in syms]
    with pytest.raises(DecodeFailure):
        rs.decode(cw.flip(*flips))


@pytest.mark.parametrize("params", [
    EccParams(k_sym=2, n_sym=6, bits_per_symbol=4),
    EccParams(k_sym=2, n_sym=7, bits_per_symbol=3),
    EccParams(k_sym=2, n_sym=15, bits_per_symbol=4),
    EccParams(k_sym=2, n_sym=31, bits_per_symbol=5)])
def test_bounded_distance_decoding_matches_brute_force(monkeypatch, params):
    # decode returns the nearest codeword's message when it lies within
    # t_max symbols and raises DecodeFailure otherwise; small fields make
    # zero symbols and zero locator coefficients common
    rs = reed_solomon(params)
    bps, n = params.bits_per_symbol, params.n_sym
    # the locators each decode finishes, in order
    finished = []
    correct = rs._correct

    def recorded(recv, srev, locator):
        finished[-1].append(tuple(locator))
        return correct(recv, srev, locator)
    monkeypatch.setattr(rs, "_correct", recorded)

    def symbols(word):
        return [(word >> (bps * (n - 1 - i))) & ((1 << bps) - 1)
                for i in range(n)]
    book = np.array([symbols(rs.encode(BitString(v, params.data_bits)).value)
                     for v in range(1 << params.data_bits)])
    rng = random.Random(n)
    words = [rng.getrandbits(params.n_bits) for _ in range(2000)]
    for _ in range(1000):
        word = rs.encode(BitString.random(rng, params.data_bits)).value
        for s in rng.sample(range(n), rng.randrange(params.t_max + 3)):
            word ^= rng.randrange(1, 1 << bps) << (bps * (n - 1 - s))
        words.append(word)
    accepted_early = 0
    for word in words:
        dist = (book != symbols(word)).sum(axis=1)
        nearest = int(dist.argmin())
        received = BitString(word, params.n_bits)
        finished.append([])
        if dist[nearest] <= params.t_max:
            assert rs.decode(received).value == nearest
            # a t-error locator is final at step 2t, so one accepted with
            # 2t < nparity was tried before the last step
            accepted_early += any(2 * (len(loc) - 1) < rs.nparity
                                  for loc in finished[-1][-1:])
        else:
            with pytest.raises(DecodeFailure):
                rs.decode(received)
    # no decode finishes the same locator twice
    assert [f for f in finished if len(set(f)) < len(f)] == []
    # both ways an early try ends occur: accepted, and failed then resumed
    assert accepted_early > 0
    assert any(len(f) > 1 for f in finished)


def _gf_mul(a, b, poly, width):
    # shift-and-XOR product modulo the primitive polynomial
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> width:
            a ^= poly
    return out


@pytest.mark.parametrize("width", [3, 4, 8, 12, 16])
def test_mul_scalar_matches_shift_and_xor(width):
    from compgap.ecc import _PRIM_POLY
    rs = reed_solomon(EccParams(k_sym=1, n_sym=3, bits_per_symbol=width))
    poly = (1 << width) | int(rs.exp[width])  # alpha^width = poly - x^width
    assert poly == _PRIM_POLY[width]
    rng = random.Random(width)
    top = (1 << width) - 1
    for s in [0, 1, top] + [rng.randrange(1 << width) for _ in range(20)]:
        vec = [rng.choice((0, 1, top, rng.randrange(1 << width)))
               for _ in range(64)]
        got = rs._mul_scalar(np.array(vec, dtype=np.int64), s)
        assert got.tolist() == [_gf_mul(v, s, poly, width) for v in vec]


@pytest.mark.parametrize("width,poly", [(4, 0x1F), (4, 0x15), (16, 0x16F63)])
def test_non_primitive_polynomial_rejected(monkeypatch, width, poly):
    # 0x1F is irreducible of order 5, 0x15 = (x^2+x+1)^2; neither lets x
    # generate all 15 nonzero elements of GF(16)
    import compgap.ecc as ecc_mod
    monkeypatch.setitem(ecc_mod._PRIM_POLY, width, poly)
    with pytest.raises(ConfigError, match="not primitive"):
        ecc_mod.ReedSolomon(EccParams(k_sym=1, n_sym=3, bits_per_symbol=width))
