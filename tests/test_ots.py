import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compgap.bitstring import BitString, pack
from compgap.errors import ConfigError, FormatError, PreimageNotFound
from compgap.game import Counters
from compgap.ots import (OtsParams, PreimageIndex, digest, hash_words, kgen,
                         sign, toy_hash, verify)

FIXTURES = Path(__file__).parent / "fixtures"

SMALL = OtsParams(hlen=4, slen=8)


def test_frozen_hash_vectors():
    for line in (FIXTURES / "toy_hash_vectors.txt").read_text().splitlines():
        length, value, out_bits, rounds, expected = map(int, line.split())
        got = toy_hash(BitString(value, length), out_bits, rounds)
        assert got.value == expected, line


def test_hash_words_matches_frozen_vectors():
    checked = 0
    for line in (FIXTURES / "toy_hash_vectors.txt").read_text().splitlines():
        length, value, out_bits, rounds, expected = map(int, line.split())
        if length <= 64 and out_bits <= 64:
            assert int(hash_words([value], length, out_bits, rounds)[0]) \
                == expected, line
            checked += 1
    assert checked >= 20


@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=3), st.data())
def test_hash_words_matches_toy_hash(length, out_bits, rounds, data):
    values = data.draw(st.lists(
        st.integers(min_value=0, max_value=(1 << length) - 1),
        min_size=1, max_size=8))
    got = hash_words(values, length, out_bits, rounds).tolist()
    assert got == [toy_hash(BitString(v, length), out_bits, rounds).value
                   for v in values]


def test_hash_length_sensitivity():
    # same value, different declared lengths, different digests
    a = toy_hash(BitString(1, 8), 32)
    b = toy_hash(BitString(1, 9), 32)
    assert a != b


def test_hash_charges_counter():
    c = Counters()
    toy_hash(BitString(0, 8), 8, counter=c)
    assert c.queries == 1


@given(st.integers(min_value=1, max_value=128), st.data())
def test_hash_deterministic_and_sized(n, data):
    v = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    x = BitString(v, n)
    d1 = toy_hash(x, 16)
    assert d1 == toy_hash(x, 16)
    assert d1.length == 16


def test_sign_verify_roundtrip():
    keys = kgen(SMALL, seed=1)
    msg = BitString(0b1100101, 7)
    sig = sign(keys.sk, msg, SMALL)
    assert verify(keys.vk, msg, sig, SMALL)


def test_verify_rejects_other_message():
    keys = kgen(SMALL, seed=2)
    msg = BitString(0b1100101, 7)
    sig = sign(keys.sk, msg, SMALL)
    other = BitString(0b1100100, 7)
    if digest(other, SMALL) != digest(msg, SMALL):
        assert not verify(keys.vk, other, sig, SMALL)


@given(st.integers(min_value=0, max_value=1000), st.data())
def test_verify_matches_preimage_ground_truth(seed, data):
    # verify accepts iff every revealed preimage hashes to the digest-
    # selected key entry; a short digest makes lucky collisions possible,
    # so the test recomputes the ground truth instead of assuming rejection
    keys = kgen(SMALL, seed=seed)
    msg = BitString(seed % 128, 7)
    bits = sign(keys.sk, msg, SMALL)
    pos = data.draw(st.integers(min_value=0, max_value=bits.length - 1))
    tampered = bits.flip(pos)
    d = digest(msg, SMALL)
    hlen, slen = SMALL.hlen, SMALL.slen
    truth = all(
        toy_hash(tampered.extract(i * slen, slen), hlen)
        == keys.vk.extract((2 * i + d[i]) * hlen, hlen)
        for i in range(hlen))
    assert verify(keys.vk, msg, tampered, SMALL) == truth


def test_key_and_signature_layout():
    # vk field 2i+b is the digest of sk[2i+b]; signature field i is the
    # preimage sk[2i+d[i]] for message digest d
    keys = kgen(SMALL, seed=3)
    hlen, slen = SMALL.hlen, SMALL.slen
    assert keys.vk.length == SMALL.vk_bits and len(keys.sk) == 2 * hlen
    for j, p in enumerate(keys.sk):
        assert keys.vk.extract(j * hlen, hlen) == \
            toy_hash(BitString(p, slen), hlen)
    msg = BitString(5, 7)
    sig, d = sign(keys.sk, msg, SMALL), digest(msg, SMALL)
    assert sig.length == SMALL.sig_bits
    for i in range(hlen):
        assert sig.extract(i * slen, slen).value == keys.sk[2 * i + d[i]]


def test_preimage_index_matches_exhaustive_validity():
    params = OtsParams(hlen=4, slen=8)
    keys = kgen(params, seed=6)
    index = PreimageIndex(params)
    for m in (0, 1, 99):
        msg = BitString(m, 7)
        assert verify(keys.vk, msg, index.forge(keys.vk, msg), params)


@pytest.mark.parametrize("slen,hlen", [(8, 4), (10, 8), (12, 6)])
def test_preimage_index_matches_scalar_table(slen, hlen):
    params = OtsParams(hlen=hlen, slen=slen)
    table = {}
    for p in range(1 << slen):
        table.setdefault(toy_hash(BitString(p, slen), hlen).value, p)
    index = PreimageIndex(params)
    assert index.digests.tolist() == sorted(table)
    assert index.preimages.tolist() == [table[h] for h in sorted(table)]


def test_preimage_index_reports_first_target_without_preimage():
    params = OtsParams(hlen=8, slen=4)  # 16 preimages, 256 digests
    index = PreimageIndex(params)
    have = index.digests.tolist()
    absent = [v for v in range(256) if v not in have]
    # positions 0 and 1 can be forged; 2 and up cannot, and the last
    # target sorts after every digest in the table
    values = have[:2] + absent[:5] + [absent[-1]]
    assert absent[-1] > have[-1]
    vk = pack((v for v in values for _ in (0, 1)), 8)
    msg = BitString(5, 7)
    d = digest(msg, params)
    with pytest.raises(PreimageNotFound,
                       match=rf"^no 4-bit preimage for vk field {4 + d[2]}$"):
        index.forge(vk, msg)


def test_forge_cap_enforced():
    with pytest.raises(ConfigError):
        PreimageIndex(OtsParams(hlen=4, slen=24))


def test_wrong_length_signature_rejected_loudly():
    keys = kgen(SMALL, seed=7)
    msg = BitString(0, 7)
    sig = sign(keys.sk, msg, SMALL)
    for vk, bad in [(keys.vk, BitString(0, 5)),
                    (keys.vk, BitString(0, 3 * SMALL.hlen)),
                    (keys.vk.extract(0, SMALL.vk_bits - 1), sig)]:
        with pytest.raises(FormatError):
            verify(vk, msg, bad, SMALL)


def test_distinct_seeds_distinct_keys():
    assert kgen(SMALL, seed=1) != kgen(SMALL, seed=2)
