import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from compgap.bitstring import BitString, pack
from compgap.errors import ConfigError, FormatError, PreimageNotFound
from compgap.game import GOLDEN, MUL1, MUL2
from compgap.ots import (INIT, ROUNDS, TABLE_BITS, OtsParams, PreimageIndex,
                         _table, digest, first_miss, hash_words, kgen,
                         mix_words, sign, targets, toy_hash, verify)

FIXTURES = Path(__file__).parent / "fixtures"

SMALL = OtsParams(hlen=4, slen=8)


def want_for(vk, msg, params=SMALL):
    return targets(vk, digest(msg, params), params)


def _vectors():
    """Each frozen vector's line and its length, value, out_bits, rounds
    and expected digest."""
    for line in (FIXTURES / "toy_hash_vectors.txt").read_text().splitlines():
        yield (line, *map(int, line.split()))


def test_frozen_hash_vectors():
    # the spec's mixer at every round count the vectors use; the lab's
    # hash at ROUNDS
    for line, length, value, out_bits, rounds, expected in _vectors():
        assert mix_words(value, length, out_bits, rounds) == expected, line
        if rounds == ROUNDS:
            got = toy_hash(BitString(value, length), out_bits)
            assert got.value == expected, line


def test_hash_words_matches_frozen_vectors():
    checked = 0
    for line, length, value, out_bits, rounds, expected in _vectors():
        if length <= 64:
            words = np.array([value], dtype=np.uint64)
            assert int(mix_words(words, length, out_bits, rounds)[0]) \
                == expected, line
            if rounds == ROUNDS:
                assert int(hash_words([value], length, out_bits)[0]) \
                    == expected, line
            checked += 1
    assert checked >= 20


@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=64), st.data())
def test_hash_words_matches_toy_hash(length, out_bits, data):
    values = data.draw(st.lists(
        st.integers(min_value=0, max_value=(1 << length) - 1),
        min_size=1, max_size=8))
    got = hash_words(values, length, out_bits).tolist()
    assert got == [toy_hash(BitString(v, length), out_bits).value
                   for v in values]


@given(st.integers(min_value=1, max_value=TABLE_BITS),
       st.integers(min_value=1, max_value=64), st.data())
def test_table_reads_match_the_computed_hash(length, out_bits, data):
    # up to TABLE_BITS bits both forms read the table; the int path of
    # mix_words computes each digest without it
    values = data.draw(st.lists(
        st.integers(min_value=0, max_value=(1 << length) - 1),
        min_size=1, max_size=8))
    want = [mix_words(v, length, out_bits, ROUNDS) for v in values]
    assert hash_words(values, length, out_bits).tolist() == want
    assert [toy_hash(BitString(v, length), out_bits).value
            for v in values] == want


# the table's corners at its widest input and output, which the drawn
# cases above need not reach
@pytest.mark.parametrize("value", [0, 1, 0x5A5A, (1 << TABLE_BITS) - 1])
def test_table_matches_the_computed_hash_at_the_corners(value):
    want = mix_words(value, TABLE_BITS, 64, ROUNDS)
    assert toy_hash(BitString(value, TABLE_BITS), 64).value == want
    assert hash_words([value], TABLE_BITS, 64)[0] == want


U64_MAX = np.array([(1 << 64) - 1], dtype=np.uint64)


@pytest.mark.parametrize("length", [8, TABLE_BITS, TABLE_BITS + 1, 40])
def test_hash_words_rejects_values_outside_length(length):
    # on the table path and the computed one; a uint64 of 2^64 - 1 would
    # index the table at -1 were it let through
    for bad in ([1 << length], [0, -1], [1 << 64], U64_MAX):
        with pytest.raises(FormatError):
            hash_words(bad, length, 8)


def test_hash_words_range_ends():
    with pytest.raises(FormatError):
        hash_words([300], 8, 8)
    for bad in ([-1], [1 << 64]):
        with pytest.raises(FormatError):
            hash_words(bad, 64, 8)
    assert hash_words(U64_MAX, 64, 8).size == 1
    assert hash_words([], 8, 8).size == 0


def test_table_cache_holds_at_most_its_bound():
    bound = _table.cache_info().maxsize
    for out_bits in range(1, bound + 5):
        hash_words([1], 4, out_bits)
    assert _table.cache_info().currsize == bound


def test_table_reads_are_copies():
    got = hash_words([1, 2], 8, 8)
    got[:] = 0
    assert hash_words([1, 2], 8, 8).tolist() == \
        [mix_words(v, 8, 8, ROUNDS) for v in (1, 2)]
    with pytest.raises(ValueError):
        _table(8, 8)[0] = 0


def test_the_lab_hashes_at_two_rounds():
    assert ROUNDS == 2
    assert OtsParams.__slots__ == ("hlen", "slen")


def test_hash_length_sensitivity():
    # same value, different declared lengths, different digests
    a = toy_hash(BitString(1, 8), 32)
    b = toy_hash(BitString(1, 9), 32)
    assert a != b


@pytest.mark.parametrize("out_bits", [0, 65])
def test_hash_output_is_one_word(out_bits):
    with pytest.raises(FormatError):
        toy_hash(BitString(1, 8), out_bits)
    with pytest.raises(FormatError):
        hash_words([1], 8, out_bits)


def test_spec_constants_match_code():
    spec = (Path(__file__).parents[1] / "docs" / "toy_hash.md").read_text()
    block = spec.split("## Constants", 1)[1].split("```")[1]
    consts = {name.strip(): int(value, 16) for name, value in
              (line.split("=") for line in block.strip().splitlines())}
    assert consts == {"GOLDEN": GOLDEN, "INIT": INIT, "MUL1": MUL1,
                      "MUL2": MUL2}


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
    assert verify(sig, want_for(keys.vk, msg), SMALL)


def test_verify_rejects_other_message():
    keys = kgen(SMALL, seed=2)
    msg = BitString(0b1100101, 7)
    sig = sign(keys.sk, msg, SMALL)
    other = BitString(0b1100100, 7)
    if digest(other, SMALL) != digest(msg, SMALL):
        assert not verify(sig, want_for(keys.vk, other), SMALL)


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
    assert verify(tampered, want_for(keys.vk, msg), SMALL) == truth


@pytest.mark.parametrize("seed", [4, 5])
def test_first_miss_finds_the_first_field_that_misses(seed):
    # fields 0..k-1 hit and field k misses: k; all hit: hlen
    keys = kgen(SMALL, seed=seed)
    msg = BitString(seed, 7)
    sig, want = sign(keys.sk, msg, SMALL), want_for(keys.vk, msg)
    fields = sig.fields(SMALL.slen)
    miss = next(p for p in range(1 << SMALL.slen)
                if toy_hash(BitString(p, SMALL.slen), SMALL.hlen).value
                not in want)
    for k in range(SMALL.hlen):
        bad = pack(fields[:k] + [miss] + fields[k + 1:], SMALL.slen)
        assert first_miss(bad, want, SMALL) == k
        assert not verify(bad, want, SMALL)
    assert first_miss(sig, want, SMALL) == SMALL.hlen
    assert verify(sig, want, SMALL)


def _first_miss_by_fields(sig, want, params):
    """first_miss as toy_hash of one extracted field at a time."""
    for i, t in enumerate(want):
        field = sig.extract(i * params.slen, params.slen)
        if toy_hash(field, params.hlen).value != t:
            return i
    return params.hlen


# slen 8 and 16 read the table, 17 and up mix
@pytest.mark.parametrize("slen", [8, TABLE_BITS, 17, 33, 64])
def test_first_miss_matches_field_by_field_hashing(slen):
    params = OtsParams(hlen=5, slen=slen)
    rng, ones = random.Random(slen), (1 << slen) - 1
    for fields in ([ones] * 5, [0, ones, 1, ones - 1, ones],
                   [rng.getrandbits(slen) for _ in range(5)]):
        # targets from the array path, which shares no code with hash_int
        sig, want = pack(fields, slen), hash_words(fields, slen, 5).tolist()
        # every field hits, then a miss at each index
        for k in range(6):
            bad = want[:k] + [want[k] ^ 1] + want[k + 1:] if k < 5 else want
            assert first_miss(sig, bad, params) == k == \
                _first_miss_by_fields(sig, bad, params)
    with pytest.raises(FormatError, match="signature must be"):
        first_miss(BitString(0, 5 * slen - 1), want, params)
    with pytest.raises(FormatError, match="need 5 targets"):
        first_miss(sig, want[:-1], params)


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
        want = want_for(keys.vk, msg, params)
        assert verify(index.forge(want), want, params)


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
    want = have[:2] + absent[:5] + [absent[-1]]
    assert absent[-1] > have[-1]
    with pytest.raises(PreimageNotFound,
                       match=r"^no 4-bit preimage for target 2$"):
        index.forge(want)


def test_forge_cap_enforced():
    with pytest.raises(ConfigError):
        PreimageIndex(OtsParams(hlen=4, slen=24))


def test_wrong_length_signature_rejected_loudly():
    keys = kgen(SMALL, seed=7)
    msg = BitString(0, 7)
    sig, want = sign(keys.sk, msg, SMALL), want_for(keys.vk, msg)
    for bad in (BitString(0, 5), BitString(0, 3 * SMALL.hlen)):
        with pytest.raises(FormatError):
            verify(bad, want, SMALL)
    with pytest.raises(FormatError):
        targets(keys.vk.extract(0, SMALL.vk_bits - 1), digest(msg, SMALL),
                SMALL)
    # a short target list must not check only a prefix of the signature
    with pytest.raises(FormatError):
        verify(sig, want[:-1], SMALL)
    with pytest.raises(FormatError):
        PreimageIndex(SMALL).forge(want[:-1])


def test_distinct_seeds_distinct_keys():
    assert kgen(SMALL, seed=1) != kgen(SMALL, seed=2)
