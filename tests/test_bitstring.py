import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compgap.bitstring import BitString, concat_all, hamming_distance, pack
from compgap.errors import FormatError, LengthError

bitstrings = st.integers(min_value=1, max_value=96).flatmap(
    lambda n: st.builds(BitString,
                        st.integers(min_value=0, max_value=(1 << n) - 1),
                        st.just(n)))


def test_indexing_is_msb_first():
    x = BitString.from01("1010")
    assert [x[i] for i in range(4)] == [1, 0, 1, 0]


def test_value_range_enforced():
    with pytest.raises(LengthError):
        BitString(4, 2)
    with pytest.raises(LengthError):
        BitString(-1, 2)


def test_concat_places_left_operand_high():
    assert BitString.from01("10").concat(BitString.from01("01")).to01() == "1001"


def test_extract_and_flip():
    x = BitString.from01("110010")
    assert x.extract(1, 3).to01() == "100"
    assert x.flip(0, 5).to01() == "010011"


def test_repeat():
    assert BitString.from01("10").repeat(3).to01() == "101010"


def test_hamming_distance_length_mismatch():
    with pytest.raises(LengthError):
        hamming_distance(BitString(0, 3), BitString(0, 4))


@given(bitstrings)
def test_to01_roundtrip(x):
    assert BitString.from01(x.to01()) == x


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda k: st.builds(BitString,
                        st.integers(min_value=0, max_value=(1 << 8 * k) - 1),
                        st.just(8 * k))))
def test_bytes_roundtrip_preserves_value(x):
    # byte export is defined for whole-byte lengths only
    raw = x.to_bytes()
    assert int.from_bytes(raw, "big") == x.value
    assert len(raw) == x.length // 8


@given(bitstrings, bitstrings)
def test_concat_extract_inverse(a, b):
    c = a.concat(b)
    assert c.extract(0, a.length) == a
    assert c.extract(a.length, b.length) == b


@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=8), st.data())
def test_fields_pack_inverse(width, count, data):
    b = BitString(data.draw(st.integers(min_value=0,
                                        max_value=(1 << width * count) - 1)),
                  width * count)
    fields = b.fields(width)
    assert pack(fields, width) == b
    assert fields == [b.extract(i * width, width).value
                      for i in range(count)]


def test_fields_and_pack_reject_misfits():
    with pytest.raises(LengthError):
        BitString(0, 10).fields(3)
    with pytest.raises(LengthError):
        pack([1, 8], 3)


@given(st.lists(bitstrings, min_size=1, max_size=5))
def test_concat_all_length(parts):
    assert concat_all(parts).length == sum(p.length for p in parts)


@given(bitstrings, st.data())
def test_flip_changes_distance_by_flip_count(x, data):
    k = data.draw(st.integers(min_value=0, max_value=x.length))
    pos = data.draw(st.permutations(range(x.length))).copy()[:k]
    assert hamming_distance(x, x.flip(*pos)) == k


@given(bitstrings, bitstrings)
def test_distance_symmetry(a, b):
    if a.length == b.length:
        assert hamming_distance(a, b) == hamming_distance(b, a)


def test_random_respects_length():
    rng = random.Random(0)
    for n in (1, 7, 64, 200):
        assert BitString.random(rng, n).length == n
