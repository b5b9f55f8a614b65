import pytest

from compgap.base_problems import majority
from compgap.bitstring import BitString
from compgap.circuits import (BoolCircuit, CircuitBuilder, circuit_of_majority,
                              eval_batch, eval_circuit)
from compgap.errors import ConfigError, FormatError


def test_not_gate_sanity():
    b = CircuitBuilder(1)
    c = b.build(b.not_(b.input(0)))
    assert eval_circuit(c, BitString(0, 1)) == 1
    assert eval_circuit(c, BitString(1, 1)) == 0


def test_xor_chain_is_parity():
    b = CircuitBuilder(8)
    c = b.build(b.xor_all([b.input(i) for i in range(8)]))
    for v in range(256):
        x = BitString(v, 8)
        assert eval_circuit(c, x) == x.ones() % 2


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9, 11])
def test_majority_circuit_exhaustive(d):
    c = circuit_of_majority(d)
    xs = [BitString(v, d) for v in range(1 << d)]
    for label, x in zip(eval_batch(c, xs), xs):
        assert label == majority(x)


def test_majority_rejects_bad_d():
    with pytest.raises(ConfigError):
        circuit_of_majority(4)


def test_gate_validation():
    with pytest.raises(FormatError):
        BoolCircuit(2, (("AND", 0, 5),), 0)
    with pytest.raises(FormatError):
        BoolCircuit(2, (("NAND", 0, 1),), 0)
    with pytest.raises(FormatError):
        BoolCircuit(2, (("AND", 0, 1),), 3)  # wires are 0..2
    with pytest.raises(FormatError):
        BoolCircuit(2, (("AND", 0, 1),), -1)


def test_eval_rejects_wrong_input_length():
    c = circuit_of_majority(3)
    with pytest.raises(FormatError):
        eval_batch(c, [BitString(0, 3), BitString(0, 4)])


def test_builder_constant_folding():
    b = CircuitBuilder(2)
    assert b.and_(True, True) is True
    assert b.and_(False, b.input(0)) is False
    assert b.xor(b.input(0), b.input(0)) is False
    assert b.or_(b.input(1), True) is True


def test_constant_output_materialized():
    b = CircuitBuilder(1)
    for const in (True, False):
        c = b.build(const)
        for v in (0, 1):
            assert eval_circuit(c, BitString(v, 1)) == const
