"""Gate combinators the tests build circuits with.  The library's one
circuit, the majority adder tree, needs none of them."""

from typing import Sequence

from compgap.circuits import CircuitBuilder, Ref


def mux(b: CircuitBuilder, sel: Ref, if0: Ref, if1: Ref) -> Ref:
    return b.xor(if0, b.and_(sel, b.xor(if0, if1)))


def and_all(b: CircuitBuilder, refs: Sequence[Ref]) -> Ref:
    acc: Ref = True
    for r in refs:
        acc = b.and_(acc, r)
    return acc


def xor_all(b: CircuitBuilder, refs: Sequence[Ref]) -> Ref:
    acc: Ref = False
    for r in refs:
        acc = b.xor(acc, r)
    return acc
