import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compgap.bitstring import BitString
from compgap.circuits import CircuitBuilder, eval_batch
from compgap.cnf import (CnfFormula, at_least, at_most, encode_hamming_ball,
                         read_dimacs, tseitin, write_dimacs)
from compgap.errors import FormatError, ParseError
from compgap.solver import Status, count_projected_models, solve_small


def random_circuit(rng, n_inputs=None):
    n = n_inputs or rng.randrange(2, 9)
    b = CircuitBuilder(n)
    refs = [b.input(i) for i in range(n)]
    for _ in range(rng.randrange(3, 18)):
        op = rng.choice(["and", "or", "xor", "not"])
        x, y = rng.choice(refs), rng.choice(refs)
        if op == "not":
            refs.append(b.not_(x))
        else:
            refs.append(getattr(b, {"and": "and_", "or": "or_",
                                    "xor": "xor"}[op])(x, y))
    out = refs[-1] if not isinstance(refs[-1], bool) else b.input(0)
    return b.build(out)


def test_single_and_gate_clauses():
    b = CircuitBuilder(2)
    c = b.build(b.and_(b.input(0), b.input(1)))
    f = tseitin(c)
    assert f.num_vars == 3  # inputs + gates
    assert sorted(sorted(cl) for cl in f.clauses) == \
        sorted(sorted(cl) for cl in [[-3, 1], [-3, 2], [3, -1, -2]])


def test_variable_count_is_inputs_plus_gates():
    rng = random.Random(1)
    for _ in range(20):
        c = random_circuit(rng)
        assert tseitin(c).num_vars == c.n_inputs + c.n_gates


def test_tseitin_equisatisfiable_with_truth_table():
    rng = random.Random(2)
    for _ in range(60):
        c = random_circuit(rng)
        f = tseitin(c)
        f.add_clause([f.annotations["outputs"][0]])
        xs = [BitString(v, c.n_inputs) for v in range(1 << c.n_inputs)]
        truth = any(eval_batch(c, xs))
        assert (solve_small(f).status is Status.SAT) == truth


def test_empty_clause_refused():
    f = CnfFormula()
    with pytest.raises(FormatError):
        f.add_clause([])


def test_out_of_range_literal_refused():
    f = CnfFormula()
    f.new_var()
    with pytest.raises(FormatError):
        f.add_clause([2])


def test_ball_b0_forces_center():
    f = CnfFormula()
    iv = f.new_vars(5)
    encode_hamming_ball(f, BitString.from01("10110"), iv, 0)
    r = solve_small(f)
    assert [int(r.assignment[v]) for v in iv] == [1, 0, 1, 1, 0]


@pytest.mark.parametrize("n,b", [(6, 2), (5, 0), (5, 5), (8, 3)])
def test_ball_model_count_is_binomial_partial_sum(n, b):
    f = CnfFormula()
    iv = f.new_vars(n)
    center = BitString.random(random.Random(n * 10 + b), n)
    encode_hamming_ball(f, center, iv, b)
    expected = sum(math.comb(n, k) for k in range(b + 1))
    assert count_projected_models(f, iv) == expected


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=40)
def test_at_most_counts(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    f = CnfFormula()
    vs = f.new_vars(n)
    at_most(f, vs, k)
    expected = sum(math.comb(n, j) for j in range(k + 1))
    assert count_projected_models(f, vs) == expected


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=40)
def test_at_least_counts(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    f = CnfFormula()
    vs = f.new_vars(n)
    at_least(f, vs, k)
    expected = sum(math.comb(n, j) for j in range(k, n + 1))
    assert count_projected_models(f, vs) == expected


def random_formula(rng):
    f = CnfFormula()
    n = rng.randrange(1, 15)
    f.new_vars(n)
    for _ in range(rng.randrange(0, 25)):
        width = rng.randrange(1, 4)
        f.add_clause([rng.choice([1, -1]) * rng.randrange(1, n + 1)
                      for _ in range(width)])
    if rng.random() < 0.5:
        f.annotate("inputs", sorted(rng.sample(range(1, n + 1),
                                               rng.randrange(1, n + 1))))
    if rng.random() < 0.5:
        f.branch_order = rng.sample(range(1, n + 1), rng.randrange(0, n + 1))
    if rng.random() < 0.5:
        f.prefer_true = sorted(rng.sample(range(1, n + 1),
                                          rng.randrange(0, n + 1)))
    return f


def test_dimacs_trivial_example():
    f = CnfFormula()
    f.new_vars(2)
    f.add_clause([1, -2])
    assert write_dimacs(f) == "p cnf 2 1\n1 -2 0\n"


def test_dimacs_empty_formula():
    assert write_dimacs(CnfFormula()) == "p cnf 0 0\n"


def test_add_clause_drops_repeats_and_keeps_tautologies():
    f = CnfFormula()
    f.new_vars(3)
    f.add_clause([3, 1, 3, -2])
    f.add_clause([2, -2])
    assert f.clauses == [[3, 1, -2], [2, -2]]
    assert read_dimacs(write_dimacs(f)) == f


def test_dimacs_roundtrip_100_random_formulas():
    rng = random.Random(4)
    for _ in range(100):
        f = random_formula(rng)
        assert read_dimacs(write_dimacs(f)) == f


def test_dimacs_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        read_dimacs("p cnf x 1\n")
    assert e.value.line_no == 1
    with pytest.raises(ParseError):
        read_dimacs("p cnf 2 1\n1 -2\n")  # missing terminator
    with pytest.raises(ParseError):
        read_dimacs("1 0\n")  # clause before header
    with pytest.raises(ParseError):
        read_dimacs("p cnf 2 2\n1 0\n")  # clause count mismatch
    for text, line_no in [("p cnf -3 0\n", 1), ("p cnf 2 -1\n", 1),
                          ("p cnf 2 1\np cnf 3 1\n1 3 0\n", 2)]:
        with pytest.raises(ParseError) as e:
            read_dimacs(text)
        assert e.value.line_no == line_no


@pytest.mark.parametrize("text,error,line_no", [
    ("c anno\np cnf 2 1\n1 2 0\n", ParseError, 1),
    ("c anno inputs 1 x\np cnf 2 1\n1 2 0\n", ParseError, 1),
    ("p cnf 2 1\nc branch 1 two\n1 2 0\n", ParseError, 2),
    ("p cnf 2 1\n1 2 0\nc prefer 1.5\n", ParseError, 3),
    ("c branch 5\np cnf 2 1\n1 2 0\n", FormatError, None),
    ("c prefer 0\np cnf 2 1\n1 2 0\n", FormatError, None),
], ids=["anno-no-role", "anno-text", "branch-text", "prefer-text",
        "branch-range", "prefer-zero"])
def test_dimacs_rejects_malformed_hint_comments(text, error, line_no):
    with pytest.raises(error) as e:
        read_dimacs(text)
    if line_no is not None:
        assert e.value.line_no == line_no
