import random

import pytest

from compgap.cnf import CnfFormula
from compgap.errors import ConfigError
from compgap.solver import (Status, count_projected_models, solve_enumerate,
                            solve_small)


def formula(n, clauses, **kw):
    f = CnfFormula()
    f.new_vars(n)
    for c in clauses:
        f.add_clause(c)
    for k, v in kw.items():
        setattr(f, k, v)
    return f


def check_model(f, assignment):
    return all(any(assignment[abs(l)] == (l > 0) for l in c)
               for c in f.clauses)


def test_contradiction_is_unsat():
    assert solve_small(formula(1, [[1], [-1]])).status is Status.UNSAT


def test_unit_propagation_finds_model():
    r = solve_small(formula(2, [[1, 2], [-1]]))
    assert r.status is Status.SAT and r.assignment[2] is True


def test_empty_formula_sat():
    assert solve_small(formula(0, [])).status is Status.SAT


def test_cap_exceeded():
    f = formula(10, [[1]])
    assert solve_small(f, var_cap=5).status is Status.CAP_EXCEEDED


def test_model_is_actually_a_model():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randrange(3, 14)
        f = formula(n, [[rng.choice([1, -1]) * rng.randrange(1, n + 1)
                         for _ in range(3)]
                        for _ in range(rng.randrange(5, 40))])
        r = solve_small(f)
        if r.status is Status.SAT:
            assert check_model(f, r.assignment)


def test_cross_check_500_random_3cnf_at_12_vars():
    rng = random.Random(1)
    for _ in range(500):
        f = formula(12, [[rng.choice([1, -1]) * rng.randrange(1, 13)
                          for _ in range(3)]
                         for _ in range(rng.randrange(10, 70))])
        assert (solve_small(f).status is Status.SAT) == \
            (solve_enumerate(f).status is Status.SAT)


def test_branch_hints_do_not_change_verdict():
    rng = random.Random(2)
    for _ in range(50):
        f = formula(10, [[rng.choice([1, -1]) * rng.randrange(1, 11)
                          for _ in range(3)]
                         for _ in range(rng.randrange(10, 40))])
        plain = solve_small(f).status
        f.branch_order = rng.sample(range(1, 11), 10)
        f.prefer_true = rng.sample(range(1, 11), 5)
        assert solve_small(f).status is plain


def test_tautological_clause_ignored():
    r = solve_small(formula(2, [[1, -1], [2]]))
    assert r.status is Status.SAT and r.assignment[2] is True


def test_enumeration_cap():
    with pytest.raises(ConfigError):
        solve_enumerate(formula(25, [[1]]))


def test_projected_count_with_free_auxiliaries():
    # aux var 3 unconstrained: projecting onto 1, 2 does not double count
    f = formula(3, [[1, 2]])
    assert count_projected_models(f, [1, 2]) == 3
