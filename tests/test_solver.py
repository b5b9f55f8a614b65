import random

import pytest

from compgap import cnf, solver
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


def test_new_var_past_the_cap_raises(monkeypatch):
    monkeypatch.setattr(cnf, "MAX_VARS", 5)
    f = formula(5, [[1]])
    with pytest.raises(ConfigError, match="more than 5 variables"):
        f.new_var()
    assert f.num_vars == 5


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


def cross_check_random_3cnf(seed, shuffle):
    rng = random.Random(seed)
    for _ in range(500):
        f = formula(12, [[rng.choice([1, -1]) * rng.randrange(1, 13)
                          for _ in range(3)]
                         for _ in range(rng.randrange(10, 70))])
        if shuffle:
            f.branch_order = rng.sample(range(1, 13), 12)
            f.prefer_true = rng.sample(range(1, 13), 6)
        r = solve_small(f)
        assert r.status in (Status.SAT, Status.UNSAT)
        assert (r.status is Status.SAT) == \
            (solve_enumerate(f).status is Status.SAT)
        if r.status is Status.SAT:
            assert check_model(f, r.assignment)


def test_cross_check_500_random_3cnf_at_12_vars():
    cross_check_random_3cnf(1, shuffle=False)


def record_learning(monkeypatch):
    """Wrap conflict analysis; each entry is (conflict level, learned
    clause, variables of the units learned before it)."""
    log = []
    analyze = solver._Cdcl.analyze

    def recorded(self, confl, lvl):
        fixed = {abs(u) for u in self.units}
        learnt = analyze(self, confl, lvl)
        log.append((lvl, learnt, fixed))
        return learnt

    monkeypatch.setattr(solver._Cdcl, "analyze", recorded)
    return log


def test_cross_check_500_random_3cnf_with_random_branch_order(monkeypatch):
    log = record_learning(monkeypatch)
    cross_check_random_3cnf(3, shuffle=True)
    # units learned deep in the search, asserted without unwinding it
    assert sum(len(c) == 1 and lvl > 1 for lvl, c, _ in log) >= 10
    # a learned unit is a level-0 fact: it never enters a later clause
    assert all(abs(lit) not in fixed for _, c, fixed in log for lit in c)


def test_learned_units_that_contradict_give_unsat(monkeypatch):
    # variables 1-3 only open levels; x = 4 is refuted both ways
    log = record_learning(monkeypatch)
    f = formula(6, [[4, 5], [4, -5], [-4, 6], [-4, -6]])
    f.branch_order = [1, 2, 3, 4]
    assert solve_small(f).status is Status.UNSAT
    # x learned at level 4, then -6 at level 3; together they falsify
    # [-4, 6], a conflict with only level-0 literals
    assert [(lvl, c) for lvl, c, _ in log] == [(4, [4]), (3, [-6])]


def test_unit_learned_at_level_1(monkeypatch):
    # the unit undoes level 1, the only open level
    log = record_learning(monkeypatch)
    f = formula(2, [[1, 2], [1, -2]])
    f.branch_order = [1, 2]
    r = solve_small(f)
    assert r.status is Status.SAT and r.assignment[1] is True
    assert [(lvl, c) for lvl, c, _ in log] == [(1, [1])]


def test_conflict_of_learned_units_is_analyzed_at_its_own_level(
        monkeypatch):
    # r = 1 is decided false at level 1; 2 and 3 only open levels; u = 4
    # is learned true at level 4 and reasserted at level 3, where it
    # implies p = 6 through [6, -4, 1]; p is refuted there and learned
    # false at level 3, and at level 2 the units u and -p falsify
    # [6, -4, 1], whose only non-fact literal is r, at level 1
    log = record_learning(monkeypatch)
    f = formula(7, [[4, 5], [4, -5], [6, -4, 1], [-6, 7], [-6, -7]])
    f.branch_order = [1, 2, 3, 4]
    r = solve_small(f)
    assert r.status is Status.SAT and check_model(f, r.assignment)
    assert [(lvl, c) for lvl, c, _ in log] == [(4, [4]), (3, [-6]), (1, [1])]


def test_unsat_block_does_not_re_decide_the_block_before_it(monkeypatch):
    """Two blocks behind selectors 1 and 5, as sample_s2 builds them.
    Block 2 is a pigeonhole formula, unsatisfiable under its selector, so
    the search learns units there; block 1 must stay decided."""
    decided = []
    decide = solver._Cdcl.decide

    def recorded(self):
        opened = decide(self)
        if opened:
            decided.append(abs(self.trail[-1]))
        return opened

    monkeypatch.setattr(solver._Cdcl, "decide", recorded)
    php = pigeonhole(2)
    f = formula(5 + php.num_vars, [[-1, 2, 3], [-1, -2, 4], [-1, 3, -4]])
    for c in php.clauses:
        f.add_clause([-5] + [lit + 5 if lit > 0 else lit - 5 for lit in c])
    f.branch_order = list(range(1, f.num_vars + 1))
    f.prefer_true = [1, 5]
    r = solve_small(f)
    assert r.status is Status.SAT and check_model(f, r.assignment)
    assert r.assignment[1] and not r.assignment[5]
    block1 = [v for v in decided if v <= 4]
    assert block1 and len(block1) == len(set(block1))


def pigeonhole(holes):
    """PHP(holes+1, holes): variable i*holes+j+1 puts pigeon i in hole j.
    Unsatisfiable, and unit propagation alone does not refute it."""
    def x(i, j):
        return i * holes + j + 1
    pigeons = range(holes + 1)
    clauses = [[x(i, j) for j in range(holes)] for i in pigeons]
    clauses += [[-x(i, j), -x(k, j)] for j in range(holes)
                for i in pigeons for k in pigeons if i < k]
    return formula((holes + 1) * holes, clauses)


@pytest.mark.parametrize("holes", [3, 4])
def test_pigeonhole_is_refuted_by_learning(holes, monkeypatch):
    f = pigeonhole(holes)
    assert solve_enumerate(f).status is Status.UNSAT
    assert solve_small(f).status is Status.UNSAT
    # so the refutation above went through conflict analysis, learning
    # and backjumping
    monkeypatch.setattr(solver, "DEFAULT_CONFLICT_BUDGET", 0)
    assert solve_small(f).status is Status.UNKNOWN


def test_budget_does_not_limit_a_formula_decided_without_conflicts(
        monkeypatch):
    monkeypatch.setattr(solver, "DEFAULT_CONFLICT_BUDGET", 0)
    assert solve_small(formula(2, [[1, 2], [-1]])).status is Status.SAT
    assert solve_small(formula(1, [[1], [-1]])).status is Status.UNSAT


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


def test_projected_count_refuses_an_undecided_solve(monkeypatch):
    # an UNKNOWN must not be counted as a missing model
    monkeypatch.setattr(solver, "DEFAULT_CONFLICT_BUDGET", 0)
    with pytest.raises(ConfigError, match="conflict budget"):
        count_projected_models(pigeonhole(3), [1, 2])
