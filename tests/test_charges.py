"""Attackers alone decide what a query costs, and the game alone what
giving up means.

Every `.charge(` call in `src/compgap` is in `attackers.py`, and `ots`
never names `Counters`: the hash and the verifier count nothing.
`attackers.py` has no `try` statement: an attacker gives up by raising, and
`play_game` plays the untampered instance.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "compgap"


def charge_calls(source: str):
    """Line numbers of the module's `<anything>.charge(...)` calls."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call)
                  and isinstance(n.func, ast.Attribute)
                  and n.func.attr == "charge")


def names_counters(source: str) -> bool:
    """Whether the module imports, names or reads an attribute `Counters`."""
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.alias) and n.name == "Counters" \
                or isinstance(n, ast.Name) and n.id == "Counters" \
                or isinstance(n, ast.Attribute) and n.attr == "Counters":
            return True
    return False


def try_statements(source: str):
    """Line numbers of the module's `try` statements."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, (ast.Try, ast.TryStar)))


def test_checkers_flag_charges_and_counters():
    assert charge_calls("c.charge()\nx = 1\nself.c.charge(3)\n") == [1, 3]
    assert charge_calls("def charge(self, n):\n    pass\n") == []
    assert names_counters("from .game import Counters\n")
    assert names_counters("import compgap.game as g\ng.Counters()\n")
    assert not names_counters("counters = None\n")
    assert try_statements("x = 1\ntry:\n    f()\nexcept E:\n    pass\n") \
        == [2]
    assert try_statements("try:\n    f()\nexcept* E:\n    pass\n") == [1]
    assert try_statements("def f():\n    pass\n") == []


def test_only_attackers_charge_queries():
    found = {p.name: charge_calls(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.name != "attackers.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_attackers_catch_nothing():
    source = (SRC / "attackers.py").read_text(encoding="utf-8")
    assert try_statements(source) == []


def test_ots_knows_no_counter():
    assert not names_counters((SRC / "ots.py").read_text(encoding="utf-8"))
