"""The formula alone counts its variables.

Only `cnf.py` assigns or augments a `.num_vars` attribute or passes
`num_vars=` to a call; every other module gets variables through
`CnfFormula.new_var(s)`, which enforces `cnf.MAX_VARS`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "compgap"


def num_vars_writes(source: str):
    """Line numbers of the module's `<x>.num_vars = / +=` statements and
    its calls that pass `num_vars=`."""
    lines = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            for t in targets:
                lines += [a.lineno for a in ast.walk(t)
                          if isinstance(a, ast.Attribute)
                          and a.attr == "num_vars"]
        elif isinstance(n, ast.Call):
            lines += [n.lineno for kw in n.keywords if kw.arg == "num_vars"]
    return sorted(lines)


def test_checker_flags_num_vars_writes():
    assert num_vars_writes("f.num_vars += 3\nx = f.num_vars\n") == [1]
    assert num_vars_writes("a, f.num_vars = 1, 2\n") == [1]
    assert num_vars_writes("f.num_vars: int = 0\n") == [1]
    assert num_vars_writes("g(1)\nCnfFormula(num_vars=4)\n") == [2]
    assert num_vars_writes("n = f.num_vars + 1\nnum_vars = 2\n") == []


def test_only_cnf_sets_num_vars():
    found = {p.name: num_vars_writes(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.name != "cnf.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
