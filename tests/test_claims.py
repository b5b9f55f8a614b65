"""docs/claims.md names real code: every function and test in its table
exists, and every oracle-check line it quotes passes."""

import importlib
import re
from pathlib import Path

from compgap.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _rows():
    """(claim, realised by, held by, value) of each row of the table."""
    lines = (ROOT / "docs" / "claims.md").read_text().splitlines()
    table = [line for line in lines if line.startswith("| ")][1:]
    return [[c.strip() for c in line.strip("|").split("|")] for line in table]


def test_claims_table_names_what_exists(tmp_path, capsys):
    rows = _rows()
    assert len(rows) == 6
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    quoted = []
    for claim, realised, held, value in rows:
        functions = re.findall(r"`([\w.]+)`", realised)
        tests = re.findall(r"`(test_\w+)`", held)
        assert functions and tests and value, claim
        for name in functions:
            module, *attrs = name.split(".")
            obj = importlib.import_module(f"compgap.{module}")
            for attr in attrs:
                obj = getattr(obj, attr)
            assert callable(obj), name
        for test in tests:
            assert f"\ndef {test}(" in acceptance, test
        quoted += re.findall(r'"([^"]+)"', held)
    assert main(["oracle-check", "--out", str(tmp_path / "o")]) == 0
    passed = capsys.readouterr().out.splitlines()
    assert quoted and all(f"[PASS] {line}" in passed for line in quoted)
