#!/usr/bin/env python3
"""Run a fixed list of source mutants against the fast test loop.

    python3 scripts/mutants.py

Each mutant is one string edit (file, old, new) of a file under
src/compgap.  For each, the script copies this checkout to a fresh
temporary directory, makes the edit there (never here), runs the fast loop
(`pytest -x -m "not acceptance"`) on the copy under a per-mutant timeout
of TIMEOUT seconds, and prints killed, survived or timed out, with the
first failing test of a killed mutant.  Before the mutants it runs the
unmutated copy once, which must pass, or every mutant would read as killed.

A survivor is either a gap in the tests or an equivalent mutant, one no
input can tell from the original; docs/mutants.md says which for each.
The list grows with each change that adds a check.  One run takes several
minutes, about 40 s per survivor on a 2-core VM, so no test runs it;
tests/test_scripts.py checks only that each `old` occurs exactly once in
its file (a test each mutant's run leaves out, by a node id the script
checks before any run).  Exit code 1 when a mutant survived or timed out,
2 when the unmutated copy fails.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300.0  # seconds one mutant's fast loop may take

# (file under src/compgap, old, new): each old occurs once in its file
MUTANTS = [
    # the conflict budget: a solve may analyze exactly `budget` conflicts
    ("solver.py", "if conflicts >= budget:", "if conflicts > budget:"),
    # the noise rate: a label flips with probability alpha, not more
    ("base_problems.py", "rng.random() < params.alpha",
     "rng.random() <= params.alpha"),
    # the trial cap is inclusive
    ("config.py", "if not 1 <= count <= MAX_TRIALS:",
     "if not 1 <= count <= MAX_TRIALS + 1:"),
    # Berlekamp-Massey's early try at L = t_max
    ("ecc.py", "tried < L <= t_max:", "tried < L < t_max:"),
    # the acceptance check: a codeword exactly t_max symbols away is kept
    ("ecc.py", "!= recv) > p.t_max:", "!= recv) >= p.t_max:"),
    # Chien searches every message symbol, the last one too
    ("ecc.py", ":len(locator) - 1, :self.params.k_sym]",
     ":len(locator) - 1, :self.params.k_sym - 1]"),
    # the query-bounded forgers' last affordable guess
    ("attackers.py", "(cost > counters.budget - counters.queries)",
     "(cost >= counters.budget - counters.queries)"),
    # the game: a tamper at exactly the budget is allowed
    ("game.py", "if dist > budget:", "if dist >= budget:"),
    # the game: STAR on a tampered input is a loss
    ("game.py", "return GameOutcome(False, Reason.DETECTED_STAR",
     "return GameOutcome(True, Reason.DETECTED_STAR"),
    # a query budget is spent at exactly `budget` queries
    ("game.py", "self.queries + n > self.budget",
     "self.queries + n >= self.budget"),
    # the Wald interval's 95% constant
    ("game.py", "return 1.96 * math.sqrt", "return 1.64 * math.sqrt"),
    # ots.verify checks every field
    ("ots.py", "for i, t in enumerate(want):",
     "for i, t in enumerate(want[:-1]):"),
    # analytic_adv_risk's last reachable count of ones
    ("base_problems.py", "min(d, (d + 2 * b) // 2) + 1",
     "min(d, (d + 2 * b) // 2)"),
    # at_most's register chain: s[i-1][j] implies s[i][j]
    ("cnf.py", "            f.add_clause([-regs[i - 1][j], regs[i][j]])\n",
     ""),
    # GATES: one flipped literal in AND's clauses
    ("circuits.py", "((-1, 2), (-1, 3), (1, -2, -3))",
     "((-1, 2), (-1, 3), (1, 2, -3))"),
    # GATES: OR's lane function swapped for XOR's
    ("circuits.py", '"OR": Gate(lambda a, b, mask: a | b',
     '"OR": Gate(lambda a, b, mask: a ^ b'),
    # C3's repunit: sig_bits + 1 slots, not sig_bits
    ("constructions.py", "(1 << (ell + 1) * ell)", "(1 << ell * ell)"),
    # C1's classifier: STAR when the signature does not verify
    ("constructions.py", "            return STAR\n        return base_h",
     "            return base_h(inst.x)\n        return base_h"),
]

# fails on every mutant, whose old string is gone from the copy's file
_SITES_TEST = ("tests/test_scripts.py::"
               "test_each_mutant_edits_one_site_that_exists")

# what a copy leaves out: version control, caches and run outputs
_SKIP = shutil.ignore_patterns(".git", ".perfbench-out", "out", "__pycache__",
                               ".hypothesis", ".pytest_cache", ".benchmarks")


def label(n, mutant):
    file, old, new = mutant
    old, new = (s.strip().splitlines()[0] if s.strip() else "(deleted)"
                for s in (old, new))
    return f"#{n} {file}: {old} -> {new}"


def run_copy(mutant):
    """(verdict, first failing test or '', seconds) of the fast loop on a
    fresh copy of this checkout with `mutant` applied (None: unmutated)."""
    with tempfile.TemporaryDirectory(prefix="compgap-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        if mutant is not None:
            file, old, new = mutant
            path = tree / "src" / "compgap" / file
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{file}: the old string occurs "
                                 f"{text.count(old)} times, not once")
            path.write_text(text.replace(old, new))
        start = time.monotonic()
        # a session of its own, so that a timeout stops the children too
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-m",
             "not acceptance", "-p", "no:cacheprovider", "--deselect",
             _SITES_TEST],
            cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True,
            env={**os.environ, "PYTHONPATH": str(tree / "src")})
        try:
            out, _ = proc.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timed out", "", time.monotonic() - start
        finally:
            if proc.poll() is None:  # timed out, or this script interrupted
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        wall = time.monotonic() - start
    if proc.returncode == 0:
        return "survived", "", wall
    failed = [line.split(" - ")[0].split(" ", 1)[1]
              for line in out.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return "killed", failed[0] if failed else out.strip()[-200:], wall


def main():
    # a stale node id deselects nothing, and the site test would then fail
    # on every mutant, which would read as killed
    file, name = _SITES_TEST.split("::")
    if f"\ndef {name}(" not in (ROOT / file).read_text():
        raise SystemExit(f"{_SITES_TEST} names no test; update _SITES_TEST")
    verdict, test, wall = run_copy(None)
    verdict = "passed" if verdict == "survived" else verdict
    print(f"unmutated copy: {verdict} in {wall:.1f} s {test}".rstrip(),
          flush=True)
    if verdict != "passed":
        return 2
    counts = {"killed": 0, "survived": 0, "timed out": 0}
    for n, mutant in enumerate(MUTANTS, 1):
        verdict, test, wall = run_copy(mutant)
        counts[verdict] += 1
        print(f"{verdict:9} {wall:6.1f} s  {label(n, mutant)}"
              + (f"\n{'':19}by {test}" if test else ""), flush=True)
    print(", ".join(f"{v} {k}" for k, v in counts.items()))
    return 1 if counts["survived"] or counts["timed out"] else 0


if __name__ == "__main__":
    sys.exit(main())
