"""The experiment drivers under scripts/ run end to end at a few trials.

Each runs as a child process in an empty working directory, as a user runs
it from a checkout, and must leave a results.csv in every experiment
directory it makes under out/.  run_forge_batch.py is left out: it sets
only forge.* keys, which the np-forge step of run_all.py already reads,
and its 250 bundles take several seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,dirs", [
    ("run_all.py", {"risk", "adv-risk", "separation", "c3", "forge"}),
    ("run_separation.py", {"separation"}),
])
def test_script_runs(tmp_path, script, dirs):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--trials", "3"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    made = {p.name for p in (tmp_path / "out").iterdir()}
    assert made == dirs
    assert all((tmp_path / "out" / d / "results.csv").is_file() for d in dirs)
