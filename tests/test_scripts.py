"""The experiment drivers under scripts/ run end to end at a few trials.

Each runs as a child process in an empty working directory, as a user runs
it from a checkout, and must leave a results.csv in every experiment
directory it makes under out/.  `--trials 3` also sets np-forge's bundle
count, so run_forge_batch.py writes 3 bundles per stage, not 250.
bench_record.py runs the benchmark of this checkout once, briefly.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,dirs", [
    ("run_all.py", {"risk", "adv-risk", "separation", "c3", "forge"}),
    ("run_separation.py", {"separation"}),
    ("run_forge_batch.py", {"forge-s1", "forge-s2"}),
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
    if script == "run_all.py":  # every --out a step names is made
        steps = runpy.run_path(str(ROOT / "scripts" / script))["STEPS"]
        assert {s[s.index("--out") + 1] for s in steps if "--out" in s} \
            == {f"out/{d}" for d in dirs}



def test_bench_record_summarises_a_run(tmp_path):
    out = tmp_path / "BENCH.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"),
         "--workloads", "c3", "--seeds", "1", "--seconds", "0.5",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    bench = json.loads(out.read_text())
    assert bench["nproc"] >= 1 and bench["python"] and bench["numpy"]
    assert bench["seeds"] == [1] and list(bench["workloads"]) == ["c3"]
    c3 = bench["workloads"]["c3"]
    assert set(c3["metrics"]) == {"ops_per_ref_s", "setup_s", "peak_rss_mb",
                                  "verified_fraction"}
    assert c3["metrics"]["verified_fraction"] == {
        "unit": "fraction", "median": 1.0, "iqr": 0.0, "runs": [1.0]}
    run, = c3["runs"]
    assert run["seed"] == 1 and run["exit"] == 0
    assert run["host_speed"] > 0 and len(run["digest"]) == 64
    # one traced run per workload, at the first seed, with the per-layer
    # metrics that show where the time went
    trace = c3["trace"]
    assert trace["seed"] == 1 and trace["exit"] == 0
    assert len(trace["digest"]) == 64
    for name in ("ecc.encode.self_s", "layer.ecc.self_s",
                 "trace.overhead"):
        assert trace["metrics"][name]["value"] >= 0
    assert trace["metrics"]["ecc.encode.calls"]["value"] > 0
