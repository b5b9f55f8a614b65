"""The experiment drivers under scripts/ run end to end at a few trials.

Each runs as a child process in an empty working directory, as a user runs
it from a checkout, and must leave a results.csv in every experiment
directory it makes under out/.  `--trials 3` also sets np-forge's bundle
count, so run_forge_batch.py writes 3 bundles per stage, not 250.
bench_record.py runs the benchmark of this checkout once, briefly, in
process, with its acceptance run replaced by a canned result; its summary
parser is checked on a canned summary.
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


# what bench_record.py's acceptance run returns, without running the
# acceptance criteria a second time inside the tier-1 run
CANNED_TIER1 = {"exit": 0, "wall_s": 1.5, "criteria": [
    {"verdict": "PASS", "text": "framework invariants hold", "wall_s": 1.2}]}


def test_bench_record_summarises_a_run(tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    main = runpy.run_path(str(ROOT / "scripts" / "bench_record.py"))["main"]
    main.__globals__["run_acceptance"] = lambda: CANNED_TIER1
    code = main(["--workloads", "c3", "--seeds", "1", "--seconds", "0.5",
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
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
    assert bench["tier1"] == CANNED_TIER1


# the tail of a `pytest -m acceptance` run, as tests/conftest.py prints it
CANNED_SUMMARY = """\
............                                                             [100%]
============================= acceptance criteria ==============================
     3.9 s  [PASS] risk preservation exact at 10^4 trials x 3 noise rates: alpha=0.0: base=0.0000
    12.2 s  [PASS] always-answer classifier: risk 0, forge wins half, guessing none: honest 0.0
   120.0 s  [FAIL] compiled-formula SAT rates track the game oracles: stage1 0.810 vs 0.785
            [PASS] framework invariants hold across generated cases
12 passed, 493 deselected in 71.79s (0:01:11)
"""


def test_bench_record_parses_the_acceptance_summary():
    parse = runpy.run_path(str(ROOT / "scripts" / "bench_record.py"))[
        "parse_acceptance"]
    assert parse(CANNED_SUMMARY) == [
        {"verdict": "PASS", "wall_s": 3.9,
         "text": "risk preservation exact at 10^4 trials x 3 noise rates: "
                 "alpha=0.0: base=0.0000"},
        {"verdict": "PASS", "wall_s": 12.2,
         "text": "always-answer classifier: risk 0, forge wins half, "
                 "guessing none: honest 0.0"},
        {"verdict": "FAIL", "wall_s": 120.0,
         "text": "compiled-formula SAT rates track the game oracles: "
                 "stage1 0.810 vs 0.785"},
        {"verdict": "PASS", "wall_s": None,
         "text": "framework invariants hold across generated cases"},
    ]
    # no section, nothing parsed; the section ends at the next rule
    assert parse("12 passed in 1.0s\n") == []
    assert parse(CANNED_SUMMARY.replace(
        "12 passed", "== short test summary ==\n     1.0 s  [PASS] x: y\n"
        "12 passed")) == parse(CANNED_SUMMARY)
