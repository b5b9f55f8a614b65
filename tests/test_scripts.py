"""The experiment drivers under scripts/ run end to end at a few trials.

Each runs as a child process in an empty working directory, as a user runs
it from a checkout, and must leave a results.csv in every experiment
directory it makes under out/.  `--trials 3` also sets np-forge's bundle
count, so run_forge_batch.py writes 3 bundles per stage, not 250.
bench_record.py runs the benchmark of this checkout once, briefly, in
process, with its acceptance run replaced by a canned result; its summary
parser is checked on a canned summary.  bench_pairs.py runs on canned
perfbench results, so no test starts a benchmark run of a second checkout.
No test runs mutants.py's mutants; one checks that each edit's site exists.
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


# the other end-to-end metrics of each canned run
OTHER = {"parent": {"setup_s": 0.1, "peak_rss_mb": 42.0,
                    "verified_fraction": 1.0},
         "change": {"setup_s": 0.2, "peak_rss_mb": 41.0,
                    "verified_fraction": 1.0}}


def canned_result(checkout, metrics, code=0):
    """bench_record.run_one's answer: exit code, JSON result, record."""
    return code, {"metrics": {m: {"value": v} for m, v in metrics.items()}}, \
        {"digest": "d" * 64}


def canned_runs(values):
    """A stand-in for bench_pairs.py's run_one: each run reads the next of
    `values` for its side, and every call is recorded."""
    calls = []

    def run_one(workload, seed, seconds=None, trace=0, checkout=ROOT):
        side = "change" if checkout == ROOT else "parent"
        calls.append((side, workload, seed, seconds, trace))
        return canned_result(checkout, {
            "ops_per_ref_s": values[side].pop(0), **OTHER[side]})

    return run_one, calls


def bench_pairs_main():
    return runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))["main"]


def bench_pairs(values, argv):
    main = bench_pairs_main()
    run_one, calls = canned_runs(values)
    main.__globals__["run_one"] = run_one
    return main(["--parent", "/elsewhere", "--workload", "np_forge",
                 *argv]), calls


def test_bench_pairs_alternates_and_applies_the_claim_rule(capsys):
    parent = [32.0, 32.5, 31.5, 33.0, 32.2, 31.8, 32.1, 32.9, 31.9, 32.4]
    change = [36.0, 36.5, 35.5, 37.0, 36.2, 31.0, 36.1, 36.9, 35.9, 36.4]
    code, calls = bench_pairs({"parent": list(parent),
                               "change": list(change)}, [])
    assert code == 0
    # seeds 1..10, the parent first at odd seeds, untraced, for
    # perfbench's default length
    assert [c[:3] for c in calls[:4]] == [
        ("parent", "np_forge", 1), ("change", "np_forge", 1),
        ("change", "np_forge", 2), ("parent", "np_forge", 2)]
    assert len(calls) == 20 and {c[3:] for c in calls} == {(None, 0)}
    out = capsys.readouterr().out
    assert "seed 1 (parent first), parent/change: ops_per_ref_s 32/36, " \
        "setup_s 0.1/0.2, peak_rss_mb 42/41, verified_fraction 1/1; " \
        "digests equal" in out
    assert "seed 6 (change first)" in out
    # one pair lost: 9 of 10 won, and the gap passes the parent's IQR
    assert "ops_per_ref_s (higher is better): parent median 32.15, " \
        "quartiles 31.925 .. 32.475; change median 36.15, quartiles " \
        "35.925 .. 36.475; the change won 9 of 10 pairs; a gain may be " \
        "claimed" in out
    # every end-to-end metric gets its verdict, in its own direction
    setup = next(line for line in out.splitlines()
                 if line.startswith("setup_s "))
    assert setup.startswith("setup_s (lower is better): parent median 0.1")
    assert setup.endswith("won 0 of 10 pairs; a gain may not be claimed")
    assert "peak_rss_mb (lower is better): parent median 42, quartiles " \
        "42 .. 42; change median 41, quartiles 41 .. 41; the change won 10 " \
        "of 10 pairs; a gain may be claimed" in out


@pytest.mark.parametrize("change,won", [
    ([33.0, 33.5, 32.5, 34.0, 33.2, 31.0, 31.0, 33.9, 32.9, 33.4], 8),
    # every pair won, by less than the parent's IQR
    ([32.1, 32.6, 31.6, 33.1, 32.3, 31.9, 32.2, 33.0, 32.0, 32.5], 10),
    # ties count for neither side
    ([32.0, 32.5, 31.5, 33.0, 32.2, 31.8, 32.1, 32.9, 31.9, 32.4], 0),
])
def test_bench_pairs_refuses_a_claim(change, won, capsys):
    parent = [32.0, 32.5, 31.5, 33.0, 32.2, 31.8, 32.1, 32.9, 31.9, 32.4]
    code, _ = bench_pairs({"parent": parent, "change": change}, [])
    assert code == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("ops_per_ref_s "))
    assert line.endswith(f"won {won} of 10 pairs; a gain may not be claimed")


def test_bench_pairs_reads_the_metric_direction(capsys):
    # setup_s: lower is better, so a change that reads lower wins
    main = bench_pairs_main()
    main.__globals__["run_one"] = lambda w, seed, checkout: canned_result(
        checkout, {**OTHER["parent"], "ops_per_ref_s": 1.0,
                   "setup_s": 0.1 if checkout == ROOT else 0.2})
    assert main(["--parent", "/elsewhere", "--workload", "c3", "--seeds",
                 "1", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    setup = next(line for line in out if line.startswith("setup_s "))
    assert setup.startswith("setup_s (lower is better)")
    assert setup.endswith("the change won 2 of 2 pairs; a gain may be claimed")
    # a run that failed makes the script exit 1
    main.__globals__["run_one"] = lambda w, seed, checkout: canned_result(
        checkout, {**OTHER["parent"], "ops_per_ref_s": 1.0},
        code=int(checkout == ROOT))
    assert main(["--parent", "/elsewhere", "--workload", "c3", "--seeds",
                 "1"]) == 1


def test_each_mutant_edits_one_site_that_exists():
    """mutants.py's list cannot go stale unnoticed: each old string occurs
    exactly once in its file, and each edit changes it.  The script's runs
    deselect this test by its node id."""
    script = runpy.run_path(str(ROOT / "scripts" / "mutants.py"))
    assert script["_SITES_TEST"] == (
        "tests/test_scripts.py::test_each_mutant_edits_one_site_that_exists")
    mutants = script["MUTANTS"]
    assert mutants
    for file, old, new in mutants:
        text = (ROOT / "src" / "compgap" / file).read_text()
        assert text.count(old) == 1, (file, old)
        assert old != new
