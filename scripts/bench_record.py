#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics at several seeds in one file.

    python3 scripts/bench_record.py --out BENCH_<n>.json [--seconds 10]
        [--workloads W ...] [--seeds 1 2 3 4]

Runs `perfbench/run.py --trace 0` of this checkout once per workload and
seed, then one `--trace 1` run per workload at the first seed, one run at
a time, and then `pytest -m acceptance` once.
The last stdout line of each run is its JSON result, and
`.perfbench-out/<w>-<s>-trace<t>/record.json` holds the run's outcome
digest and, untraced, the host's speed.  The output file holds nproc,
the Python and numpy versions and the git revision the runs report, and
whether tracked files differed from that revision; per workload, the
median and interquartile range of each end-to-end metric; per run, its
exit code, host_speed and outcome digest; and under `trace`, the traced
run's exit code, digest and per-layer metrics (such as `ecc.encode.self_s`
and `layer.ecc.self_s`), which show where a change moved the time; and
under `tier1`, the acceptance run's exit code and wall time and each
criterion's verdict, text and wall time, parsed from the "acceptance
criteria" section that tests/conftest.py prints.  A host that ran slow shows in
host_speed; a commit that changed what the lab computes shows in the
digests.  The script exits 1 when any run or criterion failed.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("separation", "c3", "rs_decode", "np_forge")


def quartiles(values):
    """(first quartile, median, third quartile), inclusive quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(values):
    """Median and interquartile range of the runs."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "iqr": q3 - q1, "runs": values}


def uncommitted_changes():
    """Whether tracked files differ from HEAD; None without git."""
    try:
        done = subprocess.run(["git", "status", "--porcelain",
                               "--untracked-files=no"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def run_one(workload, seed, seconds=None, trace=0, checkout=ROOT):
    """One perfbench run of `checkout`, for perfbench's default length
    when seconds is None: (exit code, its JSON result, its record.json)."""
    length = [] if seconds is None else ["--seconds", str(seconds)]
    done = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), *length,
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} trace {trace} "
                         f"printed nothing:\n{done.stderr}")
    record = checkout / ".perfbench-out" / \
        f"{workload}-{seed}-trace{trace}" / "record.json"
    return done.returncode, json.loads(lines[-1]), \
        json.loads(record.read_text())


# a line of the "acceptance criteria" section: the criterion's wall time
# (blank when it was not measured), its verdict and its verdict text, whose
# name and measurements no separator tells apart (names hold ": " too)
_CRITERION = re.compile(r"^\s*(?:([0-9.]+) s)?\s+\[(PASS|FAIL)\] (.*)$")


def parse_acceptance(summary):
    """The criteria of a pytest terminal summary, in printed order: each
    one's verdict, verdict text and wall time in seconds (None when not
    printed)."""
    lines = summary.splitlines()
    try:
        start = next(i for i, line in enumerate(lines)
                     if re.fullmatch(r"=+ acceptance criteria =+", line))
    except StopIteration:
        return []
    criteria = []
    for line in lines[start + 1:]:
        if line.startswith("="):
            break
        m = _CRITERION.match(line)
        if m:
            criteria.append({"verdict": m[2], "text": m[3],
                             "wall_s": float(m[1]) if m[1] else None})
    return criteria


def run_acceptance():
    """Run the acceptance criteria once: their exit code, wall time and
    parsed criteria."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-m",
                           "acceptance", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    return {"exit": done.returncode,
            "wall_s": round(time.perf_counter() - t0, 1),
            "criteria": parse_acceptance(done.stdout)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                    choices=WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4])
    args = ap.parse_args(argv)

    host, workloads, failed = {}, {}, False
    for w in args.workloads:
        runs, metrics = [], {}
        for seed in args.seeds:
            code, result, record = run_one(w, seed, args.seconds)
            failed |= code != 0
            host = {k: record[k]
                    for k in ("nproc", "python", "numpy", "git_revision")}
            runs.append({"seed": seed, "exit": code,
                         "host_speed": record["host_speed"],
                         "digest": record["digest"]})
            for name, m in result["metrics"].items():
                metrics.setdefault(name, (m["unit"], []))[1].append(
                    m["value"])
            print(f"{w} seed {seed}: exit {code}, ops_per_ref_s "
                  f"{result['metrics']['ops_per_ref_s']['value']:.6g}",
                  file=sys.stderr)
        code, result, record = run_one(w, args.seeds[0], args.seconds,
                                       trace=1)
        failed |= code != 0
        print(f"{w} seed {args.seeds[0]} traced: exit {code}",
              file=sys.stderr)
        workloads[w] = {
            "metrics": {name: {"unit": unit, **spread(values)}
                        for name, (unit, values) in metrics.items()},
            "runs": runs,
            "trace": {"seed": args.seeds[0], "exit": code,
                      "digest": record["digest"],
                      "metrics": result["metrics"]}}
    bench = {**host, "uncommitted_changes": uncommitted_changes(),
             "seconds": args.seconds, "seeds": args.seeds,
             "workloads": workloads}
    tier1 = bench["tier1"] = run_acceptance()
    failed |= tier1["exit"] != 0 or not tier1["criteria"] or any(
        c["verdict"] != "PASS" for c in tier1["criteria"])
    print(f"acceptance: exit {tier1['exit']}, "
          f"{len(tier1['criteria'])} criteria in {tier1['wall_s']} s",
          file=sys.stderr)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
